import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfk import cli, suite
from cfk.cli import main
from cfk.builders import build_library
from cfk.complexes import parse, serialize
from cfk.invariants import meridian_filtration

from oracles import hook_step


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "T(2,9)" in out.splitlines()


def test_invariants_table(capsys):
    code, out, _ = run(capsys, "invariants", "--knot", "T(2,9)")
    assert code == 0
    rows = {line.split()[0]: line.split()[-1] for line in out.splitlines()}
    assert rows["a1"] == "1"
    assert rows["tau"] == "4"


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", "--knot", "4_1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["a1"] == 0 and data["epsilon"] == 0


def test_a1_surgery_unknot(capsys):
    code, out, _ = run(capsys, "a1", "--knot", "unknot", "--method", "surgery", "--n", "1")
    assert code == 0
    assert out.strip() == "0"


def test_a1_both_methods(capsys):
    # mirror names begin with a dash, so they need the --knot=NAME form
    code, out, _ = run(capsys, "a1", "--knot=-T(2,3;2,5)")
    assert code == 0
    assert out.strip() == "-1"


def test_filtration_values(capsys):
    # at m = -1 and n = 1 the arm point at i = -2 saturates to step -1
    for m, n in ((0, 3), (-1, 1)):
        code, out, _ = run(capsys, "filtration", "--knot", "T(2,3)", "--m", str(m),
                           "--n", str(n), "--format", "json")
        assert code == 0
        rows = json.loads(out)
        for row in rows:
            level = meridian_filtration(row["i"], row["j"], m, n)
            assert (row["first"], row["second"]) == (level.first, level.second)
            assert row["second"] == hook_step(row["i"], n)
            assert "step" not in row  # the step level is the second coordinate
    assert any(row["second"] != row["i"] for row in rows)


def test_tensor_emits_complex(capsys):
    code, out, _ = run(capsys, "tensor", "--knot", "T(2,3)", "--knot", "T(2,9)")
    assert code == 0
    c = parse(out)
    assert len(c.generators) == 27


def test_mirror_emits_complex(capsys):
    code, out, _ = run(capsys, "mirror", "--knot", "T(2,3)")
    assert code == 0
    assert parse(out) == build_library()["-T(2,3)"]


def test_staircase_matches_library(capsys):
    code, out, _ = run(capsys, "staircase", "--torus", "2,9")
    assert code == 0
    assert out == serialize(build_library()["T(2,9)"])
    code, out, _ = run(capsys, "staircase", "--cable", "2,3;2,5")
    assert code == 0
    assert out == serialize(build_library()["T(2,3;2,5)"])


def test_staircase_exponents(capsys):
    code, out, _ = run(capsys, "staircase", "--exponents", "4,3,0,-3,-4")
    assert code == 0
    assert parse(out) == build_library()["T(2,3;2,5)"]


def test_staircase_flag_conflicts(capsys):
    code, _, err = run(capsys, "staircase", "--torus", "2,9", "--exponents", "1,0,-1")
    assert code == 1
    assert "exactly one" in err


def test_realize_debug_output(capsys):
    code, out, _ = run(capsys, "realize", "--knot", "T(2,3)", "--region", "hook:0")
    assert code == 0
    assert "3 basis points" in out
    assert "  [b1,0,0] -> [b0,-1,0] + [b2,0,-1]\n" in out  # targets in ascending basis order
    assert "homology dimension 1" in out


REGION_HEADERS = [
    ("T(2,9)", "vslice:0", "region {i=0}: 9 basis points"),
    ("T(2,9)", "vclip:0,2", "region {i=0, j<=2}: 7 basis points"),
    ("T(2,9)", "hook:-1", "region {max(i,j+1)=0}: 9 basis points"),
    ("T(2,9)", "hookclip:-1,-4", "region {max(i,j+1)=0, i>=-4}: 8 basis points"),
    ("T(2,9)", "lhook:1", "region {min(i,j-1)=0}: 9 basis points"),
    ("T(2,9)", "lhook:-2", "region {min(i,j+2)=0}: 9 basis points"),
    ("T(2,9)", "lhookclip:1,2", "region {min(i,j-1)=0, i<=2}: 6 basis points"),
    ("T(2,3)", "vclip:0,-1", "region {i=0, j<=-1}: 1 basis point"),  # b2 alone
]


@pytest.mark.parametrize("knot, spec, header", REGION_HEADERS,
                         ids=[f"{spec}-{header}" for _, spec, header in REGION_HEADERS])
def test_realize_every_region_kind(capsys, knot, spec, header):
    code, out, _ = run(capsys, "realize", "--knot", knot, "--region", spec)
    assert code == 0
    assert out.splitlines()[0] == header


@pytest.mark.parametrize("spec", ["vclip:1", "hook:1,2", "hook:x", "bogus:1"])
def test_realize_bad_region(capsys, spec):
    code, _, err = run(capsys, "realize", "--knot", "T(2,3)", "--region", spec)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    # an arity hint names an example that is itself accepted
    _, found, example = err.strip().partition(", e.g. ")
    if found:
        assert run(capsys, "realize", "--knot", "T(2,3)", "--region", example)[0] == 0


def test_validate_good_and_bad(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(serialize(build_library()["T(2,3)"]))
    code, out, _ = run(capsys, "validate", "--file", str(good))
    assert code == 0
    assert "valid" in out

    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"name": "bad", "generators": [{"id": "a", "alexander": 2},'
        ' {"id": "b", "alexander": 1}, {"id": "c", "alexander": 0}],'
        ' "differential": [{"from": "a", "to": "b", "upower": 0},'
        ' {"from": "b", "to": "c", "upower": 0}]}'
    )
    code, out, _ = run(capsys, "validate", "--file", str(bad))
    assert code == 1
    assert "FAIL d-squared" in out


def test_unknown_knot(capsys):
    code, _, err = run(capsys, "invariants", "--knot", "T(9,9)")
    assert code == 1
    assert "unknown knot" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "invariants", "--file", "/no/such/file.json")
    assert code == 1
    assert "error" in err


# staircase specs of the wrong form: the error names the option and its form
MALFORMED_SPECS = [
    ("staircase", "--torus", "2"),
    ("staircase", "--torus", "2,3,4"),
    ("staircase", "--cable", "2,3"),
    ("staircase", "--exponents", ""),
]


@pytest.mark.parametrize("argv", [
    ("a1", "--knot", "T(2,3)", "--n", "2"),
    ("filtration", "--knot", "T(2,3)", "--m", "0", "--n", "0"),
    ("staircase", "--torus", "2,4"),
    ("staircase", "--cable", "2,3;-1,5"),
    *MALFORMED_SPECS,
])
def test_parameter_errors_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "unpack" not in err and "invalid literal" not in err
    if argv in MALFORMED_SPECS:
        assert f"error: {argv[1]} takes " in err


@pytest.mark.parametrize("below, bound, above", [
    ("2,3;2,1", 2, "2,3;2,3"),
    ("2,3;3,2", 3, "2,3;3,4"),
    ("2,5;2,5", 6, "2,5;2,7"),
])
def test_cable_below_the_l_space_bound_exits_1(capsys, below, bound, above):
    # for R >= 2 the (R,S)-cable of an L-space knot of genus g is one only
    # when S >= R(2g - 1); below it no staircase may bear the cable's name
    code, out, err = run(capsys, "staircase", "--cable", below)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"S >= R(2g - 1) = {bound}" in err
    assert run(capsys, "staircase", "--cable", above)[0] == 0


def test_point_readers_realize_nothing(capsys, monkeypatch):
    # cfk filtration and step-level-consistency read the unclipped hook's
    # points off the gradings: it holds every generator once, in generator
    # order, so neither realizes a region
    calls = []

    def counted(*args, real=cli.realize):
        calls.append(args)
        return real(*args)

    for module in (cli, suite):
        monkeypatch.setattr(module, "realize", counted)
    code, out, _ = run(capsys, "filtration", "--knot", "T(2,9)", "--m", "0", "--n", "2",
                       "--format", "json")
    assert code == 0
    generators = build_library()["T(2,9)"].generators
    assert [row["gen"] for row in json.loads(out)] == [g.id for g in generators]
    cases, failures = suite.prop_step_level_consistency(suite.SuiteContext(5))
    assert cases > 0 and not failures
    assert calls == []


@pytest.mark.parametrize("option", ["--torus", "--cable"])
@pytest.mark.parametrize("joined", [False, True])
def test_negative_parameter_exits_1_however_spelled(capsys, option, joined):
    # a value with a leading minus sign must not read as an option (exit 2)
    value = "-1,3" if option == "--torus" else "-1,3;2,5"
    argv = [f"{option}={value}"] if joined else [option, value]
    code, out, err = run(capsys, "staircase", *argv)
    assert (code, out) == (1, "")
    assert err == "error: need positive parameters, got (-1, 3)\n"


@pytest.mark.parametrize("argv", [
    ("suite", "--seeds", "50"),
    ("realize", "--knot", "T(2,9)", "--region", "hookclip:1,0"),
])
def test_closed_pipe_exits_1_quietly(argv):
    # the reader closes its end before the first write, so the write fails
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-m", "cfk", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_bare_value_error_is_a_bug_not_an_error_line(capsys, monkeypatch):
    def broken():
        raise ValueError("not a cfk error")

    monkeypatch.setattr(cli, "library_names", broken)
    with pytest.raises(ValueError, match="not a cfk error"):
        main(["list"])
    assert "error:" not in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_deterministic_output(capsys):
    first = run(capsys, "invariants", "--knot", "T(4,5)", "--format", "json")
    second = run(capsys, "invariants", "--knot", "T(4,5)", "--format", "json")
    assert first == second


def test_suite_passes(capsys):
    code, out, _ = run(capsys, "suite", "--seeds", "3")
    assert code == 0
    assert "suite PASS" in out


def test_suite_stdout_pinned(capsys, cold_caches):
    # the same 500-seed stdout hash that CI's stdlib-only job checks; a
    # change to the suite's output updates both in the same commit
    code, out, _ = run(capsys, "suite", "--seeds", "500")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "b1d7dd8dab9c33ce9abc57f37b6890ec84c81c2995d2bebcff00e6cb8a4aa90c"


@pytest.mark.parametrize("count", ["-1", "-500", "x", "1.5"])
def test_suite_bad_seed_count_is_usage_error(capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--seeds", count])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""  # the suite never ran
    assert "--seeds" in out.err and "Traceback" not in out.err


def test_suite_unreadable_extra_file(capsys, tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run(capsys, "suite", "--seeds", "1", str(path))
        assert code == 1
        assert out == ""  # the suite never ran
        assert err.startswith("error: cannot read ") and "Traceback" not in err


def test_suite_corrupt_fixture_names_d_squared(capsys, tmp_path):
    # invalid extras are reported by validate and kept out of every other
    # property, so the run completes; a valid extra still counts everywhere
    bad = tmp_path / "corrupt.json"
    bad.write_text(
        '{"name": "corrupt", "generators": [{"id": "a", "alexander": 2},'
        ' {"id": "b", "alexander": 1}, {"id": "c", "alexander": 0}],'
        ' "differential": [{"from": "a", "to": "b", "upower": 0},'
        ' {"from": "b", "to": "c", "upower": 0}]}'
    )
    rising = tmp_path / "rising.json"
    rising.write_text(
        '{"name": "rising", "generators": [{"id": "a", "alexander": 0},'
        ' {"id": "b", "alexander": 1}], "differential": [{"from": "a", "to": "b", "upower": 0}]}'
    )
    good = tmp_path / "good.json"
    good.write_text(serialize(build_library()["T(2,3)"]))
    code, out, err = run(capsys, "suite", "--seeds", "2", str(bad), str(rising), str(good))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL validate (2 of 14 cases)"
    assert "d-squared" in out and "alexander-rule" in out
    assert "ok   round-trip (12 cases)" in lines
    assert "ok   box-neutrality (9 cases)" in lines
    assert lines[-1] == "suite FAIL"
    assert "error:" not in out + err and "Traceback" not in err
