"""Mutated library JSON and drawn parameters through the CLI: every run ends
in exit 0, 1 or 2.

A mutation shifts or overwrites a grading or U power (with integers or
values of the wrong type), drops or duplicates a generator or an entry,
removes a field, adds an entry between two generators, or replaces a whole
list.  Each mutated file goes through validate, invariants, a1, realize and
filtration; anything but a clean exit (a traceback, a bare exception) fails.
The cable staircase builder gets four drawn integers in [-3, 12].  Inputs
whose genus is far above the builders' bound run in a child process with a
time limit and an address-space cap, and must stop with an error line.
"""

import contextlib
import copy
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cfk
from cfk.builders import build_library
from cfk.cli import main
from cfk.complexes import serialize

LIBRARY = [json.loads(serialize(c)) for c in build_library().values()]

KEYS = ("id", "alexander", "maslov", "from", "to", "upower")

WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.just({}),
)

VALUES = st.one_of(st.integers(-4, 4), st.integers(-(10**12), 10**12), WRONG_TYPES)

MUTATIONS = st.tuples(
    st.sampled_from(["shift", "set", "unset", "drop", "copy", "link", "replace"]),
    st.sampled_from(["generators", "differential"]),
    st.integers(0, 12),  # item index, taken modulo the list length
    st.sampled_from(KEYS),
    VALUES,
)

COMMANDS = st.lists(
    st.sampled_from([
        ["validate"],
        ["invariants", "--format", "json"],
        ["a1", "--method", "both"],
        ["realize", "--region", "hook:0"],
        ["realize", "--region", "lhookclip:1,0"],
        ["filtration", "--m", "0", "--n", "1"],
    ]),
    min_size=1,
    max_size=3,
    unique_by=tuple,
)


def _gen_id(data: dict, n: int):
    gens = data["generators"]
    if isinstance(gens, list) and gens and isinstance(gens[n % len(gens)], dict):
        return gens[n % len(gens)].get("id")
    return None


def mutate(data: dict, kind: str, part: str, k: int, key: str, value) -> None:
    if kind == "replace":
        data[part] = value
        return
    if kind == "link":  # a new entry between the k-th and another generator
        other = value if isinstance(value, int) else 0
        if isinstance(data["differential"], list):
            data["differential"].append(
                {"from": _gen_id(data, k), "to": _gen_id(data, other), "upower": abs(other) % 3}
            )
        return
    items = data[part]
    if not isinstance(items, list) or not items:
        return
    item = items[k % len(items)]
    if kind == "drop":
        del items[k % len(items)]
    elif kind == "copy":
        items.append(copy.deepcopy(item))
    elif not isinstance(item, dict):
        return
    elif kind == "shift":
        if isinstance(item.get(key), int) and isinstance(value, int):
            item[key] += value
    elif kind == "set":
        item[key] = value
    else:  # unset
        item.pop(key, None)


def run(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(range(len(LIBRARY))),
    mutations=st.lists(MUTATIONS, min_size=1, max_size=4),
    commands=COMMANDS,
)
def test_mutated_json_exits_cleanly(base, mutations, commands):
    data = copy.deepcopy(LIBRARY[base])
    for m in mutations:
        mutate(data, *m)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for argv in commands:
            code = run(argv + ["--file", path])
            assert code in (0, 1, 2), (argv, data)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(params=st.lists(st.integers(-3, 12), min_size=4, max_size=4))
def test_cable_staircase_exits_cleanly(params):
    p, q, r, s = params
    assert run(["staircase", "--cable", f"{p},{q};{r},{s}"]) in (0, 1, 2)


HUGE = {"name": "huge", "generators": [{"id": "a", "alexander": 10**15, "maslov": 0}],
        "differential": []}


def _cap_memory():  # in the child only: an unbounded build fails fast instead
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("argv", [
    ["staircase", "--cable", "2,3;200000,400001"],
    ["staircase", "--torus", "30000,30001"],
    ["suite", "--seeds", "1", "huge.json"],
])
def test_oversized_inputs_stop_with_an_error_line(tmp_path, argv):
    # a one-generator file with A = 10^15 is valid, but the suite's per-m
    # loops would run over [-g, g]; the builders would allocate by genus
    (tmp_path / "huge.json").write_text(json.dumps(HUGE), encoding="utf-8")
    src = str(Path(cfk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys; from cfk.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "genus" in proc.stderr
    assert "Traceback" not in proc.stderr
