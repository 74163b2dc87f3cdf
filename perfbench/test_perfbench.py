"""Self-tests of the benchmark at tiny size: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from cfk.builders import cable_exponents, torus_knot_exponents  # noqa: E402
from cfk.complexes import parse  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def test_exponent_table_matches_the_builders():
    for name, exponents in workloads.KNOTS.items():
        if ";" in name:  # T(p,q;r,s): the (r,s)-cable of T(p,q)
            p, q, r, s = map(int, name[2:-1].replace(";", ",").split(","))
            want = cable_exponents(torus_knot_exponents(p, q), r, s)
        else:
            p, q = map(int, name[2:-1].split(","))
            want = torus_knot_exponents(p, q)
        assert exponents == want.exponents, name


def test_ladders_stay_in_their_bands_and_hold_both_signs():
    bands = {"report-wide": ((225, 820), (0, 20)), "report-genus": ((200, 510), (40, 110))}
    for workload, ((n_lo, n_hi), (g_lo, g_hi)) in bands.items():
        ladder = workloads.report_ladder(workload, 0)
        assert {r.epsilon for r in ladder} >= {1, -1}
        for report in ladder:
            c = parse(report.text)
            assert n_lo <= len(c.generators) <= n_hi, report.slot
            assert g_lo <= c.genus_bound <= g_hi, report.slot
        assert ladder == workloads.report_ladder(workload, 0)
        assert ladder != workloads.report_ladder(workload, 0, 1)


def test_every_metric_is_emitted_with_its_unit():
    e2e, layers = _units(SPEC["end_to_end"]), _units(SPEC["per_layer"])
    assert layers == dict(tracing.PER_LAYER)
    for workload in ("report-wide", "suite"):
        plain = run.benchmark(workload, 0, 0.1, trace=False, tiny=True)
        traced = run.benchmark(workload, 0, 0.1, trace=True, tiny=True)
        for result, want in ((plain, e2e), (traced, layers)):
            assert result["correct"] and result["failed"] == 0
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(traced["metrics"][f"suite.prop.{p}.s"]["value"] > 0 for p in tracing.PROPERTIES)


def test_a_wrong_expectation_counts_as_failed():
    ladder = workloads.report_ladder("tiny", 0)
    ladder[0] = dataclasses.replace(ladder[0], tau=ladder[0].tau + 1)
    records = run.run_ops(run.report_op, ladder, trace=False)
    assert [r["slot"] for r in records if r["problem"]] == [ladder[0].slot]
    ok_frac = run.e2e_metrics(records, [0.1])["ok_frac"]["value"]
    assert ok_frac == 1 - 1 / len(ladder)

    workdir = run.HERE / ".work" / f"test-{os.getpid()}"
    try:
        (item,), _ = run.timed_setup("suite", 0, 0, True, workdir)
        item.cases += 1
        (record,) = run.run_ops(run.suite_op, [item], trace=False)
        assert "cases" in record["problem"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_traced_outputs_equal_untraced_outputs():
    for report in workloads.report_ladder("tiny", 3):
        plain = run.run_forked(run.report_op, report, trace=False)
        traced = run.run_forked(run.report_op, report, trace=True)
        assert plain["output"] == traced["output"]
        assert run.check(report, plain["output"]) is None
        assert traced["trace"]["calls"]["complexes.parse"] == 1
    records = run.run_ops(run.report_op, workloads.report_ladder("tiny", 3), trace=True)
    assert not any(r["problem"] for r in records)


def _report_twice(report) -> list[float]:
    times = []
    for _ in range(2):
        start = time.perf_counter()
        run.report_op(report)
        times.append(time.perf_counter() - start)
    return times


def test_fork_gives_cold_caches():
    report = workloads.build_report("pos343", ("T(2,7)", "T(2,7)", "T(2,7)"))
    first, repeat = run.run_forked(_report_twice, report, trace=False)["output"]
    others = [run.run_forked(run.report_op, report, trace=False)["elapsed"] for _ in range(2)]
    assert repeat < first / 5  # the in-process caches serve the repeat
    assert min(others) > first / 2  # a fresh fork starts cold again


def test_without_sources_it_fails_without_a_result():
    bare = run.HERE / ".work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "suite", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
