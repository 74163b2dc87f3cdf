"""Benchmark of cfk: cold invariant reports and the property suite.

    python3 perfbench/run.py --workload report-wide --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Workloads (see perfbench/README.md): ``report-wide``, ``report-genus``,
``suite``.  One op runs at a time.  A run is made of whole passes over the
workload's inputs; each pass is a fresh process that imports cfk and builds
the inputs, and runs each op in a fresh fork of itself, before any
invariant was computed, so every op starts with cold caches, as a CLI call
does.  Every output is checked; the last line of stdout is one JSON object.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it runs every op twice, untraced and traced, checks that both give the
same output, and reports per-layer self times and counts per op.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("report-wide", "report-genus", "suite")
RUN_LIMIT_S = 170  # a run that is not done by then is stopped and fails


@dataclass
class SuiteInput:
    """One suite op: the extra files and the case count run_suite must report."""

    seeds: int
    paths: list[str]
    cases: int


def timed_setup(workload: str, seed: int, index: int, tiny: bool, workdir: Path):
    """Import cfk, build and serialize the inputs of pass ``index``; return
    them and the time taken."""
    start = time.perf_counter()
    import cfk  # noqa: F401  (timed: the first import in this process)

    import workloads

    if workload == "suite":
        import cfk.suite  # noqa: F401  (the op process would import it otherwise)

        texts = workloads.suite_extras(seed, index)
        seeds = 2 if tiny else workloads.SUITE_SEEDS
        paths = workloads.write_extras(texts, str(workdir))
        items = [SuiteInput(seeds, paths, workloads.expected_suite_cases(seeds, texts))]
    else:
        items = workloads.report_ladder("tiny" if tiny else workload, seed, index)
    return items, time.perf_counter() - start


def report_op(item) -> dict:
    from cfk.complexes import parse, validate
    from cfk.invariants import invariants

    c = parse(item.text)
    validate(c).raise_on_error()
    return invariants(c).as_dict()


def suite_op(item: SuiteInput) -> dict:
    from cfk.suite import run_suite

    lines: list[str] = []
    ok = run_suite(seed_count=item.seeds, extra_files=item.paths, emit=lines.append)
    return {"ok": ok, "lines": lines}


def check(item, output: dict) -> str | None:
    """What is wrong with an op's output, or None."""
    if isinstance(item, SuiteInput):
        if not output["ok"]:
            return "run_suite reported a failing property"
        cases = sum(_case_count(line) for line in output["lines"])
        if cases != item.cases:
            return f"run_suite checked {cases} cases, expected {item.cases}"
        return None
    want = {"tau": item.tau, "epsilon": item.epsilon, "a1": item.a1, "a1_surgery": item.a1}
    wrong = [
        f"{k} {output[k]} != {v}" for k, v in want.items() if v is not None and output[k] != v
    ]
    if output["a1_surgery"] != output["a1"] or output["epsilon"] not in (-1, 0, 1):
        wrong.append(f"inconsistent report {output}")
    return f"{item.slot}: {'; '.join(wrong)}" if wrong else None


def _case_count(line: str) -> int:
    # "ok   name (N cases)" or "FAIL name (k of N cases)"
    if not line.endswith(" cases)"):
        return 0
    return int(line[: -len(" cases)")].rsplit(" ", 1)[1].lstrip("("))


def _child(op, item, trace: bool) -> dict:
    recorder = None
    if trace:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    start = time.perf_counter()
    try:
        reply = {"output": op(item)}
    except Exception as err:  # a failing op is a result: it counts as failed
        reply = {"error": f"{type(err).__name__}: {err}"}
    reply["elapsed"] = time.perf_counter() - start
    if recorder is not None:
        reply["trace"] = recorder.snapshot()
    return reply


def run_forked(op, item, trace: bool) -> dict:
    """Run one op in a fresh fork; add its peak resident memory in MB."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(_child(op, item, trace), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        return {"error": f"op process ended with status {status}"}
    reply = json.loads(data)
    reply["rss_mb"] = usage.ru_maxrss / 1024
    return reply


def run_ops(op, items, trace: bool, index: int = 0) -> list[dict]:
    """Run each item in a fresh fork; with trace, twice: untraced and traced.

    Each record holds the op time, the peak memory and what was wrong with
    the output (None if nothing).
    """
    records = []
    for k, item in enumerate(items):
        slot = getattr(item, "slot", "suite")
        if not trace:
            reply = run_forked(op, item, trace=False)
            problem = reply.get("error") or check(item, reply["output"])
            records.append({"slot": slot, "problem": problem, "elapsed": reply.get("elapsed"),
                            "rss_mb": reply.get("rss_mb")})
            continue
        # alternate which of the two runs first, so drift cancels out
        order = (False, True) if (index + k) % 2 == 0 else (True, False)
        replies = {t: run_forked(op, item, trace=t) for t in order}
        plain, traced = replies[False], replies[True]
        problem = plain.get("error") or traced.get("error") or check(item, plain["output"])
        if not problem and plain["output"] != traced["output"]:
            problem = "traced output differs from the untraced output"
        records.append({"slot": slot, "problem": problem, "elapsed": plain.get("elapsed"),
                        "traced_elapsed": traced.get("elapsed"), "trace": traced.get("trace")})
    return records


def one_pass(workload: str, seed: int, index: int, trace: bool, tiny: bool) -> dict:
    """Set up in this process, then run every input of the workload once."""
    workdir = HERE / ".work" / str(os.getpid())
    try:
        items, setup = timed_setup(workload, seed, index, tiny, workdir)
        op = suite_op if workload == "suite" else report_op
        return {"setup_s": setup, "records": run_ops(op, items, trace, index)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _spawn_pass(workload: str, seed: int, index: int, trace: bool, tiny: bool,
                timeout: float) -> dict:
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--pass", str(index)] + (["--tiny"] if tiny else [])
    # a process group of its own, so that a hung pass dies with its op forks
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            shutil.rmtree(HERE / ".work" / str(proc.pid), ignore_errors=True)
            raise RuntimeError(f"pass {index} did not end within {timeout:.0f} s") from None
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process ended with status {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run: whole passes, each in a fresh process, while another one fits.

    A pass process imports cfk and builds the inputs (one set-up sample),
    then forks once per op.  Spreading a run over several such processes
    averages out what a process fixes for all its forks, such as the
    string hash seed and the memory layout.
    """
    passes = []
    start = time.perf_counter()
    while True:
        timeout = start + RUN_LIMIT_S - time.perf_counter()
        passes.append(_spawn_pass(workload, seed, len(passes), trace, tiny, timeout))
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            break
    records = [r for p in passes for r in p["records"]]
    failures = [r["problem"] for r in records if r["problem"]]
    for problem in failures[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    if trace:
        metrics = traced_metrics(records)
    else:
        metrics = e2e_metrics(records, [p["setup_s"] for p in passes])
    attempted = len(records) * (2 if trace else 1)
    failed = len(failures) * (2 if trace else 1)
    return {"correct": not failed and bool(metrics), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def e2e_metrics(records: list[dict], setups: list[float]) -> dict:
    times = [r["elapsed"] for r in records if r["elapsed"] is not None]
    if not times:
        return {}
    by_slot: dict[str, list[float]] = {}
    for r in records:
        if r["elapsed"] is not None:
            by_slot.setdefault(r["slot"], []).append(r["elapsed"])
    failed = sum(1 for r in records if r["problem"])
    p50 = statistics.median(times)
    tail = _tail(len(times))
    print(f"{len(records)} ops in {len(setups)} passes, {failed} failed; op time "
          f"p50 {p50:.4f} s, p{tail} {_pct(times, tail):.4f} s over {len(times)} samples")
    print("p50 by slot: " + ", ".join(
        f"{slot} {statistics.median(t):.4f} s" for slot, t in sorted(by_slot.items())))
    return {
        "op_p50_s": {"value": p50, "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in records if r["rss_mb"]), "unit": "MB"},
        "ok_frac": {"value": (len(records) - failed) / len(records), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def traced_metrics(records: list[dict]) -> dict:
    import tracing

    good = [r for r in records if not r["problem"]]
    if not good:
        return {}
    total = None
    for r in good:
        total = tracing.merge(total, r["trace"])
    overhead = sum(r["traced_elapsed"] for r in good) / sum(r["elapsed"] for r in good) - 1
    metrics, absent = tracing.layer_metrics(total, len(good), overhead)
    for metric, reason in absent.items():
        print(f"absent: {metric}: {reason}")
    return metrics


def _pct(values: list[float], q: int) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, len(ranked) * q // 100)]


def _tail(n: int) -> int:
    """Highest percentile with at least ten of n samples beyond it."""
    return max(50, 100 * (n - 10) // n)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    parser.add_argument("--pass", dest="index", type=int, default=None,
                        help="run pass INDEX in this process and print its records")
    args = parser.parse_args(argv)
    if not (SRC / "cfk" / "__init__.py").is_file():
        print(f"error: {SRC / 'cfk'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.index is not None:
        sys.path.insert(0, str(SRC))
        out = one_pass(args.workload, args.seed, args.index, bool(args.trace), args.tiny)
    else:
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
