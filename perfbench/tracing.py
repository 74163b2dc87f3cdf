"""Per-layer spans and counters, installed from outside the cfk package.

A Recorder wraps the public functions at each layer boundary and puts the
wrapper into every ``cfk`` module namespace that holds the original, since
most callers bind names with ``from .homology import realize``.  Open spans
form a stack; a span's self time is its duration minus the time of the
spans it caused, so nested lru-cached calls (a1_algebraic -> epsilon ->
tau) are attributed correctly.  The tracer's own bookkeeping falls outside
every self time.  It is installed in a forked op process only, so untraced
ops never run through it.
"""

from __future__ import annotations

import importlib
import sys
import time

# span name -> the (module, function) pairs whose calls it covers
SPANS: dict[str, list[tuple[str, str]]] = {
    "gf2.solve": [("gf2", "solve")],
    "gf2.image_and_kernel": [("gf2", "image_and_kernel")],
    "gf2.rank": [("gf2", "rank")],
    "complexes.parse": [("complexes", "parse")],
    "complexes.validate": [("complexes", "validate")],
    "complexes.serialize": [("complexes", "serialize")],
    "complexes.tensor": [("complexes", "tensor")],
    "complexes.mirror": [("complexes", "mirror")],
    "builders.random_model": [("builders", "random_model")],
    "builders.staircase": [("builders", "staircase")],
    "homology.realize": [("homology", "realize")],
    "homology.homology": [("homology", "homology")],
    "homology.induced": [("homology", "induced_on_homology")],
    "homology.chain_map": [
        ("homology", "quotient_then_include"),
        ("homology", "chain_map_by_points"),
    ],
    "homology.filtration": [
        ("homology", "with_filtration"),
        ("homology", "filtration_subcomplex"),
        ("homology", "filtration_quotient"),
    ],
    "homology.is_trivial": [("homology", "is_trivial")],
    "invariants.tau": [("invariants", "tau")],
    "invariants.epsilon": [("invariants", "epsilon")],
    "invariants.a1_algebraic": [("invariants", "a1_algebraic")],
    "invariants.a1_surgery": [("invariants", "a1_surgery")],
    "suite.context": [("suite", "SuiteContext")],
}

# counters kept beside the spans, each named after the span it counts in
COUNTERS = ("gf2.solve.vectors", "gf2.image_and_kernel.columns", "homology.realize.points")


class Recorder:
    """Span stack plus per-name totals for one op process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {c: 0 for c in COUNTERS}
        self.missing: dict[str, str] = {}
        self.cached: dict[str, object] = {}  # span -> lru-cached original
        self.realize_keys: set = set()
        self._stack: list[list[float]] = [[0.0]]  # open spans: time of their children
        self._tokens: dict = {}
        self._by_id: dict[int, tuple[object, int]] = {}

    def _token(self, obj) -> int:
        # Equal complexes share a token; an object is hashed once, however
        # often it is passed, so counting distinct keys stays cheap.
        entry = self._by_id.get(id(obj))
        if entry is None or entry[0] is not obj:
            entry = (obj, self._tokens.setdefault(obj, len(self._tokens)))
            self._by_id[id(obj)] = entry
        return entry[1]

    def wrap(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter
        before, after = self._hooks(name, fn)

        def traced(*args, **kwargs):
            entered = clock()
            note = before(args) if before else None
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                calls[name] += 1
                self_s[name] += end - start - children[0]
                stack[-1][0] += end - entered
            if after:
                after(note, args, result)
                stack[-1][0] += clock() - end
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _hooks(self, name: str, fn):
        counts = self.counts
        if name == "gf2.solve":
            def before(args):
                counts["gf2.solve.vectors"] += len(args[0])
            return before, None
        if name == "gf2.image_and_kernel":
            def before(args):
                counts["gf2.image_and_kernel.columns"] += len(args[0])
            return before, None
        if name == "homology.realize":
            keys, token = self.realize_keys, self._token

            def before(args):
                keys.add((token(args[0]),) + tuple(args[1:]))
                return fn.cache_info().misses

            def after(misses, args, result):
                if fn.cache_info().misses > misses:
                    counts["homology.realize.points"] += result.dim
            return before, after
        return None, None

    def install(self) -> None:
        """Wrap every traced function and every suite property in place."""
        for module in {m for targets in SPANS.values() for m, _ in targets}:
            importlib.import_module("cfk." + module)
        modules = [m for n, m in list(sys.modules.items()) if n == "cfk" or n.startswith("cfk.")]
        for name, targets in SPANS.items():
            for module, attr in targets:
                fn = getattr(sys.modules.get("cfk." + module), attr, None)
                if fn is None:
                    self.missing[name] = f"cfk.{module}.{attr} does not exist"
                    continue
                if hasattr(fn, "cache_info"):
                    self.cached[name] = fn
                _rebind(modules, fn, self.wrap(name, fn))
        suite = sys.modules.get("cfk.suite")
        for k, (prop, fn) in enumerate(getattr(suite, "PROPERTIES", [])):
            wrapper = self.wrap(f"suite.prop.{prop}", fn)
            suite.PROPERTIES[k] = (prop, wrapper)
            _rebind(modules, fn, wrapper)

    def snapshot(self) -> dict:
        """Totals of this process, in a form that sums across processes."""
        cache = {}
        for name, fn in self.cached.items():
            info = fn.cache_info()
            cache[name] = [info.hits, info.misses]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": {**self.counts, "homology.realize.distinct": len(self.realize_keys)},
            "cache": cache,
            "missing": dict(self.missing),
        }


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def merge(total: dict | None, snap: dict) -> dict:
    """Sum two snapshots (None is the empty total)."""
    if total is None:
        return {k: dict(v) for k, v in snap.items()}
    for part in ("calls", "self_s", "counts"):
        for k, v in snap[part].items():
            total[part][k] = total[part].get(k, 0) + v
    for k, (hits, misses) in snap["cache"].items():
        h, m = total["cache"].get(k, (0, 0))
        total["cache"][k] = [h + hits, m + misses]
    total["missing"].update(snap["missing"])
    return total


# suite.PROPERTIES at the commit that added the benchmark
PROPERTIES = [
    "validate", "round-trip", "mirror-involution", "column-dim-one", "column-translation",
    "hook-stabilization", "euler-characteristic", "staircase-laws", "thin-law",
    "sign-epsilon", "mirror-antisymmetry", "surgery-equivalence", "self-sum-vanishes",
    "connect-sum-rules", "epsilon-zero-tau-zero", "meridian-window",
    "step-level-consistency", "i-filtration-coincidence", "tensor-commutes", "box-neutrality",
]

# Per-layer metrics of a traced run, per op: ``.s`` is self time, ``.calls``
# a call count, ``.hit_ratio`` comes from cache_info().
PER_LAYER: list[tuple[str, str]] = [
    ("gf2.solve.calls", "count"),
    ("gf2.solve.s", "s"),
    ("gf2.solve.vectors", "count"),
    ("gf2.image_and_kernel.calls", "count"),
    ("gf2.image_and_kernel.s", "s"),
    ("gf2.image_and_kernel.columns", "count"),
    ("gf2.rank.s", "s"),
    ("invariants.tau.s", "s"),
    ("invariants.epsilon.s", "s"),
    ("invariants.a1_algebraic.s", "s"),
    ("invariants.a1_surgery.s", "s"),
    ("invariants.search_steps", "count"),
    ("homology.realize.calls", "count"),
    ("homology.realize.s", "s"),
    ("homology.realize.points", "count"),
    ("homology.realize.hit_ratio", "ratio"),
    ("homology.realize.distinct", "count"),
    ("homology.homology.calls", "count"),
    ("homology.homology.s", "s"),
    ("homology.homology.hit_ratio", "ratio"),
    ("homology.induced.calls", "count"),
    ("homology.induced.s", "s"),
    ("homology.chain_map.s", "s"),
    ("homology.filtration.s", "s"),
    *[(f"complexes.{f}.{m}", u) for f in ("parse", "validate", "serialize", "tensor", "mirror")
      for m, u in (("calls", "count"), ("s", "s"))],
    ("builders.random_model.s", "s"),
    ("builders.staircase.s", "s"),
    ("suite.context.s", "s"),
    *[(f"suite.prop.{p}.s", "s") for p in PROPERTIES],
    ("trace.overhead_frac", "ratio"),
]


def layer_metrics(total: dict, ops: int, overhead: float) -> tuple[dict, dict]:
    """Per-op values of PER_LAYER from summed snapshots, and the reasons
    for those that are absent (reported as 0)."""
    values, absent = {}, {}
    for metric, unit in PER_LAYER:
        if metric == "trace.overhead_frac":
            values[metric] = {"value": overhead, "unit": unit}
            continue
        if metric == "invariants.search_steps":
            span, kind = "homology.is_trivial", "calls"
        elif metric in COUNTERS or metric == "homology.realize.distinct":
            span, kind = metric.rsplit(".", 1)[0], "count"
        else:
            span, kind = metric.rsplit(".", 1)
        calls = total["calls"].get(span, 0)
        if span in total["missing"]:
            absent[metric] = total["missing"][span]
        elif calls == 0:
            absent[metric] = "not reached on this workload"
        if kind == "calls":
            value = calls / ops
        elif kind == "s":
            value = total["self_s"].get(span, 0.0) / ops
        elif kind == "hit_ratio":
            hits, misses = total["cache"].get(span, (0, 0))
            value = hits / (hits + misses) if hits + misses else 0.0
        else:
            value = total["counts"].get(metric, 0) / ops
        values[metric] = {"value": value, "unit": unit}
    return values, absent
