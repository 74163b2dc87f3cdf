import re
from types import SimpleNamespace

import pytest

from cfk import gf2, suite
from cfk.homology import HomologyResult, column
from cfk.invariants import BiFiltrationLevel, _by_steps, epsilon, meridian_filtration, tau
from cfk.suite import (
    PROPERTIES,
    SuiteContext,
    prop_euler_characteristic,
    prop_mirror_antisymmetry,
    prop_slice_dim_one,
    prop_surgery_equivalence,
    prop_tensor_commutes,
    prop_validate,
    run_suite,
)


@pytest.fixture(scope="module")
def ctx():
    return SuiteContext(5)


@pytest.mark.parametrize("name, prop", PROPERTIES, ids=[name for name, _ in PROPERTIES])
def test_property(ctx, name, prop):
    cases, failures = prop(ctx)
    assert cases > 0
    assert not failures, "\n".join(failures[:5])


def test_suite_passes_quickly():
    lines = []
    assert run_suite(seed_count=5, emit=lines.append)
    assert lines[-1] == "suite PASS"
    assert len(lines) == len(PROPERTIES) + 1


def test_suite_deterministic():
    first: list[str] = []
    second: list[str] = []
    run_suite(seed_count=8, emit=first.append)
    run_suite(seed_count=8, emit=second.append)
    assert first == second


def test_column_dim_one_reads_the_validated_column(monkeypatch):
    # validate's rank check already reduced every pool column, so the
    # column-dim-one property eliminates nothing of its own
    ctx = SuiteContext(5)
    assert prop_validate(ctx)[1] == []
    calls = []
    kernel = gf2.image_and_kernel
    monkeypatch.setattr(gf2, "image_and_kernel", lambda cols: calls.append(1) or kernel(cols))
    assert prop_slice_dim_one(ctx) == (len(ctx.pool), [])
    assert calls == []


def test_tensor_associativity_compares_two_complexes(monkeypatch):
    # (ab)c and a(bc) carry the same ids, so they are one complex and the
    # right side's invariants would be cache hits on the left side's
    # entries; the associativity case must read a product with other ids
    seen = []
    monkeypatch.setattr(suite, "tau", lambda c: seen.append(c) or tau(c))
    assert prop_tensor_commutes(SuiteContext(0)) == (5, [])
    left, right = seen[-2:]
    assert left != right
    assert len(left.generators) == len(right.generators)


def test_euler_property_reads_the_representatives_parity(monkeypatch, trefoil):
    # T(2,3)'s column holds b0 (Maslov 0) and the edge b1 -> b2 (Maslov -1,
    # -2): chi = 1 and the one representative sits at the even b0.  A column
    # whose representative's top point is the odd b1 must be reported.
    ctx = SimpleNamespace(pool=[trefoil])
    assert prop_euler_characteristic(ctx) == (1, [])
    col = column(trefoil)
    odd = [trefoil.generators[k].id for k in col.index].index("b1")
    wrong = col._replace(homology=HomologyResult((1 << odd,), (1 << odd,)))
    monkeypatch.setattr(suite, "column", lambda c: wrong)
    cases, failures = prop_euler_characteristic(ctx)
    assert cases == 1 and len(failures) == 1
    assert "euler characteristic mismatch" in failures[0]


@pytest.mark.parametrize(
    "name, value", [("tau", tau), ("epsilon", epsilon)], ids=["tau", "epsilon"]
)
def test_mirror_antisymmetry_reads_tau_and_epsilon(monkeypatch, library, name, value):
    # a sign slip: the law's tau or epsilon loses its sign.  a1 reads its own
    # tau and epsilon, so its check still passes, and each library knot
    # whose value is nonzero fails the new check alone
    pool = list(library.values())
    monkeypatch.setattr(suite, name, lambda c: abs(value(c)))
    cases, failures = prop_mirror_antisymmetry(SimpleNamespace(pool=pool))
    assert cases == len(pool)
    assert len(failures) == sum(value(c) != 0 for c in pool) > 0
    assert all("mirror (tau, epsilon)" in f for f in failures)


@pytest.mark.parametrize(
    "name, value, failing", [("tau", tau, 5), ("epsilon", epsilon, 3)], ids=["tau", "epsilon"]
)
def test_tensor_commutes_reads_the_factors(monkeypatch, name, value, failing):
    # a sign slip: a tensor's tau or epsilon read with the wrong sign.  Both
    # tensors of a case slip alike, so the rotation check still passes;
    # additivity fails on all 5 cases, and Hom's rules on the 3 whose
    # factors' signs predict a nonzero epsilon
    def slipped(c):
        return -value(c) if c.name.startswith("(") else value(c)

    monkeypatch.setattr(suite, name, slipped)
    cases, failures = prop_tensor_commutes(SuiteContext(0))
    assert (cases, len(failures)) == (5, failing)
    assert all(f.startswith("(tau, epsilon) of (") for f in failures)


def test_over_runs_a_law_once_per_complex_in_pool_order(library):
    # every property is a law under _over, and no suite run reaches a law's
    # failure branch: a law's whole lines must come back for exactly the
    # failing cases, in case order, one per case
    pool = list(library.values())
    ctx = SimpleNamespace(pool=pool)
    failing = {pool[4], pool[1]}
    seen = []

    def law(c):
        seen.append(c)
        return suite._offender(c, "law broken") if c in failing else None

    cases, failures = suite._over(lambda ctx: ctx.pool)(law)(ctx)
    assert seen == pool
    assert (cases, failures) == (len(pool), [
        suite._offender(pool[1], "law broken"),
        suite._offender(pool[4], "law broken"),
    ])
    assert suite._over(lambda ctx: ctx.pool)(lambda c: None)(ctx) == (len(pool), [])


def test_over_counts_tuple_cases_as_it_iterates():
    # a generator of cases has no len: _over counts the items it draws, and
    # a law that breaks several checks on one case still gives one line
    def grid(ctx):
        return ((i, j) for i in range(ctx.size) for j in range(i))

    def law(case):
        i, j = case
        return f"broken at {case}" if i + j == 3 else None

    prop = suite._over(grid)(law)
    assert prop(SimpleNamespace(size=5)) == (10, ["broken at (2, 1)", "broken at (3, 0)"])
    assert prop(SimpleNamespace(size=0)) == (0, [])


def test_fail_lines_count_failing_cases(monkeypatch):
    # a step formula that saturates one level too low above the diagonal:
    # each of meridian-window's 4,140 window points above the diagonal
    # (j > m + i) breaks its first check and several more, yet counts once,
    # and no FAIL line names more failing cases than it checked
    def saturating(i, j, m, n):
        return BiFiltrationLevel(j - m, j - m - n - 1) if j > m + i else BiFiltrationLevel(i, i)

    monkeypatch.setattr(suite, "meridian_filtration", saturating)
    lines: list[str] = []
    assert not run_suite(2, emit=lines.append)
    heads = [re.fullmatch(r"FAIL (\S+) \((\d+) of (\d+) cases\)", line) for line in lines]
    fails = {h[1]: (int(h[2]), int(h[3])) for h in heads if h}
    assert fails["meridian-window"] == (4140, 8788)
    assert all(k <= n for k, n in fails.values())


def _unmirrored(self, shape, t, i, j):
    # the lhook read with the hook's step levels, left unmirrored
    return meridian_filtration(i, j, t, self.n).second


def _too_deep(self, shape, t, i, j):
    # the saturated step level taken one step too deep: a drop of n + 1
    s = 1 if shape == "hook" else -1
    first, second = meridian_filtration(s * i, s * j, s * t, self.n)
    return s * (second - (first - second == self.n))


@pytest.mark.parametrize("mutant", [_unmirrored, _too_deep])
def test_surgery_equivalence_kills_the_step_route_mutants(monkeypatch, cold_caches, mutant):
    # at n = 1 and 2 the surgery route reduces regions of its own, so a
    # defect in its step levels shows (32 and 74 failing cases of 177 at 50
    # seeds); at 2 seeds no case reaches the unmirrored lhook level
    monkeypatch.setattr(_by_steps, "__call__", mutant)
    try:
        cases, failures = prop_surgery_equivalence(SuiteContext(50))
    finally:
        cold_caches()  # the death reader kept the mutant's levels
    assert cases == 177
    assert failures
