import gc

import pytest
from hypothesis import given, strategies as st

from cfk.builders import (
    box,
    build_library,
    conway_model,
    random_model,
    staircase,
    thin_model,
    torus_knot_exponents,
)
from cfk.complexes import mirror, parse, serialize, tensor, validate
from cfk import gf2, invariants as invariants_module
from cfk.invariants import (
    SearchExhausted,
    _a1,
    _by_i,
    _by_steps,
    _death,
    a1_algebraic,
    a1_surgery,
    connect_sum_prediction,
    connect_sum_rules,
    epsilon,
    invariants,
    meridian_filtration,
    tau,
)
from cfk.regions import Region
from cfk.homology import F2Complex, column, homology, realize
from cfk.suite import SuiteContext, prop_i_filtration, run_suite

from oracles import (
    a1_algebraic_by_walk,
    a1_surgery_by_walk,
    epsilon_by_maps,
    g_map,
    hook_step,
    is_trivial,
    lhook_step,
    tau_by_walk,
)


# -- the filtration formula ---------------------------------------------------


def test_meridian_filtration_three_cases():
    assert meridian_filtration(0, 0, 0, 3) == (0, 0)
    assert meridian_filtration(0, 2, 0, 3) == (2, 0)
    assert meridian_filtration(0, 5, 0, 3) == (5, 2)


def test_meridian_filtration_rejects_bad_n():
    with pytest.raises(ValueError):
        meridian_filtration(0, 0, 0, 0)


@given(
    i=st.integers(-30, 30),
    j=st.integers(-30, 30),
    m=st.integers(-15, 15),
    n=st.integers(1, 10),
)
def test_meridian_filtration_properties(i, j, m, n):
    first, second = meridian_filtration(i, j, m, n)
    if j <= m + i:
        assert (first, second) == (i, i)
    elif j - m - i < n:
        assert (first, second) == (j - m, i)
    else:
        assert (first, second) == (j - m, j - m - n)
    assert 0 <= first - second <= n
    # both coordinates grow with j
    up_first, up_second = meridian_filtration(i, j + 1, m, n)
    assert up_first >= first and up_second >= second


@given(i=st.integers(-10, 10), j=st.integers(-10, 10), m=st.integers(-10, 10))
def test_meridian_filtration_n1_has_no_middle_case(i, j, m):
    first, second = meridian_filtration(i, j, m, 1)
    assert first - second in (0, 1)


# -- step levels on the hook and the lhook -------------------------------------


def test_hook_step_level_cases():
    # (i, j, m, n): the vertical part, an arm point, a saturated arm point
    assert meridian_filtration(0, -1, 0, 3).second == 0
    assert meridian_filtration(-2, 5, 5, 3).second == -2
    assert meridian_filtration(-5, 5, 5, 3).second == -3


def test_step_levels_match_filtration_second_coordinate(library):
    saturated = 0
    for c in library.values():
        g = c.genus_bound
        for m in (-g, 0, g):
            regions = Region("hook", m), Region("lhook", m)
            hook, lhook = (r.lattice_points(c, realize(c, r).index) for r in regions)
            for n in (1, 2, 3, 2 * g + 1):
                level = _by_steps(n)
                for p in hook:
                    assert meridian_filtration(p.i, p.j, m, n).first == 0
                    assert level("hook", m, p.i, p.j) == hook_step(p.i, n)
                    saturated += hook_step(p.i, n) != p.i
                for p in lhook:
                    # the lhook at m is the mirror image of the hook at -m
                    assert meridian_filtration(-p.i, -p.j, -m, n).first == 0
                    assert level("lhook", m, p.i, p.j) == lhook_step(p.i, n)
                    saturated += lhook_step(p.i, n) != p.i
    assert saturated > 0


# -- tau ----------------------------------------------------------------------


def test_tau_values(the_unknot, trefoil, left_trefoil, t29):
    assert tau(the_unknot) == 0
    assert tau(trefoil) == 1
    assert tau(left_trefoil) == -1
    assert tau(t29) == 4
    assert tau(mirror(t29)) == -4


def test_tau_reads_the_top_point_of_a_cycle():
    # column a(j=1) -> c(j=0) <- b(j=2): the generator a + b first appears at j = 2
    c = parse(
        '{"name": "wedge", "generators": [{"id": "a", "alexander": 1},'
        ' {"id": "b", "alexander": 2}, {"id": "c", "alexander": 0}],'
        ' "differential": [{"from": "a", "to": "c", "upower": 0},'
        ' {"from": "b", "to": "c", "upower": 0}]}'
    )
    assert validate(c).ok
    assert tau(c) == 2 == tau_by_walk(c)


def test_tau_exhaustion_on_acyclic_complex():
    with pytest.raises(SearchExhausted):
        tau(box())


# -- epsilon ------------------------------------------------------------------


def test_epsilon_values(the_unknot, trefoil, left_trefoil):
    assert epsilon(the_unknot) == 0
    assert epsilon(trefoil) == 1
    assert epsilon(left_trefoil) == -1
    assert epsilon(conway_model()) == 0


def test_epsilon_zero_implies_tau_zero():
    for seed in range(60):
        c = random_model(seed)
        if epsilon(c) == 0:
            assert tau(c) == 0


# -- a1, both routes ----------------------------------------------------------


def test_a1_paper_values(t29, t45, cable_t23_25):
    assert a1_algebraic(t29) == 1
    assert a1_algebraic(mirror(cable_t23_25)) == -1
    assert a1_algebraic(tensor(mirror(cable_t23_25), t29)) == -1
    assert a1_algebraic(tensor(t45, mirror(cable_t23_25))) == 2


def test_a1_staircase_law():
    for p, q in ((2, 5), (3, 4), (3, 5), (4, 5), (2, 13)):
        e = torus_knot_exponents(p, q)
        c = staircase(e)
        assert tau(c) == e.exponents[0]
        assert a1_algebraic(c) == e.exponents[0] - e.exponents[1]


def test_a1_surgery_values(the_unknot, left_trefoil, t29):
    assert a1_surgery(the_unknot, 1) == 0
    assert a1_surgery(left_trefoil, 3) == -1
    assert a1_surgery(t29, 9) == 1 == a1_algebraic(t29)


def test_a1_surgery_rejects_small_n(trefoil):
    with pytest.raises(ValueError):
        a1_surgery(trefoil, 2)


def test_a1_self_sum_vanishes(trefoil, cable_t23_25):
    for c in (trefoil, cable_t23_25, thin_model(2, 1)):
        assert a1_algebraic(tensor(c, mirror(c))) == 0


def test_a1_thin_models():
    for t in range(-3, 4):
        assert a1_algebraic(thin_model(t, 1)) == (t > 0) - (t < 0)


# -- the i-filtration coincidence ----------------------------------------------


def test_i_filtration_reads_gradings_only(cold_caches):
    # the suite property levels each generator's hook point, read off its
    # grading, with the surgery route's _by_steps(2g + 1): no realization
    ctx = SuiteContext(0)
    cold_caches()
    cases, failures = prop_i_filtration(ctx)
    assert failures == []
    assert cases == sum(2 * c.genus_bound + 1 for c in ctx.library.values())
    assert realize.cache_info().misses == 0


# -- connect sum rules ----------------------------------------------------------


def test_connect_sum_same_sign(trefoil, t29):
    rep = connect_sum_rules(trefoil, t29)
    assert rep.predicted == 1 == rep.computed


def test_connect_sum_indeterminate(cable_t23_25, t29):
    rep = connect_sum_rules(mirror(cable_t23_25), t29)
    assert rep.predicted is None
    assert rep.computed == -1
    assert rep.consistent


def test_connect_sum_zero_passthrough(library):
    conway = library["conway"]
    for name in ("T(2,3)", "-T(2,3;2,5)", "4_1"):
        rep = connect_sum_rules(conway, library[name])
        assert rep.predicted == a1_algebraic(library[name])
        assert rep.consistent


def test_connect_sum_mixed_signs_nonzero_sum(t45, cable_t23_25, trefoil):
    plus_two = tensor(t45, mirror(cable_t23_25))  # a1 = +2
    rep = connect_sum_rules(plus_two, mirror(trefoil))
    assert (rep.a1_left, rep.a1_right) == (2, -1)
    assert rep.predicted == -1  # positive sum takes the minimum
    assert rep.consistent
    rep = connect_sum_rules(mirror(plus_two), trefoil)
    assert rep.predicted == 1  # negative sum takes the maximum
    assert rep.consistent


def test_connect_sum_prediction_table():
    assert connect_sum_prediction(0, -2) == (-2, "zero summand passes through")
    assert connect_sum_prediction(3, 0) == (3, "zero summand passes through")
    assert connect_sum_prediction(3, 2) == (2, "smaller magnitude wins")
    assert connect_sum_prediction(-3, -2) == (-2, "smaller magnitude wins")
    # mixed signs: positive sum takes the min, negative sum takes the max,
    # so the smaller-magnitude summand always wins
    assert connect_sum_prediction(3, -2)[0] == -2
    assert connect_sum_prediction(-3, 2)[0] == 2
    assert connect_sum_prediction(2, -2) == (None, "opposite values cancel: no prediction")


# -- one filtered reduction per cutoff ----------------------------------------


def test_cutoffs_match_walks():
    pool = []
    for c in build_library().values():
        pool += [c, mirror(c)]
    pool += [random_model(seed, size) for seed in range(200) for size in (1, 2, 3)]
    t56 = staircase(torus_knot_exponents(5, 6))
    pool += [staircase(torus_knot_exponents(7, 8)), tensor(t56, t56)]
    pool += [thin_model(t, boxes=1, box_offset=40) for t in (1, -1)]
    # equal structures under different names are walked once
    for c in dict.fromkeys(pool):
        n = 2 * c.genus_bound + 1
        assert tau(c) == tau_by_walk(c), c.name
        assert epsilon(c) == epsilon_by_maps(c), c.name
        assert a1_algebraic(c) == a1_algebraic_by_walk(c), c.name
        assert a1_surgery(c, n) == a1_surgery_by_walk(c, n), c.name
    assert {a1_algebraic(c) for c in pool} >= {-1, 0, 1, 2, 3}
    assert {epsilon(c) for c in pool} == {-1, 0, 1}


def test_step_reader_matches_the_walk_at_every_n():
    # a1_surgery's reader below its n > 2g guard, where the arm's step levels
    # saturate and the two routes no longer read the same levels; equal
    # structures under different names are checked once.  At every n >= 1
    # the reader also keeps the small-n law: it is a1 cut off at n,
    # eps * min(|a1|, n), which past 2g is a1 itself
    pool = []
    for c in build_library().values():
        pool += [c, mirror(c)]
    for seed in range(40):
        for size in (1, 2, 3):
            c = random_model(seed, size)
            pool += [c, mirror(c)]
    truncated = 0
    for c in dict.fromkeys(pool):
        eps, a1 = epsilon(c), a1_algebraic(c)
        for n in range(1, 2 * c.genus_bound + 3):
            got = _a1(c, _by_steps(n), eps)
            assert got == eps * min(abs(a1), n), (c.name, n)
            if n <= 2 * c.genus_bound:
                assert got == a1_surgery_by_walk(c, n), (c.name, n)
                truncated += abs(a1) > n
    assert truncated > 0


def test_nu_law(library):
    # nu is the least s at which the oracle's unclipped hook-to-column map at
    # s is nonzero on homology; Hom's relation (J. Topol. 2014) gives
    # nu = tau + 1 when epsilon = -1 and nu = tau otherwise.  It reads the
    # hook at every s, through the oracle's own regions and maps
    randoms = [random_model(seed) for seed in range(300)]
    pool = dict.fromkeys([*library.values(), *randoms])
    pool = dict.fromkeys([*pool, *map(mirror, pool)])
    assert len(pool) == 429
    signs = set()
    for c in pool:
        g = c.genus_bound
        nu = next((s for s in range(-g - 1, g + 2) if not is_trivial(g_map(c, s))), None)
        t, eps = tau(c), epsilon(c)
        assert nu == t + (eps == -1), (c.name, nu, t, eps)
        signs.add(eps)
    assert signs == {-1, 0, 1}


def test_hook_and_lhook_readings_are_mirror_images(library):
    # the lhook at t is the mirror image of the hook at -t, on every route,
    # so the hook's pairing reading and the lhook's appended reading of the
    # mirror must agree on the death level and the target's dimension.  A
    # reader that takes the highest pivot level instead of the lowest, or
    # skips the kernel check, fails here
    pool = list(library.values()) + [random_model(seed, size=3) for seed in range(300)]
    pairs, levels = 0, set()
    for c in dict.fromkeys(pool):
        m = mirror(c)
        for route in (_by_i, *(_by_steps(n) for n in range(1, 2 * c.genus_bound + 3))):
            for shape, other in (("hook", "lhook"), ("lhook", "hook")):
                got = _death(c, shape, route)
                assert got == _death(m, other, route), (c.name, shape, route)
                levels.add(got.level)
                pairs += 1
    assert pairs > 4000 and {None, 1, 2, 3} <= levels


def test_cost_does_not_grow_with_genus(cold_caches):
    # the box sits far out, so the genus bound is about k, but tau = 1
    misses = []
    for k in (10, 10**6):
        c = thin_model(1, boxes=1, box_offset=k)
        cold_caches()
        rep = invariants(c)
        misses.append(realize.cache_info().misses)
        assert (rep.tau, rep.epsilon, rep.a1) == (1, 1, 1)
    assert misses[0] == misses[1]


def test_reports_keep_no_realization(library, cold_caches):
    # realize caches nothing, so a cold validate plus report keeps none of
    # the column, lhook and hook it realizes; the cached column holds no
    # boundary, and the three caches are the column, the death reader and
    # realize's counting wrapper
    for c in (library["T(2,9)"], library["-T(2,3;2,5)"]):
        cold_caches()
        assert validate(c).ok
        invariants(c)
        info = realize.cache_info()
        assert (info.currsize, info.misses) == (0, 3)
        assert column(c)._fields == ("index", "homology")
        assert not any(isinstance(v, F2Complex) for v in column(c))
        assert column.cache_info().misses == 1
    assert [f.__name__ for f in cold_caches()] == ["_death", "column", "realize"]


def test_cached_reductions_go_with_their_complex(library, cold_caches):
    # an entry lives exactly as long as the complex it was computed for: a
    # parsed, validated and reported complex leaves no entry once dropped,
    # and a suite run leaves none once it returns
    c = parse(serialize(library["T(2,9)"]))
    assert validate(c).ok
    invariants(c)
    assert column.cache_info().currsize == 1 and _death.cache_info().currsize == 3
    del c
    gc.collect()
    assert column.cache_info().currsize == 0 == _death.cache_info().currsize
    assert run_suite(2, emit=lambda line: None)
    gc.collect()
    assert column.cache_info().currsize == 0 == _death.cache_info().currsize


def test_report_cost_and_route_sharing(library, monkeypatch, cold_caches):
    # three eliminations per cold report: the column, the lhook and the
    # hook, whose combos pair with the column's own cocycles; the surgery
    # route's miss reads the algebraic entry
    calls = []
    kernel = gf2.image_and_kernel
    monkeypatch.setattr(gf2, "image_and_kernel", lambda cols: calls.append(1) or kernel(cols))
    c = library["T(2,9)"]
    n = 2 * c.genus_bound + 1
    invariants(c)
    assert len(calls) == 3
    after_report = _death.cache_info()
    # misses: the lhook and hook by i, the lhook by steps; hits: the lhook by
    # steps reading the lhook by i, and the algebraic a1 reading it again
    assert (after_report.hits, after_report.misses) == (2, 3)
    assert _death(c, "lhook", _by_steps(n)) is _death(c, "lhook", _by_i)
    calls.clear()
    assert a1_surgery(c, n) == 1
    assert calls == []
    info = _death.cache_info()
    # the two lookups above, epsilon's two reads and the surgery read
    assert (info.hits, info.misses) == (after_report.hits + 5, 3)


def test_warm_reads_level_no_point(library, monkeypatch):
    # a warm read is one cache lookup per death: no route is evaluated
    def refuse(*args):
        raise AssertionError("a level was evaluated")

    pool = [library["T(2,9)"], library["-T(2,3;2,5)"], library["4_1"]]
    want = [invariants(c) for c in pool]
    monkeypatch.setattr(invariants_module, "meridian_filtration", refuse)
    monkeypatch.setattr(_by_i, "__code__", refuse.__code__)
    monkeypatch.setattr(_by_steps, "__call__", refuse)
    for c, rep in zip(pool, want):
        n = 2 * c.genus_bound + 1
        assert (epsilon(c), a1_algebraic(c), a1_surgery(c, n)) == (rep.epsilon, rep.a1, rep.a1)


def test_step_routes_are_values():
    assert _by_steps(5) == _by_steps(5) and hash(_by_steps(5)) == hash(_by_steps(5))
    assert _by_steps(5) != _by_steps(6)


def test_validate_and_report_share_one_column(library, monkeypatch, cold_caches):
    # validate's rank check reads the column the report reads, so a cold
    # validate then report makes three eliminations: the column, the lhook
    # and the hook
    calls = []
    kernel = gf2.image_and_kernel
    monkeypatch.setattr(gf2, "image_and_kernel", lambda cols: calls.append(1) or kernel(cols))
    c = library["T(2,9)"]
    assert validate(c).ok
    invariants(c)
    assert len(calls) == 3
    assert column.cache_info().misses == 1


# -- the full report -------------------------------------------------------------


def test_invariant_report(trefoil):
    rep = invariants(trefoil, n=3)
    assert rep.tau == 1 and rep.epsilon == 1 and rep.a1 == 1 == rep.a1_surgery
    assert rep.genus_bound == 1
    assert rep.homology_dims == {"vertical": 1, "hook": 1, "lhook": 1}
    table = rep.as_table()
    assert "a1" in table and "T(2,3)" in table
    assert rep.as_dict()["surgery_n"] == 3


def test_invariant_report_default_n(t45):
    rep = invariants(t45)
    assert rep.surgery_n == 2 * 6 + 1
    assert rep.a1 == 1


def test_report_dims_match_region_homology():
    # random models include complexes whose hook and lhook homologies differ
    lopsided = 0
    for c in [random_model(seed, size) for seed in range(60) for size in (1, 2)]:
        rep = invariants(c)
        want = {
            shape: homology(realize(c, Region(shape, level))).dimension
            for shape, level in (("vertical", 0), ("hook", rep.tau), ("lhook", rep.tau))
        }
        assert rep.homology_dims == want, c.name
        lopsided += want["hook"] != want["lhook"]
    assert lopsided > 0
