"""Acceptance gate: the end-to-end checks the build must pass.

One test per criterion, each an exact integer comparison: headline invariant
values, the two-route a1 equivalence at scale, the filtration formula over a
window, the i-filtration coincidence, the structural laws, and the property
suite.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass
line per criterion.
"""

from cfk.builders import (
    build_library,
    cable_exponents,
    conway_model,
    random_model,
    staircase,
    thin_model,
    torus_knot_exponents,
)
from cfk.complexes import mirror, tensor, validate
from cfk.invariants import (
    a1_algebraic,
    a1_surgery,
    connect_sum_rules,
    epsilon,
    meridian_filtration,
    tau,
)
from cfk.homology import realize
from cfk.regions import Region
from cfk.suite import run_suite

from oracles import hook_step

LIBRARY = build_library()


def test_criterion_1_paper_values():
    cable = LIBRARY["T(2,3;2,5)"]
    t29 = LIBRARY["T(2,9)"]
    t45 = LIBRARY["T(4,5)"]

    assert a1_algebraic(t29) == 1
    assert a1_algebraic(mirror(cable)) == -1
    assert a1_algebraic(tensor(mirror(cable), t29)) == -1
    assert a1_algebraic(tensor(t45, mirror(cable))) == 2
    assert a1_algebraic(conway_model()) == 0
    for t in range(-3, 4):
        assert a1_algebraic(thin_model(t, 1)) == (t > 0) - (t < 0)

    exponent_lists = [torus_knot_exponents(2, 2 * k + 1) for k in range(1, 7)]
    exponent_lists += [
        torus_knot_exponents(3, 4),
        torus_knot_exponents(3, 5),
        torus_knot_exponents(4, 5),
        cable_exponents(torus_knot_exponents(2, 3), 2, 5),
    ]
    assert len(exponent_lists) == 10
    for e in exponent_lists:
        c = staircase(e)
        assert tau(c) == e.exponents[0]
        assert a1_algebraic(c) == e.exponents[0] - e.exponents[1]

    print("ACCEPTANCE 1 PASS: known invariant values and staircase laws, exact")


def test_criterion_2_surgery_equivalence():
    pool = list(LIBRARY.values()) + [random_model(seed) for seed in range(200)]
    checked = 0
    for c in pool:
        g = c.genus_bound
        want = a1_algebraic(c)
        for n in (2 * g + 1, 2 * g + 3):
            assert a1_surgery(c, n) == want, c.name
            checked += 1
    assert checked == 2 * (len(LIBRARY) + 200)
    print(f"ACCEPTANCE 2 PASS: a1 routes agree on {checked} complex/n pairs")


def test_criterion_3_filtration_formula():
    window = range(-10, 11)
    cases = 0
    for n in range(1, 7):
        for m in window:
            for i in window:
                previous = None
                for j in window:
                    first, second = meridian_filtration(i, j, m, n)
                    if j <= m + i:
                        assert (first, second) == (i, i)
                    elif j - m - i < n:
                        assert (first, second) == (j - m, j - m - (j - m - i))
                    else:
                        assert (first, second) == (j - m, j - m - n)
                    assert 0 <= first - second <= n
                    if previous is not None:
                        assert first >= previous[0] and second >= previous[1]
                    previous = (first, second)
                    cases += 1
    print(f"ACCEPTANCE 3 PASS: filtration formula on {cases} window points")


def test_criterion_4_i_filtration():
    # the paper: for n > 2g the n-cable's step level of every occupied hook
    # point at a slot |m| <= g is its i-coordinate
    cases = 0
    for name, c in LIBRARY.items():
        g = c.genus_bound
        n = 2 * g + 1
        for m in range(-g, g + 1):
            hook = Region("hook", m)
            for p in hook.lattice_points(c, realize(c, hook).index):
                second = meridian_filtration(p.i, p.j, m, n).second
                assert second == hook_step(p.i, n) == p.i, (name, m, p)
            cases += 1
    print(f"ACCEPTANCE 4 PASS: step levels match the i-filtration in {cases} slots")


def test_criterion_5_structural_properties():
    trefoil = LIBRARY["T(2,3)"]
    cable = LIBRARY["T(2,3;2,5)"]

    # d^2 = 0 on constructions, including tensors of tensors
    layered = tensor(tensor(trefoil, mirror(cable)), LIBRARY["T(2,9)"])
    assert validate(layered).checks["d-squared"]
    assert validate(tensor(layered, LIBRARY["4_1"])).checks["d-squared"]

    for c in LIBRARY.values():
        assert mirror(mirror(c)) == c
        a1 = a1_algebraic(c)
        assert a1_algebraic(mirror(c)) == -a1
        assert (a1 > 0) - (a1 < 0) == epsilon(c)
        assert a1_algebraic(tensor(c, mirror(c))) == 0
        if epsilon(c) == 0:
            assert tau(c) == 0

    rule_pairs = 0
    for left in LIBRARY.values():
        for right in LIBRARY.values():
            a, b = a1_algebraic(left), a1_algebraic(right)
            same_sign = a * b > 0
            nonzero_sum = a * b < 0 and a + b != 0
            if not (same_sign or nonzero_sum or a == 0 or b == 0):
                continue
            rep = connect_sum_rules(left, right)
            assert rep.consistent, (left.name, right.name)
            rule_pairs += 1
    assert rule_pairs > 0

    # library values all have |a1| <= 1, so build +/-2 summands to make the
    # nonzero-sum mixed-sign rules bite as well
    plus_two = tensor(LIBRARY["T(4,5)"], mirror(cable))
    for pair in ((plus_two, mirror(trefoil)), (mirror(plus_two), trefoil)):
        rep = connect_sum_rules(*pair)
        assert rep.predicted is not None and rep.consistent
        rule_pairs += 1
    print(f"ACCEPTANCE 5 PASS: structural properties; {rule_pairs} connect sum rule pairs")


def test_criterion_6_property_suites_cover_the_rest():
    # the full-strength geometric claims are represented by the oracle
    # equivalence and property suites; the suite run is their executable form
    lines = []
    assert run_suite(seed_count=40, emit=lines.append)
    assert lines[-1] == "suite PASS"
    print("ACCEPTANCE 6 PASS: property suite stands in for the geometric claims")
