from math import gcd

import pytest

from cfk.builders import (
    MAX_GENUS,
    AlexanderExponents,
    box,
    cable_exponents,
    conway_model,
    random_model,
    staircase,
    thin_model,
    torus_knot_exponents,
    unknot,
)
from cfk.complexes import ParameterError, mirror, serialize, tensor, validate
from cfk.homology import column, homology, realize
from cfk.invariants import a1_algebraic, epsilon, tau
from cfk.regions import Region

from oracles import sympy_cable_exponents, sympy_torus_exponents


def test_exponent_validation():
    with pytest.raises(ValueError):
        AlexanderExponents((1, 1, -1))  # not strictly decreasing
    with pytest.raises(ValueError):
        AlexanderExponents((2, 0, -1))  # not symmetric
    with pytest.raises(ValueError):
        AlexanderExponents((1, -1))  # even count
    with pytest.raises(ValueError):
        AlexanderExponents(())


def test_staircase_unknot_case():
    c = staircase(AlexanderExponents((0,)))
    assert len(c.generators) == 1
    assert not c.differential


def test_staircase_trefoil_shape(trefoil):
    assert [g.alexander for g in trefoil.generators] == [1, 0, -1]
    assert [g.maslov for g in trefoil.generators] == [0, -1, -2]
    assert {(e.src, e.dst, e.upower) for e in trefoil.differential} == {
        ("b1", "b2", 0),
        ("b1", "b0", 1),
    }


# every coprime p <= q <= 9, and two longer staircases
@pytest.mark.parametrize(
    "p,q",
    [(p, q) for p in range(1, 10) for q in range(p, 10) if gcd(p, q) == 1] + [(2, 11), (2, 13)],
)
def test_torus_exponents_match_sympy(p, q):
    assert torus_knot_exponents(p, q).exponents == sympy_torus_exponents(p, q)


def test_torus_exponents_frozen_values():
    assert torus_knot_exponents(2, 3).exponents == (1, 0, -1)
    assert torus_knot_exponents(2, 9).exponents == (4, 3, 2, 1, 0, -1, -2, -3, -4)
    assert torus_knot_exponents(4, 5).exponents == (6, 5, 2, 0, -2, -5, -6)
    assert torus_knot_exponents(1, 5).exponents == (0,)


def test_torus_rejects_bad_parameters():
    with pytest.raises(ValueError):
        torus_knot_exponents(2, 4)
    with pytest.raises(ValueError):
        torus_knot_exponents(0, 3)


def test_builders_refuse_a_genus_above_the_bound():
    # the genus is read off the parameters, so nothing is allocated for it;
    # every knot the repository builds lies far below, T(11,12) at genus 55
    q = 2 * MAX_GENUS + 1
    assert torus_knot_exponents(2, q).exponents[0] == MAX_GENUS
    with pytest.raises(ParameterError, match=f"genus {MAX_GENUS + 1} exceeds"):
        torus_knot_exponents(2, q + 2)
    with pytest.raises(ParameterError, match="genus 449985000 exceeds"):
        torus_knot_exponents(30000, 30001)
    trefoil = torus_knot_exponents(2, 3)
    assert cable_exponents(trefoil, 2, q - 4).exponents[0] == MAX_GENUS
    with pytest.raises(ParameterError, match=f"genus {MAX_GENUS + 1} exceeds"):
        cable_exponents(trefoil, 2, q - 2)
    with pytest.raises(ParameterError, match="genus 40000000000 exceeds"):
        cable_exponents(trefoil, 200000, 400001)
    assert MAX_GENUS >= torus_knot_exponents(11, 12).exponents[0] == 55
    # the bound does not bound p at genus 0, where T(p,1) is the unknot: the
    # loop over j stops at 2g + 1, not at p, so these return at once
    assert torus_knot_exponents(10**9, 1).exponents == (0,)
    assert cable_exponents(AlexanderExponents((0,)), 10**9, 1).exponents == (0,)
    assert cable_exponents(trefoil, 1, 10**9) == trefoil


# the four original cases first, so their ids stay, then the grid: bases
# T(2,3), T(2,5), T(3,4) and T(2,3;2,5), p <= 5, coprime q <= 15
CABLE_BASES = [(2, 3), (2, 5), (3, 4), (2, 3, 2, 5)]
CABLE_CASES = [((2, 3), 2, 5), ((2, 3), 2, 7), ((2, 3), 3, 4), ((2, 5), 2, 9)]
CABLE_CASES += [
    (base, p, q)
    for base in CABLE_BASES
    for p in range(1, 6)
    for q in range(1, 16)
    if gcd(p, q) == 1 and (base, p, q) not in CABLE_CASES
]


@pytest.mark.parametrize("base,p,q", CABLE_CASES)
def test_cable_exponents_match_sympy(base, p, q):
    # the oracle multiplies the polynomials and asserts the alternating form
    # of the product, so every case also checks that the cable is a staircase
    e = torus_knot_exponents(*base[:2])
    if len(base) == 4:
        e = cable_exponents(e, *base[2:])
    assert cable_exponents(e, p, q).exponents == sympy_cable_exponents(e.exponents, p, q)


def test_cable_frozen_value():
    # (t^2 - 1 + t^-2)(t^2 - t + 1 - t^-1 + t^-2) = t^4 - t^3 + 1 - t^-3 + t^-4
    e = cable_exponents(torus_knot_exponents(2, 3), 2, 5)
    assert e.exponents == (4, 3, 0, -3, -4)


def test_box_is_acyclic_everywhere():
    b = box()
    assert column(b).homology.dimension == 0
    # vertical edges only in a column; horizontal edges only deep in the arm
    assert homology(realize(b, Region("vertical", 0))).dimension == 0
    assert homology(realize(b, Region("hook", -3))).dimension == 0
    assert homology(realize(b, Region("hook", 3))).dimension == 0


def test_box_tensor_unknot_is_box():
    t = tensor(box(), unknot())
    stripped = {(g.id.split("⊗")[0], g.alexander) for g in t.generators}
    assert stripped == {(g.id, g.alexander) for g in box().generators}


def test_thin_model_degenerate_is_staircase(trefoil):
    assert thin_model(1, 0) == trefoil


def test_thin_model_figure_eight():
    c = thin_model(0, 1)
    assert len(c.generators) == 5
    assert validate(c).ok
    assert (tau(c), epsilon(c), a1_algebraic(c)) == (0, 0, 0)


def test_thin_model_negative():
    assert a1_algebraic(thin_model(-2, 3)) == -1


def test_thin_model_invariants_ignore_boxes():
    for t in (-2, 0, 1):
        values = {
            (tau(thin_model(t, b, o)), a1_algebraic(thin_model(t, b, o)))
            for b, o in ((0, 0), (1, 0), (3, 1), (2, -2))
        }
        assert len(values) == 1


def test_conway_model():
    c = conway_model()
    assert len(c.generators) == 1 + 4 * 3
    assert validate(c).ok
    assert (tau(c), epsilon(c), a1_algebraic(c)) == (0, 0, 0)
    assert sorted(g.alexander for g in c.generators if g.id.endswith("tr")) == [-1, 0, 1]


def test_random_models_validate():
    for seed in range(1000):
        assert validate(random_model(seed)).ok


def test_random_model_deterministic():
    assert serialize(random_model(7)) == serialize(random_model(7))
    assert serialize(random_model(7)) != serialize(random_model(8))


def test_random_self_sum_vanishes():
    small = [c for c in (random_model(s) for s in range(40)) if len(c.generators) <= 12]
    assert len(small) >= 3
    for c in small[:5]:
        assert a1_algebraic(tensor(c, mirror(c))) == 0
