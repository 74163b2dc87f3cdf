import importlib
import pkgutil

import pytest

import cfk
from cfk.builders import box, random_model
from cfk.complexes import mirror, tensor, validate
from cfk.homology import F2Complex, _by_j, homology, realize
from cfk.invariants import _by_i, _by_steps, tau
from cfk.regions import LatticePoint, Region, RegionError

from oracles import (
    brute_homology_dim,
    brute_is_trivial,
    chain_map_by_points,
    d_squared_is_zero,
    f_map,
    g_map,
    is_trivial,
    leveled_region,
    located,
    quotient_then_include,
    region_reference,
    transpose,
    with_filtration,
)


def test_submodules_are_not_shadowed():
    # the package exports no name that hides a submodule, so that
    # ``import cfk.invariants as m`` binds the module; __main__ runs the CLI
    names = [m.name for m in pkgutil.iter_modules(cfk.__path__) if m.name != "__main__"]
    assert {"homology", "invariants"} <= set(names)
    for name in names:
        module = importlib.import_module(f"cfk.{name}")
        assert getattr(cfk, name) is module, name


def test_trefoil_column(trefoil):
    r = Region("vertical", 0)
    x = realize(trefoil, r)
    assert r.lattice_points(trefoil, x.index) == (
        LatticePoint("b0", 0, 1),
        LatticePoint("b1", 0, 0),
        LatticePoint("b2", 0, -1),
    )
    # single surviving entry: b1 -> b2 inside the column
    assert x.boundary == (0, 0b100, 0)
    h = homology(x)
    assert h.dimension == 1
    assert h.representatives == (0b001,)  # the class of [b0, 0, 1]


def test_unknot_hook(the_unknot):
    x = realize(the_unknot, Region("hook", 0))
    assert x.dim == 1
    assert x.boundary == (0,)


def test_trefoil_hook(trefoil):
    r = Region("hook", 0)
    x = realize(trefoil, r)
    points = r.lattice_points(trefoil, x.index)
    assert set(points) == {
        LatticePoint("b0", -1, 0),
        LatticePoint("b1", 0, 0),
        LatticePoint("b2", 0, -1),
    }
    k = points.index(LatticePoint("b1", 0, 0))
    targets = {points[t] for t in range(x.dim) if (x.boundary[k] >> t) & 1}
    assert targets == {LatticePoint("b0", -1, 0), LatticePoint("b2", 0, -1)}


def test_zero_boundary_dimension(the_unknot):
    # with no surviving boundary entries the homology is the whole basis
    x = realize(the_unknot, Region("vertical", 0))
    assert x.boundary == (0,)
    assert homology(x).dimension == x.dim == 1
    assert homology(realize(box(), Region("vertical", 0))).dimension == 0


def test_homology_matches_brute_force(library):
    regions = [
        Region("vertical", 0),
        Region("vertical", -2),
        Region("hook", 0),
        Region("hook", 1),
        Region("lhook", 0),
        Region("hook", -2),
    ]
    for c in library.values():
        if len(c.generators) > 13:
            continue
        for r in regions:
            x = realize(c, r)
            assert homology(x).dimension == brute_homology_dim(x.boundary), (c.name, r)


def test_representatives_are_nonbounding_cycles(library):
    for c in library.values():
        x = realize(c, Region("hook", tau(c)))
        h = homology(x)
        for z in h.representatives:
            image = 0
            for k in range(x.dim):
                if (z >> k) & 1:
                    image ^= x.boundary[k]
            assert image == 0


def test_f_map_trefoil(trefoil):
    f = f_map(trefoil, 1)
    killed = [p for k, p in enumerate(f.source.points) if f.columns[k] == 0]
    assert {(p.gen, p.i, p.j) for p in killed} == {("b1", 0, 0), ("b2", 0, -1)}
    sent = [
        (p, f.target.points[f.columns[k].bit_length() - 1])
        for k, p in enumerate(f.source.points)
        if f.columns[k]
    ]
    assert sent == [(LatticePoint("b0", 0, 1), LatticePoint("b0", 0, 1))]
    assert is_trivial(f)  # the positive-sign detection for the trefoil


def test_g_map_trefoil(trefoil):
    g = g_map(trefoil, 1)
    survivors = {p for k, p in enumerate(g.source.points) if g.columns[k]}
    assert all(p.i == 0 for p in survivors)
    assert not is_trivial(g)


def test_identity_quotient(trefoil):
    f = quotient_then_include(trefoil, Region("vertical", 0), Region("vertical", 0))
    assert f.columns == (0b001, 0b010, 0b100)
    assert not is_trivial(f)


def test_trivial_out_of_acyclic():
    b = box()
    f = quotient_then_include(b, Region("vertical", 0, 10), Region("vertical", 0))
    assert is_trivial(f)


def test_g_map_left_trefoil_trivial(left_trefoil):
    assert tau(left_trefoil) == -1
    assert is_trivial(g_map(left_trefoil, -1))


def test_triviality_matches_brute_force(library):
    for c in library.values():
        if len(c.generators) > 13:
            continue
        t = tau(c)
        for f in (f_map(c, t), g_map(c, t), f_map(c, t, clip=1), g_map(c, t, clip=-1)):
            got = is_trivial(f)
            want = brute_is_trivial(f.source.boundary, f.target.boundary, f.columns)
            assert got == want, c.name


def test_column_translation_invariance(library):
    for c in library.values():
        dims = {homology(realize(c, Region("vertical", i0))).dimension for i0 in (-3, 0, 2)}
        assert len(dims) == 1


def test_hook_stabilization(library):
    for c in library.values():
        g = c.genus_bound
        assert (
            homology(realize(c, Region("hook", g))).dimension
            == homology(realize(c, Region("hook", g + 2))).dimension
        )
        assert (
            homology(realize(c, Region("hook", -g))).dimension
            == homology(realize(c, Region("hook", -g - 2))).dimension
        )


def test_region_kind_enforced(trefoil):
    with pytest.raises(RegionError):
        realize(trefoil, "hook please")
    with pytest.raises(RegionError):
        Region("column", 0)


def test_noncommuting_kill_rejected(trefoil):
    source = located(trefoil, Region("vertical", 0))
    # killing b2 (the image of b1) but keeping b1 cannot commute
    with pytest.raises(RegionError):
        chain_map_by_points(source, source, {0, 1})


def _minus_j(shape, t, i, j):
    return -j


def _j_nonnegative(shape, t, i, j):
    return int(j >= 0)


def test_filtration_levels_checked(trefoil):
    r = Region("vertical", 0)
    x = realize(trefoil, r)
    with pytest.raises(RegionError):
        with_filtration(located(trefoil, r), (0, 0, 1))  # b1 -> b2 would raise the level
    with pytest.raises(RegionError):
        realize(trefoil, r, _minus_j)  # the same levels, (0, 0, 1)
    y = realize(trefoil, r, _j_nonnegative)  # levels (1, 1, 0)
    points = r.lattice_points(trefoil, x.index)
    assert r.lattice_points(trefoil, y.index) == (points[2], points[0], points[1])
    assert y.filtration == (0, 1, 1)
    assert y.boundary == (0, 0, 0b1)  # b1 -> b2 re-indexed
    assert homology(y).dimension == homology(x).dimension


def test_leveled_regions_match_their_definitions(library):
    # every shape and level, unleveled, by each route and by -j, on both
    # orientations of each complex (it and its mirror); a region whose
    # levels a boundary raises, as -j is on the column, must be refused by both
    pool = list(library.values()) + [random_model(seed, size=1) for seed in range(10)]
    pool += [random_model(seed, size=2) for seed in range(3)]
    pool += [mirror(c) for c in pool]
    compared = refused = 0
    for c in pool:
        g = c.genus_bound
        routes = [None, _by_i, _minus_j] + [_by_steps(n) for n in range(1, 2 * g + 3)]
        for shape in ("vertical", "hook", "lhook"):
            for t in range(-g - 2, g + 3):
                region = Region(shape, t)
                for route in routes:
                    try:
                        want = leveled_region(c, region, route)
                    except RegionError:
                        with pytest.raises(RegionError):
                            realize(c, region, route)
                        refused += 1
                        continue
                    got = realize(c, region, route)
                    points = region.lattice_points(c, got.index)
                    assert points == want.points, (c.name, region, route)
                    assert got.boundary == want.boundary, (c.name, region, route)
                    assert got.filtration == want.filtration, (c.name, region, route)
                    compared += 1
    assert compared > 0 and refused > 0


def test_reports_build_no_lattice_points(library):
    # a report realizes the column, the lhook and the hook, which hold no
    # points; realized afresh, the points of their indexed generators are
    # the oracle's, in the same order
    product = tensor(tensor(library["T(2,3)"], library["4_1"]), library["-T(2,3;2,5)"])
    for c in (library["conway"], product):
        assert validate(c).ok
        t = tau(c)
        keys = [(Region("vertical", 0), _by_j), (Region("lhook", t), _by_i),
                (Region("hook", t), _by_i)]
        fresh = [realize(c, region, level) for region, level in keys]
        assert all(vars(x).keys() == {"boundary", "filtration", "index"} for x in fresh)
        for (region, level), x in zip(keys, fresh):
            want = leveled_region(c, region, level).points
            assert region.lattice_points(c, x.index) == want, (c.name, region)


def test_regions_of_valid_complexes_square_to_zero(library):
    # realize trusts validate: a region of a valid complex is a subquotient,
    # so its boundary squares to zero, and so does its transpose
    pool = list(library.values())
    pool += [random_model(seed, size) for size in (1, 2, 3) for seed in range(20)]
    for c in pool:
        g = c.genus_bound
        for shape in ("vertical", "hook", "lhook"):
            for level in range(-g - 1, g + 2):
                x = realize(c, Region(shape, level))
                assert d_squared_is_zero(x), (c.name, shape, level)
                transposed = F2Complex(tuple(transpose(list(x.boundary))))
                assert d_squared_is_zero(transposed), (c.name, shape, level)


def test_lattice_points_agree_with_membership():
    # the point rule against the defining predicates, clipped and unclipped
    window = range(-12, 13)
    for shape in ("vertical", "hook", "lhook"):
        for level in range(-4, 5):
            for clip in (None, *range(-4, 5)):
                r = Region(shape, level, clip)
                for a in range(-8, 9):
                    on_diagonal = {
                        (i, i + a)
                        for i in window
                        if region_reference(shape, level, clip, i, i + a)
                    }
                    assert {r.point(a)} - {None} == on_diagonal, (r, a)
                    if clip is None:
                        assert len(on_diagonal) == 1, (r, a)


def test_tensor_region_realization_consistency(trefoil):
    # spot check: a tensor complex realizes with one point per generator on hooks
    t = tensor(trefoil, trefoil)
    x = realize(t, Region("hook", 0))
    assert x.dim == len(t.generators)


def test_random_models_brute_homology():
    for seed in range(12):
        c = random_model(seed, size=1)
        if len(c.generators) > 13:
            continue
        for r in (Region("vertical", 0), Region("hook", 0)):
            x = realize(c, r)
            assert homology(x).dimension == brute_homology_dim(x.boundary)

