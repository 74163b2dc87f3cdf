"""Region realizations, level sorting and mod-2 homology.

Realizing a region turns a bifiltered complex into a plain finite chain
complex over the two-element field.  A region is a subquotient, so its
d^2 = 0 follows from the complex's, which validate checks; nothing here
re-checks it.  Sorting by a level checks that no boundary raises the
level.  Chains are int bitsets over the basis (see gf2); homology
representatives are read off the pivots of one deterministic reduction in
basis order, so fixtures stay stable.  There are no chain maps here: the maps between regions that the
invariants need send each lattice point to itself, and the death reader
in invariants applies them as plain column lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import gf2
from .complexes import CfkComplex
from .regions import LatticePoint, Region, RegionError


@dataclass(frozen=True)
class F2Complex:
    """Chain complex over the two-element field with a fixed ordered basis.

    ``boundary`` holds one column bitmask per basis point.  ``filtration``
    optionally assigns an integer level to each basis point; only
    sorted_by_level sets it, after checking that no boundary raises it.
    """

    points: tuple[LatticePoint, ...]
    boundary: tuple[int, ...]
    filtration: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.points)


@lru_cache(maxsize=4096)
def realize(complex: CfkComplex, region: Region) -> F2Complex:
    """Subquotient complex spanned by the region's occupied lattice points.

    A differential entry d(x) = U^k y connects [x, i, j] to [y, i-k, i-k+A(y)];
    the induced boundary keeps exactly the pairs with both endpoints inside
    the region.  A region meets each diagonal j - i = A(y) at most once, so
    the entry stays inside exactly when y's point in it has i = i(x) - k.
    Results are cached; everything involved is immutable.
    """
    if not isinstance(region, Region):
        raise RegionError(f"unknown region kind: {region!r}")
    points: list[LatticePoint] = []
    for g in complex.generators:
        point = region.point(g.alexander)
        if point is not None:
            points.append(LatticePoint(g.id, *point))
    index = {p.gen: k for k, p in enumerate(points)}

    boundary = [0] * len(points)
    for k, p in enumerate(points):
        for e in complex.entries_from[p.gen]:
            t = index.get(e.dst)
            if t is not None and points[t].i == p.i - e.upower:
                boundary[k] ^= 1 << t
    return F2Complex(tuple(points), tuple(boundary))


@dataclass(frozen=True)
class HomologyResult:
    dimension: int
    representatives: tuple[int, ...]  # cycle bitmasks over the basis


def homology(x: F2Complex) -> HomologyResult:
    """Kernel-mod-image over the two-element field.

    Representatives are the kernel vectors whose top index is no pivot of
    the boundary image; pivots are highest bits.  A kernel vector is
    homologous to a combination of earlier ones exactly when some boundary
    has its top index, so these are the vectors that the greedy choice
    keeps when it extends the image basis with each kernel vector in order,
    read off the one reduction that split the columns.
    Not cached: every cache in cfk is keyed on the knot complex plus small
    values.  realize is keyed on (complex, region), column on the complex,
    and the invariants' death reader on (complex, shape, route).
    """
    basis, kernel = gf2.image_and_kernel(list(x.boundary))
    reps = [z for z in kernel if z.bit_length() - 1 not in basis.by_pivot]
    return HomologyResult(len(reps), tuple(reps))


def sorted_by_level(x: F2Complex, levels: tuple[int, ...]) -> F2Complex:
    """x with its basis re-indexed in ascending level (ties in basis order).

    The result carries the sorted levels.  It raises RegionError when a
    boundary raises the level, so each sublevel set is a subcomplex and a
    prefix of the basis: one column reduction then answers every cutoff at
    once.  d^2 = 0 is not re-checked; a permutation keeps it.
    """
    order = sorted(range(x.dim), key=levels.__getitem__)
    new_index = [0] * x.dim
    for new, old in enumerate(order):
        new_index[old] = new
    cols = []
    for old in order:
        col, v = 0, x.boundary[old]
        while v:
            low = v & -v
            t = low.bit_length() - 1
            if levels[t] > levels[old]:
                raise RegionError("boundary raises the filtration level")
            col |= 1 << new_index[t]
            v ^= low
        cols.append(col)
    points = tuple(x.points[k] for k in order)
    return F2Complex(points, tuple(cols), tuple(levels[k] for k in order))


@lru_cache(maxsize=4096)
def column(complex: CfkComplex) -> tuple[F2Complex, HomologyResult]:
    """The column at i = 0, re-indexed in ascending j, and its homology.

    The one reduction of the column: validate's rank check, tau, the death
    reader, the suite's Euler characteristic and the report's vertical
    dimension all read it.  It raises RegionError when a U^0 entry breaks
    the Alexander rule; validate reads it only once that rule and d^2 = 0
    have passed.
    """
    x = realize(complex, Region("vertical", 0))
    x = sorted_by_level(x, tuple(p.j for p in x.points))
    return x, homology(x)


def dual(x: F2Complex) -> F2Complex:
    """The cochain complex of x on the same basis: the transposed boundary.

    Its homology is the cohomology of x, and a quotient piece of x is a
    subcomplex of the dual.
    """
    cols = [0] * x.dim
    for k, col in enumerate(x.boundary):
        while col:
            low = col & -col
            cols[low.bit_length() - 1] |= 1 << k
            col ^= low
    return F2Complex(x.points, tuple(cols))
