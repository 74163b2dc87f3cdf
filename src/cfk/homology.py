"""Region realizations, leveled in one pass, and mod-2 homology.

Realizing a region turns a bifiltered complex into a plain finite chain
complex over the two-element field, in one pass over the complex's int
arrays that also orders the basis by a level when given one.  Generators
of one Alexander grading form one contiguous index range, and a region's
point depends on the grading alone, so realize places a whole block at
once.  A realization holds only what a reduction reads: columns, levels
and generator indices (Region.lattice_points names the points).  A region
is a subquotient, so its d^2 = 0 follows from the complex's, which
validate checks.  Chains are int bitsets over the basis (see gf2);
homology representatives and their dual cocycles are read off the pivots
of one deterministic reduction in basis order, so fixtures stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple

from . import gf2
from .complexes import CfkComplex, lifetime_cache
from .regions import Region, RegionError

# level(shape, t, i, j): the level of the point (i, j) of the region at t
Level = Callable[[str, int, int, int], int]


@dataclass(frozen=True)
class F2Complex:
    """Chain complex over the two-element field with a fixed ordered basis.

    ``boundary`` holds one column bitmask per basis point; realize sets
    ``index``, each point's generator index, and, given a level, ``filtration``.
    """

    boundary: tuple[int, ...]
    filtration: tuple[int, ...] | None = None
    index: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.boundary)


@lru_cache(maxsize=0)  # caches nothing; kept for perfbench/tracing.py's realize.cache_info()
def realize(complex: CfkComplex, region: Region, level: Level | None = None) -> F2Complex:
    """Subquotient complex spanned by the region's occupied lattice points.

    A differential entry d(x) = U^k y connects [x, i, j] to [y, i-k, i-k+A(y)];
    the region meets each diagonal j - i = A(y) at most once, so the entry
    stays inside exactly when y's point in it has i = i(x) - k.  Generators
    come in blocks of equal grading, so the point and its level are
    evaluated once per block, and a block is placed whole.  Given a level,
    the blocks are in ascending level (ties, like the unleveled basis, in
    generator order) and RegionError is raised when a boundary raises the
    level, so each sublevel set is a prefix and one reduction reads every
    cutoff.  The highest target of a column has the highest level, so that
    is the one compared.  Nothing reads one twice, so none is cached.
    """
    if not isinstance(region, Region):
        raise RegionError(f"unknown region kind: {region!r}")
    shape, t = region.shape, region.level
    blocks = []  # (level, start, stop, i) per block that the region holds
    for a, start, stop in complex.blocks:
        p = region.point(a)
        if p:
            blocks.append((level(shape, t, *p) if level else 0, start, stop, p[0]))
    if level:
        blocks.sort(key=itemgetter(0))
    n = len(complex.ids)
    at: list = [None] * n  # i per generator index; None off the region
    position = [0] * n  # basis position per generator index
    keep: list[int] = []
    levels: list[int] = []
    for s, start, stop, i in blocks:
        size = stop - start
        at[start:stop] = [i] * size
        position[start:stop] = range(len(keep), len(keep) + size)
        keep += range(start, stop)
        levels += [s] * size
    targets, upowers, offsets = complex.targets, complex.upowers, complex.offsets
    boundary = []
    for k, old in enumerate(keep):
        col, i = 0, at[old]
        for e in range(offsets[old], offsets[old + 1]):
            if at[targets[e]] == i - upowers[e]:
                col |= 1 << position[targets[e]]
        if col and levels[col.bit_length() - 1] > levels[k]:
            raise RegionError("boundary raises the filtration level")
        boundary.append(col)
    return F2Complex(tuple(boundary), tuple(levels) if level else None, tuple(keep))


class HomologyResult(NamedTuple):
    representatives: tuple[int, ...]  # cycle bitmasks over the basis
    cocycles: tuple[int, ...]  # the cocycle dual to each representative

    @property
    def dimension(self) -> int:
        return len(self.representatives)


def homology(x: F2Complex) -> HomologyResult:
    """Kernel-mod-image over the two-element field, with the dual cocycles.

    Representatives are the kernel vectors whose top index is no pivot of
    the boundary image; pivots are highest bits.  A kernel vector is
    homologous to a combination of earlier ones exactly when some boundary
    has its top index, so these are the vectors that the greedy choice
    keeps when it extends the image basis with each kernel vector in order.
    The cocycle of a representative with top index p reads bit p of a vector
    reduced by the image basis, so it vanishes on boundaries, is 1 on its
    representative and 0 on earlier ones: bit p, and bit q at each pivot q
    whose basis vector meets its lower bits an odd number of times.
    """
    by_pivot, kernel = gf2.image_and_kernel(list(x.boundary))
    pivots = sorted(by_pivot.items())
    reps = [z for z in kernel if z.bit_length() - 1 not in by_pivot]
    cocycles = []
    for z in reps:
        phi = 1 << z.bit_length() - 1
        for q, (v, _) in pivots:  # ascending; pivots below phi's bit never meet it
            phi |= ((v & phi).bit_count() & 1) << q
        cocycles.append(phi)
    return HomologyResult(tuple(reps), tuple(cocycles))


def _by_j(shape: str, t: int, i: int, j: int) -> int:
    """The column's level: every point sits at its j-coordinate."""
    return j


Column = NamedTuple("Column", [("index", tuple), ("homology", HomologyResult)])


@lifetime_cache
def column(complex: CfkComplex) -> Column:
    """The column at i = 0, realized in ascending j: generator indices, homology.

    The one reduction of the column: validate's rank check, tau, the death
    reader, the suite's Euler characteristic and the report's vertical
    dimension all read it.  It keeps neither the boundary nor the j-levels:
    the column point of generator k has j = complex.gradings[k].  It is
    cached for as long as the complex lives (see lifetime_cache): an equal
    complex shares it meanwhile, and a temporary's column goes with it.
    It raises RegionError when a U^0 entry breaks the Alexander rule;
    validate reads it only once that rule and d^2 = 0 have passed.
    """
    x = realize(complex, Region("vertical", 0), _by_j)
    return Column(x.index, homology(x))
