"""Lattice regions carving subquotients out of a bifiltered complex.

A region is one of three shapes, optionally clipped once: the column
{i = level}, the hook {max(i, j - level) = 0} and the mirror-shaped hook
{min(i, j - level) = 0}.  Each shape meets every diagonal j - i = A in
exactly one point.  The complement of a region, clipped or not, inside
the full lattice splits into a sub part and a quotient part, so
restricting a differential to a region always yields a genuine chain
complex.  The coordinates of a point are (i, j) with j - i the Alexander
grading of its generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .complexes import CfkComplex, CfkError


class RegionError(CfkError):
    """Region misuse: unknown shape, or a broken subquotient or level order."""


class LatticePoint(NamedTuple):
    gen: str
    i: int
    j: int


# shape -> (defining equation, clip condition) as describe() prints them;
# shift is -level with its sign, so a hook at level -1 reads j+1
_SHAPES = {
    "vertical": ("i={level}", "j<={}"),
    "hook": ("max(i,j{shift})=0", "i>={}"),
    "lhook": ("min(i,j{shift})=0", "i<={}"),
}


@dataclass(frozen=True)
class Region:
    """The column, hook or lhook at ``level``, cut by ``clip`` when given.

    The clip keeps ``j <= clip`` on the column (a subcomplex of it),
    ``i >= clip`` on the hook (a quotient by low arm columns) and
    ``i <= clip`` on the lhook (a subcomplex).
    """

    shape: str
    level: int
    clip: int | None = None

    def __post_init__(self) -> None:
        if self.shape not in _SHAPES:
            raise RegionError(f"unknown region shape: {self.shape!r}")

    def point(self, alexander: int) -> tuple[int, int] | None:
        """The region's point on the diagonal j - i = alexander, or None if clipped.

        >>> Region("hook", 2).point(1), Region("hook", 2).point(5)
        ((0, 1), (-3, 2))
        """
        level, clip = self.level, self.clip
        if self.shape == "vertical":
            i, j = level, level + alexander
            kept = clip is None or j <= clip
        elif self.shape == "hook":
            i, j = min(0, level - alexander), min(alexander, level)
            kept = clip is None or i >= clip
        else:
            i, j = max(0, level - alexander), max(alexander, level)
            kept = clip is None or i <= clip
        return (i, j) if kept else None

    def lattice_points(self, complex: CfkComplex, index) -> tuple[LatticePoint, ...]:
        """The point [x, i, j] of each indexed generator x: a realization's basis points."""
        ids, grades = complex.ids, complex.gradings
        at = {a: self.point(a) for a, _, _ in complex.blocks}
        return tuple([LatticePoint(ids[k], *at[grades[k]]) for k in index])

    def describe(self) -> str:
        equation, clipped = _SHAPES[self.shape]
        shift = f"-{self.level}" if self.level >= 0 else f"+{-self.level}"
        text = equation.format(level=self.level, shift=shift)
        if self.clip is not None:
            text += ", " + clipped.format(self.clip)
        return "{" + text + "}"
