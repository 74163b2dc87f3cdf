"""Concordance invariants tau, epsilon and a1, by two equivalent routes.

A route is a level function level(shape, t, i, j): the level it gives the
point (i, j) of the hook or lhook at tau = t.  The algebraic route _by_i
gives i; the surgery route _by_steps(n) gives the step level that the
(n,1)-cable of the meridian induces on the hook (the large-surgery
model), the second coordinate of meridian_filtration and the only
definition of a step level here, mirrored on the lhook.  One death
reader realizes the hook or lhook leveled by a route, in one pass, and
finds the least level at which the map from or to the column dies on
homology; a1 is epsilon's sign times the level at which the map of that
sign dies.  The routes' agreement is the theorem the test suite exercises.

Each cutoff family is a filtration of one complex, so every cutoff is read
off one filtered reduction (persistence) in ascending level instead of one
homology per level: the column by j for tau, the lhook by level for
positive a1, and for negative a1 the hook, whose quotient pieces have
relative cycles spanned by that reduction's combos (see _death).  A cold
report eliminates the column, the lhook and the hook.  epsilon asks
whether the maps die at all, so it reads which of the two algebraic
reductions finds a level.  Both routes read a1 through one signed reader,
_a1, which is given epsilon's sign and reads the level at which the map
of that sign dies.

Caches are keyed on the knot complex, never on a chain complex, and each
entry lives exactly as long as the complex it was first computed for
(complexes.lifetime_cache).  cfk has two: homology.column, which keeps
neither boundary nor j-levels, and the death reader here, one entry per
(shape, route) of a complex.  An equal complex shares those entries while
that complex lives, and a temporary, such as a mirror or a tensor built
for one check, takes its entries with it when it goes.  realize caches
nothing, so a realization lives only while it is read.  A route is a
hashable value, _by_i or _by_steps(n), so a repeated read costs one cache
lookup and never re-levels a region.  On a miss, a route that gives i on
every grading's point reads the _by_i entry, so the surgery route shares
the algebraic route's reductions wherever the two agree.  tau, epsilon and
a1 are plain reads of those entries, and a report reads the two algebraic
deaths once, for epsilon and the hook dimensions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

from . import gf2
from .complexes import CfkComplex, CfkError, ParameterError, lifetime_cache, tensor
from .homology import Level, column, realize
from .regions import Region


class InvariantViolation(CfkError):
    """A property that holds for every valid complex failed to hold."""


class SearchExhausted(CfkError):
    """An invariant has no value: the column has no homology generator, or the
    hook map never dies.  Neither happens on a complex that passed validate."""


class BiFiltrationLevel(NamedTuple):
    first: int
    second: int


def meridian_filtration(i: int, j: int, m: int, n: int) -> BiFiltrationLevel:
    """Level of the lattice point (i, j) in surgery slot m under the n-cable.

    Three cases: below the diagonal j = m + i the level is [i, i]; at height
    k above it, [j-m, j-m-k]; from height n on the drop saturates at n.
    """
    if n < 1:
        raise ParameterError(f"cable parameter must be at least 1, got {n}")
    if j <= m + i:
        return BiFiltrationLevel(i, i)
    k = j - m - i
    if k < n:
        return BiFiltrationLevel(j - m, j - m - k)
    return BiFiltrationLevel(j - m, j - m - n)


def _by_i(shape: str, t: int, i: int, j: int) -> int:
    """The algebraic route: every point sits at its i-coordinate."""
    return i


class _by_steps(NamedTuple):
    """The surgery route: the n-cable's step levels.

    On the hook a point's level is the second coordinate of
    meridian_filtration.  The lhook at t is the mirror image of the hook
    at -t, so it carries the mirrored step levels.  A value: equal n give
    equal, equally hashed routes, which share the death reader's entries.
    """

    n: int

    def __call__(self, shape: str, t: int, i: int, j: int) -> int:
        if shape == "hook":
            return meridian_filtration(i, j, t, self.n).second
        return -meridian_filtration(-i, -j, -t, self.n).second


class _Death(NamedTuple):
    level: int | None  # None when the map never dies
    target_dim: int  # dimension of the target's homology


@lifetime_cache
def _death(complex: CfkComplex, shape: str, route: Level) -> _Death:
    """Where the map between the column and the hook or lhook at tau dies.

    realize levels the region by the route in ascending level; the answer
    is the least level s, at least 0, at which the map dies on homology,
    read off one reduction of the target's n boundary columns.  A route
    that gives i on every grading's point reads the _by_i entry.  Both maps
    send a generator's column point (0, A) to its point in the region when
    the two coincide, else to 0, and f lists that as columns.  The k kernel
    combos below bit n give the target's homology dimension, k - (n - k).

    On the lhook, f: column -> {level <= s}, with each f(z) appended.  Every
    combo has its own column as top bit, so f(z) is a boundary exactly when
    it lands in the kernel, and its combo's top bit below n is the last
    column needed; the level is None when some f(z) is no boundary.

    On the hook, g: hook -> column dies on the quotient {level >= -s} when
    each psi = phi . g, phi a column cocycle, pairs evenly with every
    relative cycle of (hook, {level < -s}).  Column k ends as R_k = d V_k,
    V_k its combo, and the nonzero R_k have distinct pivots, so these are
    spanned by the kernel combos and the combos whose pivot level is below
    -s.  The map never dies if some psi pairs oddly with a kernel combo;
    else it dies at s = max(0, -min level(pivot)) over the pivots whose
    combo pairs oddly with some psi, and at 0 when there is none.

    f is a plain column list, not a checked chain map: a same-point map
    between regions commutes with the boundaries by the region theory, and
    both ends are chain complexes because validate has checked d^2 = 0 on
    the knot complex.  The test oracles build the same maps with their own
    commutation and d^2 checks.  Every level found is at most 2g: an lhook
    point has i = max(0, t - A) <= 2g, a hook point -i <= 2g, and the step
    levels never exceed these.
    """
    t = tau(complex)
    region = Region(shape, t)
    grades = complex.gradings
    at = {a: region.point(a) for a, _, _ in complex.blocks}
    if route is not _by_i and all(route(shape, t, i, j) == i for i, j in at.values()):
        return _death(complex, shape, _by_i)
    column_index, h = column(complex)
    target = realize(complex, region, route)
    same = {a for a, p in at.items() if p == (0, a)}  # gradings whose points coincide
    where = {g: k for k, g in enumerate(target.index)}
    f = [1 << where[g] if grades[g] in same else 0 for g in column_index]
    levels, n = target.filtration, target.dim
    images = [gf2.apply_columns(f, z) for z in h.representatives] if shape == "lhook" else []
    by_pivot, kernel = gf2.image_and_kernel([*target.boundary, *images])
    pulled = [z & (1 << n) - 1 for z in kernel if z.bit_length() > n]
    dim = 2 * (len(kernel) - len(pulled)) - n
    if shape == "hook":
        psi = [gf2.apply_columns(f, phi) for phi in h.cocycles]  # each phi . g
        if any((p & z).bit_count() & 1 for p in psi for z in kernel):
            return _Death(None, dim)
        for q in sorted(by_pivot):  # levels ascend with q: the first odd pivot has the least
            if any((p & by_pivot[q][1]).bit_count() & 1 for p in psi):
                return _Death(max(0, -levels[q]), dim)
        return _Death(0, dim)  # no pivot combo pairs oddly with any psi
    if len(pulled) < len(images):  # some f(z) got a pivot: it is no boundary
        return _Death(None, dim)
    return _Death(max([0] + [levels[z.bit_length() - 1] for z in pulled]), dim)


def tau(complex: CfkComplex) -> int:
    """Least cutoff s whose column subcomplex {j <= s} still sees the homology generator.

    The column is reduced once in ascending j.  Its kernel comes out with
    one top bit per cycle, so the first representative is the earliest
    cycle in j order that is not a boundary, and tau is the j of its top
    basis point, the Alexander grading of its generator, so |tau| <= g.
    """
    index, h = column(complex)
    if not h.representatives:
        raise SearchExhausted("the column has no homology generator; complex invalid")
    return complex.gradings[index[h.representatives[0].bit_length() - 1]]


def _algebraic(complex: CfkComplex) -> tuple[int, _Death, _Death]:
    """epsilon and the algebraic route's deaths on the lhook and on the hook.

    epsilon is the sign of the one hook map that dies on homology, +1 for
    the column-to-lhook map and -1 for the hook-to-column map, and 0 when
    neither dies.
    """
    lhook, hook = _death(complex, "lhook", _by_i), _death(complex, "hook", _by_i)
    if lhook.level is not None and hook.level is not None:
        raise InvariantViolation("both hook maps vanish on homology")
    eps = 1 if lhook.level is not None else -1 if hook.level is not None else 0
    return eps, lhook, hook


def epsilon(complex: CfkComplex) -> int:
    """Sign invariant from which of the two hook maps dies on homology."""
    return _algebraic(complex)[0]


def _a1(complex: CfkComplex, route: Level, eps: int) -> int:
    """a1 read with a route's levels: where the hook map of sign eps dies.

    For positive sign: the least s at which the column-to-lhook map dies
    on homology once the lhook is cut to {level <= s}.  For negative sign:
    minus the least s at which the hook-to-column map dies once the hook
    is cut to {level >= -s}, where the pulled-back column cocycles must pair
    evenly with every relative cycle of the hook's own reduction.  Zero sign
    gives zero.
    """
    if eps == 0:
        return 0
    s = _death(complex, "lhook" if eps == 1 else "hook", route).level
    if s is None:
        raise SearchExhausted("the hook map never dies; complex invalid")
    return eps * s


def a1_algebraic(complex: CfkComplex) -> int:
    """Refinement of epsilon: where the hook map of its sign dies, by i."""
    return _a1(complex, _by_i, epsilon(complex))


def _surgery_route(complex: CfkComplex, n: int | None = None) -> _by_steps:
    """The step route at n, 2g + 1 by default; it computes a1 only for n above 2g."""
    g = complex.genus_bound
    if n is None:
        n = 2 * g + 1
    if n <= 2 * g:
        raise ParameterError(f"need n > {2 * g} (twice the genus bound), got {n}")
    return _by_steps(n)


def a1_surgery(complex: CfkComplex, n: int | None = None) -> int:
    """a1 read off the meridian-cable step filtration on the surgery models.

    Requires n above twice the genus bound g; n defaults to 2g + 1.  The
    reader, _a1 with _by_steps(n), gives eps * min(|a1|, n) at every n >= 1,
    which is a1 for n > 2g.  Proof: the hook at t holds (0, a) for a <= t
    and (t - a, t) for a > t.  With k = a - t, meridian_filtration's second
    coordinate is i while k < n and -n once k >= n, where i = -k; so a hook
    point's step level is max(i, -n), and by _by_steps' mirror an lhook
    point's is min(i, n).  So the step cut at s is the i cut at s for s < n
    and the whole region, an i cut at large s, for s >= n.  A map that dies
    at a cutoff stays dead at every larger one, which factors through it by
    inclusion on the lhook and by projection on the hook.  As the map of
    eps's sign dies by i at |a1|, by steps it dies at min(|a1|, n).
    """
    return _a1(complex, _surgery_route(complex, n), epsilon(complex))


@dataclass(frozen=True)
class InvariantReport:
    name: str
    tau: int
    epsilon: int
    a1: int
    a1_surgery: int
    surgery_n: int
    genus_bound: int
    homology_dims: dict[str, int]

    def rows(self) -> list[tuple[str, str]]:
        values = self.as_dict()
        dims = values.pop("homology_dims")
        return [(k, str(v)) for k, v in values.items()] + [
            (f"dim H {kind}", str(dim)) for kind, dim in dims.items()
        ]

    def as_table(self) -> str:
        width = max(len(k) for k, _ in self.rows())
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in self.rows())

    def as_dict(self) -> dict:
        return asdict(self)


def invariants(complex: CfkComplex, n: int | None = None) -> InvariantReport:
    """Full report; raises InvariantViolation when the two a1 routes disagree.

    Like tau, epsilon, a1_algebraic and a1_surgery, it assumes a complex
    that passed validate, as the CLI ensures.  An invalid complex may raise
    or may get a report that means nothing.
    """
    t = tau(complex)
    eps, lhook, hook = _algebraic(complex)
    route = _surgery_route(complex, n)
    a1, a1s = _a1(complex, _by_i, eps), _a1(complex, route, eps)
    if a1 != a1s:
        raise InvariantViolation(
            f"a1 routes disagree on {complex.name}: algebraic {a1}, surgery {a1s}"
        )
    if (a1 > 0) - (a1 < 0) != eps:
        raise InvariantViolation(f"sgn(a1) != epsilon on {complex.name}")
    dims = {
        "vertical": column(complex).homology.dimension,
        "hook": hook.target_dim,
        "lhook": lhook.target_dim,
    }
    return InvariantReport(
        name=complex.name,
        tau=t,
        epsilon=eps,
        a1=a1,
        a1_surgery=a1s,
        surgery_n=route.n,
        genus_bound=complex.genus_bound,
        homology_dims=dims,
    )


@dataclass(frozen=True)
class ConnectSumReport:
    a1_left: int
    a1_right: int
    predicted: int | None  # None when the rule makes no prediction
    computed: int
    rule: str

    @property
    def consistent(self) -> bool:
        return self.predicted is None or self.predicted == self.computed


def connect_sum_prediction(a: int, b: int) -> tuple[int | None, str]:
    """Predicted a1 of a connect sum from the summands' values, when a rule applies.

    Hom's rule: the summand of smaller magnitude wins.  That is the minimum
    of a positive sum and the maximum of a negative one, whatever the signs.
    """
    if a == 0 or b == 0:
        return a + b, "zero summand passes through"
    if a == -b:
        return None, "opposite values cancel: no prediction"
    return min(a, b, key=abs), "smaller magnitude wins"


def connect_sum_rules(left: CfkComplex, right: CfkComplex) -> ConnectSumReport:
    """Evaluate a1 on the tensor and compare against the applicable sum rule."""
    a = a1_algebraic(left)
    b = a1_algebraic(right)
    predicted, rule = connect_sum_prediction(a, b)
    computed = a1_algebraic(tensor(left, right))
    return ConnectSumReport(a, b, predicted, computed, rule)
