"""Executable property suite over the named library and random models.

Every property is a law run by ``_over`` on each of its cases, complexes or
tuples, and gives the cases checked and one failure line per failing case.
The runner prints one line per property and reports overall success.
Everything is deterministic in the seed count.
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Callable, Iterable, Iterator

from .builders import (
    MAX_GENUS,
    box,
    build_library,
    random_model,
    staircase,
    thin_model,
    torus_knot_exponents,
)
from .complexes import (
    CfkComplex,
    ParameterError,
    direct_sum,
    load_file,
    mirror,
    parse,
    serialize,
    tensor,
    validate,
)
from .homology import column, homology, realize
from .invariants import (
    ConnectSumReport,
    _a1,
    _by_steps,
    a1_algebraic,
    connect_sum_rules,
    epsilon,
    meridian_filtration,
    tau,
)
from .regions import LatticePoint, Region


def _offender(c: CfkComplex, what: str) -> str:
    return f"{what} [{c.name}]\n{serialize(c)}"


class SuiteContext:
    def __init__(self, seed_count: int, extra_files: Iterable[str] = ()):
        self.library = build_library()
        randoms = [random_model(seed) for seed in range(seed_count)]
        extras = [load_file(path) for path in extra_files]
        for c in extras:  # some properties loop over every m in [-g, g]
            if c.genus_bound > MAX_GENUS:
                raise ParameterError(f"extra {c.name!r}: genus bound {c.genus_bound} > {MAX_GENUS}")
        valid = [validate(c).ok for c in extras]
        # the invariants assume a valid complex, so extras that fail
        # validate reach the validate property only
        self.invalid = [c for c, ok in zip(extras, valid) if not ok]
        extras = [c for c, ok in zip(extras, valid) if ok]
        self.pool = list(self.library.values()) + randoms + extras
        # smaller pools for the properties whose cost is quadratic in size
        self.small_pool = list(self.library.values()) + randoms[:10] + extras
        self.tiny_pool = [c for c in self.small_pool if len(c.ids) <= 20]


Property = Callable[[SuiteContext], tuple[int, list[str]]]


def _over(cases: Callable[[SuiteContext], Iterable]) -> Callable[..., Property]:
    """Make a law, a case's whole failure line or None, into a property over
    the items of ``cases(ctx)``: the cases are counted as they are iterated,
    and each failing case gives one line, in case order."""
    def wrap(law: Callable[[Any], str | None]) -> Property:
        def prop(ctx: SuiteContext) -> tuple[int, list[str]]:
            count, failures = 0, []
            for count, case in enumerate(cases(ctx), 1):
                if (why := law(case)) is not None:
                    failures.append(why)
            return count, failures
        return prop
    return wrap


@_over(lambda ctx: ctx.pool + ctx.invalid)
def prop_validate(c: CfkComplex) -> str | None:
    failed = [k for k, ok in validate(c).checks.items() if not ok]
    return _offender(c, f"validation failed: {', '.join(failed)}") if failed else None


@_over(lambda ctx: ctx.pool)
def prop_round_trip(c: CfkComplex) -> str | None:
    text = serialize(c)
    if serialize(parse(text)) != text:
        return _offender(c, "serialization round trip not canonical")
    return None


@_over(lambda ctx: ctx.pool)
def prop_mirror_involution(c: CfkComplex) -> str | None:
    if mirror(mirror(c)) != c:
        return _offender(c, "mirror applied twice is not the identity")
    return None


@_over(lambda ctx: ctx.pool)
def prop_slice_dim_one(c: CfkComplex) -> str | None:
    # reads the cached column reduction that validate's rank check made
    dim = column(c).homology.dimension
    return _offender(c, f"column homology dimension {dim}") if dim != 1 else None


@_over(lambda ctx: ctx.small_pool)
def prop_slice_translation(c: CfkComplex) -> str | None:
    dims = {homology(realize(c, Region("vertical", i0))).dimension for i0 in (-2, 0, 3)}
    if len(dims) != 1:
        return _offender(c, f"column homology varies across columns: {dims}")
    return None


@_over(lambda ctx: ctx.small_pool)
def prop_hook_stabilization(c: CfkComplex) -> str | None:
    g = c.genus_bound
    high = {homology(realize(c, Region("hook", m))).dimension for m in (g, g + 1, g + 3)}
    low = {homology(realize(c, Region("hook", m))).dimension for m in (-g, -g - 1, -g - 3)}
    if len(high) != 1 or len(low) != 1:
        return _offender(c, "hook homology fails to stabilize")
    return None


@_over(lambda ctx: [c for c in ctx.pool if c.maslov is not None])
def prop_euler_characteristic(c: CfkComplex) -> str | None:
    # reads the cached column reduction that validate's rank check made; d
    # flips the Maslov parity, so each homology representative is homogeneous
    # and counts with its top point's parity
    index, h = column(c)
    sign = [1 - 2 * (m % 2) for m in c.maslov]  # by generator index
    chi = sum(sign[k] for k in index)
    counted = sum(sign[index[z.bit_length() - 1]] for z in h.representatives)
    return _offender(c, "euler characteristic mismatch on the column") if counted != chi else None


@_over(lambda ctx: [(2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (2, 13), (3, 4), (3, 5), (4, 5)])
def prop_staircase_laws(shape: tuple[int, int]) -> str | None:
    p, q = shape
    e = torus_knot_exponents(p, q)
    c = staircase(e, name=f"T({p},{q})")
    if tau(c) != e.exponents[0]:
        return _offender(c, f"staircase tau != {e.exponents[0]}")
    if a1_algebraic(c) != e.exponents[0] - e.exponents[1]:
        return _offender(c, "staircase a1 != first step length")
    return None


@_over(lambda ctx: (
    (t, boxes, offset)
    for t in range(-3, 4)
    for boxes, offset in ((0, 0), (2, 0), (2, 1), (1, -2))
))
def prop_thin_law(case: tuple[int, int, int]) -> str | None:
    t, c = case[0], thin_model(*case)
    want = (t > 0) - (t < 0)
    got = a1_algebraic(c)
    return _offender(c, f"thin model a1 {got} != sgn(tau) {want}") if got != want else None


@_over(lambda ctx: ctx.pool)
def prop_sign_epsilon(c: CfkComplex) -> str | None:
    a1 = a1_algebraic(c)
    if (a1 > 0) - (a1 < 0) != epsilon(c):
        return _offender(c, "sgn(a1) differs from epsilon")
    return None


@_over(lambda ctx: ctx.pool)
def prop_mirror_antisymmetry(c: CfkComplex) -> str | None:
    # a1 already read the mirror's tau and epsilon, so they are cache reads
    m = mirror(c)
    if a1_algebraic(m) != -a1_algebraic(c):
        return _offender(c, "a1 not antisymmetric under mirror")
    got, want = (tau(m), epsilon(m)), (-tau(c), -epsilon(c))
    return _offender(c, f"mirror (tau, epsilon) {got} != {want}") if got != want else None


@_over(lambda ctx: ((c, n) for c in ctx.pool for n in (1, 2, 2 * c.genus_bound + 5)))
def prop_surgery_equivalence(case: tuple[CfkComplex, int]) -> str | None:
    # a1_surgery's small-n law: at n = 1 and 2, points more than n off the
    # diagonal leave i, so the route reduces regions of its own
    c, n = case
    eps, a1 = epsilon(c), a1_algebraic(c)
    got, want = _a1(c, _by_steps(n), eps), eps * min(abs(a1), n)
    return _offender(c, f"surgery a1 {got} (n={n}) != {want}") if got != want else None


@_over(lambda ctx: ctx.tiny_pool)
def prop_self_sum_vanishes(c: CfkComplex) -> str | None:
    value = a1_algebraic(tensor(c, mirror(c)))
    return _offender(c, f"a1 of the self connect sum is {value}") if value != 0 else None


@_over(lambda ctx: (
    (na, nb, rep) for na, a in ctx.library.items() for nb, b in ctx.library.items()
    if (rep := connect_sum_rules(a, b)).predicted is not None
))
def prop_connect_sum_rules(case: tuple[str, str, ConnectSumReport]) -> str | None:
    na, nb, rep = case
    why = f"predicted {rep.predicted} ({rep.rule}), computed {rep.computed}"
    return None if rep.consistent else f"connect sum {na} # {nb}: {why}"


@_over(lambda ctx: ctx.pool)
def prop_epsilon_zero_tau_zero(c: CfkComplex) -> str | None:
    return _offender(c, "epsilon 0 but tau nonzero") if epsilon(c) == 0 and tau(c) != 0 else None


_WINDOW = range(-6, 7)


@_over(lambda ctx: (
    (i, j, m, n) for n in range(1, 5) for m in _WINDOW for i in _WINDOW for j in _WINDOW
))
def prop_meridian_window(case: tuple[int, int, int, int]) -> str | None:
    i, j, m, n = case
    first, second = meridian_filtration(i, j, m, n)
    if j <= m + i:
        want = (i, i)
    elif j - m - i < n:
        want = (j - m, i)
    else:
        want = (j - m, j - m - n)
    if (first, second) != want:
        return f"filtration({i},{j},{m},{n}) = {(first, second)}"
    if not 0 <= first - second <= n:
        return f"filtration({i},{j},{m},{n}) drop out of range"
    if n == 1 and first - second not in (0, 1):
        return f"filtration({i},{j},{m},1) has a middle case"
    if j > _WINDOW.start:
        below = meridian_filtration(i, j - 1, m, n)
        if first < below.first or second < below.second:
            return f"filtration not monotone at ({i},{j},{m},{n})"
    return None


def _hook_points(ctx: SuiteContext) -> Iterator[tuple[CfkComplex, int, int, LatticePoint]]:
    for c in ctx.small_pool:
        g = c.genus_bound
        for m in range(-g, g + 1):  # the unclipped hook holds each generator once
            hook = Region("hook", m).lattice_points(c, range(len(c.ids)))
            for n in (1, 2, 2 * g + 1):
                yield from ((c, m, n, p) for p in hook)


@_over(_hook_points)
def prop_step_level_consistency(case: tuple[CfkComplex, int, int, LatticePoint]) -> str | None:
    c, m, n, p = case
    if meridian_filtration(p.i, p.j, m, n) != (0, max(p.i, -n)):
        return _offender(c, f"step level mismatch at {p}")
    return None


@_over(lambda ctx: ((c, m) for c in ctx.pool for m in range(-c.genus_bound, c.genus_bound + 1)))
def prop_i_filtration(case: tuple[CfkComplex, int]) -> str | None:
    # the surgery route's own levels at n = 2g + 1 against i; a generator
    # occupies the hook at the one point on its Alexander grading's diagonal
    c, m = case
    level, hook = _by_steps(2 * c.genus_bound + 1), Region("hook", m)
    points = (hook.point(a) for a, _, _ in c.blocks)
    if any(level("hook", m, i, j) != i for i, j in points):
        return _offender(c, f"step levels leave the i-filtration at m={m}")
    return None


@_over(lambda ctx: [tuple(ctx.library[name] for name in names) for names in (
    ("T(2,3)", "T(2,9)"), ("-T(2,3;2,5)", "T(4,5)"), ("4_1", "T(2,3)"), ("conway", "-T(2,3)"),
    ("T(2,3)", "-T(2,3;2,5)", "4_1"),
)])
def prop_tensor_commutes(factors: tuple[CfkComplex, ...]) -> str | None:
    # the tensor of the factors against that of the factors rotated by one:
    # a # b against b # a, and (a # b) # c against (c # a) # b, since
    # a # (b # c) has the same ids and so is the same complex.  tau adds
    # (Ozsvath-Szabo, G&T 2003); by Hom's rules (J. Topol. 2014) a zero
    # epsilon passes the other through and equal signs persist, so the
    # factors' one nonzero sign, if they have at most one, is the tensor's
    left, right = reduce(tensor, factors), reduce(tensor, factors[-1:] + factors[:-1])
    signs = {epsilon(f) for f in factors} - {0}
    want = sum(map(tau, factors)), sum(signs) if len(signs) < 2 else epsilon(left)
    got = tau(left), epsilon(left)
    if (got[0], a1_algebraic(left)) != (tau(right), a1_algebraic(right)):
        return f"tensor {left.name} changes its invariants when its factors rotate"
    return f"(tau, epsilon) of {left.name} is {got}, not {want}" if got != want else None


@_over(lambda ctx: (
    (ctx.library[name], offset) for name in ("T(2,3)", "T(2,9)", "conway") for offset in (-1, 0, 2)
))
def prop_box_neutrality(case: tuple[CfkComplex, int]) -> str | None:
    base, offset = case
    padded = direct_sum(base, box(offset, prefix="pad."))
    if any(f(padded) != f(base) for f in (tau, epsilon, a1_algebraic)):
        return _offender(padded, "box summand changed an invariant")
    return None


PROPERTIES: list[tuple[str, Property]] = [
    ("validate", prop_validate),
    ("round-trip", prop_round_trip),
    ("mirror-involution", prop_mirror_involution),
    ("column-dim-one", prop_slice_dim_one),
    ("column-translation", prop_slice_translation),
    ("hook-stabilization", prop_hook_stabilization),
    ("euler-characteristic", prop_euler_characteristic),
    ("staircase-laws", prop_staircase_laws),
    ("thin-law", prop_thin_law),
    ("sign-epsilon", prop_sign_epsilon),
    ("mirror-antisymmetry", prop_mirror_antisymmetry),
    ("surgery-equivalence", prop_surgery_equivalence),
    ("self-sum-vanishes", prop_self_sum_vanishes),
    ("connect-sum-rules", prop_connect_sum_rules),
    ("epsilon-zero-tau-zero", prop_epsilon_zero_tau_zero),
    ("meridian-window", prop_meridian_window),
    ("step-level-consistency", prop_step_level_consistency),
    ("i-filtration-coincidence", prop_i_filtration),
    ("tensor-commutes", prop_tensor_commutes),
    ("box-neutrality", prop_box_neutrality),
]


def run_suite(
    seed_count: int = 50,
    extra_files: Iterable[str] = (),
    emit: Callable[[str], None] = print,
) -> bool:
    ctx = SuiteContext(seed_count, extra_files)
    ok = True
    for name, prop in PROPERTIES:
        cases, failures = prop(ctx)
        if failures:
            ok = False
            emit(f"FAIL {name} ({len(failures)} of {cases} cases)")
            for f in failures[:5]:
                emit("  " + f.replace("\n", "\n  "))
            if len(failures) > 5:
                emit(f"  ... and {len(failures) - 5} more")
        else:
            emit(f"ok   {name} ({cases} cases)")
    emit("suite PASS" if ok else "suite FAIL")
    return ok
