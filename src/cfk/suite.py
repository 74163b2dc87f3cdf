"""Executable property suite over the named library and random models.

Each property returns the number of cases checked and a list of failure
descriptions naming the offending complex; most are laws of one complex run
over a pool by ``_over``.  The runner prints one line per property and
reports overall success.  Everything is deterministic in the seed count.
"""

from __future__ import annotations

from typing import Callable, Iterable

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
    _by_steps,
    a1_algebraic,
    a1_surgery,
    connect_sum_rules,
    epsilon,
    meridian_filtration,
    tau,
)
from .regions import Region


def _offender(c: CfkComplex, what: str) -> str:
    return f"{what} [{c.name}]\n{serialize(c)}"


class SuiteContext:
    def __init__(self, seed_count: int, extra_files: Iterable[str] = ()):
        self.library = build_library()
        self.randoms = [random_model(seed) for seed in range(seed_count)]
        extras = [load_file(path) for path in extra_files]
        for c in extras:  # some properties loop over every m in [-g, g]
            if c.genus_bound > MAX_GENUS:
                raise ParameterError(f"extra {c.name!r}: genus bound {c.genus_bound} > {MAX_GENUS}")
        valid = [validate(c).ok for c in extras]
        self.extras = [c for c, ok in zip(extras, valid) if ok]
        # the invariants assume a valid complex, so extras that fail
        # validate reach the validate property only
        self.invalid = [c for c, ok in zip(extras, valid) if not ok]
        self.pool = list(self.library.values()) + self.randoms + self.extras
        # smaller pools for the properties whose cost is quadratic in size
        self.small_pool = list(self.library.values()) + self.randoms[:10] + self.extras
        self.tiny_pool = [c for c in self.small_pool if len(c.generators) <= 20]


Property = Callable[[SuiteContext], tuple[int, list[str]]]


def _over(pool: Callable[[SuiteContext], list[CfkComplex]]) -> Callable[..., Property]:
    """Make a law, a complex's failure text or None, into a property over
    ``pool(ctx)``: one case per complex and an offender per failing one."""
    def wrap(law: Callable[[CfkComplex], str | None]) -> Property:
        def prop(ctx: SuiteContext) -> tuple[int, list[str]]:
            cases = pool(ctx)
            return len(cases), [_offender(c, why) for c in cases if (why := law(c)) is not None]
        return prop
    return wrap


@_over(lambda ctx: ctx.pool + ctx.invalid)
def prop_validate(c: CfkComplex) -> str | None:
    failed = [k for k, ok in validate(c).checks.items() if not ok]
    return f"validation failed: {', '.join(failed)}" if failed else None


@_over(lambda ctx: ctx.pool)
def prop_round_trip(c: CfkComplex) -> str | None:
    text = serialize(c)
    return "serialization round trip not canonical" if serialize(parse(text)) != text else None


@_over(lambda ctx: ctx.pool)
def prop_mirror_involution(c: CfkComplex) -> str | None:
    return "mirror applied twice is not the identity" if mirror(mirror(c)) != c else None


@_over(lambda ctx: ctx.pool)
def prop_slice_dim_one(c: CfkComplex) -> str | None:
    # reads the cached column reduction that validate's rank check made
    dim = column(c).homology.dimension
    return f"column homology dimension {dim}" if dim != 1 else None


@_over(lambda ctx: ctx.small_pool)
def prop_slice_translation(c: CfkComplex) -> str | None:
    dims = {homology(realize(c, Region("vertical", i0))).dimension for i0 in (-2, 0, 3)}
    return f"column homology varies across columns: {dims}" if len(dims) != 1 else None


@_over(lambda ctx: ctx.small_pool)
def prop_hook_stabilization(c: CfkComplex) -> str | None:
    g = c.genus_bound
    high = {homology(realize(c, Region("hook", m))).dimension for m in (g, g + 1, g + 3)}
    low = {homology(realize(c, Region("hook", m))).dimension for m in (-g, -g - 1, -g - 3)}
    return "hook homology fails to stabilize" if len(high) != 1 or len(low) != 1 else None


@_over(lambda ctx: [c for c in ctx.pool if c.maslov_present])
def prop_euler_characteristic(c: CfkComplex) -> str | None:
    # reads the cached column reduction that validate's rank check made; d
    # flips the Maslov parity, so each homology representative is homogeneous
    # and counts with its top point's parity
    _, index, h = column(c)
    sign = [1 - 2 * (g.maslov % 2) for g in c.generators]  # by generator index
    chi = sum(sign[k] for k in index)
    counted = sum(sign[index[z.bit_length() - 1]] for z in h.representatives)
    return "euler characteristic mismatch on the column" if counted != chi else None


def prop_staircase_laws(ctx: SuiteContext) -> tuple[int, list[str]]:
    failures = []
    shapes = [(2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (2, 13), (3, 4), (3, 5), (4, 5)]
    for p, q in shapes:
        e = torus_knot_exponents(p, q)
        c = staircase(e, name=f"T({p},{q})")
        if tau(c) != e.exponents[0]:
            failures.append(_offender(c, f"staircase tau != {e.exponents[0]}"))
        if a1_algebraic(c) != e.exponents[0] - e.exponents[1]:
            failures.append(_offender(c, "staircase a1 != first step length"))
    return len(shapes), failures


def prop_thin_law(ctx: SuiteContext) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for t in range(-3, 4):
        want = (t > 0) - (t < 0)
        for boxes, offset in ((0, 0), (2, 0), (2, 1), (1, -2)):
            cases += 1
            c = thin_model(t, boxes, offset)
            got = a1_algebraic(c)
            if got != want:
                failures.append(_offender(c, f"thin model a1 {got} != sgn(tau) {want}"))
    return cases, failures


@_over(lambda ctx: ctx.pool)
def prop_sign_epsilon(c: CfkComplex) -> str | None:
    a1 = a1_algebraic(c)
    return "sgn(a1) differs from epsilon" if (a1 > 0) - (a1 < 0) != epsilon(c) else None


@_over(lambda ctx: ctx.pool)
def prop_mirror_antisymmetry(c: CfkComplex) -> str | None:
    mirrored = a1_algebraic(mirror(c))
    return "a1 not antisymmetric under mirror" if mirrored != -a1_algebraic(c) else None


def prop_surgery_equivalence(ctx: SuiteContext) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for c in ctx.pool:
        g = c.genus_bound
        want = a1_algebraic(c)
        for n in (2 * g + 1, 2 * g + 2, 2 * g + 5):
            cases += 1
            got = a1_surgery(c, n)
            if got != want:
                failures.append(
                    _offender(c, f"surgery a1 {got} (n={n}) != algebraic a1 {want}")
                )
    return cases, failures


@_over(lambda ctx: ctx.tiny_pool)
def prop_self_sum_vanishes(c: CfkComplex) -> str | None:
    value = a1_algebraic(tensor(c, mirror(c)))
    return f"a1 of the self connect sum is {value}" if value != 0 else None


def prop_connect_sum_rules(ctx: SuiteContext) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    names = list(ctx.library)
    for na in names:
        for nb in names:
            rep = connect_sum_rules(ctx.library[na], ctx.library[nb])
            if rep.predicted is None:
                continue
            cases += 1
            if not rep.consistent:
                failures.append(
                    f"connect sum {na} # {nb}: predicted {rep.predicted} "
                    f"({rep.rule}), computed {rep.computed}"
                )
    return cases, failures


@_over(lambda ctx: ctx.pool)
def prop_epsilon_zero_tau_zero(c: CfkComplex) -> str | None:
    return "epsilon 0 but tau nonzero" if epsilon(c) == 0 and tau(c) != 0 else None


def prop_meridian_window(ctx: SuiteContext) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    rng = range(-6, 7)
    for n in range(1, 5):
        for m in rng:
            for i in rng:
                previous = None
                for j in rng:
                    cases += 1
                    first, second = meridian_filtration(i, j, m, n)
                    if j <= m + i:
                        want = (i, i)
                    elif j - m - i < n:
                        want = (j - m, i)
                    else:
                        want = (j - m, j - m - n)
                    if (first, second) != want:
                        failures.append(f"filtration({i},{j},{m},{n}) = {(first, second)}")
                    if not 0 <= first - second <= n:
                        failures.append(f"filtration({i},{j},{m},{n}) drop out of range")
                    if n == 1 and first - second not in (0, 1):
                        failures.append(f"filtration({i},{j},{m},1) has a middle case")
                    if previous is not None and (first < previous[0] or second < previous[1]):
                        failures.append(f"filtration not monotone at ({i},{j},{m},{n})")
                    previous = (first, second)
    return cases, failures


def prop_step_level_consistency(ctx: SuiteContext) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for c in ctx.small_pool:
        g = c.genus_bound
        for m in range(-g, g + 1):  # the unclipped hook holds each generator once
            hook = Region("hook", m).lattice_points(c, range(len(c.generators)))
            for n in (1, 2, 2 * g + 1):
                for p in hook:
                    cases += 1
                    if meridian_filtration(p.i, p.j, m, n) != (0, max(p.i, -n)):
                        failures.append(_offender(c, f"step level mismatch at {p}"))
    return cases, failures


def prop_i_filtration(ctx: SuiteContext) -> tuple[int, list[str]]:
    # the surgery route's own levels at n = 2g + 1 against i; a generator
    # occupies the hook at the one point on its Alexander grading's diagonal
    failures = []
    cases = 0
    for c in ctx.pool:
        g = c.genus_bound
        level = _by_steps(2 * g + 1)
        gradings = {x.alexander for x in c.generators}
        for m in range(-g, g + 1):
            cases += 1
            hook = Region("hook", m)
            points = (hook.point(a) for a in gradings)
            if any(level("hook", m, i, j) != i for i, j in points):
                failures.append(_offender(c, f"step levels leave the i-filtration at m={m}"))
    return cases, failures


def prop_tensor_commutes(ctx: SuiteContext) -> tuple[int, list[str]]:
    failures = []
    pairs = [
        ("T(2,3)", "T(2,9)"),
        ("-T(2,3;2,5)", "T(4,5)"),
        ("4_1", "T(2,3)"),
        ("conway", "-T(2,3)"),
    ]
    for na, nb in pairs:
        ab = tensor(ctx.library[na], ctx.library[nb])
        ba = tensor(ctx.library[nb], ctx.library[na])
        if (tau(ab), a1_algebraic(ab)) != (tau(ba), a1_algebraic(ba)):
            failures.append(f"tensor of {na}, {nb} not symmetric in its invariants")
    # a(bc) would have the same ids as (ab)c and so be the same complex;
    # (ca)b names its generators in another order
    a, b, c = (ctx.library[n] for n in ("T(2,3)", "-T(2,3;2,5)", "4_1"))
    left = tensor(tensor(a, b), c)
    right = tensor(tensor(c, a), b)
    if (tau(left), a1_algebraic(left)) != (tau(right), a1_algebraic(right)):
        failures.append("tensor not associative in its invariants")
    return len(pairs) + 1, failures


def prop_box_neutrality(ctx: SuiteContext) -> tuple[int, list[str]]:
    failures = []
    cases = 0
    for name in ("T(2,3)", "T(2,9)", "conway"):
        base = ctx.library[name]
        for offset in (-1, 0, 2):
            cases += 1
            padded = direct_sum(base, box(offset, prefix="pad."))
            same = (
                tau(padded) == tau(base)
                and epsilon(padded) == epsilon(base)
                and a1_algebraic(padded) == a1_algebraic(base)
            )
            if not same:
                failures.append(_offender(padded, "box summand changed an invariant"))
    return cases, failures


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
