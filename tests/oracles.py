"""Independent oracles: exhaustive enumeration, sympy algebra, a linear-scan
elimination, cutoff walks, json's own writer for the canonical text and a
record-level model of a complex, read from that text as sets of records,
with its own tensor, mirror and direct sum.

The enumeration, sympy and linear-scan oracles avoid the package's
elimination code paths, so the fast implementations are checked against
something that cannot share their bugs.  Enumeration is exponential, so
callers keep dimensions small.  The linear scan is the elimination the
package used before its pivot-indexed kernel: lowest-bit pivots, every
basis vector visited in turn, and representatives picked by a second
reduction; run on the transposed boundary, it gives reference cocycles.
insert is the one-call-per-column insertion that image_and_kernel
inlines, kept step by step on its own pivot dict as its reference.  The
cutoff walks build every region from its defining predicates
(leveled_region), and take representatives and decide boundaries with
the linear scan, so they share no realization or elimination with the
package.  They are independent in search strategy, realizing one
clipped region or filtration piece per level and asking whether a map
between plain complexes is zero on homology, where the package reads
every cutoff, and epsilon, off one filtered reduction.  The walks own
their chain maps and filtrations: each map is checked to commute with the
boundaries, each filtration to never be raised by a boundary, and region
membership comes from the defining predicates, so no map or level code is
shared with the package.  The surgery walk takes its step levels from the
closed forms below, not from the package's cable formula.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import NamedTuple

import sympy

from cfk.invariants import InvariantViolation, SearchExhausted
from cfk.regions import LatticePoint, Region, RegionError


def apply_boundary(cols: tuple[int, ...], chain: int) -> int:
    """Image of a chain under the matrix with the given columns, bit by bit."""
    out = 0
    while chain:
        low = chain & -chain
        out ^= cols[low.bit_length() - 1]
        chain ^= low
    return out


def d_squared_is_zero(x) -> bool:
    """d^2 = 0 on x: the boundary of every boundary column vanishes."""
    return all(apply_boundary(x.boundary, col) == 0 for col in x.boundary)


def brute_homology_dim(cols: tuple[int, ...]) -> int:
    """Homology dimension by enumerating every chain (dimension <= ~14)."""
    n = len(cols)
    assert n <= 14, "exhaustive oracle refuses large complexes"
    cycles = sum(1 for v in range(1 << n) if apply_boundary(cols, v) == 0)
    boundaries = {apply_boundary(cols, v) for v in range(1 << n)}
    kernel_dim = cycles.bit_length() - 1
    image_dim = len(boundaries).bit_length() - 1
    return kernel_dim - image_dim


def brute_is_trivial(source_cols, target_cols, map_cols) -> bool:
    """Zero induced map via set arithmetic: every cycle image is a boundary."""
    n = len(source_cols)
    assert n <= 14
    boundaries = {apply_boundary(tuple(target_cols), v) for v in range(1 << len(target_cols))}
    for v in range(1 << n):
        if apply_boundary(tuple(source_cols), v) == 0:
            if apply_boundary(tuple(map_cols), v) not in boundaries:
                return False
    return True


def region_reference(shape: str, level: int, clip: int | None, i: int, j: int) -> bool:
    """Lattice region membership by the defining predicates of each shape."""
    if shape == "vertical":
        return i == level and (clip is None or j <= clip)
    if shape == "hook":
        return max(i, j - level) == 0 and (clip is None or i >= clip)
    if shape == "lhook":
        return min(i, j - level) == 0 and (clip is None or i <= clip)
    raise ValueError(f"unknown shape {shape!r}")


def hook_step(i: int, n: int) -> int:
    """Step level of a hook point: arm points drop with i until n levels down."""
    return max(i, -n)


def lhook_step(i: int, n: int) -> int:
    """Step level of an lhook point: arm points climb with i until n levels up."""
    return min(i, n)


def sympy_torus_exponents(p: int, q: int) -> tuple[int, ...]:
    """Alexander exponents of the (p, q) torus knot via sympy division."""
    t = sympy.symbols("t")
    num = sympy.Poly((t ** (p * q) - 1) * (t - 1), t)
    den = sympy.Poly((t ** p - 1) * (t ** q - 1), t)
    quo, rem = sympy.div(num, den, t)
    assert rem.is_zero
    return _exponents_of(sympy.Poly(quo, t), shift=-(p - 1) * (q - 1) // 2)


def sympy_cable_exponents(base: tuple[int, ...], p: int, q: int) -> tuple[int, ...]:
    """Exponents of the (p, q) cable given the companion's exponents."""
    t = sympy.symbols("t")
    base_poly = sum((-1) ** k * t ** (p * (e - min(base))) for k, e in enumerate(base))
    torus = sympy_torus_exponents(p, q)
    torus_poly = sum((-1) ** k * t ** (e - min(torus)) for k, e in enumerate(torus))
    product = sympy.Poly(sympy.expand(base_poly * torus_poly), t)
    return _exponents_of(product, shift=p * min(base) + min(torus))


def _exponents_of(poly, shift: int) -> tuple[int, ...]:
    """Exponents of a polynomial whose nonzero coefficients alternate +1, -1, ..."""
    out = []
    coeffs = poly.all_coeffs()  # descending
    deg = len(coeffs) - 1
    for k, c in enumerate(coeffs):
        if c:
            want = -1 if len(out) % 2 else 1
            assert c == want, f"coefficient {c} of t^{deg - k} breaks the alternating form"
            out.append(deg - k + shift)
    return tuple(out)


# -- the canonical text, as json writes it ---------------------------------------


def to_dict(complex) -> dict:
    """A complex as json's object model, keys in canonical order."""
    gens = []
    for g in complex.generators:
        d = {"id": g.id, "alexander": g.alexander}
        if g.maslov is not None:
            d["maslov"] = g.maslov
        gens.append(d)
    entries = [
        {"from": e.src, "to": e.dst, "upower": e.upower} for e in complex.differential
    ]
    return {"name": complex.name, "generators": gens, "differential": entries}


def json_text(complex) -> str:
    """The reference for serialize: json.dumps of to_dict, two-space indent."""
    return json.dumps(to_dict(complex), ensure_ascii=False, indent=2) + "\n"


# -- a record-level model of a complex, read from its text ------------------------


class Records(NamedTuple):
    """A complex as sets of records read from its serialized JSON: (id, A, M)
    per generator, M None when absent, and (src id, dst id, upower) per entry.

    The structural operations below are written on these sets, from their
    definitions, with no array, index or canonical order of the package.
    """

    name: str
    generators: frozenset
    entries: frozenset

    @classmethod
    def of(cls, text: str) -> "Records":
        data = json.loads(text)
        gens = frozenset((g["id"], g["alexander"], g.get("maslov")) for g in data["generators"])
        entries = frozenset((e["from"], e["to"], e["upower"]) for e in data["differential"])
        assert len(gens) == len(data["generators"]) and len(entries) == len(data["differential"])
        return cls(data["name"], gens, entries)

    @property
    def graded(self) -> bool:
        return any(m is not None for _, _, m in self.generators)


def canonical_order(text: str) -> bool:
    """Whether the text lists generators by (alexander descending, id) and
    entries by (src, dst, upower)."""
    data = json.loads(text)
    gens = [(-g["alexander"], g["id"]) for g in data["generators"]]
    entries = [(e["from"], e["to"], e["upower"]) for e in data["differential"]]
    return gens == sorted(gens) and entries == sorted(entries)


def records_mirror(r: Records) -> tuple[frozenset, frozenset]:
    """Generators and entries of the dual: gradings negated, entries reversed."""
    gens = frozenset((x, -a, None if m is None else -m) for x, a, m in r.generators)
    return gens, frozenset((d, s, u) for s, d, u in r.entries)


def records_tensor(r: Records, q: Records) -> Records:
    """Pairs x⊗y with added gradings (Maslov only when both carry it), and
    the Leibniz rule: d(x⊗y) = dx⊗y + x⊗dy."""
    graded = r.graded and q.graded
    gens = frozenset(
        (f"{x}⊗{y}", a + b, m + n if graded else None)
        for x, a, m in r.generators for y, b, n in q.generators
    )
    entries = frozenset(
        (f"{s}⊗{y}", f"{d}⊗{y}", u) for s, d, u in r.entries for y, _, _ in q.generators
    ) | frozenset(
        (f"{x}⊗{s}", f"{x}⊗{d}", u) for x, _, _ in r.generators for s, d, u in q.entries
    )
    return Records(f"({r.name} # {q.name})", gens, entries)


def records_sum(r: Records, q: Records) -> Records:
    """The disjoint union; the ids must not meet."""
    assert not {x for x, _, _ in r.generators} & {x for x, _, _ in q.generators}
    return Records(f"({r.name} + {q.name})", r.generators | q.generators, r.entries | q.entries)


# -- linear-scan elimination: every basis vector visited in insertion order -----


def scan_reduce(basis: list[tuple[int, int, int]], v: int, combo: int = 0) -> tuple[int, int]:
    """Reduce v against (pivot, vector, combo) entries, pivots being lowest bits.

    Each entry was reduced against the earlier ones when it was kept, so
    one pass in insertion order clears every pivot bit of v.
    """
    for pivot, bv, bc in basis:
        if v & pivot:
            v ^= bv
            combo ^= bc
    return v, combo


def scan_image_and_kernel(cols: list[int]) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Image basis and kernel combos of a matrix by columns, one scan per column."""
    basis: list[tuple[int, int, int]] = []
    kernel: list[int] = []
    for k, col in enumerate(cols):
        v, combo = scan_reduce(basis, col, 1 << k)
        if v:
            basis.append((v & -v, v, combo))
        else:
            kernel.append(combo)
    return basis, kernel


def insert(by_pivot: dict[int, tuple[int, int]], v: int, k: int) -> tuple[int, int]:
    """Insert v into a pivot dict as column k; return its reduced form and combo.

    The insertion that image_and_kernel inlines, kept step by step: v starts
    with the combo bit k and visits the pivots once, highest first, XORing
    in each entry whose pivot is set in it.  An entry's vector has its pivot
    as top bit, so it never sets a higher pivot again.  A reduced form of 0
    means v was already in the span, and the combo then names earlier
    vectors (plus v itself) that XOR to zero.
    """
    combo = 1 << k
    for p in sorted(by_pivot, reverse=True):
        if v >> p & 1:
            bv, bc = by_pivot[p]
            v ^= bv
            combo ^= bc
    if v:
        by_pivot[v.bit_length() - 1] = (v, combo)
    return v, combo


def insert_image_and_kernel(cols: list[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """image_and_kernel as one insert call per column."""
    by_pivot: dict[int, tuple[int, int]] = {}
    kernel = []
    for k, c in enumerate(cols):
        reduced, combo = insert(by_pivot, c, k)
        if not reduced:
            kernel.append(combo)
    return by_pivot, kernel


def greedy_representatives(cols: list[int]) -> tuple[int, ...]:
    """Homology representatives: extend the image basis with each kernel vector
    in order and keep those that stay independent."""
    basis, kernel = scan_image_and_kernel(cols)
    reps = []
    for z in kernel:
        v, _ = scan_reduce(basis, z)
        if v:
            basis.append((v & -v, v, 0))
            reps.append(z)
    return tuple(reps)


def transpose(cols: list[int]) -> list[int]:
    """The transposed square matrix, bit by bit: row r becomes column r."""
    rows = [0] * len(cols)
    for k, col in enumerate(cols):
        for r in range(len(cols)):
            if col >> r & 1:
                rows[r] |= 1 << k
    return rows


def reference_cocycles(cols: list[int]) -> tuple[int, ...]:
    """Cohomology representatives: the greedy representatives of the
    transposed boundary, by the linear scan."""
    return greedy_representatives(transpose(cols))


def is_coboundary(cols: list[int], phi: int) -> bool:
    """phi = psi . d for some cochain psi: phi lies in the span of the rows."""
    basis, _ = scan_image_and_kernel(transpose(cols))
    return scan_reduce(basis, phi)[0] == 0


# -- cutoff walks: one realization and one homology per level ------------------


class Located(NamedTuple):
    """A complex whose basis points are lattice points: the walks' own record."""

    boundary: tuple[int, ...]
    filtration: tuple[int, ...] | None
    points: tuple[LatticePoint, ...]

    @property
    def dim(self) -> int:
        return len(self.boundary)


@lru_cache(maxsize=4096)
def located(complex, region: Region) -> Located:
    """The region built from its defining predicates, basis in generator order."""
    return leveled_region(complex, region)


@lru_cache(maxsize=4096)
def _boundary_span(x: Located) -> list[tuple[int, int, int]]:
    return scan_image_and_kernel(list(x.boundary))[0]


@lru_cache(maxsize=4096)
def _representatives(x: Located) -> tuple[int, ...]:
    return greedy_representatives(list(x.boundary))


class ChainMap(NamedTuple):
    """Matrix over the two-element field, one target bitmask per source point."""

    source: Located
    target: Located
    columns: tuple[int, ...]

    def apply(self, chain: int) -> int:
        return apply_boundary(self.columns, chain)


def chain_map_by_points(source: Located, target: Located, survivors) -> ChainMap:
    """Map sending each surviving basis point to the same lattice point, rest to 0.

    Raises RegionError when a survivor is missing from the target or the map
    does not commute with the boundaries.
    """
    where = {p: k for k, p in enumerate(target.points)}
    cols = []
    for k, p in enumerate(source.points):
        if k not in survivors:
            cols.append(0)
        elif p in where:
            cols.append(1 << where[p])
        else:
            raise RegionError(f"surviving point {p} is missing from the target")
    cols = tuple(cols)
    for k, col in enumerate(cols):
        if apply_boundary(cols, source.boundary[k]) != apply_boundary(target.boundary, col):
            raise RegionError(f"map does not commute with boundaries at {source.points[k]}")
    return ChainMap(source, target, cols)


def with_filtration(x: Located, levels: tuple[int, ...]) -> Located:
    """x carrying the given levels; raises RegionError if a boundary raises one."""
    for k, col in enumerate(x.boundary):
        while col:
            low = col & -col
            if levels[low.bit_length() - 1] > levels[k]:
                raise RegionError("boundary raises the filtration level")
            col ^= low
    return x._replace(filtration=tuple(levels))


def is_trivial(f: ChainMap) -> bool:
    """Zero induced map: every source representative maps to a target boundary."""
    boundaries = _boundary_span(f.target)
    return all(scan_reduce(boundaries, f.apply(z))[0] == 0 for z in _representatives(f.source))


def quotient_then_include(complex, source_region: Region, target_region: Region) -> ChainMap:
    """Quotient the source region by its points outside the target, then include."""
    source = located(complex, source_region)
    target = located(complex, target_region)
    shape, level, clip = target_region.shape, target_region.level, target_region.clip
    survivors = {
        k for k, p in enumerate(source.points) if region_reference(shape, level, clip, p.i, p.j)
    }
    return chain_map_by_points(source, target, survivors)


def f_map(complex, t: int, clip: int | None = None) -> ChainMap:
    """Column-to-lhook map: quotient by the low column part, then include."""
    return quotient_then_include(complex, Region("vertical", 0), Region("lhook", t, clip))


def g_map(complex, t: int, clip: int | None = None) -> ChainMap:
    """Hook-to-column map: quotient by the arm, then include."""
    return quotient_then_include(complex, Region("hook", t, clip), Region("vertical", 0))


def tau_by_walk(complex) -> int:
    """Least cutoff whose column subcomplex still sees the homology generator."""
    g = complex.genus_bound
    for s in range(-g - 1, g + 2):
        inc = quotient_then_include(complex, Region("vertical", 0, s), Region("vertical", 0))
        if not is_trivial(inc):
            return s
    raise SearchExhausted(f"tau not found in [{-g - 1}, {g + 1}]; complex invalid")


def epsilon_by_maps(complex) -> int:
    """Sign from which of the unclipped f and g maps at tau is zero on homology."""
    t = tau_by_walk(complex)
    f_trivial = is_trivial(f_map(complex, t))
    g_trivial = is_trivial(g_map(complex, t))
    if f_trivial and g_trivial:
        raise InvariantViolation("both hook maps vanish on homology")
    return 1 if f_trivial else -1 if g_trivial else 0


def a1_algebraic_by_walk(complex) -> int:
    """Least clip at which the clipped f (positive) or g (negative) map dies."""
    eps = epsilon_by_maps(complex)
    if eps == 0:
        return 0
    t = tau_by_walk(complex)
    g = complex.genus_bound
    for s in range(0, 2 * g + 3):
        if eps == 1:
            trivial = is_trivial(f_map(complex, t, clip=s))
        else:
            trivial = is_trivial(g_map(complex, t, clip=-s))
        if trivial:
            return eps * s
    raise SearchExhausted(f"a1 search exhausted [0, {2 * g + 2}]; complex invalid")


def _restrict(x: Located, keep: list[int]) -> Located:
    """Subquotient of x spanned by the kept basis points.

    Only valid when the kept set is a filtration sub or quotient piece;
    the d^2 check on the result guards misuse.
    """
    old_to_new = {old: new for new, old in enumerate(keep)}
    points = tuple(x.points[k] for k in keep)
    cols = []
    for k in keep:
        col = 0
        v = x.boundary[k]
        while v:
            low = v & -v
            t = old_to_new.get(low.bit_length() - 1)
            if t is not None:
                col ^= 1 << t
            v ^= low
        cols.append(col)
    filt = None
    if x.filtration is not None:
        filt = tuple(x.filtration[k] for k in keep)
    out = Located(tuple(cols), filt, points)
    if not d_squared_is_zero(out):
        raise RegionError("restricted boundary squares to nonzero")
    return out


def filtration_subcomplex(x: Located, max_level: int) -> Located:
    """Points with level <= max_level; a subcomplex since boundaries drop levels."""
    if x.filtration is None:
        raise RegionError("complex carries no filtration")
    return _restrict(x, [k for k in range(x.dim) if x.filtration[k] <= max_level])


def filtration_quotient(x: Located, min_level: int) -> Located:
    """Quotient by the subcomplex below min_level; points with level >= min_level."""
    if x.filtration is None:
        raise RegionError("complex carries no filtration")
    return _restrict(x, [k for k in range(x.dim) if x.filtration[k] >= min_level])


def leveled_region(complex, region: Region, route=None) -> Located:
    """The region realized from its definition, in ascending route level.

    Each grading's point is found by scanning its diagonal with
    region_reference, and an entry d(x) = U^k y is kept when U^k y's
    lattice point, (i - k, i - k + A(y)) for x at (i, j), passes the same
    predicate.  Without a route the basis is in generator order.  With one,
    it is sorted by the route's level (ties in generator order) and
    with_filtration checks that no boundary raises the level.
    """
    shape, t, clip = region.shape, region.level, region.clip
    reach = abs(t) + complex.genus_bound + 1
    at = {}
    for a in {g.alexander for g in complex.generators}:
        found = [
            (i, i + a)
            for i in range(-reach, reach + 1)
            if region_reference(shape, t, clip, i, i + a)
        ]
        assert len(found) <= 1, (a, region)
        if found:
            at[a] = found[0]
    spot = {g.id: at[g.alexander] for g in complex.generators if g.alexander in at}
    order = [g.id for g in complex.generators if g.id in spot]
    if route is not None:
        order.sort(key=lambda gid: route(shape, t, *spot[gid]))
    position = {gid: k for k, gid in enumerate(order)}
    alexander = {g.id: g.alexander for g in complex.generators}
    cols = [0] * len(order)
    for e in complex.differential:
        if e.src in spot:
            i = spot[e.src][0] - e.upower
            if region_reference(shape, t, clip, i, i + alexander[e.dst]):
                cols[position[e.src]] ^= 1 << position[e.dst]
    x = Located(tuple(cols), None, tuple(LatticePoint(gid, *spot[gid]) for gid in order))
    if route is None:
        return x
    return with_filtration(x, tuple(route(shape, t, *spot[gid]) for gid in order))


def a1_surgery_by_walk(complex, n: int) -> int:
    """Drop hook levels (negative) or grow lhook levels (positive) until the map
    dies, at any cable parameter n >= 1."""
    g = complex.genus_bound
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    eps = epsilon_by_maps(complex)
    if eps == 0:
        return 0
    t = tau_by_walk(complex)
    column = located(complex, Region("vertical", 0))

    if eps == -1:
        hook = located(complex, Region("hook", t))
        hook = with_filtration(hook, tuple(hook_step(p.i, n) for p in hook.points))
        for m in range(0, 2 * g + 3):
            quotient = filtration_quotient(hook, -m)
            survivors = {k for k, p in enumerate(quotient.points) if p.i == 0}
            f = chain_map_by_points(quotient, column, survivors)
            if is_trivial(f):
                return -m
    else:
        lhook = located(complex, Region("lhook", t))
        lhook = with_filtration(lhook, tuple(lhook_step(p.i, n) for p in lhook.points))
        for m in range(0, 2 * g + 3):
            sublevel = filtration_subcomplex(lhook, m)
            survivors = {
                k for k, p in enumerate(column.points) if p.i == 0 and p.j >= t
            }
            f = chain_map_by_points(column, sublevel, survivors)
            if is_trivial(f):
                return m
    raise SearchExhausted(f"surgery a1 search exhausted [0, {2 * g + 2}]")
