import random

from cfk import gf2
from cfk.builders import random_model
from cfk.complexes import mirror, tensor
from cfk.homology import F2Complex, _by_j, homology, realize
from cfk.invariants import _by_i, _by_steps, invariants, tau
from cfk.regions import Region

from oracles import (
    apply_boundary,
    d_squared_is_zero,
    greedy_representatives,
    insert_image_and_kernel,
    is_coboundary,
    reference_cocycles,
    scan_image_and_kernel,
    scan_reduce,
    transpose,
)


def transposed(x: F2Complex) -> F2Complex:
    """The cochain complex of x on the same basis."""
    return F2Complex(tuple(transpose(list(x.boundary))))


def test_rank_identity():
    assert len(gf2.image_and_kernel([0b001, 0b010, 0b100])[0]) == 3


def test_rank_dependent_rows():
    assert len(gf2.image_and_kernel([0b011, 0b101, 0b110])[0]) == 2
    assert gf2.image_and_kernel([0, 0]) == ({}, [0b01, 0b10])
    assert gf2.image_and_kernel([]) == ({}, [])


def test_image_and_kernel_counts():
    cols = [0b01, 0b01, 0b10]
    by_pivot, kernel = gf2.image_and_kernel(cols)
    assert len(by_pivot) == 2
    assert kernel == [0b011]  # first two columns are equal


def test_kernel_members_map_to_zero():
    cols = [0b110, 0b011, 0b101, 0b000]
    by_pivot, kernel = gf2.image_and_kernel(cols)
    for combo in kernel:
        assert gf2.apply_columns(cols, combo) == 0
    assert len(by_pivot) + len(kernel) == len(cols)


def appended(cols: list[int], v: int) -> tuple[int, int | None]:
    """Reduce cols with v appended: v's reduced form, and the combo over cols
    that writes v when it lies in their span (None when it does not)."""
    n = len(cols)
    by_pivot, kernel = gf2.image_and_kernel(cols + [v])
    if kernel and kernel[-1].bit_length() > n:
        return 0, kernel[-1] ^ 1 << n
    [(reduced, combo)] = [e for e in by_pivot.values() if e[1].bit_length() > n]
    assert combo >> n == 1
    return reduced, None


def test_coordinates_of_known_combination():
    cols = [0b0110, 0b0011, 0b1000]
    assert appended(cols, 0b0110 ^ 0b0011) == (0, 0b011)
    assert appended(cols, 0b0110 ^ 0b0011 ^ 0b1000) == (0, 0b111)
    assert appended(cols, 0b1000) == (0, 0b100)


def test_coordinates_of_zero_target():
    assert appended([0b0110, 0b0011], 0) == (0, 0)
    assert appended([], 0) == (0, 0)


def test_vector_outside_span_leaves_remainder():
    cols = [0b0110, 0b0011]
    remainder, combo = appended(cols, 0b0100)
    assert remainder != 0 and combo is None
    # the remainder differs from the target by a member of the span
    assert appended(cols, remainder ^ 0b0100)[1] is not None


def test_image_and_kernel_basis_spans_the_columns():
    cols = [0b110, 0b011, 0b101, 0b000]
    by_pivot, _ = gf2.image_and_kernel(cols)
    assert len(by_pivot) == 2
    for c in cols:
        _, combo = appended(cols, c)
        assert combo is not None and gf2.apply_columns(cols, combo) == c
    assert appended(cols, 0b001)[1] is None


# -- the pivot-indexed kernel against the linear scan ---------------------------


def random_boundary(rng: random.Random, n: int) -> list[int]:
    """Columns of P D0 P^-1: D0 sends m random basis points to m others (so
    D0^2 = 0) and P is a random product of transvections."""
    order = rng.sample(range(n), n)
    m = rng.randint(0, n // 2)
    d0 = [0] * n
    for src, tgt in zip(order[:m], order[m : 2 * m]):
        d0[src] = 1 << tgt
    moves = [tuple(rng.sample(range(n), 2)) for _ in range(3 * n)] if n > 1 else []

    def transvect(v: int, steps) -> int:  # e_j -> e_j + e_i, applied in order
        for i, j in steps:
            if v >> j & 1:
                v ^= 1 << i
        return v

    back = moves[::-1]
    return [transvect(apply_boundary(d0, transvect(1 << k, moves)), back) for k in range(n)]


def assert_kernel_matches_scan(x: F2Complex, rng: random.Random) -> None:
    cols = list(x.boundary)
    by_pivot, kernel = gf2.image_and_kernel(cols)
    scan_basis, scan_kernel = scan_image_and_kernel(cols)
    assert kernel == scan_kernel
    assert len(by_pivot) == len(scan_basis)
    assert all(v.bit_length() - 1 == p for p, (v, _) in by_pivot.items())
    in_span = [apply_boundary(cols, rng.getrandbits(len(cols))) for _ in range(8)]
    anywhere = [rng.getrandbits(len(cols)) for _ in range(8)]
    for v in in_span + anywhere + kernel:
        # v appended to the columns: in the kernel exactly when the scan
        # leaves nothing, else kept with no bit at an earlier pivot
        remainder, combo = appended(cols, v)
        scan_remainder, scan_combo = scan_reduce(scan_basis, v)
        assert (combo is not None) == (scan_remainder == 0)
        assert not any(remainder >> p & 1 for p in by_pivot)
        if combo is not None:
            # v has one way to be written in the kept columns, so both pivot
            # rules give the same combo; outside the span they need not
            assert combo == scan_combo
            assert apply_boundary(cols, combo) == v
    assert homology(x).representatives == greedy_representatives(cols)


def test_kernel_matches_linear_scan_on_random_boundaries():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(1, 24)
        x = F2Complex(tuple(random_boundary(rng, n)))
        assert d_squared_is_zero(x)
        assert_kernel_matches_scan(x, rng)
        assert_kernel_matches_scan(transposed(x), rng)


def test_appended_vectors_read_off_one_call():
    # the death reader's reading: boundary columns with vectors appended, in
    # one call, against the scan's own reduction of each vector
    rng = random.Random(29)
    read = 0
    for _ in range(300):
        cols = random_boundary(rng, rng.randint(1, 24))
        n = len(cols)
        vs = [apply_boundary(cols, rng.getrandbits(n)) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            vs.insert(rng.randint(0, len(vs)), rng.getrandbits(n))
        scan_basis, scan_kernel = scan_image_and_kernel(cols)
        scans = [scan_reduce(scan_basis, v) for v in vs]
        _, kernel = gf2.image_and_kernel(cols + vs)
        pulled = [z & (1 << n) - 1 for z in kernel if z.bit_length() > n]
        assert len(kernel) - len(pulled) == len(scan_kernel)
        if any(remainder for remainder, _ in scans):
            assert len(pulled) < len(vs)
        else:
            # each vector meets the pivots the boundary alone gives it
            assert pulled == [combo for _, combo in scans]
            read += bool(vs)
    assert read > 100


def least_coboundary_cutoff(cols: list[int], levels: tuple[int, ...], psi: list[int]):
    """The least s >= 0 at which every cochain in psi, supported on level 0,
    is a coboundary of the quotient {level >= -s}, one scan per cutoff; None
    when none is, not even on the whole complex."""
    for s in range(max(0, -levels[0]) + 1 if levels else 1):
        m = next((k for k, level in enumerate(levels) if level >= -s), len(levels))
        quotient = [col >> m for col in cols[m:]]
        if all(is_coboundary(quotient, p >> m) for p in psi):
            return s
    return None


def pivot_reading(by_pivot: dict, kernel: list[int], levels: tuple[int, ...], psi: list[int]):
    """The death reader's hook rule: None when some psi pairs oddly with a
    kernel combo, else max(0, -min level) over the pivots whose combo pairs
    oddly with some psi, 0 when there is none."""
    if any(pairing(p, z) for p in psi for z in kernel):
        return None
    odd = [q for q, (_, combo) in by_pivot.items() if any(pairing(p, combo) for p in psi)]
    return max(0, -min((levels[q] for q in odd), default=0))


def test_hook_pairing_reads_the_quotient_coboundaries():
    # the combos of one reduction in ascending level span the relative
    # cycles of every quotient {level >= -s}, so cochains on the level-0
    # points die where the oddly paired pivots say, against the scan's
    # coboundary test on each quotient of realized hooks
    rng = random.Random(31)
    cases, dies_later, never = 0, 0, 0
    for seed in range(240):
        base = random_model(seed)
        for c in (base, mirror(base)):
            g = c.genus_bound
            for route in (_by_i, _by_steps(1), _by_steps(2), _by_steps(2 * g + 1)):
                x = realize(c, Region("hook", tau(c)), route)
                cols, levels = list(x.boundary), x.filtration
                zero = [k for k, level in enumerate(levels) if level == 0]
                by_pivot, kernel = gf2.image_and_kernel(cols)
                for _ in range(8):
                    count = rng.randint(1, 2)
                    psi = [sum(rng.getrandbits(1) << k for k in zero) for _ in range(count)]
                    got = pivot_reading(by_pivot, kernel, levels, psi)
                    assert got == least_coboundary_cutoff(cols, levels, psi), (c.name, route)
                    cases += 1
                    dies_later += bool(got)
                    never += got is None
    assert cases == 240 * 2 * 4 * 8 and dies_later > 1000 and never > 1000


def assert_same_elimination(cols: list[int]) -> None:
    by_pivot, kernel = gf2.image_and_kernel(cols)
    ref, ref_kernel = insert_image_and_kernel(cols)
    assert kernel == ref_kernel
    assert list(by_pivot.items()) == list(ref.items())


def test_inlined_kernel_matches_the_insert_loop(t29, monkeypatch, cold_caches):
    rng = random.Random(17)
    for _ in range(300):
        x = F2Complex(tuple(random_boundary(rng, rng.randint(1, 24))))
        assert_same_elimination(list(x.boundary))
        assert_same_elimination(transpose(list(x.boundary)))
    # the three matrices of a cold report on the 729 generators of
    # T(2,9)^{#3}: the column, the lhook plus its one representative's
    # image, and the hook alone
    matrices = []
    kernel = gf2.image_and_kernel
    monkeypatch.setattr(gf2, "image_and_kernel", lambda cols: matrices.append(cols) or kernel(cols))
    big = tensor(tensor(t29, t29), t29)
    invariants(big)
    monkeypatch.undo()
    assert [len(cols) for cols in matrices] == [729, 730, 729]
    for cols in matrices:
        assert_same_elimination(cols)


def pairing(phi: int, z: int) -> int:
    return (phi & z).bit_count() & 1


def assert_cocycle_laws(x: F2Complex) -> int:
    """Check the cocycles of x against the three laws; return its dimension."""
    cols = list(x.boundary)
    h = homology(x)
    reps, phis = h.representatives, h.cocycles
    assert len(phis) == len(reps)
    # a cocycle vanishes on every boundary
    assert not any(pairing(phi, b) for phi in phis for b in cols)
    # phi_k(z_l) is 1 at l = k and 0 at l < k: the pairing is unitriangular
    rows = [sum(pairing(phi, z) << l for l, z in enumerate(reps)) for phi in phis]
    assert all(row & ((2 << k) - 1) == 1 << k for k, row in enumerate(rows))
    # each phi is cohomologous to the reference cocycle that pairs with the
    # representatives as it does
    ref = reference_cocycles(cols)
    assert len(ref) == len(reps)
    ref_pairings, _ = scan_image_and_kernel(
        [sum(pairing(r, z) << l for l, z in enumerate(reps)) for r in ref]
    )
    for phi, row in zip(phis, rows):
        remainder, combo = scan_reduce(ref_pairings, row)
        assert remainder == 0
        psi = 0
        for i, r in enumerate(ref):
            if combo >> i & 1:
                psi ^= r
        assert is_coboundary(cols, phi ^ psi)
    return len(reps)


def test_cocycles_are_dual_to_the_representatives(library):
    rng = random.Random(23)
    pool = list(library.values())
    for seed in range(40):
        pool += [random_model(seed), mirror(random_model(seed))]
    complexes = []
    for c in pool:
        t = tau(c)
        complexes += [realize(c, Region("vertical", 0), _by_j)]
        complexes += [realize(c, Region("hook", t)), realize(c, Region("lhook", t))]
    complexes += [F2Complex(tuple(random_boundary(rng, rng.randint(1, 24)))) for _ in range(300)]
    dims = [assert_cocycle_laws(y) for x in complexes for y in (x, transposed(x))]
    assert len(dims) == 2 * (3 * len(pool) + 300)
    # the pairing rows are matched in more than one dimension
    assert sum(d > 1 for d in dims) > 100


def test_kernel_matches_linear_scan_on_regions():
    rng = random.Random(9)
    regions = [Region("vertical", 0), Region("hook", 0), Region("hook", 1), Region("lhook", -1)]
    for seed in range(40):
        base = random_model(seed)
        for c in (base, mirror(base)):
            for x in [realize(c, r) for r in regions] + [realize(c, regions[0], _by_j)]:
                assert_kernel_matches_scan(x, rng)
                assert_kernel_matches_scan(transposed(x), rng)
