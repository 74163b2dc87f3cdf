"""Independent oracles: exhaustive enumeration and sympy polynomial algebra.

These deliberately avoid the package's elimination code paths so that the
fast implementations are checked against something that cannot share their
bugs.  Enumeration is exponential, so callers keep dimensions small.
"""

from __future__ import annotations

import sympy


def apply_boundary(cols: tuple[int, ...], chain: int) -> int:
    out = 0
    for k, col in enumerate(cols):
        if (chain >> k) & 1:
            out ^= col
    return out


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


def brute_induced_coordinates(source_reps, target_cols, target_reps, map_cols) -> tuple[int, ...]:
    """Induced matrix by enumeration, one column per source representative.

    Column k is the unique mask c with f(z_k) + sum of c_i h_i a boundary
    of the target, found by trying every c against the set of all
    boundaries.
    """
    assert len(target_cols) <= 14 and len(map_cols) <= 14
    boundaries = {apply_boundary(tuple(target_cols), v) for v in range(1 << len(target_cols))}
    cols = []
    for z in source_reps:
        image = apply_boundary(tuple(map_cols), z)
        found = [
            c
            for c in range(1 << len(target_reps))
            if image ^ apply_boundary(tuple(target_reps), c) in boundaries
        ]
        assert len(found) == 1, "representatives are not a basis modulo boundaries"
        cols.append(found[0])
    return tuple(cols)


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
    out = []
    coeffs = poly.all_coeffs()  # descending
    deg = len(coeffs) - 1
    for k, c in enumerate(coeffs):
        if c:
            assert c in (1, -1), f"coefficient {c} breaks the alternating form"
            out.append(deg - k + shift)
    return tuple(out)
