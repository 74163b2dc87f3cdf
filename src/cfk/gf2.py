"""Linear algebra over the two-element field using int bitsets.

A vector is an int whose bit ``i`` is the coefficient of basis element ``i``.
A matrix is a list of column vectors.  Everything is exact; no floats.
"""

from __future__ import annotations


def image_and_kernel(cols: list[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Reduced column space basis and kernel basis of a matrix given by columns.

    Column k starts with the combo 1 << k and XORs in the kept entries whose
    pivots, highest set bits, are set in it, highest first.  A nonzero
    remainder is kept under its pivot as ``(vector, combo)``; a zero one
    makes its combo a kernel element.  Every combo has its own column as top
    bit, so a column appended to others lands in the kernel exactly when it
    lies in their span, with the combo that writes it below its own bit.
    Both are deterministic in column order.
    """
    by_pivot: dict[int, tuple[int, int]] = {}
    mask = 0  # OR of the pivot bits
    kernel: list[int] = []
    for k, v in enumerate(cols):
        combo = 1 << k
        hits = v & mask
        while hits:
            bv, bc = by_pivot[hits.bit_length() - 1]
            v ^= bv
            combo ^= bc
            hits = v & mask
        if v:
            top = v.bit_length() - 1
            by_pivot[top] = (v, combo)
            mask |= 1 << top
        else:
            kernel.append(combo)
    return by_pivot, kernel


def apply_columns(cols: list[int], v: int) -> int:
    """Image of vector v under the matrix with the given columns."""
    out = 0
    while v:
        low = v & -v
        out ^= cols[low.bit_length() - 1]
        v ^= low
    return out
