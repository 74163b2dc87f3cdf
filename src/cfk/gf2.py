"""Linear algebra over the two-element field using int bitsets.

A vector is an int whose bit ``i`` is the coefficient of basis element ``i``.
A matrix is a list of column vectors.  Everything is exact; no floats.
"""

from __future__ import annotations


class XorBasis:
    """Reduced basis with combination tracking, indexed by pivot.

    image_and_kernel fills it.  Each kept vector is stored under its pivot,
    its highest set bit, as ``(vector, combo)``; ``mask`` is the OR of all
    pivot bits.  Reducing a vector XORs in only the entries whose pivots
    are set in it, highest first, until no pivot bit is left.  The
    remainder, zero at every pivot, is unique, and so is the combo; both
    are deterministic in the insertion order.
    """

    def __init__(self) -> None:
        self.by_pivot: dict[int, tuple[int, int]] = {}  # pivot index -> (vector, combo)
        self.mask = 0  # OR of the pivot bits

    def reduce(self, v: int, combo: int = 0) -> tuple[int, int]:
        """Reduce v; return the remainder and combo XORed with the masks used.

        A remainder of 0 means v lies in the span, and it then equals the
        XOR of the basis vectors whose masks were folded into the combo.
        """
        by_pivot, mask = self.by_pivot, self.mask
        hits = v & mask
        while hits:
            bv, bc = by_pivot[hits.bit_length() - 1]
            v ^= bv
            combo ^= bc
            hits = v & mask
        return v, combo

    @property
    def rank(self) -> int:
        return len(self.by_pivot)


def image_and_kernel(cols: list[int]) -> tuple[XorBasis, list[int]]:
    """Reduced column space basis and kernel basis of a matrix given by columns.

    One pass inserts the columns in order: column k is reduced with the
    combo 1 << k, and kept under its top bit unless it reduces to zero,
    when its combo is a kernel element.  The basis holds the columns that
    got pivots, in reduced form.  Each kernel element is a mask over column
    indices whose columns XOR to zero, with its own column as top bit, so
    no two share a top bit.  Both are deterministic in column order.  The
    loop is XorBasis.reduce inlined, with the pivots and mask in locals.
    """
    basis = XorBasis()
    by_pivot, mask = basis.by_pivot, 0
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
    basis.mask = mask
    return basis, kernel


def apply_columns(cols: list[int], v: int) -> int:
    """Image of vector v under the matrix with the given columns."""
    out = 0
    while v:
        low = v & -v
        out ^= cols[low.bit_length() - 1]
        v ^= low
    return out
