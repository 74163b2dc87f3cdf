"""Linear algebra over the two-element field using int bitsets.

A vector is an int whose bit ``i`` is the coefficient of basis element ``i``.
A matrix is a list of column vectors.  Everything is exact; no floats.
"""

from __future__ import annotations


class XorBasis:
    """Incremental row-reduced basis with combination tracking.

    Vectors are inserted in order; each is reduced against the current
    basis using the lowest set bit as pivot, which makes every result
    deterministic in the insertion order.
    """

    def __init__(self) -> None:
        self.pivots: list[int] = []  # pivot bit per basis vector
        self.vectors: list[int] = []
        self.combos: list[int] = []  # combo mask per basis vector
        self.inserted = 0

    def reduce(self, v: int, combo: int = 0) -> tuple[int, int]:
        """Reduce v; return the remainder and combo XORed with the masks used.

        A remainder of 0 means v lies in the span, and it then equals the
        XOR of the basis vectors whose masks were folded into the combo.
        """
        for p, bv, bc in zip(self.pivots, self.vectors, self.combos):
            if v & p:
                v ^= bv
                combo ^= bc
        return v, combo

    def add(self, v: int, combo: int) -> tuple[int, int]:
        """Reduce v with the given combo mask and keep it if independent."""
        v, combo = self.reduce(v, combo)
        if v:
            self.pivots.append(v & -v)  # lowest set bit
            self.vectors.append(v)
            self.combos.append(combo)
        return v, combo

    def insert(self, v: int) -> tuple[int, int]:
        """Insert a vector; return its reduced form and combo mask.

        A reduced form of 0 means v was already in the span; the combo
        mask then names a subset of previously inserted vectors (plus v
        itself) that XORs to zero.
        """
        idx = self.inserted
        self.inserted += 1
        return self.add(v, 1 << idx)

    @property
    def rank(self) -> int:
        return len(self.vectors)


def rank(vectors: list[int]) -> int:
    """Rank of the span of the given vectors."""
    basis = XorBasis()
    for v in vectors:
        basis.insert(v)
    return basis.rank


def image_and_kernel(cols: list[int]) -> tuple[XorBasis, list[int]]:
    """Reduced column space basis and kernel basis of a matrix given by columns.

    The basis holds the columns that got pivots, in reduced form.  Each
    kernel element is a mask over column indices whose columns XOR to
    zero.  Both are deterministic in column order.
    """
    basis = XorBasis()
    kernel: list[int] = []
    for c in cols:
        reduced, combo = basis.insert(c)
        if not reduced:
            kernel.append(combo)
    return basis, kernel


def apply_columns(cols: list[int], v: int) -> int:
    """Image of vector v under the matrix with the given columns."""
    out = 0
    while v:
        low = v & -v
        out ^= cols[low.bit_length() - 1]
        v ^= low
    return out
