"""Linear algebra over GF(2) with vertex subsets stored as int bit masks.

A vector over GF(2)^n is a plain Python int whose bit i is coordinate i;
addition is XOR and the scalar product is the parity of the AND.  Matrices
keep one mask per row.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

WORD_BITS = 64


def dot(x: int, y: int) -> int:
    """Scalar product mod 2: parity of the common support."""
    return (x & y).bit_count() & 1


@dataclass(frozen=True)
class BitMatrix:
    """A binary matrix; rows[i] holds row i as a mask over n_cols columns."""

    rows: tuple[int, ...]
    n_rows: int
    n_cols: int

    def __post_init__(self) -> None:
        if self.n_cols > WORD_BITS:
            raise ValidationError(f"column count {self.n_cols} exceeds {WORD_BITS}")
        if len(self.rows) != self.n_rows:
            raise ValidationError("row count does not match rows")
        mask = (1 << self.n_cols) - 1
        for i, r in enumerate(self.rows):
            if r & ~mask:
                raise ValidationError(f"row {i} has bits beyond column {self.n_cols}")

    @staticmethod
    def from_rows(rows: list[int], n_cols: int) -> "BitMatrix":
        return BitMatrix(tuple(rows), len(rows), n_cols)


def matvec(m: BitMatrix, x: int) -> int:
    """m @ x over GF(2); bit i of the result is <row_i, x>."""
    if x >> m.n_cols:
        raise ValidationError("vector has bits beyond the matrix column count")
    out = 0
    for i, row in enumerate(m.rows):
        out |= dot(row, x) << i
    return out


def _eliminate(rows: list[int]) -> list[int]:
    """Row-reduce in place; returns pivot rows with distinct leading bits.

    The leading (highest set) bit of every returned row is cleared from all
    the other returned rows, so greedy reduction against them is canonical.
    """
    pivots: list[int] = []  # kept sorted by leading bit, descending
    for r in rows:
        for p in pivots:
            if r & (1 << (p.bit_length() - 1)):
                r ^= p
        if r:
            for i, p in enumerate(pivots):
                if p & (1 << (r.bit_length() - 1)):
                    pivots[i] = p ^ r
            pivots.append(r)
            pivots.sort(key=int.bit_length, reverse=True)
    return pivots


def reduce_against(x: int, basis: list[int]) -> int:
    """Minimal representative of x + span(basis), as an integer.

    Requires basis in the reduced form produced by _eliminate; XORing away
    every leading bit present in x is then exactly the coset minimum.
    """
    for b in basis:
        if x & (1 << (b.bit_length() - 1)):
            x ^= b
    return x


def kernel_basis(m: BitMatrix) -> list[int]:
    """Basis of {x : m @ x = 0}, each vector a mask over the column space."""
    # Eliminate the columns of [m ; I] jointly: reduce each column vector of m
    # while tracking which input combination produced it.
    pivots: list[tuple[int, int]] = []  # (column image, generating input mask)
    kernel: list[int] = []
    for j in range(m.n_cols):
        col = 0
        for i, row in enumerate(m.rows):
            col |= ((row >> j) & 1) << i
        gen = 1 << j
        for img, src in pivots:
            if col & (1 << (img.bit_length() - 1)):
                col ^= img
                gen ^= src
        if col:
            pivots.append((col, gen))
            pivots.sort(key=lambda t: t[0].bit_length(), reverse=True)
        else:
            kernel.append(gen)
    return kernel


def image_with_preimages(m: BitMatrix) -> list[tuple[int, int]]:
    """All 2^rank image vectors Y with, for each, the smallest preimage.

    Returns (Y, A_Y) pairs with m @ A_Y == Y; A_Y is the numerically smallest
    mask among all preimages, which makes the enumeration deterministic.
    """
    pivots: list[tuple[int, int]] = []
    for j in range(m.n_cols):
        col = matvec(m, 1 << j)
        gen = 1 << j
        for img, src in pivots:
            if col & (1 << (img.bit_length() - 1)):
                col ^= img
                gen ^= src
        if col:
            pivots.append((col, gen))
            pivots.sort(key=lambda t: t[0].bit_length(), reverse=True)
    ker = _eliminate(kernel_basis(m))
    pairs: list[tuple[int, int]] = []
    r = len(pivots)
    for combo in range(1 << r):
        y = 0
        x = 0
        for i in range(r):
            if combo & (1 << i):
                y ^= pivots[i][0]
                x ^= pivots[i][1]
        pairs.append((y, reduce_against(x, ker)))
    return pairs


def orthocomplement(vectors: list[int], length: int) -> list[int]:
    """Every x in GF(2)^length with <x, v> = 0 for all given v.

    The result has 2^(length - dim span) elements, enumerated as the span of
    a dual basis (order deterministic).
    """
    if length > WORD_BITS:
        raise ValidationError(f"length {length} exceeds {WORD_BITS}")
    constraint = BitMatrix.from_rows(list(vectors), length)
    basis = kernel_basis(constraint)
    out: list[int] = []
    for combo in range(1 << len(basis)):
        x = 0
        for i, b in enumerate(basis):
            if combo & (1 << i):
                x ^= b
        out.append(x)
    return out
