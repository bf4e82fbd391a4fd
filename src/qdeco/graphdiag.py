"""Graph-diagonal states under local Pauli noise.

A graph state sent through independent single-qubit Pauli channels stays
diagonal in its graph basis, so the full density matrix never has to be
formed: the state is a vector of 2^n weights lam[U], one per vertex subset
U.  This module propagates those weights, computes partial-transpose
spectra exactly (the partially transposed state is diagonal in the same
basis; pt_spectrum gets its weights from two Walsh-Hadamard transforms and
one sign per stabilizer element, for any weights and any split),
PPT-certifying estimates built from weight ratios, and a scan of every
bipartition for the noise level where its spectrum turns nonnegative.

The scan's exact values come from the gather, a signed average of shifted
weights per split, whose terms have one builder, _build_terms, for a list
of splits: two column eliminations over GF(2) on the adjacency block
between the sides of each split, on Python ints, then the spans, signs
and terms of all splits of one rank as stacked array passes.

The scan bisects every split in lockstep on the sign of its smallest PT
weight.  For the scan families (depolarizing, dephasing, bitflip) the
Fourier form of the PT spectrum, FourierForm, gives that sign: a split's
PT weights at p are the powers p^d times its integer coefficients
C[d, U] (n + 1 rows of butterfly passes per split, built once), at every
point of the pre-scan grid and at each split's point in each refinement
round.  A value settles the sign only when it exceeds fourier_bound, the
distance of this form from the gather's value.  Where it does not, and at
the clean end of the bracket, which sets the argmin and the verdict of
splits without a crossing, the gather supplies the value.  So every
bisection takes the steps it would take on the gather alone, and every
entry of the report is the gather's.  The splits go in blocks whose
coefficients fit _SCAN_BLOCK, each through one numeric.bisect_lockstep,
and a block runs in array passes rather than split by split: one
_build_terms call for the terms of all its splits, which live, stacked
per rank, until the block ends; the clean ends of all its splits of one
rank as one stacked gather (_gather, bit for bit the same per split as a
stack of one); the pre-scan minima in a few stacked
products; the undecided values of the pre-scan and of each refinement
round as one stacked gather per rank; and the grids as one array that
bisect_lockstep checks in one pass.  What a scan holds at once is bounded
as _scan_splits says; the gather keeps no index between calls.  Graphs
of _POOL_MIN_N or more vertices can spread the splits over processes.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .channels import NAMED_EXPONENTS, ChannelFamily, PauliChannel
from .errors import CapacityError, ValidationError
from .graphs import Bipartition, Graph, bipartitions, neighborhood, spread_bits
from .numeric import (
    DEFAULT_TOL,
    PRESCAN_POINTS,
    ThresholdResult,
    Tolerance,
    bisect,
    bisect_lockstep,
    prescan_grid,
)

FAST_CAP = 20  # 2^n weight vector, and pt_spectrum's two transforms of it
DIRECT_CAP = 14  # lambda_direct's 4^n sum and scan_partitions
# Vertices from which scan_partitions pools its splits.  In fresh processes
# (2-vCPU host, medians of 10-16 alternating pairs) `scan --jobs 2` against
# `--jobs 1` ran 0.86-0.88x on ring:8 under all three families and
# 0.91-1.17x on ring:9 and grid2d:3x3: below 9 the pool costs more than it saves.
_POOL_MIN_N = 9
SANDWICH_CAP = 12  # exhaustive ratio check over all U and k
SCAN_BRACKET = (1e-6, 1.0 - 1e-6)

# How a split verdict should be read: a negative PT eigenvalue is necessary
# for distillability across the split but not proven sufficient here.
NPT_VERDICT = "NPT (necessary for distillability)"


class GraphDiagonalState(namedtuple("GraphDiagonalState", "graph lam")):
    """Weights lam[U] of a state diagonal in the graph basis of `graph`."""

    __slots__ = ()
    # Compared by identity, as the arrays cannot be compared as one value.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, graph: Graph, lam: np.ndarray) -> GraphDiagonalState:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (1 << graph.n,):
            raise ValidationError("weight vector must have length 2^n")
        if not np.isfinite(lam).all():
            raise ValidationError("weights must be finite")
        if lam.min() < -1e-14:
            raise ValidationError(f"negative weight {lam.min()}")
        if abs(lam.sum() - 1.0) > 1e-9:
            raise ValidationError(f"weights sum to {lam.sum()}, not 1")
        return super().__new__(cls, graph, lam)

    @property
    def n(self) -> int:
        return self.graph.n


class PtSpectrum(namedtuple("PtSpectrum", "lam_prime partition min_value")):
    """Eigenvalues of the partial transpose, still indexed by subset mask."""

    __slots__ = ()
    # Compared by identity, as the arrays cannot be compared as one value.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(
        cls, lam_prime: np.ndarray, partition: Bipartition, min_value: float
    ) -> PtSpectrum:
        if abs(lam_prime.sum() - 1.0) > 1e-9:
            raise ValidationError("partial transpose must preserve the trace")
        return super().__new__(cls, lam_prime, partition, min_value)

    @property
    def argmin_mask(self) -> int:
        """Subset U attaining the smallest eigenvalue."""
        return int(np.argmin(self.lam_prime))


def lambda_from_pauli(g: Graph, ch: PauliChannel) -> GraphDiagonalState:
    """Weights of the graph state after one Pauli channel per qubit.

    Each vertex contributes a four-way mix: acting with X on qubit k toggles
    the neighbour set N_k in U, acting with Z toggles k itself, and Y toggles
    both.  Sequential per-vertex mixing costs O(n 2^n) instead of the 4^n
    double sum (kept in lambda_direct as a cross-check).
    """
    if g.is_weighted:
        raise ValidationError(
            "weighted graphs are not graph-diagonal under Pauli noise; "
            "use the dense route in pairdistill/oracle"
        )
    if g.n > FAST_CAP:
        raise CapacityError(f"weight vector needs 2^{g.n} entries; cap is n={FAST_CAP}")
    # One vertex's index arrays at a time: all of them at n = FAST_CAP would
    # take 480 MB.
    return GraphDiagonalState(g, _mix_weights(g.n, ch.probs, _vertex_shifts(g)))


def _vertex_shifts(g: Graph) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per vertex k, the subsets U ^ N_k, U ^ (N_k + k) and U ^ k that X, Y
    and Z on qubit k move each subset mask U to."""
    idx = np.arange(1 << g.n)
    for k in range(g.n):
        nk = neighborhood(g, k)
        yield idx ^ nk, idx ^ (nk | (1 << k)), idx ^ (1 << k)


def _mix_weights(n: int, probs: tuple[float, float, float, float], shifts: Iterable) -> np.ndarray:
    """lambda_from_pauli's weights, unvalidated: the channel probs mixed
    into the clean weights vertex by vertex, through the index arrays of
    _vertex_shifts, one at a time or stacked."""
    p0, p1, p2, p3 = probs
    lam = np.zeros(1 << n)
    lam[0] = 1.0
    for x, y, z in shifts:
        lam = p0 * lam + p1 * lam[x] + p2 * lam[y] + p3 * lam[z]
    return lam


def lambda_direct(g: Graph, ch: PauliChannel) -> np.ndarray:
    """All 2^n weights lam[U] by the explicit 4^n double sum (test oracle).

    With ratios q_i = p_i/p_0, lam[U] is p_0^n times a sum over all
    subsets U' of q1/q2/q3 powers counting, per vertex, whether it received
    an X-type flip (member of U'), a Z-type flip (member of W = U + Gamma U',
    the target subset corrected by the X flips), or both.  The terms go in
    passes of _PASS_ENTRIES, whole rows of U, so memory stays bounded.
    """
    if g.is_weighted:
        raise ValidationError("weighted graphs have no graph-basis weights")
    if g.n > DIRECT_CAP:
        raise CapacityError(f"4^{g.n} terms; cap is n={DIRECT_CAP}")
    p0, p1, p2, p3 = ch.probs
    if p0 <= 0.0:
        raise ValidationError("direct sum needs p0 > 0; use lambda_from_pauli")
    q1, q2, q3 = ((p / p0) ** np.arange(g.n + 1) for p in (p1, p2, p3))
    subsets = np.arange(1 << g.n)
    gamma, flips = _pt_masks(g)[0], _popcount(subsets)  # Gamma U' and |U'|
    rows = max(1, _PASS_ENTRIES >> g.n)
    total = np.empty(1 << g.n)
    for start in range(0, 1 << g.n, rows):
        w = gamma ^ subsets[start : start + rows, np.newaxis]
        both = _popcount(subsets & w)
        terms = q1[flips - both] * q2[both] * q3[_popcount(w) - both]
        total[start : start + rows] = terms.sum(axis=1)
    return p0**g.n * total


# ---------------------------------------------------------------------------
# The gather: the PT weights the scan falls back on
#
# Each PT weight is also a signed average of 4^rank shifted weights, whose
# terms come from the adjacency block between the two sides.  pt_spectrum
# agrees with it to rounding, but the scan's entries (p_crit, argmin, and the
# verdict at exact ties) are set by the gather's rounding, which
# bench/reference.json pins, so the scan keeps it for the values its
# certified signs cannot settle.


_CHUNK = 128  # terms per gather


def _gather(
    shifts: np.ndarray,
    signs: np.ndarray,
    prefactor: float,
    lams: np.ndarray,
    rows: np.ndarray,
    index: np.ndarray,
    gathered: np.ndarray,
) -> np.ndarray:
    """PT weights of a stack of splits of one rank, one weight vector each:
    row i of the result, shape (stack, 2^n), applies the terms shifts[i],
    signs[i] (arrays of shape (stack, 4^rank), from _build_terms) to
    lams[rows[i]].

    The terms go _CHUNK at a time.  A chunk's index (every subset mask XOR
    every shift, offset to the weight vector's row of lams) and the weights
    it gathers go into the caller's buffers index (intp) and gathered
    (float64), flat arrays of at least stack x min(4^rank, _CHUNK) x 2^n
    entries; the caller bounds the stack.  Each split's chunk is summed by
    its own signed vector-matrix product and added, chunk by chunk, to
    zeros, then scaled by the prefactor: so each row is bit for bit the row
    a stack of one gives.
    """
    stack, terms = shifts.shape
    dim = lams.shape[1]
    k = min(terms, _CHUNK)
    masks = np.arange(dim, dtype=np.intp)
    # Row r starts at r 2^n, whose low n bits are clear: XOR with a shift
    # adds it, and XOR with a mask keeps it.
    offset = shifts + rows[:, np.newaxis] * dim
    index = index[: stack * k * dim].reshape(stack, k, dim)
    gathered = gathered[: stack * k * dim].reshape(stack, k, dim)
    out = np.zeros((stack, 1, dim))
    for start in range(0, terms, _CHUNK):
        np.bitwise_xor(masks, offset[:, start : start + k, np.newaxis], out=index)
        # Every index is in range; mode="wrap" only lets take write
        # straight into the buffer, where the default mode buffers out.
        np.take(lams, index, out=gathered, mode="wrap")
        out += np.matmul(signs[:, np.newaxis, start : start + k], gathered)
    out *= prefactor
    return out[:, 0]


_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.intp)


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Number of set bits of each entry of an array of nonnegative masks."""
    count = np.zeros(masks.shape, dtype=np.intp)
    while masks.any():
        count += _BYTE_BITS[masks & 255]
        masks = masks >> 8
    return count


def _eliminate(columns: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Column elimination over GF(2), vectors stored as int bit masks.

    Column j is the image of input 1 << j.  Returns the pivots, (image,
    input) pairs with distinct leading bits of the image, sorted by leading
    bit from the highest; the XOR of the columns an input selects is its
    image.  Also returns a basis of the kernel, the inputs whose columns XOR
    to 0, in the order the columns came.
    """
    pivots: list[tuple[int, int]] = []
    kernel: list[int] = []
    for j, col in enumerate(columns):
        src = 1 << j
        for img, pre in pivots:
            if col & (1 << (img.bit_length() - 1)):
                col ^= img
                src ^= pre
        if col:
            pivots.append((col, src))
            pivots.sort(key=lambda t: t[0].bit_length(), reverse=True)
        else:
            kernel.append(src)
    return pivots, kernel


def _spans(bases: np.ndarray) -> np.ndarray:
    """All XOR combinations of each row of bases, shape (count, r), as shape
    (count, 2^r): bit i of the column index selects bases[:, i]."""
    count, r = bases.shape
    out = np.zeros((count, 1 << r), dtype=bases.dtype)
    for i in range(r):
        half = 1 << i
        np.bitwise_xor(out[:, :half], bases[:, i : i + 1], out=out[:, half : 2 * half])
    return out


def _build_terms(
    g: Graph, parts: list[Bipartition]
) -> tuple[np.ndarray, np.ndarray, dict[int, tuple[np.ndarray, np.ndarray, float]]]:
    """PT terms of the splits parts of g, stacked per rank: the rank of
    each split, its row in the stack of its rank, and per rank the shifts
    and signs, shape (stack, 4^rank), and the prefactor 2^-rank, as _gather
    takes them.

    The terms of a split come from the adjacency block Gamma' between its
    two sides: shifts are X + Y with X ranging over the orthocomplement of
    ker Gamma' (inside A) and Y over the image of Gamma' (inside the
    complement), and the sign of a term is the GF(2) pairing of X with a
    preimage of Y, the same for every preimage since X is orthogonal to ker
    Gamma'.  Each split takes two column eliminations over GF(2) on Python
    ints.  They give four bases of rank vectors: the images Y and preimages
    A_Y of Gamma', and X's basis as masks over the vertices of A (for the
    signs) and spread to full width (for the shifts).  The spans of these
    bases, the signs and the terms of all splits of one rank are then a few
    array passes.  There are 4^rank terms per split, Y-major, Y and X each
    in the order _spans gives.
    """
    bases: dict[int, list[list[int]]] = {}
    ranks = np.empty(len(parts), dtype=np.intp)
    stack_row = np.empty(len(parts), dtype=np.intp)
    for i, part in enumerate(parts):
        a_bits = part.members()
        c_mask = part.complement_mask
        # Column j of Gamma' is the neighbourhood in the complement of the
        # j-th vertex of A, a full-width mask: elimination only compares and
        # XORs bits, so the images come out as subsets of the complement,
        # and the inputs as masks over the vertices of A.
        pivots, kernel = _eliminate([g.adj[v] & c_mask for v in a_bits])
        # X runs over the orthocomplement of ker Gamma', the kernel of the
        # matrix whose rows are the kernel vectors.
        _, x_basis = _eliminate(
            [sum(((v >> j) & 1) << k for k, v in enumerate(kernel)) for j in range(len(a_bits))]
        )
        of_rank = bases.setdefault(len(pivots), [])
        ranks[i], stack_row[i] = len(pivots), len(of_rank)
        # spread_bits is linear over GF(2): the span of the spread basis is
        # the spread span, in the same order.
        of_rank.append(
            [img for img, _ in pivots]
            + [spread_bits(x, part.a_mask) for x in x_basis]
            + [pre for _, pre in pivots]
            + x_basis
        )
    stacks = {}
    for r, of_rank in sorted(bases.items()):
        count = len(of_rank)
        y_full, x_full, y_pre, x_c = _spans(
            np.array(of_rank, dtype=np.intp).reshape(count * 4, r)
        ).reshape(count, 4, 1 << r).transpose(1, 0, 2)
        # Any preimage A_Y of Y gives the sign (-1)^<A_Y, X>: every X is
        # orthogonal to ker Gamma', where two preimages differ.
        odd = _popcount(y_pre[:, :, np.newaxis] & x_c[:, np.newaxis, :]) & 1
        stacks[r] = (
            (y_full[:, :, np.newaxis] ^ x_full[:, np.newaxis, :]).reshape(count, -1),
            (1.0 - 2.0 * odd).reshape(count, -1),
            1.0 / (1 << r),
        )
    return ranks, stack_row, stacks


# ---------------------------------------------------------------------------
# Partial transposition in the Fourier domain


def _walsh_hadamard(rows: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of each row of a 2-D array.

    Each of the log2(width) butterfly passes adds and subtracts adjacent
    pairs into the two halves of a second buffer (the constant-geometry
    form: after every bit has been passed, the order is natural again).
    The result is one of the two buffers; rows is overwritten.
    """
    src, dst = rows, np.empty(rows.shape)
    half = rows.shape[1] // 2
    for _ in range(rows.shape[1].bit_length() - 1):
        np.add(src[:, 0::2], src[:, 1::2], out=dst[:, :half])
        np.subtract(src[:, 0::2], src[:, 1::2], out=dst[:, half:])
        src, dst = dst, src
    return src


def _pt_masks(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gamma chi and chi & Gamma chi of every mask chi of g's vertices (Gamma
    chi is the XOR of the neighbourhoods of the vertices in chi), and the
    parity (-1)^|m| of every mask m: the PT sign of chi for the split with
    side A is parity[(chi & Gamma chi) & A].

    Both double with each vertex k: the masks chi with top bit k are those
    below it plus k, so Gamma chi gains N_k and the parity flips."""
    dim = 1 << g.n
    gamma = np.zeros(dim, dtype=np.intp)
    parity = np.ones(dim)
    for k in range(g.n):
        half = 1 << k
        np.bitwise_xor(gamma[:half], g.adj[k], out=gamma[half : 2 * half])
        np.negative(parity[:half], out=parity[half : 2 * half])
    return gamma, np.arange(dim) & gamma, parity


def pt_spectrum(s: GraphDiagonalState, part: Bipartition) -> PtSpectrum:
    """Exact PT eigenvalues of a graph-diagonal state for one bipartition.

    With H the Walsh-Hadamard transform, the state is 2^-n sum_chi (H
    lam)(chi) K_chi, where K_chi is the product of the stabilizer generators
    of the vertices in chi.  Transposing side A multiplies K_chi by
    (-1)^|chi & Gamma chi & A|, so the partial transpose is diagonal in the
    same basis, with weights 2^-n H[(-1)^|chi & Gamma chi & A| (H lam)(chi)]:
    two transforms, O(n 2^n) for any weights and any split.
    """
    if s.n > FAST_CAP:
        raise CapacityError(f"PT spectrum capped at n={FAST_CAP}")
    if part.n != s.n:
        raise ValidationError("partition and graph sizes differ")
    _, cross, parity = _pt_masks(s.graph)
    fourier = _walsh_hadamard(s.lam[np.newaxis].copy())
    fourier *= parity[cross & part.a_mask]
    lam_prime = _walsh_hadamard(fourier)[0] * math.ldexp(1.0, -s.n)
    return PtSpectrum(lam_prime, part, float(lam_prime.min()))


class FourierForm(NamedTuple):
    """PT weights of a graph state under a scan family, in Fourier form.

    Under depolarizing, dephasing or bitflip noise at parameter p the
    Walsh-Hadamard transform H of the noisy weights is p^w(chi), the
    expectation of the stabilizer K_chi: it has an X on the vertices of
    chi - Gamma chi, a Y on those of chi & Gamma chi and a Z on those of
    Gamma chi - chi, so with the channel's exponents (x, y, z) of
    NAMED_EXPONENTS, w = x |chi - Gamma chi| + y |chi & Gamma chi| +
    z |Gamma chi - chi|.  So
    the PT weights of the split with side A (pt_spectrum) are 2^-n
    H[(-1)^|chi & Gamma chi & A| p^w].  Grouping the chi by w gives the
    coefficient form: the PT weight of U is 2^-n sum_d C[d, U] p^d, where
    row d of C is H of the signs on the chi with w(chi) = d (coefficients),
    so one matrix product gives a split's PT weights at any number of p,
    whatever the rank of the split.  It agrees with the gather (_gather on
    _build_terms' terms) on lambda_from_pauli's weights to within
    fourier_bound.
    """

    n: int
    exponents: np.ndarray  # w(chi)
    cross: np.ndarray  # chi & Gamma chi
    parity: np.ndarray  # (-1)^|m| for every mask m

    # Compared by identity, as the arrays cannot be compared as one value.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @staticmethod
    def of(g: Graph, kind: str) -> "FourierForm":
        chi = np.arange(1 << g.n)
        gamma, cross, parity = _pt_masks(g)
        x, y, z = NAMED_EXPONENTS[kind]
        exponents = x * _popcount(chi & ~gamma) + y * _popcount(cross) + z * _popcount(gamma & ~chi)
        return FourierForm(g.n, exponents, cross, parity)

    def powers(self, ps: np.ndarray) -> np.ndarray:
        """p^d 2^-n for d = 0..n at each p of ps, shape (len(ps), n + 1)."""
        powers = np.power(ps[:, np.newaxis], np.arange(self.n + 1, dtype=float))
        powers *= math.ldexp(1.0, -self.n)
        return powers

    def signs(self, a_masks: np.ndarray) -> np.ndarray:
        """(-1)^|chi & Gamma chi & A| of every chi, for each side A of a_masks."""
        return np.take(self.parity, self.cross & a_masks[:, np.newaxis])

    def coefficients(self, a_masks: np.ndarray) -> np.ndarray:
        """Integer PT coefficients of the splits with sides a_masks.

        Entry [i, d, U] is C[d, U] of split i, so powers(ps) @ result[i]
        holds its PT weights at every p of ps.  Each C[d, U] is a sum of
        distinct signs, so |C| <= 2^n and float64 holds every entry, and
        every butterfly pass, exactly.  The shape is (len(a_masks), n + 1,
        2^n): n + 1 rows of butterfly passes per split, for any number of p.
        """
        dim = 1 << self.n
        rows = np.zeros((len(a_masks), self.n + 1, dim))
        rows[:, self.exponents, np.arange(dim)] = self.signs(a_masks)
        return _walsh_hadamard(rows.reshape(-1, dim)).reshape(rows.shape)


def fourier_bound(n: int, rank: int) -> float:
    """Bound on the distance of the coefficient form (FourierForm.powers @
    FourierForm.coefficients) from the gather of a split of rank rank at
    one p.

    In units of u = 2^-53, to first order, for p in SCAN_BRACKET (where
    nothing is subnormal):
    - The gather adds 4^rank distinct weights with signs (any order of
      summation is off by at most 4^rank u times the sum of their sizes, at
      most 1) and scales by the exact 2^-rank: at most 2^rank.
    - lambda_from_pauli's weights are sums of nonnegative terms.  The
      channel probabilities are rounded by at most 2u (relative), and each
      of the n mixing steps puts one product and three additions on every
      term, so every weight is off by at most 6n relative, and a signed
      average of distinct weights by at most 6n.
    - The form takes pow within 4 ulps (8) and the exact scaling by 2^-n.
      Its C is exact, and its (n + 1)-term dot product, in any order, with
      or without FMA, is off by at most (n + 1) times the sum of its terms'
      sizes, at most 1 (n + 1).
    So the form and the gather differ by at most 2^rank + 7n + 9 units.  The
    bound takes 8 times (2^rank + 8n + 8) units, which leaves room for the
    second-order terms (each k u above is k u / (1 - k u)).  A value of
    the form larger than it in size therefore has the sign of the gather,
    which is nonzero.
    """
    return 8.0 * ((1 << rank) + 8 * n + 8) * 2.0**-53


# ---------------------------------------------------------------------------
# PPT certificates from weight ratios

# For channels with all p_i > 0, every weight changes by at most a factor
# q = min_i(p_i/p_0) under shifting the subset by k, N_k, or N_k + k.  That
# sandwich turns the four-term PT closed forms into graph-independent
# one-sided bounds: when the bracketed coefficient below is nonnegative, the
# whole spectrum is, and the split (or every split of its class) is PPT.


def _check_q(q: float) -> None:
    if not 0.0 < q <= 1.0:
        raise ValidationError(f"ratio q must be in (0, 1], got {q}")


def estimate_bound_single(q: float) -> bool:
    """True when every single-vertex split is certainly PPT."""
    _check_q(q)
    return 1.0 + 2.0 * q - 1.0 / q >= 0.0


def estimate_bound_pair(q: float) -> bool:
    """True when every two-vertex split is certainly PPT."""
    _check_q(q)
    return 1.0 + 4.0 * q + 5.0 * q**2 - 2.0 / q - 4.0 / q**2 >= 0.0


def estimate_bound_dephasing(q: float, deg: int) -> bool:
    """Single-vertex PPT certificate specialised to dephasing noise.

    Here q is the ratio p_3/p_0 of the dephasing channel and deg the degree
    of the vertex; the dephasing weights factor as powers of q, which gives
    a sharper, degree-dependent coefficient.
    """
    _check_q(q)
    if deg < 1:
        raise ValidationError("degree must be at least 1")
    return 1.0 + q**deg + q - q ** -(deg + 1) >= 0.0


def estimate_threshold_single() -> float:
    """Ratio where the single-vertex certificate turns on: exactly 1/2."""
    return 0.5


def estimate_threshold_pair(tol: Tolerance = DEFAULT_TOL) -> ThresholdResult:
    """Ratio where the pair certificate turns on (root of a quartic)."""
    return bisect(
        lambda q: 5.0 * q**4 + 4.0 * q**3 + q**2 - 2.0 * q - 4.0, 0.5, 1.0, tol
    )


def estimate_threshold_dephasing(
    deg: int, tol: Tolerance = DEFAULT_TOL
) -> ThresholdResult:
    if deg < 1:
        raise ValidationError("degree must be at least 1")
    return bisect(
        lambda q: q ** (deg + 1) + q ** (2 * deg + 1) + q ** (deg + 2) - 1.0,
        1e-9,
        1.0,
        tol,
    )


def depol_p_from_q(q: float) -> float:
    """Depolarizing parameter whose weight ratio is q: p = (1-q)/(1+3q)."""
    _check_q(q)
    return (1.0 - q) / (1.0 + 3.0 * q)


def dephasing_p_from_q(q: float) -> float:
    """Dephasing parameter whose weight ratio is q: p = (1-q)/(1+q)."""
    _check_q(q)
    return (1.0 - q) / (1.0 + q)


def pauli_q(ch: PauliChannel) -> float:
    """Worst-case weight ratio min_i p_i/p_0 of a strictly positive channel."""
    p0, p1, p2, p3 = ch.probs
    if min(p1, p2, p3) <= 0.0 or p0 <= 0.0:
        raise ValidationError("ratio requires all four probabilities positive")
    return min(p1, p2, p3) / p0


def lambda_estimation_check(s: GraphDiagonalState, ch: PauliChannel) -> bool:
    """Exhaustively verify the shift sandwich q*lam[U] <= lam[U+S] <= lam[U]/q.

    S runs over {k}, N_k, and N_k + k for every vertex k; this is the fact
    the estimate_bound_* certificates rest on.
    """
    if s.n > SANDWICH_CAP:
        raise CapacityError(f"exhaustive check capped at n={SANDWICH_CAP}")
    q = pauli_q(ch)
    dim = 1 << s.n
    idx = np.arange(dim)
    lam = s.lam
    slack = 1e-12
    for k in range(s.n):
        nk = neighborhood(s.graph, k)
        for shift in (1 << k, nk, nk | (1 << k)):
            if shift == 0:
                continue
            shifted = lam[idx ^ shift]
            if not (
                np.all(shifted >= q * lam - slack)
                and np.all(shifted <= lam / q + slack)
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# Scanning every bipartition for its critical noise level


class PartitionScanEntry(NamedTuple):
    partition: Bipartition
    status: str  # "threshold" | "always_ppt" | "always_npt"
    p_crit: float  # NaN unless status == "threshold"
    # Minimising subset at the clean end of the bracket, taken from the
    # gather (_build_terms' terms through _gather), never from the Fourier
    # form or pt_spectrum.  When subsets tie for the minimum, which one is reported is set
    # by the rounding of that gather.
    argmin_mask: int
    iterations: int

    @property
    def kt_crit(self) -> float:
        return -math.log(self.p_crit)


class PartitionScanReport(NamedTuple):
    """Equality and hashing leave the graph out."""

    graph: Graph
    entries: tuple[PartitionScanEntry, ...]
    first_ppt: PartitionScanEntry | None  # largest critical p
    last_ppt: PartitionScanEntry | None  # smallest critical p

    def __eq__(self, other):
        return self[1:] == other[1:] if other.__class__ is self.__class__ else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__, where tuple's != compares every field

    def __hash__(self) -> int:
        return hash(self[1:])

    def rows(self) -> list[tuple[int, int, str]]:
        """(partition_mask, size_A, p_crit-or-status) for tabular output."""
        out = []
        for e in self.entries:
            value = f"{e.p_crit:.12g}" if e.status == "threshold" else e.status
            out.append((e.partition.a_mask, e.partition.size_a, value))
        return out


# float64 entries (4 MB) of one scan block's coefficients, (n + 1) 2^n per
# split, and multiply-adds of one pre-scan product; at least one split per
# block, which fits up to n = DIRECT_CAP.
_SCAN_BLOCK = 1 << 19


# float64 entries (256 KB) that one temporary of a scan pass may hold at
# any n.  A warm in-process repetition of ring:7 under depolarizing and
# dephasing plus a cubic 6-vertex graph (2-vCPU host, medians of 120
# alternations) took 19.6 ms with 2^15 entries, 21.5 ms with 2^16, whose
# 512 KB buffers fall out of L2, and 21.4 ms with 2^13 (64 rows at n = 7).
_PASS_ENTRIES = 1 << 15


def _stack_rows(n: int) -> int:
    """Rows of 2^n floats that one temporary of a scan may hold: the
    largest of _PASS_ENTRIES entries, one split's pre-scan product
    (PRESCAN_POINTS rows) and one gather chunk of a split of the largest
    rank, n // 2 (min(_CHUNK, 4^(n // 2)) rows).  So 256 rows at n = 7
    (2^15 entries; more rows below n = 7) and 128 from n = 8, where no more
    than one split's gather or pre-scan product needs."""
    return max(PRESCAN_POINTS, min(_CHUNK, 4 ** (n // 2)), _PASS_ENTRIES >> n)


def _scan_splits(
    g: Graph,
    family: ChannelFamily,
    parts: list[Bipartition],
    tol: Tolerance,
) -> list[PartitionScanEntry]:
    """Scan the given splits in blocks, steering bisection by certified signs.

    A bisection step needs only the sign of the smallest PT weight.  The
    coefficient form gives it for a whole block of splits: at the pre-scan
    grid, powers(grid) @ C of each split; in each refinement round, one
    powers(p) @ C per split still bisecting.  A value v settles the sign
    when |v| > fourier_bound, because the gather's value is then nonzero and
    of the same sign.  Where it does not, the gather (_build_terms' terms
    through _gather, on the noisy weights) supplies the value, so every bisection
    takes the steps it would take on the gather alone.  The clean-end row,
    which gives the argmin and the verdict of splits without a crossing, is
    always gathered.

    A block runs in array passes, not split by split (_scan_block): one
    _build_terms call for the terms of all its splits, stacked per rank;
    one stacked gather per rank for the clean ends; the pre-scan minima of
    every split in a few stacked products; one stacked gather per rank for
    the undecided grid values; one (splits, PRESCAN_POINTS + 1) array of
    grids, which bisect_lockstep checks in one pass; then per refinement
    round one stacked product and, for its undecided values, one stacked
    gather per rank.  Every gather pass and pre-scan product holds at most
    _stack_rows(n) rows of 2^n, and the gather passes of the whole scan
    share one pair of buffers of that size (index and gathered weights),
    allocated here and sliced by each pass.

    The splits go in blocks whose coefficients fit _SCAN_BLOCK, one
    bisect_lockstep per block.  Each split's terms are built once, and the
    block keeps them, stacked per rank, until it ends: since 4^rank <= 2^n,
    they take at most 2/(n + 1) of the memory of its coefficients.  Noisy
    weights are computed once per p and shared by every split of every
    block, each mixed (_mix_weights) through per-vertex XOR index tables
    built once per scan.  So a scan holds at most: the block's
    coefficients twice over only while the Walsh-Hadamard passes build
    them, and once through the refinement, which moves the rows of the
    splits still bisecting to the front of the same array as others
    finish, plus its stacked terms; the index tables, 3n 2^n entries
    (21 KB at n = 7, 5.5 MB at DIRECT_CAP); the weights cache, 2^n floats
    per distinct p; and four temporaries of _stack_rows(n) rows of 2^n
    floats (the gather buffers, the weight vectors a pass reads, and a
    pre-scan product, whose buffer is freed before the refinement starts).

    Under bitflip noise the minimum of some splits is exactly 0.0 over a
    whole range of p.  A split whose pre-scan meets an exact zero reads
    every zero as PPT (1.0), not as a root.  Other splits keep bisect's
    rule, under which a zero met while refining is the root: near the
    multiple roots of dephasing splits such a zero is rounding noise either
    way, and reading it as PPT would move those values by up to a few 1e-9
    without making them exact.
    """
    cache: dict[float, np.ndarray] = {}
    shifts = np.array(list(_vertex_shifts(g)))  # shape (n, 3, 2^n)

    def weights(ps: list[float]) -> np.ndarray:
        lams = np.empty((len(ps), 1 << g.n))
        for row, p in zip(lams, ps):
            lam = cache.get(p)
            if lam is None:
                lam = cache[p] = _mix_weights(g.n, family.pauli(p).probs, shifts)
            row[:] = lam
        return lams

    form = FourierForm.of(g, family.kind)
    entries_per_pass = _stack_rows(g.n) << g.n
    buffers = np.empty(entries_per_pass, dtype=np.intp), np.empty(entries_per_pass)
    step = max(1, _SCAN_BLOCK // ((g.n + 1) << g.n))
    entries = []
    for start in range(0, len(parts), step):
        entries += _scan_block(g, form, weights, buffers, parts[start : start + step], tol)
    return entries


def _prescan_minima(
    grid_powers: np.ndarray, coefficients: np.ndarray, budget: int, out: np.ndarray
) -> None:
    """Into out[i, j], the minimum of grid_powers[j] @ coefficients[i], the
    coefficient form of split i at grid point j, in stacked products of at
    most budget rows of 2^n, as many splits per product as that holds.

    A split's grid rows go in products of at most _SCAN_BLOCK multiply-adds:
    OpenBLAS ran a product of the whole grid on several threads from
    n = 10, and the threads of two pooled workers contended (a ring:11 scan
    with jobs=2 took two to three times as long).  The buffer the products
    share is freed on return.
    """
    points, splits = len(grid_powers), len(coefficients)
    rows = min(points, max(1, _SCAN_BLOCK // coefficients[0].size))
    per = max(1, budget // rows)
    buffer = np.empty((min(per, splits), rows, coefficients.shape[2]))
    for s in range(0, splits, per):
        of_splits = coefficients[s : s + per]
        for j in range(0, points, rows):
            powers = grid_powers[j : j + rows]
            product = buffer[: len(of_splits), : len(powers)]
            np.matmul(powers, of_splits, out=product)
            np.min(product, axis=2, out=out[s : s + per, j : j + rows])


def _scan_block(
    g: Graph,
    form: FourierForm,
    weights: Callable[[list[float]], np.ndarray],
    buffers: tuple[np.ndarray, np.ndarray],
    parts: list[Bipartition],
    tol: Tolerance,
) -> list[PartitionScanEntry]:
    """One bisect_lockstep over one block of _scan_splits, in array passes.

    weights(ps) gives the noisy weights at each p of ps, one row each, and
    buffers are the scan's gather buffers.  The block's coefficients come
    from one FourierForm.coefficients call and its terms, stacked per rank,
    from one _build_terms call.  The clean ends of the block's splits are
    gathered first, one stacked gather per rank; then the pre-scan minima
    of every split (_prescan_minima) go into one (splits, PRESCAN_POINTS +
    1) array of grids, whose last column is the clean end and whose
    undecided values are gathered, again one stacked gather per rank;
    bisect_lockstep checks the grids in one pass and refines, each round
    one stacked product and one stacked gather per rank for its undecided
    values.  A gather pass holds at most _stack_rows(n) rows of 2^n in each
    buffer, and reads the weight vectors of its points as one stack: at
    most one per grid point or per split of the block, fewer than
    _stack_rows(n) at every n.  The block's coefficients and stacked terms
    are freed when it returns.
    """
    lo, hi = SCAN_BRACKET
    grid = np.array(prescan_grid(lo, hi)[:-1])  # the clean end hi is gathered
    coefficients = form.coefficients(np.array([part.a_mask for part in parts]))
    ranks, stack_row, stacks = _build_terms(g, parts)
    bounds = np.array([fourier_bound(g.n, r) for r in ranks.tolist()])
    budget = _stack_rows(g.n)  # rows of 2^n per gather pass

    def gather_min(splits: np.ndarray, ps: np.ndarray, argmins=None) -> np.ndarray:
        """Minimum of the gathered PT weights of split splits[k] at ps[k]
        (and, into argmins, its argmin), one stacked gather per rank, in
        passes of at most budget rows."""
        distinct: dict[float, int] = {}  # each distinct p and its row of lams
        rows = np.array([distinct.setdefault(p, len(distinct)) for p in ps.tolist()], np.intp)
        lams = weights(list(distinct))
        out = np.empty(len(splits))
        of = ranks[splits]
        for r in sorted(set(of.tolist())):
            shifts, signs, prefactor = stacks[r]
            at = np.flatnonzero(of == r)
            step = max(1, budget // min(shifts.shape[1], _CHUNK))
            for s in range(0, len(at), step):
                pairs = at[s : s + step]
                i = stack_row[splits[pairs]]
                pt = _gather(shifts[i], signs[i], prefactor, lams, rows[pairs], *buffers)
                out[pairs] = pt.min(axis=1)
                if argmins is not None:
                    argmins[pairs] = pt.argmin(axis=1)
        return out

    argmins = np.empty(len(parts), dtype=np.intp)
    clean = gather_min(np.arange(len(parts)), np.full(len(parts), hi), argmins)

    ys = np.empty((len(parts), PRESCAN_POINTS + 1))
    _prescan_minima(form.powers(grid), coefficients, budget, ys[:, :-1])
    ys[:, -1] = clean
    splits, points = np.nonzero(np.abs(ys[:, :-1]) <= bounds[:, np.newaxis])
    if len(splits):
        ys[splits, points] = gather_min(splits, grid[points])
    zero = ys == 0.0
    zero_is_ppt = zero.any(axis=1)  # splits whose pre-scan met an exact zero
    ys[zero] = 1.0

    # Row i of coefficients holds the coefficients of split held[i].
    # bisect_lockstep only drops problems and keeps their order, so each
    # round's splits are a subsequence of held, and moving their rows to the
    # front, in order, overwrites only rows already moved or dropped.
    held = np.arange(len(parts))

    def refine(split: np.ndarray, ps: np.ndarray) -> np.ndarray:
        nonlocal held
        if len(split) < len(held):
            for row, source in enumerate(np.searchsorted(held, split).tolist()):
                if row != source:
                    coefficients[row] = coefficients[source]
            held = split
        products = np.matmul(form.powers(ps)[:, np.newaxis], coefficients[: len(split)])
        vs = products.min(axis=(1, 2))
        undecided = np.flatnonzero(np.abs(vs) <= bounds[split])
        if len(undecided):
            at = split[undecided]
            v = gather_min(at, ps[undecided])
            vs[undecided] = np.where(zero_is_ppt[at] & (v == 0.0), 1.0, v)
        return vs

    results = bisect_lockstep(refine, ys, lo, hi, tol)
    return [
        _scan_entry(part, r, clean_min, argmin)
        for part, r, clean_min, argmin in zip(parts, results, clean.tolist(), argmins.tolist())
    ]


def _scan_entry(
    part: Bipartition, result: ThresholdResult, clean_min: float, argmin: int
) -> PartitionScanEntry:
    if result.sign_change_found:
        return PartitionScanEntry(part, "threshold", result.value, argmin, result.iterations)
    status = "always_npt" if clean_min < 0.0 else "always_ppt"
    return PartitionScanEntry(part, status, math.nan, argmin, 0)


def scan_partitions(
    g: Graph,
    family: ChannelFamily,
    tol: Tolerance = DEFAULT_TOL,
    jobs: int = 1,
) -> PartitionScanReport:
    """Critical noise level of every bipartition of a graph state.

    For each split, bisect the channel parameter p on the smallest PT
    eigenvalue (clean at p=1, noisy at p=0); splits whose spectrum never
    changes sign are reported as always_ppt / always_npt instead of being
    given a fake threshold.  first_ppt is the split that turns PPT first as
    p decreases (largest critical p), last_ppt the most robust one.  Output
    order and tie-breaking follow the canonical partition enumeration, so
    results are identical for any jobs count.  The splits bisect in
    lockstep, block by block (each worker blocks its own slice), steered by
    the signs the coefficient form certifies; see _scan_splits.  Graphs of
    _POOL_MIN_N or more vertices go to min(jobs, splits, os.cpu_count())
    worker processes, if that is more than one; smaller ones run in this
    process.  Graphs with no split (n < 2) raise ValidationError, and
    graphs above DIRECT_CAP vertices CapacityError, before any is listed.
    """
    if g.is_weighted:
        raise ValidationError("scan needs an unweighted graph")
    if not family.is_pauli_family:
        raise ValidationError("scan sweeps a Pauli channel family parameter")
    if g.n < 2:
        raise ValidationError(f"a {g.n}-vertex graph has no bipartition to scan")
    if g.n > DIRECT_CAP:
        raise CapacityError(f"partition scan capped at n={DIRECT_CAP}")
    parts = list(bipartitions(g))
    jobs = min(jobs, len(parts), os.cpu_count() or 1) if g.n >= _POOL_MIN_N else 1
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled scan loads it

        # Interleaved slices balance the work; each worker keeps its own dict.
        slices = [parts[i::jobs] for i in range(jobs)]
        entries = [None] * len(parts)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = pool.map(_scan_splits, repeat(g), repeat(family), slices, repeat(tol))
            for i, chunk in enumerate(chunks):
                entries[i::jobs] = chunk
    else:
        entries = _scan_splits(g, family, parts, tol)
    with_threshold = [e for e in entries if e.status == "threshold"]
    first = max(with_threshold, key=lambda e: e.p_crit, default=None)
    last = min(with_threshold, key=lambda e: e.p_crit, default=None)
    return PartitionScanReport(g, tuple(entries), first, last)
