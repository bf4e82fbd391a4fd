"""Graph-diagonal states under local Pauli noise.

A graph state sent through independent single-qubit Pauli channels stays
diagonal in its graph basis, so the full density matrix never has to be
formed: the state is a vector of 2^n weights lam[U], one per vertex subset
U.  This module propagates those weights, computes partial-transpose
spectra exactly (the partially transposed state is diagonal in the same
basis, and one signed gather over shifted weights, PartitionTransform,
gives it for every split; two column eliminations over GF(2) on the
adjacency block between the sides give its terms), PPT-certifying
estimates built from weight ratios, and a scan of every bipartition for
the noise level where its spectrum turns nonnegative.

The scan bisects every split in lockstep on the sign of its smallest PT
weight.  For the scan families (depolarizing, dephasing, bitflip) the
Fourier form of the PT spectrum, FourierForm, gives that sign for all
splits at once.  On the pre-scan grid each split's PT weights are one
matrix product, the grid's powers p^d times the split's integer
coefficients C[d, U] (n + 1 rows of butterfly passes per split); at each
refinement point they are one row of n butterfly passes.  A value settles
the sign only when it exceeds fourier_bound, the distance of either form
from the gather's value.  Where it does not, and at the clean end of the
bracket, which sets the argmin and the verdict of splits without a
crossing, the gather supplies the value.  So every bisection takes the
steps it would take on the gather alone, and every entry of the report is
the gather's.  The splits bisect through numeric.bisect_lockstep, which
holds their brackets as arrays and takes their values as arrays.  Each
split's transform is built once, for its clean end, and kept only while
the split can still refine: a split whose pre-scan shows no sign change
drops it at once, the others at the first refinement round after their
bisection ends.  The gather keeps no index between calls.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .channels import ChannelFamily, PauliChannel
from .errors import CapacityError, ValidationError
from .graphs import Bipartition, Graph, bipartitions, neighborhood, spread_bits
from .numeric import (
    DEFAULT_TOL,
    ThresholdResult,
    Tolerance,
    bisect,
    bisect_lockstep,
    prescan_grid,
)

FAST_CAP = 20  # 2^n weight vector
DIRECT_CAP = 14  # 4^n double sum
SANDWICH_CAP = 12  # exhaustive ratio check over all U and k
SCAN_BRACKET = (1e-6, 1.0 - 1e-6)

# How a split verdict should be read: a negative PT eigenvalue is necessary
# for distillability across the split but not proven sufficient here.
NPT_VERDICT = "NPT (necessary for distillability)"


@dataclass(frozen=True, eq=False)
class GraphDiagonalState:
    """Weights lam[U] of a state diagonal in the graph basis of `graph`."""

    graph: Graph
    lam: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "lam", lam)
        if lam.shape != (1 << self.graph.n,):
            raise ValidationError("weight vector must have length 2^n")
        if lam.min() < -1e-14:
            raise ValidationError(f"negative weight {lam.min()}")
        if abs(lam.sum() - 1.0) > 1e-9:
            raise ValidationError(f"weights sum to {lam.sum()}, not 1")

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True, eq=False)
class PtSpectrum:
    """Eigenvalues of the partial transpose, still indexed by subset mask."""

    lam_prime: np.ndarray
    partition: Bipartition
    min_value: float

    def __post_init__(self) -> None:
        if abs(self.lam_prime.sum() - 1.0) > 1e-9:
            raise ValidationError("partial transpose must preserve the trace")

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
    p0, p1, p2, p3 = ch.probs
    dim = 1 << g.n
    lam = np.zeros(dim)
    lam[0] = 1.0
    idx = np.arange(dim)
    for k in range(g.n):
        nk = neighborhood(g, k)
        lam = (
            p0 * lam
            + p1 * lam[idx ^ nk]
            + p2 * lam[idx ^ (nk | (1 << k))]
            + p3 * lam[idx ^ (1 << k)]
        )
    return GraphDiagonalState(g, lam)


def lambda_direct(g: Graph, ch: PauliChannel, u_mask: int) -> float:
    """One weight lam[U] by the explicit 4^n double sum (test oracle).

    With ratios q_i = p_i/p_0, the weight is p_0^n times a sum over all
    subsets U' of q1/q2/q3 powers counting, per vertex, whether it received
    an X-type flip (member of U'), a Z-type flip (member of W = U + Gamma U',
    the target subset corrected by the X flips), or both.
    """
    if g.is_weighted:
        raise ValidationError("weighted graphs have no graph-basis weights")
    if g.n > DIRECT_CAP:
        raise CapacityError(f"4^{g.n} terms; cap is n={DIRECT_CAP}")
    p0, p1, p2, p3 = ch.probs
    if p0 <= 0.0:
        raise ValidationError("direct sum needs p0 > 0; use lambda_from_pauli")
    if u_mask >> g.n:
        raise ValidationError("subset mask has bits beyond the vertex count")
    q1, q2, q3 = p1 / p0, p2 / p0, p3 / p0
    total = 0.0
    for uprime in range(1 << g.n):
        gamma_u = 0
        m = uprime
        while m:
            low = m & -m
            gamma_u ^= g.adj[low.bit_length() - 1]
            m ^= low
        w = gamma_u ^ u_mask
        only_x = (uprime & ~w).bit_count()
        both = (uprime & w).bit_count()
        only_z = (w & ~uprime).bit_count()
        total += q1**only_x * q2**both * q3**only_z
    return p0**g.n * total


# ---------------------------------------------------------------------------
# Partial transposition in the graph basis


@dataclass(frozen=True, eq=False)
class PartitionTransform:
    """Precomputed coefficients of the PT map for one bipartition.

    The partial transpose of a graph-diagonal state is diagonal in the same
    basis; each new weight is a signed average of old weights over shifted
    subsets.  The shifts and signs come from the adjacency block Gamma'
    between the two sides: shifts are X + Y with X ranging over the
    orthocomplement of ker Gamma' (inside A) and Y over the image of Gamma'
    (inside the complement), and the sign of a term is the GF(2) pairing of
    X with a preimage of Y, the same for every preimage since X is
    orthogonal to ker Gamma'.  There are 4^rank terms, Y-major, and the
    prefactor is 2^-rank; Y and X each run in the _span order of the
    bases that partition_transform's two eliminations return.

    apply gathers _CHUNK terms at a time: the index of a chunk (every subset
    mask XOR every shift) and the weights it gathers go into two buffers
    allocated once per call and reused for every chunk.
    """

    partition: Bipartition
    shifts: np.ndarray  # (terms,) full-width subset masks
    signs: np.ndarray  # (terms,) of +/-1
    prefactor: float
    rank: int

    _CHUNK = 128  # terms per gather

    def apply(self, lam: np.ndarray) -> np.ndarray:
        """PT weights of one weight vector of shape (2^n,)."""
        dim = 1 << self.partition.n
        if lam.shape != (dim,):
            raise ValidationError(f"weights of shape {lam.shape} do not fit 2^{self.partition.n}")
        masks = np.arange(dim, dtype=np.intp)
        rows = min(self._CHUNK, self.shifts.shape[0])
        index = np.empty((rows, dim), dtype=np.intp)
        gathered = np.empty((rows, dim))
        out = np.zeros(dim)
        for start in range(0, self.shifts.shape[0], self._CHUNK):
            sh = self.shifts[start : start + self._CHUNK]
            k = sh.shape[0]
            np.bitwise_xor(masks, sh[:, np.newaxis], out=index[:k])
            # Every index is in range; mode="wrap" only lets take write
            # straight into the buffer, where the default mode buffers out.
            np.take(lam, index[:k], out=gathered[:k], mode="wrap")
            out += self.signs[start : start + self._CHUNK] @ gathered[:k]
        return self.prefactor * out


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


def _span(basis: list[int]) -> list[int]:
    """All 2^len(basis) XOR combinations; bit i of the index selects basis[i]."""
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out


def partition_transform(g: Graph, part: Bipartition) -> PartitionTransform:
    if part.n != g.n:
        raise ValidationError("partition and graph sizes differ")
    a_bits = part.members()
    c_mask = part.complement_mask
    c_bits = [i for i in range(g.n) if (c_mask >> i) & 1]
    # Column i of Gamma' is the neighbourhood in the complement of the i-th
    # vertex of A, as a mask over the complement's vertices.
    pivots, kernel = _eliminate(
        [sum(((g.adj[i] >> j) & 1) << k for k, j in enumerate(c_bits)) for i in a_bits]
    )
    # X runs over the orthocomplement of ker Gamma', the kernel of the matrix
    # whose rows are the kernel vectors.
    _, x_basis = _eliminate(
        [sum(((v >> col) & 1) << k for k, v in enumerate(kernel)) for col in range(len(a_bits))]
    )
    xs = _span(x_basis)
    # Any preimage A_Y of Y gives the sign (-1)^<A_Y, X>: every X is
    # orthogonal to ker Gamma', where two preimages differ.
    ys = _span([img for img, _ in pivots])
    y_pre = np.array(_span([pre for _, pre in pivots]), dtype=np.intp)
    # Terms run over Y (outer) and X (inner).
    x_c = np.array(xs, dtype=np.intp)
    x_full = np.array([spread_bits(x, part.a_mask) for x in xs], dtype=np.intp)
    y_full = np.array([spread_bits(y, c_mask) for y in ys], dtype=np.intp)
    odd = _popcount(y_pre[:, np.newaxis] & x_c[np.newaxis, :]) & 1
    return PartitionTransform(
        part,
        (y_full[:, np.newaxis] ^ x_full[np.newaxis, :]).ravel(),
        (1.0 - 2.0 * odd).ravel(),
        prefactor=1.0 / len(xs),
        rank=len(pivots),
    )


def pt_spectrum(
    s: GraphDiagonalState,
    part: Bipartition,
    transform: PartitionTransform | None = None,
) -> PtSpectrum:
    """Exact PT eigenvalues of a graph-diagonal state for one bipartition."""
    if s.n > DIRECT_CAP:
        raise CapacityError(f"PT spectrum capped at n={DIRECT_CAP}")
    if transform is None:
        transform = partition_transform(s.graph, part)
    elif transform.partition != part:
        raise ValidationError("transform was built for a different partition")
    lam_prime = transform.apply(s.lam)
    return PtSpectrum(lam_prime, part, float(lam_prime.min()))


# ---------------------------------------------------------------------------
# Partial transposition in the Fourier domain, for the scan families


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


@dataclass(frozen=True, eq=False)
class FourierForm:
    """PT weights of a graph state under a scan family, in Fourier form.

    Under depolarizing, dephasing or bitflip noise at parameter p the
    Walsh-Hadamard transform H of the noisy weights is p^w(chi), where w
    counts the vertices of chi | Gamma chi, of chi, or of Gamma chi (Gamma
    chi is the XOR of the neighbourhoods of the vertices in chi).  The PT
    weights of the split with side A are 2^-n H[(-1)^|chi & Gamma chi & A|
    p^w]: n butterfly passes over 2^n entries, whatever the rank of the
    split (spectra).  Grouping the chi by w gives the coefficient form:
    the PT weight of U is 2^-n sum_d C[d, U] p^d, where row d of C is H of
    the signs on the chi with w(chi) = d (coefficients), so one matrix
    product gives a split's PT weights at many p.  Both forms agree with
    PartitionTransform.apply on lambda_from_pauli's weights to within
    fourier_bound.
    """

    n: int
    exponents: np.ndarray  # w(chi)
    cross: np.ndarray  # chi & Gamma chi
    parity: np.ndarray  # (-1)^|m| for every mask m

    @staticmethod
    def of(g: Graph, kind: str) -> "FourierForm":
        chi = np.arange(1 << g.n)
        gamma = np.zeros_like(chi)
        for k in range(g.n):
            gamma ^= ((chi >> k) & 1) * g.adj[k]
        support = {"depolarizing": chi | gamma, "dephasing": chi, "bitflip": gamma}[kind]
        parity = 1.0 - 2.0 * (_popcount(chi) & 1)
        return FourierForm(g.n, _popcount(support), chi & gamma, parity)

    def powers(self, ps: np.ndarray) -> np.ndarray:
        """p^d 2^-n for d = 0..n at each p of ps, shape (len(ps), n + 1)."""
        powers = np.power(ps[:, np.newaxis], np.arange(self.n + 1, dtype=float))
        powers *= math.ldexp(1.0, -self.n)
        return powers

    def signs(self, a_masks: np.ndarray) -> np.ndarray:
        """(-1)^|chi & Gamma chi & A| of every chi, for each side A of a_masks."""
        return np.take(self.parity, self.cross & a_masks[:, np.newaxis])

    def spectra(self, a_masks: np.ndarray, ps: np.ndarray) -> np.ndarray:
        """PT weights at ps[i] of the split with side a_masks[i].

        a_masks and ps have shape (rows,); the result is (rows, 2^n).
        """
        rows = np.take(self.powers(ps), self.exponents, axis=1)  # C order, unlike powers[:, w]
        rows *= self.signs(a_masks)
        return _walsh_hadamard(rows)

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
    """Bound on the distance of either Fourier form (FourierForm.spectra, or
    powers @ coefficients) from PartitionTransform.apply at one p.

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
    - Both forms take pow within 4 ulps (8) and the exact scaling by 2^-n.
      spectra adds n butterfly passes over entries whose sizes add up to at
      most 1 (n).  The coefficient form's C is exact, and its (n + 1)-term
      dot product, in any order, with or without FMA, is off by at most
      (n + 1) times the sum of its terms' sizes, at most 1 (n + 1).
    So a form and the gather differ by at most 2^rank + 7n + 9 units.  The
    bound takes 8 times (2^rank + 8n + 8) units, which leaves room for the
    second-order terms (each k u above is k u / (1 - k u)).  A value of
    either form larger than it in size therefore has the sign of the
    gather, which is nonzero.
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


@dataclass(frozen=True)
class PartitionScanEntry:
    partition: Bipartition
    status: str  # "threshold" | "always_ppt" | "always_npt"
    p_crit: float  # NaN unless status == "threshold"
    # Minimising subset at the clean end of the bracket, taken from the
    # gather (PartitionTransform.apply), never from the Fourier form.  When
    # subsets tie for the minimum, which one is reported is set by the
    # rounding of that gather.
    argmin_mask: int
    iterations: int

    @property
    def kt_crit(self) -> float:
        return -math.log(self.p_crit)


@dataclass(frozen=True)
class PartitionScanReport:
    graph: Graph = field(compare=False)
    entries: tuple[PartitionScanEntry, ...]
    first_ppt: PartitionScanEntry | None  # largest critical p
    last_ppt: PartitionScanEntry | None  # smallest critical p

    def rows(self) -> list[tuple[int, int, str]]:
        """(partition_mask, size_A, p_crit-or-status) for tabular output."""
        out = []
        for e in self.entries:
            value = f"{e.p_crit:.12g}" if e.status == "threshold" else e.status
            out.append((e.partition.a_mask, e.partition.size_a, value))
        return out


_FOURIER_BLOCK = 1 << 13  # entries of one block of Fourier rows
# float64 entries (256 KB) of a pre-scan block's coefficients, and again of
# one product; at least one split per block, which exceeds it past n = 10.
_PRESCAN_BLOCK = 1 << 15


def _fourier_mins(form: FourierForm, a_masks: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Smallest PT weight at ps[i] of the split with side a_masks[i], in blocks.

    With one p per split, as in a refinement round, one Fourier row is
    cheaper than the split's n + 1 coefficient rows.
    """
    out = np.empty(len(ps))
    step = max(1, _FOURIER_BLOCK >> form.n)
    for s in range(0, len(ps), step):
        out[s : s + step] = form.spectra(a_masks[s : s + step], ps[s : s + step]).min(axis=1)
    return out


def _prescan_mins(form: FourierForm, a_masks: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Smallest PT weight of every split at every grid point, from the
    splits' coefficients: (len(a_masks), len(grid)), in blocks of splits,
    each a few products of the grid's powers with the block's coefficients."""
    dim = 1 << form.n
    powers = form.powers(grid)
    out = np.empty((len(a_masks), len(grid)))
    step = max(1, _PRESCAN_BLOCK // (2 * (form.n + 1) * dim))  # two butterfly buffers
    for s in range(0, len(a_masks), step):
        coefficients = form.coefficients(a_masks[s : s + step])
        rows = max(1, _PRESCAN_BLOCK // (len(coefficients) * dim))
        for j in range(0, len(grid), rows):
            products = np.matmul(powers[j : j + rows], coefficients)
            out[s : s + step, j : j + rows] = products.min(axis=2)
    return out


def _ppt_signed(v: float) -> float:
    """A PT minimum as bisection reads it: negative exactly when v is, and
    1.0 for an exact zero, which is PPT (as _scan_entry's verdict reads it)
    rather than a root."""
    return v if v != 0.0 else 1.0


def _scan_splits(
    g: Graph,
    family: ChannelFamily,
    parts: list[Bipartition],
    tol: Tolerance,
) -> list[PartitionScanEntry]:
    """Scan the given splits in lockstep, steering bisection by certified signs.

    A bisection step needs only the sign of the smallest PT weight.  The
    Fourier form gives it for every split at once; a value v settles the
    sign when |v| > fourier_bound, because the gather's value is then
    nonzero and of the same sign.  Where it does not, the gather
    (PartitionTransform.apply on the noisy weights) supplies the value, so
    every bisection takes the steps it would take on the gather alone.  The
    clean-end row, which gives the argmin and the verdict of splits without
    a crossing, is always gathered.  The pre-scan values of every split come
    from its coefficients (_prescan_mins), the refinement values from
    spectra.  Both arrive as arrays and go to bisect_lockstep as arrays:
    one comparison against the splits' bounds (an array, one bound per
    split) finds the undecided points, and only those are gathered.
    bisect_lockstep checks each split's grid with numeric's one _prescan,
    draws the grids one at a time and refines the splits together, holding
    their brackets as arrays.  partition_transform runs once per split, for
    the clean end, and a split keeps its transform only while it can still
    refine: one whose pre-scan shows no sign change drops it at once, the
    others at the first refinement round after their bisection ends.  Every
    pre-scan runs before the first round, so the peak is every split with a
    sign change.  Noisy weights are computed once per p and shared by every
    split.

    Under bitflip noise the minimum of some splits is exactly 0.0 over a
    whole range of p.  A split whose pre-scan meets an exact zero reads
    every zero as PPT (_ppt_signed), not as a root.  Other splits keep
    bisect's rule, under which a zero met while refining is the root: near
    the multiple roots of dephasing splits such a zero is rounding noise
    either way, and reading it as PPT would move those values by up to a
    few 1e-9 without making them exact.
    """
    cache: dict[float, np.ndarray] = {}

    def weights(p: float) -> np.ndarray:
        lam = cache.get(p)
        if lam is None:
            lam = cache[p] = lambda_from_pauli(g, family.pauli(p)).lam
        return lam

    transforms: dict[int, PartitionTransform] = {}  # of splits with a sign change
    zero_is_ppt: set[int] = set()  # splits whose pre-scan met an exact zero
    bounds = np.empty(len(parts))  # fourier_bound of each split
    clean_ends = []

    def gathered(i: int, p: float) -> float:
        v = float(transforms[i].apply(weights(p)).min())
        return _ppt_signed(v) if i in zero_is_ppt else v

    def settle(splits: np.ndarray, ps: list[float], vs: np.ndarray) -> np.ndarray:
        """vs, the Fourier minima of splits at ps, with the gather's value
        (written in place) wherever |v| is within the split's bound."""
        for k in np.flatnonzero(np.abs(vs) <= bounds[splits]).tolist():
            vs[k] = gathered(int(splits[k]), ps[k])
        return vs

    lo, hi = SCAN_BRACKET
    grid = prescan_grid(lo, hi)[:-1]  # the clean end hi is gathered
    form = FourierForm.of(g, family.kind)
    a_masks = np.array([part.a_mask for part in parts])
    grid_mins = _prescan_mins(form, a_masks, np.array(grid))

    def grids():
        for i, part in enumerate(parts):
            transform = transforms[i] = partition_transform(g, part)
            clean = transform.apply(weights(hi))
            clean_ends.append((float(clean.min()), int(np.argmin(clean))))
            bounds[i] = fourier_bound(g.n, transform.rank)
            ys = np.append(settle(np.full(len(grid), i), grid, grid_mins[i]), clean_ends[i][0])
            zero = ys == 0.0
            if zero.any():
                zero_is_ppt.add(i)
                ys[zero] = 1.0  # _ppt_signed
            if ys.min() > 0.0 or ys.max() < 0.0:
                del transforms[i]  # no sign change: nothing to refine
            yield ys

    def refine(split: np.ndarray, ps: np.ndarray) -> np.ndarray:
        for i in transforms.keys() - set(split.tolist()):
            del transforms[i]  # its bisection has finished
        return settle(split, ps.tolist(), _fourier_mins(form, a_masks[split], ps))

    results = bisect_lockstep(refine, grids(), lo, hi, tol)
    return [_scan_entry(part, r, *clean) for part, r, clean in zip(parts, results, clean_ends)]


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
    lockstep (those of a worker's slice when jobs > 1), steered by the signs
    the Fourier form certifies; see _scan_splits.  At most min(jobs,
    splits, os.cpu_count()) worker processes are started.
    """
    if g.is_weighted:
        raise ValidationError("scan needs an unweighted graph")
    if not family.is_pauli_family:
        raise ValidationError("scan sweeps a Pauli channel family parameter")
    parts = list(bipartitions(g))
    jobs = min(jobs, len(parts), os.cpu_count() or 1)
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
