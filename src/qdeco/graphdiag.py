"""Graph-diagonal states under local Pauli noise.

A graph state sent through independent single-qubit Pauli channels stays
diagonal in its graph basis, so the full density matrix never has to be
formed: the state is a vector of 2^n weights lam[U], one per vertex subset
U.  This module propagates those weights, computes partial-transpose
spectra exactly with GF(2) linear algebra (the partially transposed state
is diagonal in the same basis, and one signed gather over shifted weights,
PartitionTransform, gives it for every split), PPT-certifying estimates
built from weight ratios, and a scan of every bipartition for the noise
level where its spectrum turns nonnegative.  The scan computes the noisy
weights at each noise level once and shares them across its splits (per
worker when jobs > 1); each split evaluates the bisection's whole pre-scan
grid in one stacked call of PartitionTransform.apply, which keeps its
gather index between calls.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Callable

import numpy as np

from .channels import ChannelFamily, PauliChannel
from .errors import CapacityError, ValidationError
from .gf2 import BitMatrix, dot, image_with_preimages, kernel_basis, orthocomplement
from .graphs import Bipartition, Graph, bipartitions, neighborhood, spread_bits
from .numeric import DEFAULT_TOL, ThresholdResult, Tolerance, bisect, prescan_grid

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
    X with a preimage of Y.  There are 4^rank terms and the prefactor is
    2^-rank.

    apply takes one weight vector or a stack of them, one per row; each row
    comes out bit-for-bit as if applied alone.  The gather index of each
    chunk of terms (every subset mask XOR every shift) is built on the first
    call and kept while it has at most _KEPT_INDEX entries (8 MB); larger
    transforms rebuild it per call.
    """

    partition: Bipartition
    shifts: np.ndarray  # (terms,) full-width subset masks
    signs: np.ndarray  # (terms,) of +/-1
    prefactor: float
    rank: int

    _CHUNK = 128  # terms per gather
    _KEPT_INDEX = 1 << 20  # terms x 2^n index entries kept across calls
    _BLOCK = 1 << 16  # entries of one gathered block of rows

    def _chunk_index(self, start: int) -> np.ndarray:
        idx = np.arange(1 << self.partition.n, dtype=np.intp)
        sh = self.shifts[start : start + self._CHUNK]
        return idx[np.newaxis, :] ^ sh[:, np.newaxis]

    @cached_property
    def _kept_index(self) -> list[np.ndarray] | None:
        if self.shifts.shape[0] << self.partition.n > self._KEPT_INDEX:
            return None
        return [self._chunk_index(s) for s in range(0, self.shifts.shape[0], self._CHUNK)]

    def apply(self, lam: np.ndarray) -> np.ndarray:
        """PT weights of lam, shape (2^n,) or (rows, 2^n); same shape out."""
        dim = 1 << self.partition.n
        if lam.ndim not in (1, 2) or lam.shape[-1] != dim:
            raise ValidationError(f"weights of shape {lam.shape} do not fit 2^{self.partition.n}")
        rows = lam.reshape(-1, dim)
        out = np.zeros(rows.shape)
        kept = self._kept_index
        for c, start in enumerate(range(0, self.shifts.shape[0], self._CHUNK)):
            gidx = self._chunk_index(start) if kept is None else kept[c]
            sg = self.signs[start : start + self._CHUNK]
            # np.take gives a C-contiguous block, which matmul sums row by
            # row in the same order as a single vector's gather.
            step = max(1, self._BLOCK // gidx.size)
            for r in range(0, rows.shape[0], step):
                out[r : r + step] += sg @ np.take(rows[r : r + step], gidx, axis=1)
        return self.prefactor * out.reshape(lam.shape)


def partition_transform(g: Graph, part: Bipartition) -> PartitionTransform:
    if part.n != g.n:
        raise ValidationError("partition and graph sizes differ")
    a_bits = part.members()
    c_mask = part.complement_mask
    c_bits = [i for i in range(g.n) if (c_mask >> i) & 1]
    rows = []
    for j in c_bits:
        nj = g.adj[j]
        row = 0
        for col, i in enumerate(a_bits):
            if (nj >> i) & 1:
                row |= 1 << col
        rows.append(row)
    block = BitMatrix.from_rows(rows, len(a_bits))
    xs = orthocomplement(kernel_basis(block), len(a_bits))
    ys = image_with_preimages(block)
    r = len(ys).bit_length() - 1
    shifts = []
    signs = []
    for y_c, ay in ys:
        y_full = spread_bits(y_c, c_mask)
        for x in xs:
            shifts.append(spread_bits(x, part.a_mask) ^ y_full)
            signs.append(-1.0 if dot(x, ay) else 1.0)
    return PartitionTransform(
        part,
        np.array(shifts, dtype=np.intp),
        np.array(signs),
        prefactor=1.0 / len(xs),
        rank=r,
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
    # Minimising subset at the clean end of the bracket.  When subsets tie
    # for the minimum, which one is reported is set by the rounding of the
    # gather in PartitionTransform.apply.
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


def _scan_one(
    g: Graph,
    part: Bipartition,
    tol: Tolerance,
    weights: Callable[[float], np.ndarray],
    grid: np.ndarray,
) -> PartitionScanEntry:
    transform = partition_transform(g, part)

    def min_pt(p: float) -> float:
        return float(transform.apply(weights(p)).min())

    lo, hi = SCAN_BRACKET
    grid_pt = transform.apply(grid)
    result = bisect(min_pt, lo, hi, tol, grid_values=grid_pt.min(axis=1).tolist())
    argmin = int(np.argmin(grid_pt[-1]))
    if result.sign_change_found:
        return PartitionScanEntry(part, "threshold", result.value, argmin, result.iterations)
    status = "always_npt" if grid_pt[-1].min() < 0.0 else "always_ppt"
    return PartitionScanEntry(part, status, math.nan, argmin, 0)


def _scan_splits(
    g: Graph,
    family: ChannelFamily,
    parts: list[Bipartition],
    tol: Tolerance,
) -> list[PartitionScanEntry]:
    """Scan the given splits, computing each noisy weight vector only once.

    Every split pre-scans the same grid of p, and splits related by a
    symmetry of the graph bisect through the same points, so one p -> lam
    dict serves the whole list.  The grid's weights are stacked once, and
    each split applies its transform to the whole stack in one call.
    """
    cache: dict[float, np.ndarray] = {}

    def weights(p: float) -> np.ndarray:
        lam = cache.get(p)
        if lam is None:
            lam = cache[p] = lambda_from_pauli(g, family.pauli(p)).lam
        return lam

    grid = np.stack([weights(p) for p in prescan_grid(*SCAN_BRACKET)])
    return [_scan_one(g, part, tol, weights, grid) for part in parts]


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
    results are identical for any jobs count.  The noisy weights at each p
    are computed once and shared by every split of the scan (by every split
    of a worker's slice when jobs > 1).  At most min(jobs, splits,
    os.cpu_count()) worker processes are started.
    """
    if g.is_weighted:
        raise ValidationError("scan needs an unweighted graph")
    if not family.is_pauli_family:
        raise ValidationError("scan sweeps a Pauli channel family parameter")
    parts = list(bipartitions(g))
    jobs = min(jobs, len(parts), os.cpu_count() or 1)
    if jobs > 1:
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
