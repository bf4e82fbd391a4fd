"""Lifetime lower bounds from an explicit pairwise distillation protocol.

Measuring every qubit of a noisy graph state except an adjacent pair {k, l}
in the computational basis leaves a two-qubit state that is diagonal in the
Bell-like basis generated by {1, Z_k, Z_l, Z_k Z_l} on the ideal pair.  As
long as that state is NPT for every edge of a spanning connected subgraph,
entanglement can be distilled between any two vertices, which certifies
multiparty distillability of the whole state.  This module computes the
reduced pair states (on unweighted graphs from three stabilizer
expectations, each a product of the channel's Pauli eigenvalues over the
edge's degrees; on weighted ones the edge's pure gate state with each
entry damped by the measured neighbours), the per-edge noise thresholds
(on unweighted graphs the root of a sum of three powers of the noise level
p, on weighted ones a bisection of the pair's partial-transpose minimum,
with the partially transposed state built once per edge as a matrix
polynomial in p), a universal degree-only bound, and the aggregated
per-graph report.  Only the weighted route and the explicit matrices
import numpy, when first called.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

from .channels import NAMED_EXPONENTS, ChannelFamily, PauliChannel, named_probs
from .errors import ValidationError
from .graphs import Graph, neighborhood
from .isingsep import gate_outer
from .numeric import (
    DEFAULT_TOL,
    ThresholdResult,
    Tolerance,
    bisect,
    bisect_lockstep,
    hermitian_spectrum,
    partial_transpose,
    prescan_grid,
)

if TYPE_CHECKING:
    import numpy as np

EDGE_BRACKET = (1e-6, 1.0 - 1e-6)

# Dephasing noise gives a graph-independent pair threshold.
DEPHASING_THRESHOLD = math.sqrt(2.0) - 1.0


class BellDiagonal(namedtuple("BellDiagonal", "c")):
    """Weights over {1, Z_k, Z_l, Z_k Z_l} applied to the ideal pair state."""

    __slots__ = ()

    def __new__(cls, c: tuple[float, float, float, float]) -> BellDiagonal:
        if len(c) != 4:
            raise ValidationError("need exactly four weights")
        c = tuple(float(x) for x in c)
        if not all(map(math.isfinite, c)):
            raise ValidationError("weights must be finite")
        if min(c) < -1e-12:
            raise ValidationError(f"negative weight {min(c)}")
        if abs(sum(c) - 1.0) > 1e-12:
            raise ValidationError(f"weights sum to {sum(c)}, not 1")
        return super().__new__(cls, c)


def reduced_pair_state(g: Graph, k: int, l: int, ch: PauliChannel) -> BellDiagonal:
    """Two-qubit state left on the adjacent pair {k, l} after the protocol.

    The ideal pair is stabilized by X_k Z_l, Z_k X_l and their product.
    The protocol keeps the expectations of the graph state's stabilizers
    K_k = X_k Z_(N_k), K_l = X_l Z_(N_l) and K_k K_l = Y_k Y_l Z_(N_k + N_l - {k, l}),
    and a stabilizer with an X (Y, Z) on a vertex is damped by the Pauli
    eigenvalue e_X (e_Y, e_Z) of the channel there.  So with the degrees
    (d_k, d_l, d_s) of edge_degrees the three characters are
    chi_k = e_X e_Z^d_k, chi_l = e_X e_Z^d_l and chi_kl = e_Y^2 e_Z^(d_s - 2),
    and the weights over (1, Z_k, Z_l, Z_k Z_l) are their inverse Z2 x Z2
    transform (1 +- chi_k +- chi_l +- chi_kl) / 4: a Z_k flips the sign of
    chi_k and chi_kl, a Z_l that of chi_l and chi_kl.
    """
    if g.is_weighted:
        raise ValidationError("closed-form reduction needs an unweighted graph; "
                              "use weighted_reduced_pair")
    dk, dl, ds = edge_degrees(g, k, l)
    e_x, e_y, e_z = ch.eigenvalues
    chi_k, chi_l, chi_kl = e_x * e_z**dk, e_x * e_z**dl, e_y * e_y * e_z ** (ds - 2)
    return BellDiagonal((
        (1.0 + chi_k + chi_l + chi_kl) / 4.0,
        (1.0 - chi_k + chi_l - chi_kl) / 4.0,
        (1.0 + chi_k - chi_l - chi_kl) / 4.0,
        (1.0 - chi_k - chi_l + chi_kl) / 4.0,
    ))


def pair_state_matrix(b: BellDiagonal) -> np.ndarray:
    """Explicit 4x4 density matrix; qubit k is bit 0 of the index, l bit 1."""
    import numpy as np

    phi = np.array([1.0, 1.0, 1.0, -1.0]) / 2.0
    z_k = np.array([1.0, -1.0, 1.0, -1.0])
    z_l = np.array([1.0, 1.0, -1.0, -1.0])
    signs = (np.ones(4), z_k, z_l, z_k * z_l)
    rho = np.zeros((4, 4))
    for weight, s in zip(b.c, signs):
        v = s * phi
        rho += weight * np.outer(v, v)
    return rho


def pair_pt_min_eig(b: BellDiagonal) -> float:
    """Smallest eigenvalue of the pair state partially transposed on k."""
    return float(hermitian_spectrum(partial_transpose(pair_state_matrix(b), 1))[0])


def edge_degrees(g: Graph, k: int, l: int) -> tuple[int, int, int]:
    """(|N_k|, |N_l|, |N_k + N_l|) for an adjacent pair."""
    nk = neighborhood(g, k)
    nl = neighborhood(g, l)
    if not (nk >> l) & 1:
        raise ValidationError(f"vertices {k} and {l} are not adjacent")
    return nk.bit_count(), nl.bit_count(), (nk ^ nl).bit_count()


def closed_form_threshold(
    kind: str,
    degrees: tuple[int, int, int],
    tol: Tolerance = DEFAULT_TOL,
) -> ThresholdResult:
    """Level p where an edge's pair stops being NPT, from the edge's ordered
    degrees (dk, dl, ds) as edge_degrees gives them.

    Under a named channel the Pauli eigenvalues are (p^x, p^y, p^z) with
    the exponents of NAMED_EXPONENTS, so the three characters of the pair
    state (reduced_pair_state) are the powers p^m of
    m = (x + z dk, x + z dl, 2y + z (ds - 2)), and its weight on 1 is a
    quarter of one plus their sum.  That weight, the largest near p = 1,
    passes 1/2 (where a Bell-diagonal pair turns PPT) exactly where the
    three powers sum to 1: p^(dk+1) + p^ds + p^(dl+1) = 1 (depolarizing),
    p^dk + p^ds + p^dl = 1 (bitflip) or 2p + p^2 = 1 (dephasing, root
    DEPHASING_THRESHOLD on every graph).  This bisects that sum on
    EDGE_BRACKET.
    """
    if kind not in NAMED_EXPONENTS:
        raise ValidationError("closed-form threshold solves depolarizing, dephasing or bitflip")
    x, y, z = NAMED_EXPONENTS[kind]
    dk, dl, ds = degrees
    m1, m2, m3 = x + z * dk, x + z * dl, 2 * y + z * (ds - 2)
    return bisect(lambda p: p**m1 + p**m3 + p**m2 - 1.0, EDGE_BRACKET[0], EDGE_BRACKET[1], tol)


def universal_lower_bound(deg_k: int, deg_l: int) -> tuple[float, float]:
    """Degree-only threshold valid for every graph: (p, kappa*t).

    p = 2^(-2/(deg_k + deg_l + 2)) and the lifetime is 2 ln 2 over the same
    denominator, monotone in the degrees.
    """
    if min(deg_k, deg_l) < 1:
        raise ValidationError("degrees must be at least 1")
    denom = deg_k + deg_l + 2
    return 2.0 ** (-2.0 / denom), 2.0 * math.log(2.0) / denom


# ---------------------------------------------------------------------------
# Weighted graphs: the gate state damped by the measured neighbours


def _add_x_times(out: np.ndarray, half: np.ndarray) -> None:
    """out += x (2 half), both Chebyshev series along axis 0 and half one
    term shorter: x T_0 = T_1 and x T_m = (T_(m+1) + T_(m-1)) / 2."""
    out[1:] += half
    out[1] += half[0]
    out[:-2] += half[1:]


def _pair_coefficients(g: Graph, k: int, l: int, probs, slope) -> np.ndarray:
    """Reduced pair state of edge (k, l) under the channel with
    probabilities probs + p slope (SIGMA order), as a matrix polynomial.

    Returns C, shape (w + 3, 4, 4) for w other neighbours j of k or l: the
    unnormalised state is sum_m T_m(2p - 1) C[m], in Chebyshev polynomials,
    which sum on [0, 1] with round-off near the degree times 1e-16; powers
    of p lose up to 2^(w/2) of it (a 124-neighbour edge's threshold moved
    by 1.7e-7).  At slope 0 only C[0] is nonzero.  Each j, measured after its noise, reads 0 with
    weight keep = p0 + p3 and 1 with flip = p1 + p2, which puts the phase
    e^(i (phi_kj d_k + phi_lj d_l)) on entry (a, b) of the edge's gate
    state (d = a - b per qubit, phi = 0 off the edges): one factor
    keep + flip phase_j per j, affine in p.  Gates between measured qubits
    only give each branch a global phase, so they cancel.  Then the
    channels act on k and l, each Pauli by its index structure.
    """
    import numpy as np

    from .isingsep import D_K, D_L

    nk, nl = neighborhood(g, k), neighborhood(g, l)
    if not (nk >> l) & 1:
        raise ValidationError(f"vertices {k} and {l} are not adjacent")
    others = [j for j in range(g.n) if ((nk | nl) >> j) & 1 and j not in (k, l)]
    phi_k = np.array([g.phase(k, j) if (nk >> j) & 1 else 0.0 for j in others])
    phi_l = np.array([g.phase(l, j) if (nl >> j) & 1 else 0.0 for j in others])
    phases = np.exp(1j * (phi_k[:, None, None] * D_K + phi_l[:, None, None] * D_L))
    half = np.multiply(slope, 0.5)
    mid = np.add(probs, half)  # probs + p slope = mid + x half, x = 2p - 1
    constant = (mid[0] + mid[3]) + (mid[1] + mid[2]) * phases
    linear = ((half[0] + half[3]) + (half[1] + half[2]) * phases) / 2
    coefficients = np.zeros((len(others) + 3, 4, 4), dtype=complex)
    coefficients[0] = gate_outer(g.phase(k, l))
    for degree in range(1, len(others) + 1):
        c = coefficients[: degree + 1]  # the terms that are nonzero after this factor
        shifted = c[:-1] * linear[degree - 1]
        c *= constant[degree - 1]
        _add_x_times(c, shifted)

    # On qubit mask m, X and Y move entry (a, b) to (a ^ m, b ^ m), and Y
    # and Z sign it (-1)^|d| with d = a - b on the qubit, so the sum of
    # P rho P^dagger over SIGMA weights rho by p0 + p3 sign and the moved
    # entries by p1 + p2 sign.
    for m, d in ((1, D_K), (2, D_L)):
        sign = 1.0 - 2.0 * np.abs(d)
        flip = np.arange(4) ^ m
        rho, moved = coefficients, coefficients[:, flip][:, :, flip]
        coefficients = (mid[0] + mid[3] * sign) * rho + (mid[1] + mid[2] * sign) * moved
        shifted = (half[0] + half[3] * sign) * rho[:-1] + (half[1] + half[2] * sign) * moved[:-1]
        _add_x_times(coefficients, shifted / 2)
    return coefficients


def weighted_reduced_pair(g: Graph, k: int, l: int, ch: PauliChannel) -> np.ndarray:
    """Reduced pair state on a weighted graph.

    Only the neighbours of k and l matter: the edge's pure gate state has
    entry (a, b) damped by one factor per measured neighbour, weighted by
    the channel (`_pair_coefficients` at slope 0).  At phase pi everywhere
    each factor is 1 or the channel's e_Z, and this is reduced_pair_state's
    pair.  Returns the normalised 4x4 matrix with qubit k as bit 0, l as
    bit 1.
    """
    rho = _pair_coefficients(g, k, l, ch.probs, (0.0, 0.0, 0.0, 0.0))[0]
    trace = rho.trace().real
    if trace < 1e-14:
        raise ValidationError("branch weights vanished; channel is degenerate")
    return rho / trace


def weighted_pair_pt_min_eig(rho: np.ndarray) -> float:
    return float(hermitian_spectrum(partial_transpose(rho, 1))[0])


_PAIR_BLOCK = 1 << 9  # 4x4 matrices gathered in one stacked evaluation
_EDGE_STACK = 1 << 12  # 4x4 coefficient matrices (1 MB) of one chunk of edges


def _weighted_edge_thresholds(
    g: Graph, edges: list[tuple[int, int]], kind: str, tol: Tolerance
) -> list[ThresholdResult]:
    """One bisection per edge of a weighted graph, in lockstep by chunks.

    Under a named channel the probabilities are affine in p, so each edge's
    partially transposed pair state is a matrix polynomial, built once as
    a Chebyshev series (`_pair_coefficients`; the transpose is linear) and
    zero-padded to the most terms among the edges, width.  The edges go in
    chunks whose padded series hold at most _EDGE_STACK matrices, each
    chunk through one pre-scan and one bisect_lockstep.  A chunk's pre-scan
    grids, as one stack, and every refinement round are each evaluated by
    one call of a stacked gap function, which sums the series of at most
    _PAIR_BLOCK // width points at a time as one matmul of their Chebyshev
    values with the gathered coefficients, so each gathered stack holds at
    most _PAIR_BLOCK 4x4 matrices.  The states of named channels have
    trace 1 at every p, so they are used as summed.
    """
    import numpy as np

    probs = named_probs(kind, 0.0)
    slope = np.subtract(named_probs(kind, 1.0), probs)
    # An edge's series has 3 terms plus one per other neighbour of u or v.
    width = 3 + max(((g.adj[u] | g.adj[v]) & ~(1 << u | 1 << v)).bit_count() for u, v in edges)
    block = max(1, _PAIR_BLOCK // width)
    grid = np.array(prescan_grid(*EDGE_BRACKET))

    def solve(chunk: list[tuple[int, int]]) -> list[ThresholdResult]:
        coefficients = np.zeros((len(chunk), width, 16), dtype=complex)
        for e, (u, v) in enumerate(chunk):
            form = partial_transpose(_pair_coefficients(g, u, v, probs, slope), 1)
            coefficients[e, : len(form)] = form.reshape(-1, 16)

        def gaps(problems, ps) -> np.ndarray:
            out = np.empty(len(ps))
            for c in range(0, len(ps), block):
                # T_m(2p - 1) = cos(m arccos(2p - 1))
                basis = np.cos(np.arccos(2.0 * ps[c : c + block, None, None] - 1.0) * np.arange(width))
                rho = (basis @ coefficients[problems[c : c + block]]).reshape(-1, 4, 4)
                out[c : c + block] = hermitian_spectrum(rho)[:, 0]
            return out

        every = np.repeat(np.arange(len(chunk)), len(grid))
        grids = gaps(every, np.tile(grid, len(chunk))).reshape(len(chunk), len(grid))
        return bisect_lockstep(gaps, grids, *EDGE_BRACKET, tol)

    per = max(1, _EDGE_STACK // width)
    return [r for start in range(0, len(edges), per) for r in solve(edges[start : start + per])]


# ---------------------------------------------------------------------------
# Aggregation over a whole graph


class EdgeThreshold(NamedTuple):
    u: int
    v: int
    phi: float
    p_crit: float  # NaN when the pair never turns NPT inside the bracket
    found: bool
    iterations: int

    @property
    def kt_crit(self) -> float:
        return -math.log(self.p_crit)


class LowerBoundReport(NamedTuple):
    """Distillability thresholds per edge plus two global certificates.

    p_global asks every edge to be NPT (maximum threshold; the certified
    lifetime is the minimum over edges).  p_spanning only asks the NPT edges
    to contain a spanning connected subgraph, which is all the protocol
    needs, so weak edges cannot spoil it.  Equality and hashing leave the
    graph out.
    """

    graph: Graph
    per_edge: tuple[EdgeThreshold, ...] = ()
    p_global: float = math.nan
    p_spanning: float = math.nan
    critical_edge: tuple[int, int] | None = None
    bottleneck_edge: tuple[int, int] | None = None

    def __eq__(self, other):
        return self[1:] == other[1:] if other.__class__ is self.__class__ else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__, where tuple's != compares every field

    def __hash__(self) -> int:
        return hash(self[1:])

    @property
    def kt_global(self) -> float:
        return -math.log(self.p_global)

    @property
    def kt_spanning(self) -> float:
        return -math.log(self.p_spanning)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.groups = n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.groups -= 1
        return True


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    uf = _UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    return uf.groups == 1


def lifetime_lower_bound(
    g: Graph,
    family: ChannelFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> LowerBoundReport:
    """Per-edge NPT thresholds and the two global certificates for a graph.

    Works along the channel-family parameter p (clean at 1): each edge gets
    the level where its reduced pair stops being NPT, from one bisection per
    distinct problem.  On an unweighted graph that level is the root of the
    closed-form polynomial in the edge's ordered degrees
    (closed_form_threshold), so edges with the same degrees share one
    bisection (a constant-degree lattice has a handful of them at any
    size).  On a weighted graph each edge's partially transposed pair state
    is built once as a matrix polynomial in p, so every evaluation only
    sums it; the edges bisect in lockstep, each pre-scan grid and
    refinement round summed and diagonalised as stacks of bounded size
    (_weighted_edge_thresholds).
    The global number takes the maximum (the protocol's weakest link), and
    the spanning variant takes the smallest p at which the NPT edges alone
    connect the graph (the bottleneck edge of a maximum-threshold-last
    union-find sweep).
    """
    if not family.is_pauli_family:
        raise ValidationError(
            "pair thresholds sweep a Pauli channel family (depolarizing, "
            "dephasing, bitflip)"
        )
    all_edges = g.edges()
    if not all_edges:
        raise ValidationError("graph has no edges")
    if not _connected(g.n, all_edges):
        raise ValidationError("graph is not connected; no global certificate")

    if g.is_weighted:
        results = _weighted_edge_thresholds(g, all_edges, family.kind, tol)
    else:
        roots: dict[tuple[int, int, int], ThresholdResult] = {}
        results = []
        for u, v in all_edges:
            degrees = edge_degrees(g, u, v)
            if degrees not in roots:
                roots[degrees] = closed_form_threshold(family.kind, degrees, tol)
            results.append(roots[degrees])

    per_edge = [
        EdgeThreshold(u, v, g.phase(u, v), r.value if r.sign_change_found else math.nan,
                      r.sign_change_found, r.iterations)
        for (u, v), r in zip(all_edges, results)
    ]

    found = [e for e in per_edge if e.found]
    if len(found) == len(per_edge):
        worst = max(found, key=lambda e: e.p_crit)
        p_global, critical = worst.p_crit, (worst.u, worst.v)
    else:
        p_global, critical = math.nan, None

    p_spanning, bottleneck = math.nan, None
    uf = _UnionFind(g.n)
    for e in sorted(found, key=lambda e: e.p_crit):
        uf.union(e.u, e.v)
        if uf.groups == 1:
            p_spanning, bottleneck = e.p_crit, (e.u, e.v)
            break

    return LowerBoundReport(
        g, tuple(per_edge), p_global, p_spanning, critical, bottleneck
    )
