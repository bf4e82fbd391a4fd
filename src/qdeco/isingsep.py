"""Full-separability upper bounds from noisy phase gates.

A graph state can be grown by applying one controlled-phase gate per edge.
If each gate is preceded by enough single-qubit dephasing on both of its
ends, the gate stops being able to create entanglement at all, and the
whole state is certifiably fully separable.  Splitting a vertex's physical
dephasing p_z evenly over its incident gates (one factor p_z^(1/deg) each)
turns this into a per-edge inequality; for arbitrary gate phases the
separability boundary of a single noisy gate is found numerically on its
explicit 4x4 two-qubit state, the pure gate state psi psi^dagger with each
entry damped by the dephasing.  Appendix-style channel splitting
(channels.minimal_dephasing_*) translates the dephasing thresholds into the
native parameter of other channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelFamily, minimal_dephasing_pauli
from .errors import ValidationError
from .graphs import Graph, degree
from .numeric import (
    DEFAULT_TOL,
    Tolerance,
    bisect,
    bisect_lockstep,
    hermitian_spectrum,
    partial_transpose,
    prescan_grid,
)

GATE_BRACKET = (1e-9, 1.0 - 1e-9)

# Entry (a, b) of a two-qubit matrix, with qubit k as bit 0 of the index and
# qubit l as bit 1: D_K[a, b] = a_k - b_k and D_L[a, b] = a_l - b_l.
_BITS = np.arange(4)
D_K = (_BITS & 1)[:, None] - (_BITS & 1)[None, :]
D_L = (_BITS >> 1)[:, None] - (_BITS >> 1)[None, :]


def gate_outer(phi: float) -> np.ndarray:
    """psi psi^dagger for psi = (1, 1, 1, e^(i phi)) / 2: a phase-phi gate
    on |++>, qubit k as bit 0 and l as bit 1.  A phase flip on k with
    probability (1 - p) / 2 multiplies entry (a, b) by p^|D_K[a, b]|."""
    psi = np.array([1.0, 1.0, 1.0, np.exp(1j * phi)]) / 2.0
    return np.outer(psi, psi.conj())


def _check_phase(phi: float) -> None:
    if not 0.0 < phi <= math.pi:
        raise ValidationError(f"phase must lie in (0, pi], got {phi}")


def _check_dephasing(p_z: np.ndarray, q_z: np.ndarray) -> None:
    for name, v in (("p_z", p_z), ("q_z", q_z)):
        inside = (0.0 <= v) & (v <= 1.0)
        if not inside.all():
            raise ValidationError(f"{name} must lie in [0, 1], got {v[~inside][0]}")


def _gate_states(outer: np.ndarray, p_z: np.ndarray, q_z: np.ndarray) -> np.ndarray:
    """The (P, 4, 4) states outer * p_z^|D_K| * q_z^|D_L|, one per entry of the
    equal-length arrays p_z (dephasing on k) and q_z (on l), each checked to
    lie in [0, 1]."""
    _check_dephasing(p_z, q_z)
    damp_k = p_z[:, None, None] ** np.abs(D_K)
    damp_l = q_z[:, None, None] ** np.abs(D_L)
    return outer * damp_k * damp_l


def _pt_min_eigs(rho: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each state after transposing qubit k (bit 0)."""
    return hermitian_spectrum(partial_transpose(rho, 1))[..., 0]


@dataclass(frozen=True)
class NoisyGateState:
    """Output of one noisy phase gate on a pair of |+> qubits.

    Dephasing p_z on k and q_z on l before the gate (a phase flip with
    probability (1 - p_z) / 2 and (1 - q_z) / 2) damps each off-diagonal
    entry of the pure gate state: rho = psi psi^dagger * p_z^|d_k| q_z^|d_l|
    with d = a - b per qubit for entry (a, b).  The gate phase phi only
    enters psi.
    """

    p_z: float
    q_z: float
    phi: float

    def __post_init__(self) -> None:
        _check_dephasing(np.array([self.p_z]), np.array([self.q_z]))
        _check_phase(self.phi)

    def matrix(self) -> np.ndarray:
        """4x4 density matrix; qubit k is bit 0 of the index, l bit 1."""
        return _gate_states(
            gate_outer(self.phi), np.array([self.p_z]), np.array([self.q_z])
        )[0]

    def pt_min_eig(self) -> float:
        """Smallest eigenvalue after transposing qubit k (bit 0)."""
        return float(_pt_min_eigs(self.matrix()))


_GATE_BLOCK = 1 << 7  # gate states in one stacked evaluation

# A gate is separable once its PT minimum reaches this (DEFAULT_TOL's floor
# for dimension 16), not 0: near phi = 0 eigvalsh round-off is as large as
# the gap.  With a zero floor the root at phi = 1e-8 moves from 1 - 5e-9
# (true: 1 - phi/2) to 1 - 1.3e-8, and phi = 1e-15 gets a root below 1; at
# phi >= 0.5 the floor moves a root by at most 1.2e-10, near abs_root.
GATE_FLOOR = -16e-12


def weighted_gate_threshold(
    phi: float, deg_k: int, deg_l: int, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Largest vertex dephasing p_z for which a phase-phi gate between
    vertices of the given degrees is separability-certified.

    Each side receives the fraction p_z^(1/deg) of its vertex's dephasing.
    The boundary is located by bisecting the PT minimum eigenvalue of the
    gate's 4x4 state; at phi = pi it reproduces the closed form
    (sqrt(2) - 1)^m for equal degrees m.  This is weighted_gate_thresholds
    for one gate.
    """
    return weighted_gate_thresholds([(phi, deg_k, deg_l)], tol)[0]


def weighted_gate_thresholds(
    gates: list[tuple[float, int, int]], tol: Tolerance = DEFAULT_TOL
) -> list[float]:
    """weighted_gate_threshold of every (phi, deg_k, deg_l) in gates.

    Every gate is checked first, in order.  The gates then bisect in
    lockstep, every pre-scan grid and refinement round formed and
    diagonalised as stacks of at most _GATE_BLOCK gate states.  A gate is
    separable where its PT minimum is at least GATE_FLOOR; a gate whose
    state never turns separable inside the bracket (phi ~ 0) gets 1.0.
    """
    for phi, deg_k, deg_l in gates:
        if min(deg_k, deg_l) < 1:
            raise ValidationError("degrees must be at least 1")
        _check_phase(phi)

    outers = np.array([gate_outer(phi) for phi, _, _ in gates])

    def gaps(problems, ps) -> np.ndarray:
        out = np.empty(len(ps))
        for s in range(0, len(ps), _GATE_BLOCK):
            at, at_ps = problems[s : s + _GATE_BLOCK], ps[s : s + _GATE_BLOCK].tolist()
            # Python's float power: numpy's array power can differ in the last bit.
            degs = [gates[i][1:] for i in at.tolist()]
            p_z = [p ** (1.0 / deg_k) for p, (deg_k, _) in zip(at_ps, degs)]
            q_z = [p ** (1.0 / deg_l) for p, (_, deg_l) in zip(at_ps, degs)]
            rho = _gate_states(outers[at], np.array(p_z), np.array(q_z))
            out[s : s + _GATE_BLOCK] = _pt_min_eigs(rho) - GATE_FLOOR
        return out

    grid = np.array(prescan_grid(*GATE_BRACKET))
    grids = (gaps(np.full(len(grid), i), grid) for i in range(len(gates)))
    results = bisect_lockstep(gaps, grids, *GATE_BRACKET, tol)
    return [r.value if r.sign_change_found else 1.0 for r in results]


@dataclass(frozen=True)
class SeparabilityReport:
    """Dephasing thresholds: full separability is certified for p_z <= p_threshold."""

    per_edge: tuple[tuple[int, int, float], ...]  # (u, v, p_z threshold)
    p_threshold: float
    weak_bound: float  # closed form (sqrt(2)-1)^max_degree
    critical_edge: tuple[int, int]

    @property
    def kt_threshold(self) -> float:
        return -math.log(self.p_threshold)


def _edge_dephasing_threshold(deg_k: int, deg_l: int, tol: Tolerance) -> float:
    """Solve (1 + x^(1/deg_k)) (1 + x^(1/deg_l)) = 2 for x in (0, 1)."""

    def gap(x: float) -> float:
        return (1.0 + x ** (1.0 / deg_k)) * (1.0 + x ** (1.0 / deg_l)) - 2.0

    return bisect(gap, 1e-15, 1.0, tol).value


def graph_separability_threshold(
    g: Graph, tol: Tolerance = DEFAULT_TOL
) -> SeparabilityReport:
    """Exact per-edge and global dephasing thresholds of an unweighted graph.

    Vertex k splits its dephasing over deg(k) gates, so edge {k, l} is
    separable for p_z at or below the root of
    (1 + p_z^(1/deg_k))(1 + p_z^(1/deg_l)) = 2; the state is fully separable
    once every edge is, i.e. for p_z <= min over edges.  The report also
    carries the weaker closed form (sqrt(2) - 1)^m, m the maximum degree.
    """
    if g.is_weighted:
        raise ValidationError("use weighted_graph_threshold for weighted graphs")
    edges = g.edges()
    if not edges:
        raise ValidationError("graph has no edges")
    cache: dict[tuple[int, int], float] = {}
    per_edge = []
    for u, v in edges:
        degs = (degree(g, u), degree(g, v))
        key = tuple(sorted(degs))
        if key not in cache:
            cache[key] = _edge_dephasing_threshold(degs[0], degs[1], tol)
        per_edge.append((u, v, cache[key]))
    worst = min(per_edge, key=lambda e: e[2])
    max_deg = max(degree(g, k) for k in range(g.n))
    weak = (math.sqrt(2.0) - 1.0) ** max_deg
    return SeparabilityReport(
        tuple(per_edge), worst[2], weak, (worst[0], worst[1])
    )


@dataclass(frozen=True)
class WeightedSeparabilityReport:
    """Dephasing threshold of a weighted graph plus its native-parameter image.

    applicable is False when the channel family has no extractable dephasing
    component (then native_p is None and note says why).
    """

    per_edge: tuple[tuple[int, int, float, float], ...]  # (u, v, phi, p_z)
    p_z_threshold: float
    critical_edge: tuple[int, int]
    native_p: float | None
    applicable: bool
    note: str = ""

    @property
    def kt_threshold(self) -> float:
        if self.native_p is None:
            raise ValidationError("no native parameter: " + self.note)
        return -math.log(self.native_p)


def depolarizing_p_from_dephasing(p_z: float) -> float:
    """Invert the depolarizing channel's extractable dephasing p_z = 2p/(1+p)."""
    if not 0.0 <= p_z <= 1.0:
        raise ValidationError(f"p_z must lie in [0, 1], got {p_z}")
    return p_z / (2.0 - p_z)


def native_parameter(
    family: ChannelFamily, p_z: float, tol: Tolerance = DEFAULT_TOL
) -> tuple[float | None, str]:
    """The family's own parameter at the vertex dephasing threshold p_z.

    Maps through the largest dephasing channel extractable from the family:
    analytically for depolarizing noise (p = p_z / (2 - p_z)), by bisection
    otherwise.  Returns (native_p, "") or, for a family without a
    dephasing component (bitflip) or a non-Pauli one, (None, why).
    """
    if not family.is_pauli_family:
        return None, "separability mapping needs a Pauli channel family"
    if minimal_dephasing_pauli(family.pauli(0.5)) is None:
        return None, f"no dephasing component extractable from {family.kind}"
    if family.kind == "depolarizing":
        return depolarizing_p_from_dephasing(p_z), ""

    def gap(p: float) -> float:
        extracted = minimal_dephasing_pauli(family.pauli(p))
        return (1.0 if extracted is None else extracted) - p_z

    result = bisect(gap, 1e-9, 1.0 - 1e-9, tol)
    if not result.sign_change_found:
        return None, "dephasing threshold not reachable along this family"
    return result.value, ""


def weighted_graph_threshold(
    g: Graph,
    family: ChannelFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> WeightedSeparabilityReport:
    """Full-separability threshold of a (weighted) graph state in the native
    parameter of a Pauli channel family.

    Per edge, the gate-state bisection gives the admissible vertex
    dephasing for that gate phase and degree pair; the distinct
    (phi, deg_k, deg_l) keys of the graph are solved once each, all in one
    lockstep (weighted_gate_thresholds).  The global p_z is the minimum,
    mapped to the family's own parameter by native_parameter.
    Families without a dephasing component (bitflip) are reported as
    inapplicable rather than given a fake number.
    """
    edges = g.edges()
    if not edges:
        raise ValidationError("graph has no edges")
    keys = []
    for u, v in edges:
        degs = sorted((degree(g, u), degree(g, v)))
        keys.append((g.phase(u, v), degs[0], degs[1]))
    distinct = list(dict.fromkeys(keys))
    solved = dict(zip(distinct, weighted_gate_thresholds(distinct, tol)))
    per_edge = [(u, v, key[0], solved[key]) for (u, v), key in zip(edges, keys)]
    worst = min(per_edge, key=lambda e: e[3])
    native, note = native_parameter(family, worst[3], tol)
    return WeightedSeparabilityReport(
        tuple(per_edge), worst[3], (worst[0], worst[1]), native, native is not None, note
    )
