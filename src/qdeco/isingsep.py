"""Full-separability upper bounds from noisy phase gates.

A graph state can be grown by applying one controlled-phase gate per edge.
If each gate is preceded by enough single-qubit dephasing on both of its
ends, the gate stops being able to create entanglement at all, and the
whole state is certifiably fully separable.  Splitting a vertex's physical
dephasing p_z evenly over its incident gates (one factor p_z^(1/deg) each)
turns this into a per-edge inequality; for arbitrary gate phases the
separability boundary of a single noisy gate is found numerically on an
explicit two-ququart (16x16, support-4) matrix.  Appendix-style channel
splitting (channels.minimal_dephasing_*) translates the dephasing
thresholds into the native parameter of other channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelFamily, minimal_dephasing_pauli
from .errors import ValidationError
from .graphs import Graph, degree
from .numeric import DEFAULT_TOL, Tolerance, bisect, hermitian_spectrum, partial_transpose

GATE_BRACKET = (1e-9, 1.0 - 1e-9)


def gate_separable(p_z: float, q_z: float) -> bool:
    """A phase gate with per-side dephasing (p_z, q_z) creates no entanglement
    iff (1 + p_z)(1 + q_z) <= 2.  Boundary counts as separable."""
    for name, v in (("p_z", p_z), ("q_z", q_z)):
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1], got {v}")
    return (1.0 + p_z) * (1.0 + q_z) <= 2.0


@dataclass(frozen=True)
class NoisyGateState:
    """Output of one noisy phase gate on a pair of |+> qubits, doubled up.

    Each side carries two qubits so that the state stays pure per branch:
    logical |0> = |00>, |1> = |11>.  The four weights lam correspond to the
    logical phase-flip frame {1, Z_k, Z_l, Z_k Z_l} and follow the product
    form lam_ij = (1 +- p_z)(1 +- q_z)/4.  The gate phase phi only enters
    the stabiliser-frame vector, not the weights.
    """

    p_z: float
    q_z: float
    phi: float
    lam: tuple[float, float, float, float] = field(init=False)

    def __post_init__(self) -> None:
        for name, v in (("p_z", self.p_z), ("q_z", self.q_z)):
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 < self.phi <= math.pi:
            raise ValidationError(f"phase must lie in (0, pi], got {self.phi}")
        a, b = self.p_z, self.q_z
        lam = (
            (1 + a) * (1 + b) / 4,
            (1 + a) * (1 - b) / 4,
            (1 - a) * (1 + b) / 4,
            (1 - a) * (1 - b) / 4,
        )
        object.__setattr__(self, "lam", lam)

    def matrix(self) -> np.ndarray:
        """16x16 density matrix; side k is qubits (bit0, bit1), side l (bit2, bit3)."""
        base = np.zeros(16, dtype=complex)
        base[0b0000] = 0.5
        base[0b0011] = 0.5  # side k logical 1
        base[0b1100] = 0.5  # side l logical 1
        base[0b1111] = 0.5 * np.exp(1j * self.phi)
        z_k = np.array([-1.0 if (x >> 1) & 1 else 1.0 for x in range(16)])
        z_l = np.array([-1.0 if (x >> 3) & 1 else 1.0 for x in range(16)])
        frames = (np.ones(16), z_l, z_k, z_k * z_l)  # order: 1, Z_l, Z_k, both
        # lam ordering is (++, +-, -+, --) in (p_z, q_z); the q_z sign flips
        # with Z_l on side l and the p_z sign with Z_k on side k.
        rho = np.zeros((16, 16), dtype=complex)
        for w, frame in zip(self.lam, frames):
            v = frame * base
            rho += w * np.outer(v, v.conj())
        return rho

    def pt_min_eig(self) -> float:
        """Smallest eigenvalue after transposing side k (bits 0 and 1)."""
        return float(hermitian_spectrum(partial_transpose(self.matrix(), 0b0011))[0])


def weighted_gate_threshold(
    phi: float, deg_k: int, deg_l: int, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Largest vertex dephasing p_z for which a phase-phi gate between
    vertices of the given degrees is separability-certified.

    Each side receives the fraction p_z^(1/deg) of its vertex's dephasing.
    The boundary is located by bisecting the PT minimum eigenvalue of the
    explicit two-ququart state; at phi = pi it reproduces the closed form
    (sqrt(2) - 1)^m for equal degrees m.
    """
    if min(deg_k, deg_l) < 1:
        raise ValidationError("degrees must be at least 1")

    # The support-4 state has exact zero PT eigenvalues on the separable
    # side, so shift by the eigenvalue floor to get a real sign change.
    floor = tol.eig_floor(16)

    def gap(p_z: float) -> float:
        state = NoisyGateState(p_z ** (1.0 / deg_k), p_z ** (1.0 / deg_l), phi)
        return state.pt_min_eig() - floor

    result = bisect(gap, GATE_BRACKET[0], GATE_BRACKET[1], tol)
    if not result.sign_change_found:
        # The gate never entangles inside the bracket (phi ~ 0).
        return 1.0
    return result.value


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


def weighted_graph_threshold(
    g: Graph,
    family: ChannelFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> WeightedSeparabilityReport:
    """Full-separability threshold of a (weighted) graph state in the native
    parameter of a Pauli channel family.

    Per edge, the two-ququart bisection gives the admissible vertex
    dephasing for that gate phase and degree pair; the global p_z is the
    minimum.  The result is mapped to the family's own parameter through
    the largest dephasing channel extractable from it: analytically for
    depolarizing noise (p = p_z / (2 - p_z)), by bisection otherwise.
    Families without a dephasing component (bitflip) are reported as
    inapplicable rather than given a fake number.
    """
    edges = g.edges()
    if not edges:
        raise ValidationError("graph has no edges")
    per_edge = []
    cache: dict[tuple[float, int, int], float] = {}
    for u, v in edges:
        phi = g.phase(u, v)
        degs = sorted((degree(g, u), degree(g, v)))
        key = (phi, degs[0], degs[1])
        if key not in cache:
            cache[key] = weighted_gate_threshold(phi, degs[0], degs[1], tol)
        per_edge.append((u, v, phi, cache[key]))
    worst = min(per_edge, key=lambda e: e[3])
    p_z = worst[3]
    critical = (worst[0], worst[1])

    if not family.is_pauli_family:
        return WeightedSeparabilityReport(
            tuple(per_edge), p_z, critical, None, False,
            "separability mapping needs a Pauli channel family",
        )
    probe = minimal_dephasing_pauli(family.pauli(0.5))
    if probe is None:
        return WeightedSeparabilityReport(
            tuple(per_edge), p_z, critical, None, False,
            f"no dephasing component extractable from {family.kind}",
        )
    if family.kind == "depolarizing":
        native = depolarizing_p_from_dephasing(p_z)
    else:
        def gap(p: float) -> float:
            extracted = minimal_dephasing_pauli(family.pauli(p))
            return (1.0 if extracted is None else extracted) - p_z

        result = bisect(gap, 1e-9, 1.0 - 1e-9, tol)
        if not result.sign_change_found:
            return WeightedSeparabilityReport(
                tuple(per_edge), p_z, critical, None, False,
                "dephasing threshold not reachable along this family",
            )
        native = result.value
    return WeightedSeparabilityReport(
        tuple(per_edge), p_z, critical, native, True
    )
