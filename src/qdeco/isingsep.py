"""Full-separability upper bounds from noisy phase gates.

A graph state can be grown by applying one controlled-phase gate per edge.
If each gate is preceded by enough single-qubit dephasing on both of its
ends, the gate stops being able to create entanglement at all, and the
whole state is certifiably fully separable.  Splitting a vertex's physical
dephasing p_z evenly over its incident gates (one factor p_z^(1/deg) each)
turns this into a per-edge inequality.  A phase-phi gate whose ends keep
the fractions p and q is separable exactly where its 4x4 state is PPT,
(1 - p^2)(1 - q^2) >= 4 p q sin^2(phi/2); at phi = pi this is
(1 + p)(1 + q) <= 2.  Every gate threshold, weighted or not, is the root
of that inequality.  The explicit 4x4 state (NoisyGateState) stays as the
dense reference.  Appendix-style channel splitting
(channels.minimal_dephasing_*) translates the dephasing thresholds into the
native parameter of other channels: for the dephasing and depolarizing
families in closed form (native_parameter).  The thresholds need no numpy;
the dense reference and D_K, D_L import it when first used.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .channels import ChannelFamily
from .errors import ValidationError
from .graphs import Graph, degree
from .numeric import DEFAULT_TOL, Tolerance, bisect, hermitian_spectrum, partial_transpose

if TYPE_CHECKING:
    import numpy as np


@cache
def _entry_offsets() -> tuple[np.ndarray, np.ndarray]:
    """(D_K, D_L).  Entry (a, b) of a two-qubit matrix, with qubit k as bit
    0 of the index and qubit l as bit 1: D_K[a, b] = a_k - b_k and
    D_L[a, b] = a_l - b_l."""
    import numpy as np

    bits = np.arange(4)
    return (bits & 1)[:, None] - (bits & 1)[None, :], (bits >> 1)[:, None] - (bits >> 1)[None, :]


def __getattr__(name: str):
    # D_K and D_L are built on first use (PEP 562): importing this module
    # loads no numpy.
    if name in ("D_K", "D_L"):
        return _entry_offsets()[name == "D_L"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def gate_outer(phi: float) -> np.ndarray:
    """psi psi^dagger for psi = (1, 1, 1, e^(i phi)) / 2: a phase-phi gate
    on |++>, qubit k as bit 0 and l as bit 1.  A phase flip on k with
    probability (1 - p) / 2 multiplies entry (a, b) by p^|D_K[a, b]|."""
    import numpy as np

    psi = np.array([1.0, 1.0, 1.0, np.exp(1j * phi)]) / 2.0
    return np.outer(psi, psi.conj())


def _check_phase(phi: float) -> None:
    if not 0.0 < phi <= math.pi:
        raise ValidationError(f"phase must lie in (0, pi], got {phi}")


class NoisyGateState(namedtuple("NoisyGateState", "p_z q_z phi")):
    """Output of one noisy phase gate on a pair of |+> qubits.

    Dephasing p_z on k and q_z on l before the gate (a phase flip with
    probability (1 - p_z) / 2 and (1 - q_z) / 2) damps each off-diagonal
    entry of the pure gate state: rho = psi psi^dagger * p_z^|d_k| q_z^|d_l|
    with d = a - b per qubit for entry (a, b).  The gate phase phi only
    enters psi.
    """

    __slots__ = ()

    def __new__(cls, p_z: float, q_z: float, phi: float) -> NoisyGateState:
        for name, v in (("p_z", p_z), ("q_z", q_z)):
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
        _check_phase(phi)
        return super().__new__(cls, p_z, q_z, phi)

    def matrix(self) -> np.ndarray:
        """4x4 density matrix; qubit k is bit 0 of the index, l bit 1."""
        d_k, d_l = _entry_offsets()
        return gate_outer(self.phi) * self.p_z ** abs(d_k) * self.q_z ** abs(d_l)

    def pt_min_eig(self) -> float:
        """Smallest eigenvalue after transposing qubit k (bit 0)."""
        return float(hermitian_spectrum(partial_transpose(self.matrix(), 1))[0])


def weighted_gate_threshold(
    phi: float, deg_k: int, deg_l: int, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Largest vertex dephasing p_z for which a phase-phi gate between
    vertices of the given degrees is separability-certified.

    Each side receives the fraction p = p_z^(1/deg_k), q = p_z^(1/deg_l) of
    its vertex's dephasing.  The PT of the gate's 4x4 state has the
    eigenvalues (1 + pq +- |p + q e^(i phi)|) / 4 and
    (1 - pq +- |p - q e^(i phi)|) / 4; only the last can be negative, and
    it is not where (1 - p^2)(1 - q^2) >= 4 p q sin^2(phi/2).  For equal
    degrees m the root is (sqrt(1 + s^2) - s)^m, s = sin(phi/2), so on the
    p_z axis it drops below any fixed bracket and absolute tolerance as the
    degrees grow.  Bisection runs on y = p_z^(1/m), m = max(deg_k, deg_l),
    instead: its root lies in [sqrt(2) - 1, 1) for every phase and degree
    pair.
    """
    if min(deg_k, deg_l) < 1:
        raise ValidationError("degrees must be at least 1")
    _check_phase(phi)
    m = max(deg_k, deg_l)
    s2 = math.sin(phi / 2.0) ** 2

    def gap(y: float) -> float:
        p, q = y ** (m / deg_k), y ** (m / deg_l)
        return 4.0 * p * q * s2 - (1.0 - p * p) * (1.0 - q * q)

    return bisect(gap, 0.1, 1.0, tol).value ** m


class SeparabilityReport(NamedTuple):
    """Dephasing thresholds: full separability is certified for p_z <= p_threshold."""

    per_edge: tuple[tuple[int, int, float], ...]  # (u, v, p_z threshold)
    p_threshold: float
    weak_bound: float  # closed form (sqrt(2)-1)^max_degree
    critical_edge: tuple[int, int]

    @property
    def kt_threshold(self) -> float:
        return -math.log(self.p_threshold)


def graph_separability_threshold(
    g: Graph, tol: Tolerance = DEFAULT_TOL
) -> SeparabilityReport:
    """Exact per-edge and global dephasing thresholds of an unweighted graph.

    Vertex k splits its dephasing over deg(k) gates, so edge {k, l} is
    separable for p_z at or below the root of
    (1 + p_z^(1/deg_k))(1 + p_z^(1/deg_l)) = 2, weighted_gate_threshold at
    phi = pi; the state is fully separable once every edge is, i.e. for
    p_z <= min over edges.  The report also
    carries the weaker closed form (sqrt(2) - 1)^m, m the maximum degree.
    """
    if g.is_weighted:
        raise ValidationError("use weighted_graph_threshold for weighted graphs")
    edges = g.edges()
    if not edges:
        raise ValidationError("graph has no edges")
    keys = [tuple(sorted((degree(g, u), degree(g, v)))) for u, v in edges]
    solved = {key: weighted_gate_threshold(math.pi, *key, tol) for key in dict.fromkeys(keys)}
    per_edge = [(u, v, solved[key]) for (u, v), key in zip(edges, keys)]
    worst = min(per_edge, key=lambda e: e[2])
    max_deg = max(degree(g, k) for k in range(g.n))
    weak = (math.sqrt(2.0) - 1.0) ** max_deg
    return SeparabilityReport(
        tuple(per_edge), worst[2], weak, (worst[0], worst[1])
    )


class WeightedSeparabilityReport(NamedTuple):
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


def native_parameter(family: ChannelFamily, p_z: float) -> tuple[float | None, str]:
    """The family's own parameter at the vertex dephasing threshold p_z.

    Maps through the largest dephasing channel extractable from the family,
    in closed form: under dephasing noise that channel is the noise itself,
    so the parameter is p_z; under depolarizing noise it is p_z / (2 - p_z).
    Returns (native_p, "") or, for a family without a dephasing component
    (bitflip) or a non-Pauli one, (None, why).
    """
    if not family.is_pauli_family:
        return None, "separability mapping needs a Pauli channel family"
    if family.kind == "dephasing":
        return p_z, ""
    if family.kind == "depolarizing":
        return depolarizing_p_from_dephasing(p_z), ""
    return None, f"no dephasing component extractable from {family.kind}"


def weighted_graph_threshold(
    g: Graph,
    family: ChannelFamily,
    tol: Tolerance = DEFAULT_TOL,
) -> WeightedSeparabilityReport:
    """Full-separability threshold of a (weighted) graph state in the native
    parameter of a Pauli channel family.

    Per edge, weighted_gate_threshold gives the admissible vertex
    dephasing for that gate phase and degree pair; the distinct
    (phi, deg_k, deg_l) keys of the graph are solved once each.  The global
    p_z is the minimum, mapped to the family's own parameter by
    native_parameter.
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
    solved = {key: weighted_gate_threshold(*key, tol) for key in dict.fromkeys(keys)}
    per_edge = [(u, v, key[0], solved[key]) for (u, v), key in zip(edges, keys)]
    worst = min(per_edge, key=lambda e: e[3])
    native, note = native_parameter(family, worst[3])
    return WeightedSeparabilityReport(
        tuple(per_edge), worst[3], (worst[0], worst[1]), native, native is not None, note
    )
