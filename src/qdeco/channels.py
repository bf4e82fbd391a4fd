"""Single-qubit decoherence channels.

Three equivalent descriptions are used, chosen per task:

* PauliChannel -- probabilities (p0, p1, p2, p3) over {id, x, y, z} flips.
* QoChannel -- a solved quantum-optical master equation with inversion decay
  rate B, polarization decay rate C (2C >= B) and bath parameter s; at a
  given time it yields a snapshot (lambda_0..lambda_3, mu, a, b, c).
* ChannelMatrix -- the full 4x4 Hermitian coefficient matrix P of
  rho -> sum_ij P[i,j] sigma_i rho sigma_j, which covers every channel here
  (including the decay channel given by its two Kraus operators).

Named Pauli channels follow the p = e^{-kappa t} convention: p = 1 is the
identity and p = 0 the fully decohered end point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numeric import DEFAULT_TOL, Tolerance, bisect, check_hermitian, min_eig, partial_transpose

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_PROB_ATOL = 1e-12


@dataclass(frozen=True)
class PauliChannel:
    p0: float
    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        probs = self.probs
        if any(p < -_PROB_ATOL or p > 1 + _PROB_ATOL for p in probs):
            raise ValidationError(f"probabilities outside [0,1]: {probs}")
        if abs(sum(probs) - 1.0) > _PROB_ATOL:
            raise ValidationError(f"probabilities sum to {sum(probs)}, not 1")

    @property
    def probs(self) -> tuple[float, float, float, float]:
        return (self.p0, self.p1, self.p2, self.p3)


def named_channel(kind: str, p: float) -> PauliChannel:
    """depolarizing / dephasing / bitflip at fidelity-like parameter p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p={p} outside [0, 1]")
    if kind == "depolarizing":
        return PauliChannel((1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4)
    if kind == "dephasing":
        return PauliChannel((1 + p) / 2, 0.0, 0.0, (1 - p) / 2)
    if kind == "bitflip":
        return PauliChannel((1 + p) / 2, (1 - p) / 2, 0.0, 0.0)
    raise ValidationError(f"unknown Pauli channel kind {kind!r}")


def compose_dephasing(p_a: float, p_b: float) -> float:
    """Sequential dephasing multiplies the retention parameters."""
    for p in (p_a, p_b):
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"dephasing parameter {p} outside [0, 1]")
    return p_a * p_b


@dataclass(frozen=True)
class QoChannel:
    """Master-equation rates: B (inversion), C (polarization), 2C >= B;
    s in [0, 1] is the bath equilibrium parameter (s in {0, 1} is the
    zero-temperature / decay-type singular case)."""

    B: float
    C: float
    s: float

    def __post_init__(self) -> None:
        if self.B < 0:
            raise ValidationError("B must be non-negative")
        if 2 * self.C < self.B - 1e-15:
            raise ValidationError("need 2C >= B")
        if not 0.0 <= self.s <= 1.0:
            raise ValidationError("s must lie in [0, 1]")


@dataclass(frozen=True)
class QoSnapshot:
    """Time-t coefficients of the quantum-optical map."""

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    mu: float
    a: float
    b: float
    c: float

    @property
    def lambdas(self) -> tuple[float, float, float, float]:
        return (self.lambda0, self.lambda1, self.lambda2, self.lambda3)


def qo_snapshot(ch: QoChannel, t: float) -> QoSnapshot:
    if t < 0:
        raise ValidationError("time must be non-negative")
    eb = math.exp(-ch.B * t)
    ec = math.exp(-ch.C * t)
    lam0 = (1 + 2 * ec + eb) / 4
    lam1 = (1 - eb) / 4
    lam3 = (1 - 2 * ec + eb) / 4
    mu = (2 * ch.s - 1) * (1 - eb) / 4
    a = ch.s + (1 - ch.s) * eb
    c = (1 - ch.s) + ch.s * eb
    return QoSnapshot(lam0, lam1, lam1, lam3, mu, a, ec, c)


def decay_gamma(kappa_t: float) -> float:
    """Excited-state decay probability after dimensionless time kappa*t."""
    if kappa_t < 0:
        raise ValidationError("time must be non-negative")
    return 1.0 - math.exp(-kappa_t)


def decay_kraus(gamma: float) -> list[np.ndarray]:
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma={gamma} outside [0, 1]")
    e1 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    e2 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return [e1, e2]


class ChannelMatrix:
    """4x4 Hermitian coefficient matrix in the Pauli operator basis."""

    def __init__(self, p: np.ndarray):
        p = np.asarray(p, dtype=complex)
        if p.shape != (4, 4):
            raise ValidationError(f"channel matrix must be 4x4, got {p.shape}")
        self.p = check_hermitian(p, atol=1e-10)

    @staticmethod
    def from_pauli(ch: PauliChannel) -> "ChannelMatrix":
        return ChannelMatrix(np.diag(np.array(ch.probs, dtype=complex)))

    @staticmethod
    def from_qo_snapshot(snap: QoSnapshot) -> "ChannelMatrix":
        p = np.diag(np.array(snap.lambdas, dtype=complex))
        p[0, 3] = p[3, 0] = snap.mu
        p[2, 1] = 1j * snap.mu
        p[1, 2] = -1j * snap.mu
        return ChannelMatrix(p)

    @staticmethod
    def from_kraus(ops: list[np.ndarray]) -> "ChannelMatrix":
        # Expand each Kraus operator in the Pauli basis; P is the Gram-like
        # sum of the coefficient vectors.
        p = np.zeros((4, 4), dtype=complex)
        for k in ops:
            coeff = np.array([np.trace(s.conj().T @ k) / 2 for s in SIGMA])
            p += np.outer(coeff, coeff.conj())
        return ChannelMatrix(p)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((2, 2), dtype=complex)
        for i in range(4):
            for j in range(4):
                if self.p[i, j] != 0:
                    out += self.p[i, j] * SIGMA[i] @ rho @ SIGMA[j]
        return out

    def to_superop(self) -> np.ndarray:
        """The 4x4 action on vec(rho): sum_ij P[i,j] sigma_i (x) sigma_j^T."""
        s = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                if self.p[i, j] != 0:
                    s += self.p[i, j] * np.kron(SIGMA[i], SIGMA[j].T)
        return s

    @staticmethod
    def from_superop(s: np.ndarray) -> "ChannelMatrix":
        p = np.empty((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                basis = np.kron(SIGMA[i], SIGMA[j].T)
                p[i, j] = np.trace(basis.conj().T @ s) / 4
        return ChannelMatrix(p)

    def compose(self, first: "ChannelMatrix") -> "ChannelMatrix":
        """The channel 'self after first'."""
        return ChannelMatrix.from_superop(self.to_superop() @ first.to_superop())

    def is_trace_preserving(self, atol: float = 1e-10) -> bool:
        # Tracing the dual state over the channel-output factor recovers the
        # untouched half of the maximally entangled input iff the map is
        # trace preserving (tracing the other factor would test unitality).
        red = partial_trace_out_first(jamiolkowski_state(self, validate=False))
        return bool(np.allclose(red, np.eye(2) / 2, atol=atol, rtol=0.0))


_BELL0 = np.zeros(4, dtype=complex)
_BELL0[0] = _BELL0[3] = 1 / math.sqrt(2)
_PHI = [np.kron(s, np.eye(2)) @ _BELL0 for s in SIGMA]


def jamiolkowski_state(
    ch: ChannelMatrix, tol: Tolerance = DEFAULT_TOL, validate: bool = True
) -> np.ndarray:
    """The 4x4 state dual to the channel: sum_ij P[i,j] |Phi_i><Phi_j|."""
    rho = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            if ch.p[i, j] != 0:
                rho += ch.p[i, j] * np.outer(_PHI[i], _PHI[j].conj())
    if validate:
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValidationError("channel is not trace normalized")
        if min_eig(rho, tol) < tol.eig_floor(4):
            raise ValidationError("channel matrix is not completely positive")
    return rho


def partial_trace_out_second(rho4: np.ndarray) -> np.ndarray:
    r = rho4.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r)


def partial_trace_out_first(rho4: np.ndarray) -> np.ndarray:
    r = rho4.reshape(2, 2, 2, 2)
    return np.einsum("kikj->ij", r)


def is_entanglement_breaking_pauli(ch: PauliChannel) -> bool:
    """Separable output for every input iff no flip probability exceeds 1/2."""
    return max(ch.probs) <= 0.5 + 1e-12


def is_entanglement_breaking_qo(ch: QoChannel, t: float) -> bool:
    if t < 0:
        raise ValidationError("time must be non-negative")
    lhs = ch.s * (1 - ch.s) * (math.exp(ch.C * t) * (1 - math.exp(-ch.B * t))) ** 2
    return lhs >= 1.0


def depolarizing_eb_threshold() -> float:
    """Largest p at which the depolarizing channel still breaks entanglement."""
    return 1.0 / 3.0


def eb_threshold(
    family: "ChannelFamily",
    tol: Tolerance = DEFAULT_TOL,
    via: str = "analytic",
) -> "ThresholdResult":
    """Axis value where a channel family becomes entanglement breaking.

    The axis is p for Pauli families (breaking below the threshold) and time
    for qo/decay (breaking above it).  via="analytic" uses the closed
    predicates (max flip probability 1/2, or the qo inequality);
    via="jamiolkowski" bisects the smallest partial-transpose eigenvalue of
    the dual state, which works for every channel kind.  A result with
    sign_change_found=False means the family never crosses the boundary in
    the bracket; in particular the decay channel never breaks, which the
    analytic route reports exactly, while the dual-state route loses the
    surviving coherence to round-off once exp(-kappa t) drops below double
    precision (around kappa t ~ 37) and stops being informative there.
    """
    if family.kind in ("pauli",):
        raise ValidationError("a fixed pauli channel has no axis to solve along")
    if family.is_pauli_family:
        lo, hi = 1e-9, 1.0 - 1e-9
    else:
        lo, hi = 1e-9, 50.0
    if via == "jamiolkowski":
        def gap(x: float) -> float:
            return min_eig(partial_transpose(jamiolkowski_state(family.matrix(x)), 1))
    elif via == "analytic":
        if family.is_pauli_family:
            def gap(p: float) -> float:
                return 0.5 - max(family.pauli(p).probs)
        elif family.kind == "qo":
            ch = QoChannel(family.param("B"), family.param("C"), family.param("s"))

            def gap(t: float) -> float:
                lhs = ch.s * (1 - ch.s)
                lhs *= (math.exp(ch.C * t) * -math.expm1(-ch.B * t)) ** 2
                return lhs - 1.0
        elif family.kind == "decay":
            # Decay with rate kappa is the zero-temperature singular case
            # (B = kappa, C = kappa/2, s = 1): the breaking inequality has
            # prefactor s(1-s) = 0 and therefore never fires at any time.
            def gap(t: float) -> float:
                return -1.0
        else:
            raise ValidationError(
                f"no analytic breaking predicate for {family.kind!r}; "
                'use via="jamiolkowski"'
            )
    else:
        raise ValidationError('via must be "analytic" or "jamiolkowski"')
    return bisect(gap, lo, hi, tol)


# Conjugation by the antidiagonal phase matrix below swaps the roles of the
# identity/z and x/y coefficient pairs; it is the algebraic inverse used when
# peeling a dephasing factor off a channel.
_M_SWAP = np.array(
    [
        [0, 0, 0, 1],
        [0, 0, 1j, 0],
        [0, -1j, 0, 0],
        [1, 0, 0, 0],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class DephasingSplit:
    p_z: float
    residual: ChannelMatrix
    feasible: bool


def dephasing_matrix(p_z: float) -> ChannelMatrix:
    return ChannelMatrix.from_pauli(named_channel("dephasing", p_z))


def extract_dephasing(
    ch: ChannelMatrix, p_z: float, tol: Tolerance = DEFAULT_TOL
) -> DephasingSplit:
    """Split ch into (residual) after (dephasing with parameter p_z).

    The candidate residual always recomposes to ch exactly; the split is
    feasible iff the residual is itself completely positive.
    """
    if not 0.0 < p_z <= 1.0:
        raise ValidationError(f"p_z={p_z} outside (0, 1]")
    q = (p_z + 1) / (2 * p_z) * ch.p + (p_z - 1) / (2 * p_z) * (
        _M_SWAP @ ch.p @ _M_SWAP
    )
    residual = ChannelMatrix(q)
    # The coefficient matrix is PSD iff the residual map is completely
    # positive (it equals the dual state written in the Bell basis).
    feasible = min_eig(residual.p, tol) >= -1e-10
    return DephasingSplit(p_z, residual, feasible)


def minimal_dephasing_pauli(ch: PauliChannel) -> float | None:
    """Smallest extractable dephasing parameter, or None when there is none.

    A ratio pair with exactly one zero blocks extraction entirely; a pair
    with both entries zero places no constraint.
    """
    ratios: list[float] = []
    for x, y in ((ch.p0, ch.p3), (ch.p1, ch.p2)):
        if x == 0.0 and y == 0.0:
            continue
        if x == 0.0 or y == 0.0:
            return None
        ratios.append(x / y)
        ratios.append(y / x)
    q_min = min(ratios)
    return (1 - q_min) / (1 + q_min)


def minimal_dephasing_matrix(
    ch: ChannelMatrix, tol: Tolerance = DEFAULT_TOL
) -> float | None:
    """Bisection on feasibility of extract_dephasing over (0, 1].

    None means only the trivial identity split is feasible (nothing
    extractable), matching minimal_dephasing_pauli's None.
    """
    if not extract_dephasing(ch, 1.0, tol).feasible:
        return None

    def gap(p_z: float) -> float:
        split = extract_dephasing(ch, p_z, tol)
        return min_eig(split.residual.p, tol) + 1e-10

    lo = 1e-9
    if gap(lo) >= 0:
        return lo
    res = bisect(gap, lo, 1.0, tol)
    # Roots within ~1e-7 of the identity are below what the eigenvalue
    # slack in gap() can certify, so they count as trivial.
    if not res.sign_change_found or res.value >= 1.0 - 1e-7:
        return None
    return res.value


def channel_matrix_from_spec(spec: dict) -> ChannelMatrix:
    """Build a ChannelMatrix from a JSON-style channel spec (see ChannelFamily)."""
    return ChannelFamily.from_spec(spec).fixed_matrix()


@dataclass(frozen=True)
class ChannelFamily:
    """A channel spec with one free axis: p for Pauli kinds, t otherwise.

    kinds: depolarizing | dephasing | bitflip | pauli | qo | decay.
    """

    kind: str
    params: tuple[tuple[str, float], ...] = ()

    @staticmethod
    def from_spec(spec: dict | str) -> "ChannelFamily":
        if isinstance(spec, str):
            spec = {"kind": spec}
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ValidationError('channel spec needs a "kind"')
        kind = spec["kind"]
        try:
            extra = {k: float(v) for k, v in spec.items() if k != "kind"}
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"channel parameters must be numbers: {exc}") from exc
        if kind in ("depolarizing", "dephasing", "bitflip"):
            allowed = {"p"}
        elif kind == "pauli":
            allowed = {"p0", "p1", "p2", "p3"}
        elif kind == "qo":
            allowed = {"B", "C", "s", "t"}
        elif kind == "decay":
            allowed = {"kappa", "t"}
        else:
            raise ValidationError(f"unknown channel kind {kind!r}")
        if set(extra) - allowed:
            raise ValidationError(
                f"channel kind {kind!r} does not take {sorted(set(extra) - allowed)}"
            )
        return ChannelFamily(kind, tuple(sorted(extra.items())))

    @property
    def is_pauli_family(self) -> bool:
        return self.kind in ("depolarizing", "dephasing", "bitflip")

    def param(self, name: str, default: float | None = None) -> float:
        for k, v in self.params:
            if k == name:
                return v
        if default is None:
            raise ValidationError(f"channel spec is missing {name!r}")
        return default

    def pauli(self, p: float) -> PauliChannel:
        if self.kind == "pauli":
            return PauliChannel(
                self.param("p0"), self.param("p1"), self.param("p2"), self.param("p3")
            )
        if not self.is_pauli_family:
            raise ValidationError(f"channel kind {self.kind!r} is not a Pauli family")
        return named_channel(self.kind, p)

    def matrix(self, x: float) -> ChannelMatrix:
        """The channel at axis value x (p for Pauli kinds, time otherwise)."""
        if self.is_pauli_family:
            return ChannelMatrix.from_pauli(self.pauli(x))
        if self.kind == "pauli":
            return ChannelMatrix.from_pauli(self.pauli(0.0))
        if self.kind == "qo":
            ch = QoChannel(self.param("B"), self.param("C"), self.param("s"))
            return ChannelMatrix.from_qo_snapshot(qo_snapshot(ch, x))
        if self.kind == "decay":
            kappa = self.param("kappa", 1.0)
            return ChannelMatrix.from_kraus(decay_kraus(decay_gamma(kappa * x)))
        raise ValidationError(f"unknown channel kind {self.kind!r}")

    def fixed_matrix(self) -> ChannelMatrix:
        """The channel at the axis value carried in the family's own parameters."""
        if self.is_pauli_family:
            return self.matrix(self.param("p"))
        if self.kind == "pauli":
            return self.matrix(0.0)
        return self.matrix(self.param("t"))
