"""Dense density-matrix reference implementation.

Exact ground truth for small systems (n <= 8): state construction, channel
application, measurement, partial trace, partial transpose, spectra.  Every
fast formula elsewhere in the package is validated against this module.

Qubit k corresponds to bit k of the computational-basis index (so subset
masks from `graphs` index basis states directly).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import numeric
from .channels import SIGMA, ChannelMatrix
from .errors import CapacityError, EvaluationError, ValidationError
from .graphs import Bipartition, Graph, neighborhood, spread_bits
from .numeric import DEFAULT_TOL, hermitian_spectrum, min_eig

DENSE_CAP = 8


class DenseState(namedtuple("DenseState", "n rho")):
    __slots__ = ()

    def __new__(cls, n: int, rho: np.ndarray) -> DenseState:
        if n > DENSE_CAP:
            raise CapacityError(f"dense oracle capped at {DENSE_CAP} qubits")
        dim = 1 << n
        if rho.shape != (dim, dim):
            raise ValidationError(f"density matrix shape {rho.shape} != {dim}")
        if not np.allclose(rho, rho.conj().T, atol=1e-10):
            raise ValidationError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValidationError("density matrix trace is not 1")
        return super().__new__(cls, n, rho)

    @property
    def dim(self) -> int:
        return 1 << self.n


def _pure(n: int, vec: np.ndarray) -> DenseState:
    return DenseState(n, np.outer(vec, vec.conj()))


def dense_graph_state(g: Graph) -> DenseState:
    """|+>^n with a controlled-phase(phi) applied along every edge."""
    if g.n > DENSE_CAP:
        raise CapacityError(f"dense oracle capped at {DENSE_CAP} qubits")
    return _pure(g.n, _graph_state_vector(g))


def dense_ghz(n: int) -> DenseState:
    if n > DENSE_CAP:
        raise CapacityError(f"dense oracle capped at {DENSE_CAP} qubits")
    if n < 1:
        raise ValidationError("need at least one qubit")
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = vec[-1] = 1 / math.sqrt(2)
    return _pure(n, vec)


def lift_operator(n: int, k: int, op: np.ndarray) -> np.ndarray:
    """Embed a single-qubit operator as acting on qubit k of n."""
    if not 0 <= k < n:
        raise ValidationError(f"qubit {k} out of range for n={n}")
    out = np.eye(1, dtype=complex)
    for j in range(n - 1, -1, -1):
        out = np.kron(out, op if j == k else np.eye(2))
    return out


def apply_channels(s: DenseState, channels: list[ChannelMatrix]) -> DenseState:
    """Apply one single-qubit channel to each qubit in turn."""
    if len(channels) != s.n:
        raise ValidationError(f"need {s.n} channels, got {len(channels)}")
    # rho as a tensor with one row and one column axis per qubit; qubit k is
    # bit k of the index, so its axes are n-1-k (row) and 2n-1-k (column).
    # Moved last, they index the row-major vec(rho_k) = rho_k[a, b] at
    # 2a + b of each 2x2 block, on which to_superop acts.
    n = s.n
    rho = s.rho.reshape((2,) * (2 * n))
    superops = {}
    for k, ch in enumerate(channels):
        if id(ch) not in superops:
            superops[id(ch)] = ch.to_superop().T
        axes = (n - 1 - k, 2 * n - 1 - k)
        blocks = np.moveaxis(rho, axes, (-2, -1))
        out = blocks.reshape(-1, 4) @ superops[id(ch)]
        rho = np.moveaxis(out.reshape(blocks.shape), (-2, -1), axes)
    return DenseState(n, rho.reshape(1 << n, 1 << n))


def apply_uniform_channel(s: DenseState, ch: ChannelMatrix) -> DenseState:
    return apply_channels(s, [ch] * s.n)


def partial_transpose(s: DenseState, part: Bipartition) -> np.ndarray:
    """Transpose the subsystem selected by the partition's A mask."""
    if part.n != s.n:
        raise ValidationError("partition size does not match state")
    return numeric.partial_transpose(s.rho, part.a_mask)


def pt_min_eig(s: DenseState, part: Bipartition) -> float:
    return min_eig(partial_transpose(s, part))


def pt_spectrum_dense(s: DenseState, part: Bipartition) -> np.ndarray:
    return hermitian_spectrum(partial_transpose(s, part))


def is_ppt_dense(s: DenseState, part: Bipartition) -> bool:
    return pt_min_eig(s, part) >= DEFAULT_TOL.eig_floor(s.dim)


def partial_trace(s: DenseState, keep_mask: int) -> DenseState:
    if keep_mask <= 0 or keep_mask >= s.dim:
        raise ValidationError("keep mask must select a proper nonempty subset")
    n_keep = keep_mask.bit_count()
    drop_mask = (s.dim - 1) ^ keep_mask
    keep_idx = [spread_bits(i, keep_mask) for i in range(1 << n_keep)]
    drop_idx = [spread_bits(e, drop_mask) for e in range(1 << (s.n - n_keep))]
    out = np.zeros((1 << n_keep, 1 << n_keep), dtype=complex)
    for a, xa in enumerate(keep_idx):
        for b, xb in enumerate(keep_idx):
            out[a, b] = sum(s.rho[xa | e, xb | e] for e in drop_idx)
    return DenseState(n_keep, out)


def project_z(s: DenseState, qubit: int, outcome: int) -> tuple[np.ndarray, float]:
    """Project qubit onto |outcome>; returns (unnormalized rho, probability)."""
    if outcome not in (0, 1):
        raise ValidationError("outcome must be 0 or 1")
    if not 0 <= qubit < s.n:
        raise ValidationError(f"qubit {qubit} out of range")
    idx = np.arange(s.dim)
    sel = ((idx >> qubit) & 1) == outcome
    rho = np.where(sel[:, None] & sel[None, :], s.rho, 0.0)
    return rho, float(np.trace(rho).real)


def project_z_normalized(s: DenseState, qubit: int, outcome: int) -> DenseState:
    rho, prob = project_z(s, qubit, outcome)
    if prob < 1e-14:
        raise EvaluationError(f"measurement branch has probability {prob}")
    return DenseState(s.n, rho / prob)


def stabilizer_expectations(s: DenseState, g: Graph) -> np.ndarray:
    """<sigma_x^(k) prod_{j in N_k} sigma_z^(j)> for each vertex k."""
    if g.is_weighted:
        raise ValidationError("stabilizers are defined for unweighted graphs only")
    vals = np.empty(g.n)
    for k in range(g.n):
        op = lift_operator(g.n, k, SIGMA[1])
        nbrs = neighborhood(g, k)
        for j in range(g.n):
            if nbrs >> j & 1:
                op = op @ lift_operator(g.n, j, SIGMA[3])
        vals[k] = np.trace(op @ s.rho).real
    return vals


def _graph_state_vector(g: Graph) -> np.ndarray:
    dim = 1 << g.n
    vec = np.full(dim, dim ** -0.5, dtype=complex)
    idx = np.arange(dim)
    for u, v in g.edges():
        both = (idx >> u & 1) & (idx >> v & 1)
        vec[both == 1] *= np.exp(1j * g.phase(u, v))
    return vec


def graph_basis_diagonal(s: DenseState, g: Graph) -> np.ndarray:
    """<U|rho|U> over the graph-state basis |U> = sigma_z^U |G>.

    |U> has entries (-1)^|x & U| <x|G>, and the signs (-1)^|x & U| are the
    Sylvester-Hadamard matrix of order 2^n, so the basis vectors are the
    rows of one matrix and the weights one product with rho.
    """
    signs = np.ones((1, 1))
    for _ in range(g.n):
        signs = np.block([[signs, signs], [signs, -signs]])
    basis = signs * _graph_state_vector(g)
    return np.einsum("ux,ux->u", basis.conj() @ s.rho, basis).real


def ghz_structure(s: DenseState, atol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Extract (lambda_k by excitation count, mu) from a GHZ-diagonal state.

    Raises when off-diagonal weight exists outside the two corners or the
    diagonal is not constant within each excitation-count class.
    """
    rho = s.rho
    off = rho.copy()
    np.fill_diagonal(off, 0.0)
    off[0, -1] = off[-1, 0] = 0.0
    if np.max(np.abs(off)) > atol:
        raise EvaluationError("state is not GHZ-diagonal (stray off-diagonals)")
    diag = np.diag(rho).real
    counts = np.array([x.bit_count() for x in range(s.dim)])
    lam = np.empty(s.n + 1)
    for k in range(s.n + 1):
        vals = diag[counts == k]
        if np.max(vals) - np.min(vals) > atol:
            raise EvaluationError(f"diagonal not constant on excitation class {k}")
        lam[k] = vals.mean()
    mu = rho[0, -1]
    if abs(mu.imag) > atol or abs(mu - rho[-1, 0].conj()) > atol:
        raise EvaluationError("corner element is not real symmetric")
    return lam, float(mu.real)


def purity(s: DenseState) -> float:
    return float(np.trace(s.rho @ s.rho).real)
