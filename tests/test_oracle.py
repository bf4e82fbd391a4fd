import math

import numpy as np
import pytest

from qdeco import oracle
from qdeco.channels import (
    SIGMA,
    ChannelMatrix,
    QoChannel,
    decay_gamma,
    decay_kraus,
    named_channel,
    qo_snapshot,
)
from qdeco.errors import CapacityError, EvaluationError, ValidationError
from qdeco.graphs import Bipartition, graph_from_edges, make_lattice
from qdeco.numeric import partial_transpose as numeric_partial_transpose
from qdeco.oracle import (
    DenseState,
    apply_channels,
    apply_uniform_channel,
    dense_ghz,
    dense_graph_state,
    ghz_structure,
    graph_basis_diagonal,
    is_ppt_dense,
    lift_operator,
    partial_trace,
    partial_transpose,
    project_z,
    project_z_normalized,
    pt_min_eig,
    pt_spectrum_dense,
    purity,
    stabilizer_expectations,
)


def test_dense_cap_enforced():
    with pytest.raises(CapacityError):
        dense_ghz(9)
    with pytest.raises(CapacityError):
        dense_graph_state(make_lattice("ring", 9))


def test_graph_state_is_pure_and_stabilized():
    g = make_lattice("ring", 5)
    s = dense_graph_state(g)
    assert purity(s) == pytest.approx(1.0)
    assert np.allclose(stabilizer_expectations(s, g), 1.0, atol=1e-12)


def test_weighted_graph_state_breaks_stabilizers():
    g = graph_from_edges(3, [(0, 1), (1, 2)], weights={(0, 1): 1.0})
    s = dense_graph_state(g)
    assert purity(s) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        stabilizer_expectations(s, g)


def test_pi_phase_weights_equal_plain_graph_state():
    plain = make_lattice("line", 4)
    weighted = graph_from_edges(
        4, plain.edges(), weights={e: math.pi for e in plain.edges()}
    )
    assert np.allclose(
        dense_graph_state(plain).rho, dense_graph_state(weighted).rho, atol=1e-14
    )


def test_single_vertex_graph_state_is_plus():
    g = graph_from_edges(1, [])
    rho = dense_graph_state(g).rho
    assert np.allclose(rho, np.full((2, 2), 0.5), atol=1e-14)


def test_lift_operator_placement():
    z = np.diag([1.0, -1.0]).astype(complex)
    op = lift_operator(3, 1, z)
    # Little-endian: qubit 1 is bit 1 of the index.
    expected = np.diag([(-1.0) ** ((x >> 1) & 1) for x in range(8)])
    assert np.allclose(op, expected)
    with pytest.raises(ValidationError):
        lift_operator(3, 3, z)


def test_ghz_structure_of_clean_and_noisy_ghz():
    s = dense_ghz(4)
    lam, mu = ghz_structure(s)
    assert lam[0] == pytest.approx(0.5) and lam[4] == pytest.approx(0.5)
    assert np.allclose(lam[1:4], 0.0, atol=1e-12)
    assert mu == pytest.approx(0.5)

    noisy = apply_uniform_channel(
        s, ChannelMatrix.from_pauli(named_channel("depolarizing", 0.7))
    )
    lam2, mu2 = ghz_structure(noisy)
    assert sum(math.comb(4, k) * lam2[k] for k in range(5)) == pytest.approx(1.0)
    assert mu2 == pytest.approx(0.7**4 / 2)


def test_ghz_structure_rejects_non_ghz_diagonal():
    g = make_lattice("line", 3)
    with pytest.raises(EvaluationError):
        ghz_structure(dense_graph_state(g))


def test_apply_channels_needs_one_per_qubit():
    s = dense_ghz(3)
    ch = ChannelMatrix.from_pauli(named_channel("dephasing", 0.5))
    with pytest.raises(ValidationError):
        apply_channels(s, [ch])


def lifted_channels(rho, channels):
    """sum_ij p[i, j] sigma_i rho sigma_j per qubit, with each Pauli lifted
    to the full space by Kronecker products: the reference route."""
    n = len(channels)
    for k, ch in enumerate(channels):
        sig = [lift_operator(n, k, s) for s in SIGMA]
        rho = sum(ch.p[i, j] * (sig[i] @ rho @ sig[j]) for i in range(4) for j in range(4))
    return rho


def random_chi(rng):
    """A random Hermitian chi matrix, off-diagonal entries included, near the
    identity channel and trace preserving (sum_ij p[i, j] sigma_j sigma_i = 1),
    so that the output is a density matrix up to positivity."""
    a = 0.1 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    p = a + a.conj().T
    m = sum(p[i, j] * SIGMA[j] @ SIGMA[i] for i in range(4) for j in range(4))
    # m = c_0 + sum_k c_k sigma_k; p[0, 0] and p[0, k] = p[k, 0] carry each c.
    p[0, 0] -= np.trace(m).real / 2 - 1
    for k in range(1, 4):
        p[0, k] -= np.trace(SIGMA[k] @ m).real / 4
        p[k, 0] -= np.trace(SIGMA[k] @ m).real / 4
    return ChannelMatrix(p)


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_channels_matches_the_lifted_kronecker_route(n):
    rng = np.random.default_rng(n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    vec /= np.linalg.norm(vec)
    s = DenseState(n, np.outer(vec, vec.conj()))
    channels = [random_chi(rng) for _ in range(n)]
    assert any(np.any(ch.p - np.diag(np.diag(ch.p))) for ch in channels)
    out = apply_channels(s, channels).rho
    assert np.max(np.abs(out - lifted_channels(s.rho, channels))) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 6])
def test_apply_channels_on_qo_and_decay_matches_the_lifted_kronecker_route(n):
    # Both channels have off-diagonal Pauli matrices: qo's mu couples
    # sigma_0 with sigma_3 and sigma_1 with sigma_2, decay's Kraus operators
    # are not Pauli.
    qo = ChannelMatrix.from_qo_snapshot(qo_snapshot(QoChannel(1.0, 0.7, 0.2), 0.4))
    decay = ChannelMatrix.from_kraus(decay_kraus(decay_gamma(0.6)))
    for ch in (qo, decay):
        assert np.any(ch.p - np.diag(np.diag(ch.p)))
    s = dense_graph_state(make_lattice("line", n))
    channels = [(qo, decay)[k % 2] for k in range(n)]
    out = apply_channels(s, channels).rho
    assert np.max(np.abs(out - lifted_channels(s.rho, channels))) <= 1e-14


def looped_graph_basis_diagonal(s, g):
    """<U|rho|U>, one basis vector sigma_z^U |G> at a time."""
    vec = oracle._graph_state_vector(g)
    lam = np.empty(s.dim)
    for u in range(s.dim):
        basis = np.array([(-1.0) ** (x & u).bit_count() for x in range(s.dim)]) * vec
        lam[u] = np.real(basis.conj() @ s.rho @ basis)
    return lam


@pytest.mark.parametrize(
    "g",
    [
        make_lattice("ring", 5),
        make_lattice("star", 4),
        graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                         weights={(0, 1): 0.7, (1, 2): 2.1, (2, 3): math.pi, (0, 3): 0.3}),
    ],
    ids=["ring5", "star4", "weighted4"],
)
def test_graph_basis_diagonal_matches_the_basis_state_loop(g):
    rng = np.random.default_rng(g.n)
    s = apply_channels(dense_graph_state(g), [random_chi(rng) for _ in range(g.n)])
    lam = graph_basis_diagonal(s, g)
    assert np.max(np.abs(lam - looped_graph_basis_diagonal(s, g))) <= 1e-14


def test_graph_basis_diagonal_of_pure_state_is_delta():
    g = make_lattice("ring", 4)
    lam = graph_basis_diagonal(dense_graph_state(g), g)
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.allclose(lam, expected, atol=1e-12)


def test_graph_basis_diagonal_sums_to_one_after_noise():
    g = make_lattice("line", 3)
    s = apply_uniform_channel(
        dense_graph_state(g),
        ChannelMatrix.from_pauli(named_channel("depolarizing", 0.6)),
    )
    lam = graph_basis_diagonal(s, g)
    assert np.all(lam >= -1e-12)
    assert np.sum(lam) == pytest.approx(1.0)


def test_partial_transpose_bell_pair():
    g = make_lattice("line", 2)
    s = dense_graph_state(g)
    part = Bipartition(0b01, 2)
    eigs = pt_spectrum_dense(s, part)
    assert np.allclose(np.sort(eigs), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert pt_min_eig(s, part) == pytest.approx(-0.5)
    assert not is_ppt_dense(s, part)
    # Transposing either side gives the same spectrum.
    other = pt_spectrum_dense(s, Bipartition(0b10, 2))
    assert np.allclose(np.sort(other), np.sort(eigs), atol=1e-12)


def test_partial_transpose_is_involution_and_trace_preserving():
    g = make_lattice("ring", 4)
    s = apply_uniform_channel(
        dense_graph_state(g),
        ChannelMatrix.from_pauli(named_channel("depolarizing", 0.8)),
    )
    part = Bipartition(0b0101, 4)
    pt = partial_transpose(s, part)
    assert np.trace(pt) == pytest.approx(1.0)
    back = partial_transpose(DenseState(4, pt), part)
    assert np.allclose(back, s.rho, atol=1e-14)

    # Entrywise definition with qubit k on bit k:
    # <i|rho^{T_A}|j> = rho[(i & ~a) | (j & a), (j & ~a) | (i & a)].
    rng = np.random.default_rng(4)
    cases = [(n, a) for n in (1, 2, 3) for a in range(1 << n)] + [(4, 0b0011)]
    for n, a in cases:
        dim = 1 << n
        rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        expected = np.array(
            [
                [rho[(i & ~a) | (j & a), (j & ~a) | (i & a)] for j in range(dim)]
                for i in range(dim)
            ]
        )
        assert np.array_equal(numeric_partial_transpose(rho, a), expected), (n, a)


def test_partial_trace_of_ghz_is_classical_mixture():
    s = dense_ghz(4)
    red = partial_trace(s, keep_mask=0b0011)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(red.rho, expected, atol=1e-12)


def test_partial_trace_complement_consistency():
    g = make_lattice("line", 4)
    s = apply_uniform_channel(
        dense_graph_state(g),
        ChannelMatrix.from_pauli(named_channel("depolarizing", 0.7)),
    )
    a = partial_trace(s, 0b0011)
    assert np.trace(a.rho) == pytest.approx(1.0)
    assert a.n == 2
    # Keeping every qubit is a no-op; empty or out-of-range masks are not.
    assert np.allclose(partial_trace(s, 0b1111).rho, s.rho, atol=1e-14)
    with pytest.raises(ValidationError):
        partial_trace(s, 0)
    with pytest.raises(ValidationError):
        partial_trace(s, 1 << 5)


def test_projection_probabilities_sum_to_one():
    g = make_lattice("ring", 3)
    s = dense_graph_state(g)
    _, p0 = project_z(s, 1, 0)
    _, p1 = project_z(s, 1, 1)
    assert p0 + p1 == pytest.approx(1.0)
    norm = project_z_normalized(s, 1, 0)
    assert np.trace(norm.rho) == pytest.approx(1.0)
    assert purity(norm) == pytest.approx(1.0)  # graph states collapse to pure


def test_projecting_all_but_two_keeps_positivity():
    g = make_lattice("ring", 5)
    s = apply_uniform_channel(
        dense_graph_state(g),
        ChannelMatrix.from_pauli(named_channel("depolarizing", 0.9)),
    )
    for q in (2, 3, 4):
        s = project_z_normalized(s, q, 0)
    red = partial_trace(s, 0b00011)
    eigs = np.linalg.eigvalsh(red.rho)
    assert eigs.min() > -1e-12
    assert np.trace(red.rho) == pytest.approx(1.0)
