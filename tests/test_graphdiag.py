import math
import random

import numpy as np
import pytest

from qdeco.channels import ChannelFamily, ChannelMatrix, PauliChannel, named_channel
from qdeco.cli import random_connected_graph, random_pauli_channel
from qdeco.errors import CapacityError, ValidationError
from qdeco.graphdiag import (
    NPT_VERDICT,
    GraphDiagonalState,
    PtSpectrum,
    dephasing_p_from_q,
    depol_p_from_q,
    estimate_bound_dephasing,
    estimate_bound_pair,
    estimate_bound_single,
    estimate_threshold_dephasing,
    estimate_threshold_pair,
    estimate_threshold_single,
    graph_diagonal_from_lambda,
    lambda_direct,
    lambda_estimation_check,
    lambda_from_pauli,
    partition_transform,
    pauli_q,
    pt_spectrum,
    scan_partitions,
)
from qdeco.graphs import Bipartition, bipartitions, graph_from_edges, make_lattice, neighborhood
from qdeco.numeric import Tolerance
from qdeco.oracle import (
    apply_uniform_channel,
    dense_graph_state,
    graph_basis_diagonal,
    pt_spectrum_dense,
)

DEPOL = ChannelFamily.from_spec("depolarizing")
DEPHASING = ChannelFamily.from_spec("dephasing")


def noisy_weights(g, ch):
    """Dense-route weights: build the state, apply the channel, read the diagonal."""
    noisy = apply_uniform_channel(dense_graph_state(g), ChannelMatrix.from_pauli(ch))
    return graph_basis_diagonal(noisy, g)


# --- Weight propagation: fast route vs direct sum vs dense oracle -----------


@pytest.mark.parametrize("seed", range(6))
def test_lambda_three_routes_agree(seed):
    rng = random.Random(900 + seed)
    g = random_connected_graph(rng, rng.randint(2, 6))
    ch = random_pauli_channel(rng)
    fast = lambda_from_pauli(g, ch).lam
    direct = np.array([lambda_direct(g, ch, u) for u in range(1 << g.n)])
    dense = noisy_weights(g, ch)
    assert np.allclose(fast, direct, atol=1e-10)
    assert np.allclose(fast, dense, atol=1e-10)


def test_lambda_clean_state_is_delta():
    g = make_lattice("ring", 5)
    lam = lambda_from_pauli(g, named_channel("depolarizing", 1.0)).lam
    expect = np.zeros(32)
    expect[0] = 1.0
    assert np.allclose(lam, expect)


def test_lambda_fully_depolarized_is_uniform():
    g = make_lattice("line", 4)
    lam = lambda_from_pauli(g, named_channel("depolarizing", 0.0)).lam
    assert np.allclose(lam, np.full(16, 1 / 16))


def test_dephasing_weights_factor_as_ratio_powers():
    # Dephasing never toggles neighbour sets, so lam[U] = p0^(n-|U|) p3^|U|.
    g = make_lattice("ring", 6)
    p = 0.37
    ch = named_channel("dephasing", p)
    p0, _, _, p3 = ch.probs
    lam = lambda_from_pauli(g, ch).lam
    expect = np.array(
        [p0 ** (6 - bin(u).count("1")) * p3 ** bin(u).count("1") for u in range(64)]
    )
    assert np.allclose(lam, expect, atol=1e-14)


def test_lambda_rejects_weighted_graph_and_caps():
    wg = graph_from_edges(2, [(0, 1)], weights={(0, 1): 1.0})
    with pytest.raises(ValidationError):
        lambda_from_pauli(wg, named_channel("depolarizing", 0.5))
    with pytest.raises(ValidationError):
        lambda_direct(wg, named_channel("depolarizing", 0.5), 0)
    big = make_lattice("ring", 21)
    with pytest.raises(CapacityError):
        lambda_from_pauli(big, named_channel("depolarizing", 0.5))
    with pytest.raises(CapacityError):
        lambda_direct(make_lattice("ring", 15), named_channel("depolarizing", 0.5), 0)


def test_lambda_direct_needs_positive_identity_weight():
    g = make_lattice("line", 3)
    with pytest.raises(ValidationError):
        lambda_direct(g, PauliChannel(0.0, 0.5, 0.25, 0.25), 0)
    with pytest.raises(ValidationError):
        lambda_direct(g, named_channel("depolarizing", 0.5), 1 << 3)


def test_state_validation():
    g = make_lattice("line", 2)
    with pytest.raises(ValidationError):
        GraphDiagonalState(g, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValidationError):
        GraphDiagonalState(g, np.array([0.7, 0.4, -0.1, 0.0]))
    with pytest.raises(ValidationError):
        GraphDiagonalState(g, np.array([0.7, 0.4, 0.1, 0.0]))  # sums to 1.2
    s = graph_diagonal_from_lambda(g, [0.7, 0.1, 0.1, 0.1])
    assert s.n == 2


# --- Partial-transpose spectra vs the dense oracle ---------------------------


@pytest.mark.parametrize("seed", range(8))
def test_pt_spectrum_matches_dense(seed):
    rng = random.Random(1700 + seed)
    g = random_connected_graph(rng, rng.randint(2, 6))
    ch = random_pauli_channel(rng)
    part = Bipartition(rng.randint(1, (1 << g.n) - 2), g.n)
    state = lambda_from_pauli(g, ch)
    spec = pt_spectrum(state, part)
    noisy = apply_uniform_channel(dense_graph_state(g), ChannelMatrix.from_pauli(ch))
    dense = pt_spectrum_dense(noisy, part)
    assert np.allclose(np.sort(spec.lam_prime), np.sort(dense), atol=1e-9)
    assert spec.min_value == pytest.approx(dense.min(), abs=1e-9)


def test_pt_spectrum_same_for_side_and_complement():
    g = make_lattice("grid2d", 3, 2)
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.8))
    for a_mask in (0b000001, 0b001011, 0b011110):
        part = Bipartition(a_mask, g.n)
        co = Bipartition(part.complement_mask, g.n)
        assert np.allclose(
            np.sort(pt_spectrum(state, part).lam_prime),
            np.sort(pt_spectrum(state, co).lam_prime),
            atol=1e-12,
        )


def test_pt_preserves_trace_and_clean_state_min():
    g = make_lattice("ring", 6)
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.9))
    for part in bipartitions(g):
        spec = pt_spectrum(state, part)
        assert spec.lam_prime.sum() == pytest.approx(1.0, abs=1e-12)


def test_pt_transform_reuse_and_mismatch():
    g = make_lattice("ring", 4)
    part = Bipartition(0b0011, 4)
    other = Bipartition(0b0101, 4)
    tr = partition_transform(g, part)
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.7))
    direct = pt_spectrum(state, part)
    reused = pt_spectrum(state, part, transform=tr)
    assert np.array_equal(direct.lam_prime, reused.lam_prime)
    with pytest.raises(ValidationError):
        pt_spectrum(state, other, transform=tr)
    with pytest.raises(ValidationError):
        partition_transform(g, Bipartition(0b001, 3))


def _one_vertex_formula(lam, k, nk):
    """Paper's A = {k}: 1/2 (lam[U] + lam[U+N_k] + lam[U+k] - lam[U+N_k+k])."""
    idx = np.arange(lam.shape[0])
    kb = 1 << k
    return 0.5 * (lam + lam[idx ^ nk] + lam[idx ^ kb] - lam[idx ^ (nk | kb)])


def _two_vertex_formula(lam, k, l, nk, nl):
    """Paper's A = {k, l} with outside neighbourhoods n_k = N_k - A, n_l = N_l - A
    nonzero and distinct: a quarter of ten added and six subtracted shifts."""
    idx = np.arange(lam.shape[0])
    kb, lb = 1 << k, 1 << l
    plus = [0, nk, nl, nk ^ nl, kb, kb | nl, lb, lb | nk, kb | lb, kb | lb | (nk ^ nl)]
    minus = [kb | nk, kb | (nk ^ nl), lb | nl, lb | (nk ^ nl), kb | lb | nk, kb | lb | nl]
    return 0.25 * (sum(lam[idx ^ m] for m in plus) - sum(lam[idx ^ m] for m in minus))


def test_single_vertex_closed_form_matches_general():
    g = make_lattice("grid2d", 3, 2)
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.75))
    for k in range(g.n):
        spec = pt_spectrum(state, Bipartition(1 << k, g.n))
        expected = _one_vertex_formula(state.lam, k, neighborhood(g, k))
        assert np.allclose(spec.lam_prime, expected, atol=1e-12)


def test_single_vertex_isolated_falls_back():
    # An isolated vertex can never make the split NPT: its PT is the identity.
    g = graph_from_edges(3, [(0, 1)])
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.6))
    spec = pt_spectrum(state, Bipartition(0b100, 3))
    assert np.array_equal(spec.lam_prime, state.lam)
    assert spec.min_value >= 0.0


def test_two_vertex_closed_form_matches_general():
    g = make_lattice("ring", 6)
    state = lambda_from_pauli(g, random_pauli_channel(random.Random(5)))
    for k, l in [(0, 1), (0, 2), (0, 3), (2, 5)]:  # adjacent, distance 2 and 3
        a_mask = (1 << k) | (1 << l)
        nk = neighborhood(g, k) & ~a_mask
        nl = neighborhood(g, l) & ~a_mask
        spec = pt_spectrum(state, Bipartition(a_mask, g.n))
        expected = _two_vertex_formula(state.lam, k, l, nk, nl)
        assert np.allclose(spec.lam_prime, expected, atol=1e-12)


def test_two_vertex_rank_deficient_falls_back():
    # Both leaves of a star see only the centre (n_k == n_l), so the
    # two-vertex formula does not apply; the block has rank one and the
    # gather still matches the dense oracle.
    g = make_lattice("star", 4)
    ch = named_channel("depolarizing", 0.8)
    part = Bipartition(0b0110, 4)
    assert partition_transform(g, part).rank == 1
    dense = apply_uniform_channel(dense_graph_state(g), ChannelMatrix.from_pauli(ch))
    assert np.allclose(
        np.sort(pt_spectrum(lambda_from_pauli(g, ch), part).lam_prime),
        np.sort(pt_spectrum_dense(dense, part)),
        atol=1e-12,
    )


def test_pt_spectrum_argmin_and_is_ppt():
    g = make_lattice("ring", 4)
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.95))
    part = Bipartition(0b0001, 4)
    spec = pt_spectrum(state, part)
    assert spec.lam_prime[spec.argmin_mask] == spec.min_value
    assert not spec.is_ppt()
    mixed = lambda_from_pauli(g, named_channel("depolarizing", 0.01))
    assert pt_spectrum(mixed, part).is_ppt()


def test_pt_spectrum_trace_validation():
    g = make_lattice("line", 2)
    with pytest.raises(ValidationError):
        PtSpectrum(np.array([0.5, 0.2, 0.1, 0.1]), Bipartition(1, 2), 0.1)


def test_pt_spectrum_capacity():
    g = make_lattice("ring", 15)
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.5))
    with pytest.raises(CapacityError):
        pt_spectrum(state, Bipartition(1, 15))


# --- Weight-ratio PPT certificates -------------------------------------------


def dominant_identity_channel(rng):
    """Random strictly positive channel whose largest probability is p0."""
    ch = random_pauli_channel(rng)
    probs = sorted(ch.probs, reverse=True)
    return PauliChannel(*probs)


def test_sandwich_holds_for_identity_dominant_channels():
    rng = random.Random(31)
    for _ in range(5):
        g = random_connected_graph(rng, rng.randint(2, 6))
        ch = dominant_identity_channel(rng)
        state = lambda_from_pauli(g, ch)
        assert lambda_estimation_check(state, ch)


def test_sandwich_can_fail_when_identity_is_not_dominant():
    # The ratio q = min_i p_i/p0 only bounds weight shifts when p0 is the
    # largest probability; this channel has p2 > p0 and the check says no.
    g = make_lattice("ring", 5)
    ch = PauliChannel(0.2, 0.05, 0.7, 0.05)
    state = lambda_from_pauli(g, ch)
    assert not lambda_estimation_check(state, ch)


def test_sandwich_fails_for_mismatched_channel():
    # Check against a much cleaner channel than the one that made the state:
    # its ratio q is too close to 1 for the sandwich to hold.
    g = make_lattice("ring", 5)
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.9))
    assert not lambda_estimation_check(state, named_channel("depolarizing", 0.05))


def test_sandwich_capacity_and_q_validation():
    g = make_lattice("ring", 13)
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.5))
    with pytest.raises(CapacityError):
        lambda_estimation_check(state, named_channel("depolarizing", 0.5))
    with pytest.raises(ValidationError):
        pauli_q(named_channel("dephasing", 0.5))  # p1 = p2 = 0
    with pytest.raises(ValidationError):
        estimate_bound_single(0.0)
    with pytest.raises(ValidationError):
        estimate_bound_dephasing(0.5, 0)


def test_single_vertex_certificate_threshold_is_half():
    assert estimate_threshold_single() == 0.5
    assert estimate_bound_single(0.5)
    assert not estimate_bound_single(0.499)
    # q = 1/2 maps to depolarizing p = 1/5 exactly.
    assert depol_p_from_q(0.5) == pytest.approx(0.2, abs=1e-15)


def test_single_vertex_certificate_proves_ppt():
    # Any graph, any vertex: above the ratio threshold the split is PPT.
    rng = random.Random(77)
    p = depol_p_from_q(0.55)
    ch = named_channel("depolarizing", p)
    for _ in range(4):
        g = random_connected_graph(rng, rng.randint(2, 6))
        state = lambda_from_pauli(g, ch)
        for k in range(g.n):
            assert pt_spectrum(state, Bipartition(1 << k, g.n)).min_value >= -1e-12


def test_pair_certificate_threshold():
    res = estimate_threshold_pair()
    assert res.sign_change_found
    assert res.value == pytest.approx(0.845639, abs=5e-4)
    assert estimate_bound_pair(res.value + 1e-9)
    assert not estimate_bound_pair(res.value - 1e-6)
    assert depol_p_from_q(res.value) == pytest.approx(0.043642, abs=5e-4)


def test_pair_certificate_proves_ppt_for_two_vertex_splits():
    q = estimate_threshold_pair().value + 1e-6
    ch = named_channel("depolarizing", depol_p_from_q(q))
    g = make_lattice("grid2d", 3, 2)
    state = lambda_from_pauli(g, ch)
    for k in range(g.n):
        for l in range(k + 1, g.n):
            part = Bipartition((1 << k) | (1 << l), g.n)
            assert pt_spectrum(state, part).min_value >= -1e-12


def test_dephasing_certificate_threshold_degree_two():
    res = estimate_threshold_dephasing(2)
    assert res.value == pytest.approx(0.754878, abs=5e-4)
    assert dephasing_p_from_q(res.value) == pytest.approx(0.139680, abs=5e-4)
    assert estimate_bound_dephasing(res.value + 1e-9, 2)
    assert not estimate_bound_dephasing(res.value - 1e-6, 2)
    with pytest.raises(ValidationError):
        estimate_threshold_dephasing(0)


def test_dephasing_certificate_proves_ppt_on_ring():
    # Ring vertices all have degree 2.  Above the ratio threshold the
    # certificate guarantees PPT.  It is one-sided: the spectrum actually
    # flips near q = 0.5437 on the six-ring, well below the certified region.
    g = make_lattice("ring", 6)
    q_star = estimate_threshold_dephasing(2).value
    for q, expect_ppt in ((q_star + 1e-3, True), (0.545, True), (0.540, False)):
        state = lambda_from_pauli(g, named_channel("dephasing", dephasing_p_from_q(q)))
        mins = [pt_spectrum(state, Bipartition(1 << k, 6)).min_value for k in range(6)]
        if expect_ppt:
            assert min(mins) >= -1e-12
        else:
            assert min(mins) < 0.0
    assert q_star > 0.545


# --- Scanning every bipartition ----------------------------------------------


def test_scan_bell_pair_threshold():
    g = make_lattice("line", 2)
    report = scan_partitions(g, DEPOL)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.status == "threshold"
    assert entry.p_crit == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
    assert entry.kt_crit == pytest.approx(0.5 * math.log(3.0), abs=1e-9)
    assert report.first_ppt is entry and report.last_ppt is entry


def test_scan_ring6_structure():
    g = make_lattice("ring", 6)
    report = scan_partitions(g, DEPOL)
    assert len(report.entries) == 31
    assert all(e.status == "threshold" for e in report.entries)
    ps = [e.p_crit for e in report.entries]
    assert report.first_ppt.p_crit == pytest.approx(max(ps))
    assert report.last_ppt.p_crit == pytest.approx(min(ps))
    rows = report.rows()
    assert len(rows) == 31
    masks = [r[0] for r in rows]
    assert masks == sorted(masks)
    assert all(m % 2 == 0 for m in masks)  # vertex 0 stays on the complement side


def test_scan_thresholds_match_dense_flip():
    g = make_lattice("ring", 4)
    report = scan_partitions(g, DEPOL)
    ch_lo = ChannelMatrix.from_pauli(DEPOL.pauli(report.last_ppt.p_crit - 1e-4))
    ch_hi = ChannelMatrix.from_pauli(DEPOL.pauli(report.last_ppt.p_crit + 1e-4))
    part = report.last_ppt.partition
    lo = pt_spectrum_dense(apply_uniform_channel(dense_graph_state(g), ch_lo), part)
    hi = pt_spectrum_dense(apply_uniform_channel(dense_graph_state(g), ch_hi), part)
    assert lo.min() > -1e-9 and hi.min() < 0.0


def test_scan_jobs_determinism():
    g = make_lattice("ring", 5)
    serial = scan_partitions(g, DEPHASING, jobs=1)
    parallel = scan_partitions(g, DEPHASING, jobs=2)
    assert serial.rows() == parallel.rows()
    assert [e.argmin_mask for e in serial.entries] == [
        e.argmin_mask for e in parallel.entries
    ]


def test_scan_rejects_weighted_and_non_pauli():
    wg = graph_from_edges(3, [(0, 1), (1, 2)], weights={(0, 1): 2.0})
    with pytest.raises(ValidationError):
        scan_partitions(wg, DEPOL)
    qo = ChannelFamily.from_spec({"kind": "qo", "B": 1.0, "C": 0.6, "s": 0.4})
    with pytest.raises(ValidationError):
        scan_partitions(make_lattice("ring", 4), qo)


def test_scan_entry_fields_and_verdict_text():
    g = make_lattice("line", 3)
    report = scan_partitions(g, DEPOL, tol=Tolerance(abs_root=1e-12))
    for e in report.entries:
        state = lambda_from_pauli(g, DEPOL.pauli(e.p_crit + 1e-6))
        assert pt_spectrum(state, e.partition).min_value < 0.0
        assert e.iterations > 0
    assert "necessary" in NPT_VERDICT
