import math
import random

import numpy as np
import pytest

from qdeco import isingsep

from qdeco.channels import ChannelFamily, minimal_dephasing_pauli, named_channel
from qdeco.errors import CapacityError, EvaluationError, ValidationError
from qdeco.graphs import degree, graph_from_edges, make_lattice
from qdeco.isingsep import (
    GATE_BRACKET,
    GATE_FLOOR,
    NoisyGateState,
    depolarizing_p_from_dephasing,
    graph_separability_threshold,
    native_parameter,
    weighted_gate_threshold,
    weighted_graph_threshold,
)
from qdeco.numeric import DEFAULT_TOL, bisect, hermitian_spectrum, partial_transpose

SQRT2M1 = math.sqrt(2.0) - 1.0
DEPOL = ChannelFamily.from_spec("depolarizing")
DEPHASING = ChannelFamily.from_spec("dephasing")
BITFLIP = ChannelFamily.from_spec("bitflip")


# --- Single-gate separability ---------------------------------------------------


def test_gate_state_is_a_valid_density_matrix():
    state = NoisyGateState(0.4, 0.7, 2.0)
    rho = state.matrix()
    assert np.allclose(rho, rho.conj().T)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert rho.shape == (4, 4)
    # psi psi^dagger damped by a positive definite mask: full rank for
    # p_z, q_z < 1.
    assert hermitian_spectrum(rho)[0] > 1e-3


def test_gate_state_validation():
    with pytest.raises(ValidationError):
        NoisyGateState(1.3, 0.5, math.pi)
    with pytest.raises(ValidationError):
        NoisyGateState(0.5, -0.2, math.pi)
    with pytest.raises(ValidationError):
        NoisyGateState(0.5, 0.5, 0.0)
    with pytest.raises(ValidationError):
        NoisyGateState(0.5, 0.5, 3.5)


def test_gate_separable_matches_pt_sign_at_full_phase():
    # The inequality and the explicit 4x4 PT must agree on a grid.  Off the
    # boundary the separable side is PPT with a margin (here at least 0.01),
    # so a small floor only absorbs rounding.
    for p_z in np.arange(0.05, 1.0, 0.1):
        for q_z in np.arange(0.05, 1.0, 0.1):
            state = NoisyGateState(float(p_z), float(q_z), math.pi)
            ppt = state.pt_min_eig() >= -2e-11
            assert ppt == ((1.0 + p_z) * (1.0 + q_z) <= 2.0)


def test_clean_gate_is_entangled_for_any_phase():
    for phi in (0.3, 1.0, 2.2, math.pi):
        assert NoisyGateState(1.0, 1.0, phi).pt_min_eig() < -1e-6


# --- Per-gate thresholds over phase and degrees -----------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_full_phase_threshold_closed_form(m):
    got = weighted_gate_threshold(math.pi, m, m)
    assert got == pytest.approx(SQRT2M1**m, abs=1e-8)


def test_threshold_validation():
    with pytest.raises(ValidationError):
        weighted_gate_threshold(math.pi, 0, 2)


def test_asymmetric_degrees_match_inequality_route():
    # Dual route: the 4x4 PT bisection against the closed inequality
    # (1 + x^(1/dk))(1 + x^(1/dl)) = 2 solved inside the unweighted report.
    g = make_lattice("line", 3)  # edge (0,1) has degrees (1, 2)
    report = graph_separability_threshold(g)
    by_edge = {(u, v): x for u, v, x in report.per_edge}
    assert weighted_gate_threshold(math.pi, 1, 2) == pytest.approx(
        by_edge[(0, 1)], abs=1e-8
    )


@pytest.mark.parametrize("spec", [("grid2d", 2, 3), ("ring", 5)], ids=str)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_gate_threshold_matches_scalar_bisection(monkeypatch, spec, seed):
    # Each pre-scan grid is one stack of gate states; bisecting the
    # one-state route point by point gives the same results bit for bit.
    g = make_lattice(*spec)
    rng = random.Random(seed)
    g = graph_from_edges(g.n, g.edges(), weights={e: rng.uniform(0.3, math.pi) for e in g.edges()})
    results = []
    lockstep = isingsep.bisect_lockstep

    def recording(*args, **kwargs):
        results.append(lockstep(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(isingsep, "bisect_lockstep", recording)
    floor = DEFAULT_TOL.eig_floor(16)
    for u, v in g.edges():
        phi = g.phase(u, v)
        dk, dl = sorted((degree(g, u), degree(g, v)))

        def gap(p_z):
            return NoisyGateState(p_z ** (1.0 / dk), p_z ** (1.0 / dl), phi).pt_min_eig() - floor

        expected = bisect(gap, GATE_BRACKET[0], GATE_BRACKET[1])
        got = weighted_gate_threshold(phi, dk, dl)
        assert results[-1] == [expected], (u, v)
        assert got == (expected.value if expected.sign_change_found else 1.0)


LOCKSTEP_GRAPHS = [("grid2d", 2, 3), ("ring", 5), ("grid2d", 3, 3), ("star", 6), ("line", 5)]


def seeded_phase_graph(spec, seed):
    g = make_lattice(*spec)
    rng = random.Random(seed)
    return graph_from_edges(g.n, g.edges(), weights={e: rng.uniform(0.3, math.pi) for e in g.edges()})


def scalar_gate_threshold(phi, dk, dl):
    """One scalar bisection of the one-state route, as weighted_gate_threshold reports it."""
    floor = DEFAULT_TOL.eig_floor(16)

    def gap(p_z):
        return NoisyGateState(p_z ** (1.0 / dk), p_z ** (1.0 / dl), phi).pt_min_eig() - floor

    r = bisect(gap, GATE_BRACKET[0], GATE_BRACKET[1])
    return r.value if r.sign_change_found else 1.0


@pytest.mark.parametrize("family", [DEPOL, DEPHASING, BITFLIP], ids=lambda f: f.kind)
def test_weighted_report_matches_edge_by_edge_scalar_bisection(family):
    # All distinct (phi, deg_k, deg_l) keys bisect in lockstep; each edge's
    # p_z equals the scalar bisection of its gate, bit for bit.
    for spec in LOCKSTEP_GRAPHS:
        for seed in (1, 2, 3, 4):
            g = seeded_phase_graph(spec, seed)
            expected = []
            for u, v in g.edges():
                dk, dl = sorted((degree(g, u), degree(g, v)))
                phi = g.phase(u, v)
                expected.append((u, v, phi, scalar_gate_threshold(phi, dk, dl)))
            report = weighted_graph_threshold(g, family)
            assert report.per_edge == tuple(expected), (spec, seed)
            worst = min(expected, key=lambda e: e[3])
            assert (report.p_z_threshold, report.critical_edge) == (worst[3], worst[:2])
            assert report.native_p == isingsep.native_parameter(family, worst[3])[0]


def test_gate_block_size_does_not_move_results(monkeypatch):
    # A block of one state evaluates every point alone; a block of 100
    # evaluates each gate's pre-scan grid (65 states) in one call and the
    # larger refinement rounds in pieces.
    gates = [(phi, dk, dl) for phi in (1e-12, 0.3, 1.0, 2.0, math.pi)
             for dk, dl in ((1, 1), (1, 3), (2, 2), (4, 5))]
    graphs = [seeded_phase_graph(spec, 5) for spec in LOCKSTEP_GRAPHS]
    default = isingsep.weighted_gate_thresholds(gates)
    reports = [weighted_graph_threshold(g, DEPOL) for g in graphs]
    assert default == [scalar_gate_threshold(*gate) for gate in gates]
    for block in (1, 100):
        monkeypatch.setattr(isingsep, "_GATE_BLOCK", block)
        assert isingsep.weighted_gate_thresholds(gates) == default, block
        assert [weighted_graph_threshold(g, DEPOL) for g in graphs] == reports, block


def test_gate_batch_raises_what_a_gate_by_gate_loop_raises(monkeypatch):
    gates = [(1.0, 2, 2), (0.5, 0, 2), (4.0, 1, 1)]
    for bad in ([(1.0, 2, 2), (4.0, 1, 1), (0.5, 0, 2)], gates, [(math.nan, 1, 1)]):
        with pytest.raises(ValidationError) as batch:
            isingsep.weighted_gate_thresholds(bad)
        with pytest.raises(ValidationError) as loop:
            for gate in bad:
                weighted_gate_threshold(*gate)
        assert str(batch.value) == str(loop.value)

    # A non-finite PT minimum met while refining.
    pt_min_eigs = isingsep._pt_min_eigs

    def poisoned(rho):
        low = pt_min_eigs(rho)
        return np.where((-1e-5 < low) & (low < -1e-7), math.nan, low)

    monkeypatch.setattr(isingsep, "_pt_min_eigs", poisoned)
    gates = [(0.3, 1, 1), (2.0, 2, 3), (math.pi, 1, 2)]
    with pytest.raises(EvaluationError) as batch:
        isingsep.weighted_gate_thresholds(gates)
    with pytest.raises(EvaluationError) as loop:
        for gate in gates:
            scalar_gate_threshold(*gate)
    assert (type(batch.value), str(batch.value)) == (type(loop.value), str(loop.value))


def test_stacked_gate_path_validates_every_point():
    outer = isingsep.gate_outer(1.0)
    with pytest.raises(ValidationError, match="q_z"):
        isingsep._gate_states(outer, np.array([0.5, 0.5]), np.array([0.5, 1.5]))
    with pytest.raises(ValidationError, match="p_z"):
        isingsep._gate_states(outer, np.array([math.nan, 0.5]), np.array([0.5, 0.5]))
    for phi in (0.0, -1.0, 3.5, math.nan):
        with pytest.raises(ValidationError, match="phase"):
            weighted_gate_threshold(phi, 1, 2)


def frame_weights(p_z, q_z):
    """lam = (1 +- p_z)(1 +- q_z)/4 over the frames (1, Z_l, Z_k, Z_k Z_l)."""
    return np.array([(1 + a * p_z) * (1 + b * q_z) / 4 for a in (1, -1) for b in (1, -1)])


def test_gate_matrix_is_the_frame_sum():
    # The damped gate state is the mixture of the pure one under the four
    # phase-flip frames, with the product weights lam.
    state = NoisyGateState(0.4, 0.7, 2.0)
    z_k = np.array([1.0, -1.0, 1.0, -1.0])
    z_l = np.array([1.0, 1.0, -1.0, -1.0])
    outer = isingsep.gate_outer(2.0)
    frames = (np.ones(4), z_l, z_k, z_k * z_l)
    expected = sum(w * np.outer(f, f) * outer for w, f in zip(frame_weights(0.4, 0.7), frames))
    assert np.abs(state.matrix() - expected).max() <= 1e-16
    stack = isingsep._gate_states(outer, np.array([0.4, 1.0]), np.array([0.7, 0.2]))
    assert np.array_equal(stack[0], state.matrix())


# --- Reference: the doubled 16x16 gate state --------------------------------------

# Each side of the doubled pair carries two qubits, logical |0> = |00> and
# |1> = |11>: side k is bits 0 and 1, side l bits 2 and 3, so the logical
# basis states are these four indices.
LOGICAL = [0b0000, 0b0011, 0b1100, 0b1111]
Z_K16 = np.array([-1.0 if (x >> 1) & 1 else 1.0 for x in range(16)])
Z_L16 = np.array([-1.0 if (x >> 3) & 1 else 1.0 for x in range(16)])
FRAMES16 = np.array([np.ones(16), Z_L16, Z_K16, Z_K16 * Z_L16])


def doubled_gate_matrix(p_z, q_z, phi):
    """sum_w lam_w |f_w b><f_w b| over the frames, b the doubled gate vector."""
    base = np.zeros(16, dtype=complex)
    base[LOGICAL] = 0.5
    base[0b1111] = 0.5 * np.exp(1j * phi)
    v = FRAMES16 * base
    outers = v[:, :, None] * v[:, None, :].conj()
    return np.dot(frame_weights(p_z, q_z), outers.reshape(4, 256)).reshape(16, 16)


def doubled_pt_min_eig(p_z, q_z, phi):
    rho = doubled_gate_matrix(p_z, q_z, phi)
    return float(hermitian_spectrum(partial_transpose(rho, 0b0011))[0])


@pytest.mark.parametrize("phi", [0.4, 2.0, math.pi])
def test_gate_matrix_is_the_logical_block_of_the_doubled_state(phi):
    for p_z, q_z in ((0.4, 0.7), (1.0, 0.2), (0.0, 1.0), (0.93, 0.93)):
        doubled = doubled_gate_matrix(p_z, q_z, phi)
        block = doubled[np.ix_(LOGICAL, LOGICAL)]
        assert np.abs(block - NoisyGateState(p_z, q_z, phi).matrix()).max() <= 1e-16
        off = np.ones((16, 16), dtype=bool)
        off[np.ix_(LOGICAL, LOGICAL)] = False
        assert not doubled[off].any()


@pytest.mark.parametrize("degrees", [(1, 1), (1, 2), (2, 2), (1, 4), (3, 5)], ids=str)
def test_gate_threshold_equals_the_doubled_state_bisection(degrees):
    # The 4x4 route gives the root of the doubled 16x16 PT bisection bit
    # for bit, under the same 16-dimensional floor.
    dk, dl = degrees
    floor = DEFAULT_TOL.eig_floor(16)
    for phi in (1e-12, 1e-9, 0.05, 0.3, 1.0, 1.7, 2.5, 3.0, math.pi):

        def gap(p_z):
            return doubled_pt_min_eig(p_z ** (1.0 / dk), p_z ** (1.0 / dl), phi) - floor

        expected = bisect(gap, GATE_BRACKET[0], GATE_BRACKET[1])
        want = expected.value if expected.sign_change_found else 1.0
        assert weighted_gate_threshold(phi, dk, dl) == want, phi


def test_gate_floor_is_the_16_dimensional_eigenvalue_floor():
    assert GATE_FLOOR == DEFAULT_TOL.eig_floor(16)


# The floor guards the gate root against eigvalsh round-off near phi = 0,
# where the PT gap is as small as the round-off itself.  With a zero floor
# these roots become noise: phi = 1e-15 at degrees (1, 4) finds a root at
# 1 - 1.2e-8, and phi = 1e-8 lands 7.8e-9 off its true root.
@pytest.mark.parametrize("degrees", [(1, 1), (2, 2), (1, 4), (3, 5)], ids=str)
@pytest.mark.parametrize("phi", [1e-15, 1e-12])
def test_tiny_phase_gate_never_separates_in_the_bracket(phi, degrees):
    assert weighted_gate_threshold(phi, *degrees) == 1.0


@pytest.mark.parametrize(
    "gates", [[(3.0, 30, 30)], [(3.1, 30, 30)], [(math.pi, 2, 2), (3.0, 30, 30)]]
)
def test_gate_entangled_across_the_bracket_raises(gates):
    # Its root lies below GATE_BRACKET; 1.0 would call it separable at every p.
    with pytest.raises(CapacityError, match=r"phase-3\.\d gate between degrees 30 and 30"):
        isingsep.weighted_gate_thresholds(gates)


def test_weighted_graph_entangled_across_the_bracket_raises():
    edges = [(u, v) for u in range(31) for v in range(u + 1, 31)]
    g = graph_from_edges(31, edges, weights={e: 3.0 for e in edges})
    with pytest.raises(CapacityError):
        weighted_graph_threshold(g, DEPOL)


def test_small_phase_gate_root_is_one_minus_half_the_phase():
    # The PT gap of a phase-phi gate closes at p_z = 1 - phi/2 to first order.
    assert abs(weighted_gate_threshold(1e-8, 1, 1) - (1.0 - 5e-9)) <= 1e-9


def test_weaker_phase_tolerates_more_dephasing():
    values = [weighted_gate_threshold(phi, 1, 1) for phi in (math.pi, 2.5, 1.8, 1.0)]
    assert all(b > a + 1e-6 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(SQRT2M1, abs=1e-8)


# --- Unweighted graph reports ------------------------------------------------------


def test_ring_threshold_is_the_squared_closed_form():
    report = graph_separability_threshold(make_lattice("ring", 6))
    assert report.p_threshold == pytest.approx(SQRT2M1**2, abs=1e-9)
    assert report.weak_bound == pytest.approx(SQRT2M1**2, abs=1e-15)
    assert report.kt_threshold == pytest.approx(-math.log(SQRT2M1**2), abs=1e-7)
    assert all(x == pytest.approx(SQRT2M1**2, abs=1e-9) for _, _, x in report.per_edge)


def test_star_report_and_weak_bound_ordering():
    report = graph_separability_threshold(make_lattice("star", 4))
    # Max degree 3: the closed form is (sqrt(2)-1)^3, strictly weaker than
    # the per-edge root of (1 + x^(1/3))(1 + x) = 2.
    assert report.weak_bound == pytest.approx(SQRT2M1**3, abs=1e-15)
    assert report.p_threshold > report.weak_bound + 1e-3
    x = report.p_threshold
    assert (1.0 + x ** (1.0 / 3.0)) * (1.0 + x) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("d", [20, 25, 28, 30, 35, 40, 60])
def test_complete_graph_threshold_is_the_closed_form_at_high_degree(d):
    # The root (sqrt(2) - 1)^d falls below 1e-10 at d = 27 and below 1e-15
    # at d = 40: the bisection must not run on the p_z axis itself.
    report = graph_separability_threshold(make_lattice("complete", d + 1))
    assert report.p_threshold == pytest.approx(SQRT2M1**d, rel=1e-8)


def test_every_degree_pair_up_to_30_brackets_its_root():
    def gap(x, dk, dl):
        return (1.0 + x ** (1.0 / dk)) * (1.0 + x ** (1.0 / dl)) - 2.0

    for dk in range(1, 31):
        for dl in range(dk, 31):
            x = isingsep._edge_dephasing_threshold(dk, dl, DEFAULT_TOL)
            assert gap(x * (1.0 - 1e-8), dk, dl) < 0.0 < gap(x * (1.0 + 1e-8), dk, dl), (dk, dl)


def test_unweighted_report_rejects_bad_graphs():
    wg = graph_from_edges(2, [(0, 1)], weights={(0, 1): 2.0})
    with pytest.raises(ValidationError):
        graph_separability_threshold(wg)
    with pytest.raises(ValidationError):
        graph_separability_threshold(graph_from_edges(2, []))


# --- Weighted graph reports and native-parameter mapping ----------------------------


def test_weighted_report_at_full_phase_matches_unweighted_route():
    for lattice, args in (("line", (3,)), ("ring", (4,))):
        g = make_lattice(lattice, *args)
        unweighted = graph_separability_threshold(g)
        weighted = weighted_graph_threshold(g, DEPOL)
        assert weighted.p_z_threshold == pytest.approx(
            unweighted.p_threshold, abs=1e-8
        )


def test_depolarizing_native_parameter_is_the_closed_inverse():
    report = weighted_graph_threshold(make_lattice("ring", 4), DEPOL)
    assert report.applicable
    assert report.native_p == depolarizing_p_from_dephasing(report.p_z_threshold)
    # The fully-separable region sits strictly inside the EB region p <= 1/3.
    assert report.native_p < 1.0 / 3.0
    assert report.kt_threshold == pytest.approx(-math.log(report.native_p), abs=1e-12)


def test_dephasing_native_parameter_is_the_dephasing_level_itself():
    report = weighted_graph_threshold(make_lattice("ring", 4), DEPHASING)
    assert report.applicable
    assert report.native_p == report.p_z_threshold
    for p_z in (7.93e-12, 1e-300, 0.171572875265, 1.0):
        assert native_parameter(DEPHASING, p_z) == (p_z, "")


def test_depolarizing_inverse_round_trips_through_extraction():
    for p in (0.1, 0.3, 0.6):
        p_z = minimal_dephasing_pauli(named_channel("depolarizing", p))
        assert depolarizing_p_from_dephasing(p_z) == pytest.approx(p, abs=1e-12)
    with pytest.raises(ValidationError):
        depolarizing_p_from_dephasing(1.5)


def test_bitflip_family_is_reported_inapplicable():
    report = weighted_graph_threshold(make_lattice("ring", 4), BITFLIP)
    assert not report.applicable
    assert report.native_p is None
    assert "bitflip" in report.note
    with pytest.raises(ValidationError):
        report.kt_threshold


def test_non_pauli_family_is_reported_inapplicable():
    qo = ChannelFamily.from_spec({"kind": "qo", "B": 1.0, "C": 0.6, "s": 0.4})
    report = weighted_graph_threshold(make_lattice("ring", 4), qo)
    assert not report.applicable and report.native_p is None


def test_mixed_phase_graph_critical_edge_is_the_strongest_gate():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    weights = {(0, 1): math.pi, (1, 2): 2.0, (2, 3): 1.2, (0, 3): 2.8}
    g = graph_from_edges(4, edges, weights=weights)
    report = weighted_graph_threshold(g, DEPOL)
    by_edge = {(u, v): p for u, v, _, p in report.per_edge}
    assert report.critical_edge == (0, 1)
    assert report.p_z_threshold == by_edge[(0, 1)]
    # Thresholds grow as the gate phase weakens.
    assert by_edge[(0, 1)] < by_edge[(0, 3)] < by_edge[(1, 2)] < by_edge[(2, 3)]


def test_weighted_report_rejects_edgeless_graph():
    with pytest.raises(ValidationError):
        weighted_graph_threshold(graph_from_edges(3, []), DEPOL)
