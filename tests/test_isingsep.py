import math
import random

import numpy as np
import pytest

from qdeco import isingsep

from qdeco.channels import ChannelFamily, minimal_dephasing_pauli, named_channel
from qdeco.errors import ValidationError
from qdeco.graphs import degree, graph_from_edges, make_lattice
from qdeco.isingsep import (
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
    """Smallest eigenvalue of the doubled PT on its support, the logical
    block; the twelve other eigenvalues are exact zeros."""
    rho = partial_transpose(doubled_gate_matrix(p_z, q_z, phi), 0b0011)
    return float(hermitian_spectrum(rho[np.ix_(LOGICAL, LOGICAL)])[0])


@pytest.mark.parametrize("phi", [0.4, 2.0, math.pi])
def test_gate_matrix_is_the_logical_block_of_the_doubled_state(phi):
    for p_z, q_z in ((0.4, 0.7), (1.0, 0.2), (0.0, 1.0), (0.93, 0.93)):
        doubled = doubled_gate_matrix(p_z, q_z, phi)
        block = doubled[np.ix_(LOGICAL, LOGICAL)]
        assert np.abs(block - NoisyGateState(p_z, q_z, phi).matrix()).max() <= 1e-16
        off = np.ones((16, 16), dtype=bool)
        off[np.ix_(LOGICAL, LOGICAL)] = False
        assert not doubled[off].any()


# --- The closed-form PT spectrum -------------------------------------------------


def closed_form_pt_spectrum(p, q, phi):
    """The four PT eigenvalues of the noisy gate state, ascending:
    (1 + pq +- |p + q e^(i phi)|) / 4 and (1 - pq +- |p - q e^(i phi)|) / 4."""
    plus, minus = abs(p + q * np.exp(1j * phi)), abs(p - q * np.exp(1j * phi))
    return np.sort([(1 + p * q + plus) / 4, (1 + p * q - plus) / 4,
                    (1 - p * q + minus) / 4, (1 - p * q - minus) / 4])


def test_pt_spectrum_is_the_closed_form():
    # The characteristic polynomial of the PT factors into two quadratics.
    # The doubled 16x16 state and its PT live on the four logical indices;
    # every other entry is zero.
    rng = np.random.default_rng(7)
    for p, q, phi in zip(rng.uniform(size=300), rng.uniform(size=300),
                         rng.uniform(0.0, math.pi, size=300)):
        want = closed_form_pt_spectrum(p, q, phi)
        dense = partial_transpose(NoisyGateState(p, q, phi).matrix(), 1)
        doubled = partial_transpose(doubled_gate_matrix(p, q, phi), 0b0011)
        assert not np.delete(np.delete(doubled, LOGICAL, 0), LOGICAL, 1).any()
        for rho in (dense, doubled[np.ix_(LOGICAL, LOGICAL)]):
            assert np.abs(hermitian_spectrum(rho) - want).max() <= 1e-15, (p, q, phi)


def test_only_the_last_eigenvalue_can_be_negative():
    # 1 + pq >= |p + q e^(i phi)| for p, q in [0, 1], so the PT is negative
    # exactly where (1 - pq)^2 < |p - q e^(i phi)|^2, that is where
    # (1 - p^2)(1 - q^2) < 4 p q sin^2(phi/2).
    rng = np.random.default_rng(11)
    for p, q, phi in zip(rng.uniform(size=500), rng.uniform(size=500),
                         rng.uniform(0.0, math.pi, size=500)):
        assert 1 + p * q - abs(p + q * np.exp(1j * phi)) >= 0.0
        gap = (1 - p * p) * (1 - q * q) - 4 * p * q * math.sin(phi / 2) ** 2
        if abs(gap) > 1e-12:
            assert (closed_form_pt_spectrum(p, q, phi)[0] >= 0.0) == (gap > 0.0), (p, q, phi)


# --- Per-gate thresholds over phase and degrees -----------------------------------


def root_tolerance(m, p_z):
    """How far weighted_gate_threshold may sit from the exact root: the
    bisection ends within abs_root / 2 of it on y = p_z^(1/m) >= sqrt(2) - 1,
    and p_z = y^m moves by m p_z / y per unit of y."""
    return m * DEFAULT_TOL.abs_root * p_z / SQRT2M1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_full_phase_threshold_closed_form(m):
    got = weighted_gate_threshold(math.pi, m, m)
    assert got == pytest.approx(SQRT2M1**m, abs=1e-8)


@pytest.mark.parametrize(
    "phi, m",
    [(phi, m) for phi in (1e-8, 0.05, 0.5, 1.5, 2.5, 3.0, 3.1, math.pi)
     for m in (1, 2, 5, 20, 24, 30, 60)],
)
def test_equal_degree_root_is_the_closed_form(phi, m):
    # (1 - y^2)^2 = 4 y^2 s^2 at y = sqrt(1 + s^2) - s, s = sin(phi / 2).
    s = math.sin(phi / 2.0)
    want = (math.sqrt(1.0 + s * s) - s) ** m
    assert abs(weighted_gate_threshold(phi, m, m) - want) <= root_tolerance(m, want)


@pytest.mark.parametrize(
    "gates", [[(3.0, 30, 30)], [(3.1, 30, 30)], [(math.pi, 2, 2), (3.0, 30, 30)]]
)
def test_gate_entangled_across_the_old_bracket_gets_its_root(gates):
    # Each set holds a gate whose root lies below p_z = 1e-9, the low end
    # of the former eigvalsh bisection bracket; the closed form finds it.
    roots = []
    for phi, dk, dl in gates:
        s = math.sin(phi / 2.0)
        want = (math.sqrt(1.0 + s * s) - s) ** dl
        roots.append(weighted_gate_threshold(phi, dk, dl))
        assert abs(roots[-1] - want) <= root_tolerance(dl, want), (phi, dk, dl)
    assert 0.0 < min(roots) < 1e-9


def test_threshold_validation():
    with pytest.raises(ValidationError):
        weighted_gate_threshold(math.pi, 0, 2)


def test_asymmetric_degrees_match_inequality_route():
    # The unweighted report's root of (1 + x^(1/dk))(1 + x^(1/dl)) = 2 is
    # the phase-pi gate root, and it solves that equation.
    g = make_lattice("line", 3)  # edge (0,1) has degrees (1, 2)
    report = graph_separability_threshold(g)
    by_edge = {(u, v): x for u, v, x in report.per_edge}
    x = weighted_gate_threshold(math.pi, 1, 2)
    assert x == by_edge[(0, 1)]
    assert (1.0 + x) * (1.0 + math.sqrt(x)) == pytest.approx(2.0, abs=1e-9)


def seeded_phase_graph(spec, seed):
    g = make_lattice(*spec)
    rng = random.Random(seed)
    return graph_from_edges(g.n, g.edges(), weights={e: rng.uniform(0.3, math.pi) for e in g.edges()})


def dense_gate_threshold(phi, dk, dl, pt_min_eig):
    """Scalar bisection of a dense PT minimum on y = p_z^(1/m), the axis of
    weighted_gate_threshold; pt_min_eig(p, q, phi) is the dense route."""
    m = max(dk, dl)
    r = bisect(lambda y: -pt_min_eig(y ** (m / dk), y ** (m / dl), phi), 0.1, 1.0)
    assert r.sign_change_found
    return r.value**m


def gate_pt_min_eig(p, q, phi):
    return NoisyGateState(p, q, phi).pt_min_eig()


@pytest.mark.parametrize("spec", [("grid2d", 2, 3), ("ring", 5)], ids=str)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stacked_gate_threshold_matches_scalar_bisection(spec, seed):
    # The graph's distinct gates, solved as one set of keys, against a
    # scalar bisection of each edge's dense 4x4 PT minimum.
    g = seeded_phase_graph(spec, seed)
    for u, v, phi, p_z in weighted_graph_threshold(g, DEPOL).per_edge:
        dk, dl = sorted((degree(g, u), degree(g, v)))
        want = dense_gate_threshold(phi, dk, dl, gate_pt_min_eig)
        assert abs(p_z - want) <= root_tolerance(dl, want), (u, v)


LOCKSTEP_GRAPHS = [("grid2d", 2, 3), ("ring", 5), ("grid2d", 3, 3), ("star", 6), ("line", 5)]


@pytest.mark.parametrize("family", [DEPOL, DEPHASING, BITFLIP], ids=lambda f: f.kind)
def test_weighted_report_matches_edge_by_edge_scalar_bisection(family):
    # Each distinct (phi, deg_k, deg_l) key is solved once; each edge's p_z
    # is the one-gate threshold of its key, bit for bit.
    for spec in LOCKSTEP_GRAPHS:
        for seed in (1, 2, 3, 4):
            g = seeded_phase_graph(spec, seed)
            expected = []
            for u, v in g.edges():
                dk, dl = sorted((degree(g, u), degree(g, v)))
                phi = g.phase(u, v)
                expected.append((u, v, phi, weighted_gate_threshold(phi, dk, dl)))
            report = weighted_graph_threshold(g, family)
            assert report.per_edge == tuple(expected), (spec, seed)
            worst = min(expected, key=lambda e: e[3])
            assert (report.p_z_threshold, report.critical_edge) == (worst[3], worst[:2])
            assert report.native_p == isingsep.native_parameter(family, worst[3])[0]


def test_stacked_gate_path_validates_every_point():
    with pytest.raises(ValidationError, match="q_z must lie in"):
        NoisyGateState(0.5, 1.5, 1.0)
    with pytest.raises(ValidationError, match="p_z must lie in"):
        NoisyGateState(math.nan, 0.5, 1.0)
    for phi in (0.0, -1.0, 3.5, math.nan):
        with pytest.raises(ValidationError, match="phase"):
            weighted_gate_threshold(phi, 1, 2)


@pytest.mark.parametrize("degrees", [(1, 1), (1, 2), (2, 2), (1, 4), (3, 5)], ids=str)
def test_gate_threshold_equals_the_doubled_state_bisection(degrees):
    # A scalar bisection of the doubled 16x16 PT minimum finds the same
    # root.  From phi ~ 1e-9 down, eigvalsh round-off near the root is as
    # large as the gap, which only the closed form still resolves.
    dk, dl = degrees
    for phi in (1e-6, 0.05, 0.3, 1.0, 1.7, 2.5, 3.0, math.pi):
        want = dense_gate_threshold(phi, dk, dl, doubled_pt_min_eig)
        assert abs(weighted_gate_threshold(phi, dk, dl) - want) <= root_tolerance(dl, want), phi


# Near phi = 0 the root, 1 - m phi / 2 to first order, sits in the top
# bisection cell: the threshold never separates from the bracket's top end
# y = 1 by more than the bisection tolerance.
@pytest.mark.parametrize("degrees", [(1, 1), (2, 2), (1, 4), (3, 5)], ids=str)
@pytest.mark.parametrize("phi", [1e-15, 1e-12])
def test_tiny_phase_gate_never_separates_in_the_bracket(phi, degrees):
    assert 0.0 < 1.0 - weighted_gate_threshold(phi, *degrees) <= root_tolerance(max(degrees), 1.0)


def test_small_phase_gate_root_is_one_minus_half_the_phase():
    # The PT gap of a phase-phi gate closes at p_z = 1 - phi/2 to first order.
    assert abs(weighted_gate_threshold(1e-8, 1, 1) - (1.0 - 5e-9)) <= 1e-9


def test_weaker_phase_tolerates_more_dephasing():
    values = [weighted_gate_threshold(phi, 1, 1) for phi in (math.pi, 2.5, 1.8, 1.0)]
    assert all(b > a + 1e-6 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(SQRT2M1, abs=1e-8)


def complete_graph_edges(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@pytest.mark.parametrize("d", [20, 24, 26, 30, 40, 60])
def test_weighted_complete_graph_at_full_phase_is_the_unweighted_route(d):
    # Both reports solve the same root at phi = pi, so they agree bit for
    # bit, also where the root on the p_z axis is below 1e-9 (d >= 24).
    edges = complete_graph_edges(d + 1)
    weighted = weighted_graph_threshold(
        graph_from_edges(d + 1, edges, weights={e: math.pi for e in edges}), DEPOL
    )
    unweighted = graph_separability_threshold(make_lattice("complete", d + 1))
    assert [e[3] for e in weighted.per_edge] == [e[2] for e in unweighted.per_edge]
    assert weighted.p_z_threshold == unweighted.p_threshold
    assert weighted.critical_edge == unweighted.critical_edge


def test_weighted_graph_at_degree_30_is_the_closed_form():
    # K31 with every phase 3.0: one key, (3.0, 30, 30), and its root
    # (sqrt(1 + s^2) - s)^30 is 3.5e-12 on the p_z axis.
    edges = complete_graph_edges(31)
    report = weighted_graph_threshold(graph_from_edges(31, edges, weights={e: 3.0 for e in edges}), DEPOL)
    s = math.sin(1.5)
    want = (math.sqrt(1.0 + s * s) - s) ** 30
    assert abs(report.p_z_threshold - want) <= root_tolerance(30, want)
    assert {p for *_, p in report.per_edge} == {report.p_z_threshold}


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
            x = weighted_gate_threshold(math.pi, dk, dl)
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
