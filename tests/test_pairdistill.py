import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from qdeco import pairdistill
from qdeco.channels import (
    SIGMA,
    ChannelFamily,
    ChannelMatrix,
    PauliChannel,
    named_channel,
    named_probs,
)
from qdeco.cli import random_connected_graph, random_pauli_channel
from qdeco.errors import EvaluationError, ValidationError
from qdeco.graphs import graph_from_edges, make_lattice, neighborhood
from qdeco.numeric import DEFAULT_TOL, bisect
from qdeco.oracle import (
    apply_uniform_channel,
    dense_graph_state,
    lift_operator,
    partial_trace,
    project_z_normalized,
)
from qdeco.pairdistill import (
    DEPHASING_THRESHOLD,
    EDGE_BRACKET,
    BellDiagonal,
    EdgeThreshold,
    closed_form_threshold,
    edge_degrees,
    lifetime_lower_bound,
    pair_pt_min_eig,
    pair_state_matrix,
    reduced_pair_state,
    universal_lower_bound,
    weighted_pair_pt_min_eig,
    weighted_reduced_pair,
)

DEPOL = ChannelFamily.from_spec("depolarizing")
DEPHASING = ChannelFamily.from_spec("dephasing")
BITFLIP = ChannelFamily.from_spec("bitflip")


def dense_pair_matrix(g, k, l, ch):
    """Oracle: full-graph simulation of the measurement protocol.

    Channel on every qubit, outcome-0 Z projection on everything except the
    pair, then trace out the measured qubits.  Assumes k < l so the kept
    qubits keep their bit order.
    """
    assert k < l
    state = apply_uniform_channel(dense_graph_state(g), ChannelMatrix.from_pauli(ch))
    for qubit in range(g.n):
        if qubit not in (k, l):
            state = project_z_normalized(state, qubit, 0)
    return partial_trace(state, (1 << k) | (1 << l)).rho


# --- Reduced pair state vs the dense oracle ----------------------------------


@pytest.mark.parametrize(
    "lattice,args,k,l",
    [
        ("ring", (5,), 0, 1),
        ("ring", (6,), 2, 3),
        ("line", (5,), 0, 1),
        ("line", (5,), 2, 3),
        ("star", (5,), 0, 3),
        ("grid2d", (3, 2), 1, 4),
        ("complete", (4,), 1, 2),
    ],
)
def test_reduced_pair_matches_dense(lattice, args, k, l):
    g = make_lattice(lattice, *args)
    rng = random.Random(hash((lattice, k, l)) & 0xFFFF)
    for ch in (named_channel("depolarizing", 0.8), random_pauli_channel(rng)):
        got = pair_state_matrix(reduced_pair_state(g, k, l, ch))
        want = dense_pair_matrix(g, k, l, ch)
        assert np.allclose(got, want, atol=1e-12)


def phase_flip_chain(g, k, l, ch):
    """Reference: the pair as a chain of phase flips over (1, Z_k, Z_l,
    Z_k Z_l), composed by XOR-convolution.  The channel on k acts as
    (1, Z_l, Z_k Z_l, Z_k) with weights (p0, p1, p2, p3), and symmetrically
    on l; noise on a measured neighbour of k alone, of l alone or of both
    flips Z_k, Z_l or Z_k Z_l with strength 1 - 2(p1 + p2)."""
    def convolve(a, b):
        return [sum(a[x] * b[m ^ x] for x in range(4)) for m in range(4)]

    def flip(index, strength):
        out = [(1.0 + strength) / 2.0, 0.0, 0.0, 0.0]
        out[index] += (1.0 - strength) / 2.0
        return out

    p0, p1, p2, p3 = ch.probs
    nk, nl = neighborhood(g, k), neighborhood(g, l)
    strength = 1.0 - 2.0 * (p1 + p2)
    vec = convolve([1.0, 0.0, 0.0, 0.0], [p0, p3, p1, p2])
    vec = convolve(vec, [p0, p1, p3, p2])
    vec = convolve(vec, flip(1, strength ** (nk & ~nl & ~(1 << l)).bit_count()))
    vec = convolve(vec, flip(2, strength ** (nl & ~nk & ~(1 << k)).bit_count()))
    return convolve(vec, flip(3, strength ** (nk & nl).bit_count()))


def test_reduced_pair_is_the_phase_flip_chain():
    rng = random.Random(11)
    kinds = ("depolarizing", "dephasing", "bitflip")
    for i in range(400):
        g = random_connected_graph(rng, rng.randint(2, 9))
        k, l = rng.choice(g.edges())[:: rng.choice((1, -1))]
        ch = random_pauli_channel(rng) if i % 2 else named_channel(rng.choice(kinds), rng.random())
        got = reduced_pair_state(g, k, l, ch).c
        want = phase_flip_chain(g, k, l, ch)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15, (g.edges(), k, l, ch)


def test_reduced_pair_rejects_bad_input():
    g = make_lattice("ring", 5)
    with pytest.raises(ValidationError):
        reduced_pair_state(g, 0, 2, named_channel("depolarizing", 0.5))
    wg = graph_from_edges(3, [(0, 1), (1, 2)], weights={(0, 1): 2.0})
    with pytest.raises(ValidationError):
        reduced_pair_state(wg, 0, 1, named_channel("depolarizing", 0.5))


def test_clean_pair_is_maximally_entangled():
    g = make_lattice("ring", 4)
    b = reduced_pair_state(g, 0, 1, named_channel("depolarizing", 1.0))
    assert b.c == (1.0, 0.0, 0.0, 0.0)
    rho = pair_state_matrix(b)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.trace(rho @ rho) == pytest.approx(1.0)  # pure
    assert pair_pt_min_eig(b) == pytest.approx(-0.5, abs=1e-12)


def test_bell_diagonal_validation():
    with pytest.raises(ValidationError):
        BellDiagonal((0.5, 0.5))
    with pytest.raises(ValidationError):
        BellDiagonal((0.6, 0.5, -0.05, -0.05))
    with pytest.raises(ValidationError):
        BellDiagonal((0.6, 0.5, 0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bell_diagonal_rejects_non_finite_weights(bad):
    # Every comparison with NaN is False, so all-NaN weights passed the
    # sign and sum checks.
    with pytest.raises(ValidationError, match="finite"):
        BellDiagonal((bad,) * 4)
    with pytest.raises(ValidationError, match="finite"):
        BellDiagonal((1.0, 0.0, 0.0, bad))


def test_npt_boundary_state_has_zero_pt_eigenvalue():
    b = BellDiagonal((0.5, 0.3, 0.1, 0.1))
    assert not max(b.c) > 0.5
    assert pair_pt_min_eig(b) == pytest.approx(0.0, abs=1e-14)


def test_npt_predicate_equals_pt_sign():
    rng = random.Random(12)
    for _ in range(40):
        raw = [rng.random() for _ in range(4)]
        total = sum(raw)
        b = BellDiagonal(tuple(x / total for x in raw))
        if abs(max(b.c) - 0.5) < 1e-12:
            continue
        assert (max(b.c) > 0.5) == (pair_pt_min_eig(b) < 0.0)


# --- Closed-form per-edge conditions ------------------------------------------


def test_edge_degrees_on_lattices():
    assert edge_degrees(make_lattice("ring", 6), 0, 1) == (2, 2, 4)
    assert edge_degrees(make_lattice("star", 5), 0, 2) == (4, 1, 5)
    assert edge_degrees(make_lattice("line", 5), 0, 1) == (1, 2, 3)
    g = make_lattice("grid2d", 3, 3)
    assert edge_degrees(g, 3, 4) == (3, 4, 7)  # left-edge mid to centre
    with pytest.raises(ValidationError):
        edge_degrees(make_lattice("ring", 6), 0, 2)


@pytest.mark.parametrize(
    "degrees,root,kt",
    [
        ((2, 2, 4), 0.7167, 0.3331),  # ring interior: 2p^3 + p^4 = 1
        ((4, 4, 8), 0.8281, 0.1886),  # square lattice: p^5 (p^3 + 2) = 1
        ((6, 6, 12), 0.8765, 0.1318),  # cubic lattice: p^7 (p^5 + 2) = 1
    ],
)
def test_depolarizing_closed_form_roots(degrees, root, kt):
    res = closed_form_threshold("depolarizing", degrees)
    assert res.sign_change_found
    assert res.value == pytest.approx(root, abs=1e-3)
    assert res.kt == pytest.approx(kt, abs=1e-3)


def test_closed_form_condition_flips_at_the_root():
    # Edges with degrees (2, 2, 4), (4, 4, 8), (1, 2, 3) and (4, 1, 5).
    for g, k, l in (
        (make_lattice("ring", 6), 0, 1),
        (make_lattice("grid2d", 4, 4), 5, 6),
        (make_lattice("line", 5), 0, 1),
        (make_lattice("star", 5), 0, 2),
    ):
        root = closed_form_threshold("depolarizing", edge_degrees(g, k, l)).value
        for p, npt in ((root + 1e-6, True), (root - 1e-6, False)):
            b = reduced_pair_state(g, k, l, named_channel("depolarizing", p))
            assert (max(b.c) > 0.5) == npt


def test_closed_form_matches_reduced_state_on_ring():
    g = make_lattice("ring", 6)
    root = closed_form_threshold("depolarizing", edge_degrees(g, 0, 1)).value
    for p in (0.60, 0.715, 0.718, 0.9):
        b = reduced_pair_state(g, 0, 1, named_channel("depolarizing", p))
        assert (max(b.c) > 0.5) == (p > root)


def test_bitflip_closed_form_matches_reduced_state():
    g = make_lattice("ring", 5)
    degrees = edge_degrees(g, 0, 1)
    res = closed_form_threshold("bitflip", degrees)
    # 2p^2 + p^4 = 1 has the closed root sqrt(sqrt(2) - 1).
    assert res.value == pytest.approx(math.sqrt(math.sqrt(2.0) - 1.0), abs=1e-9)
    for p in (res.value - 1e-3, res.value + 1e-3):
        b = reduced_pair_state(g, 0, 1, named_channel("bitflip", p))
        assert (max(b.c) > 0.5) == (p > res.value)


def test_dephasing_condition_is_graph_independent():
    for g in (
        make_lattice("ring", 6),
        make_lattice("star", 6),
        make_lattice("grid2d", 3, 2),
    ):
        for p in (DEPHASING_THRESHOLD - 1e-6, DEPHASING_THRESHOLD + 1e-6):
            b = reduced_pair_state(g, *g.edges()[0], named_channel("dephasing", p))
            assert (max(b.c) > 0.5) == (p > DEPHASING_THRESHOLD)


def test_closed_form_threshold_is_the_per_family_polynomial_root():
    # The per-family polynomials that the exponent table replaced, solved
    # the same way, for every realizable triple (class (a, b, c) has
    # degrees (a + c + 1, b + c + 1, a + b + 2)) with dk, dl <= 12.
    polynomials = {
        "depolarizing": lambda dk, dl, ds: lambda p: p ** (dk + 1) + p**ds + p ** (dl + 1) - 1.0,
        "bitflip": lambda dk, dl, ds: lambda p: p**dk + p**ds + p**dl - 1.0,
        "dephasing": lambda dk, dl, ds: lambda p: p * p + 2.0 * p - 1.0,
    }
    for kind, polynomial in polynomials.items():
        for c in range(12):
            for a in range(12 - c):
                for b in range(12 - c):
                    degrees = (a + c + 1, b + c + 1, a + b + 2)
                    want = bisect(polynomial(*degrees), *EDGE_BRACKET, DEFAULT_TOL)
                    assert closed_form_threshold(kind, degrees) == want, (kind, degrees)


def test_closed_form_validation():
    with pytest.raises(ValidationError):
        closed_form_threshold("smearing", (2, 2, 4))
    res = closed_form_threshold("dephasing", (2, 2, 4))
    assert res.sign_change_found
    assert res.value == pytest.approx(DEPHASING_THRESHOLD, abs=DEFAULT_TOL.abs_root)


# --- Universal degree-only bound ----------------------------------------------


def test_universal_bound_values():
    p, kt = universal_lower_bound(2, 2)
    assert kt == pytest.approx(2.0 * math.log(2.0) / 6.0, abs=1e-15)
    assert p == pytest.approx(math.exp(-kt), abs=1e-15)
    with pytest.raises(ValidationError):
        universal_lower_bound(0, 2)


def test_universal_bound_is_weaker_than_exact_roots():
    cases = [
        (make_lattice("ring", 6), 0, 1),
        (make_lattice("grid2d", 3, 3), 3, 4),
        (make_lattice("star", 6), 0, 1),
        (make_lattice("complete", 5), 0, 1),
    ]
    for g, k, l in cases:
        dk, dl, _ = edge_degrees(g, k, l)
        p_uni, _ = universal_lower_bound(dk, dl)
        root = closed_form_threshold("depolarizing", edge_degrees(g, k, l)).value
        assert p_uni >= root - 1e-12
        # The promise: any p above the universal value keeps the pair NPT.
        b = reduced_pair_state(g, k, l, named_channel("depolarizing", p_uni + 1e-9))
        assert max(b.c) > 0.5


# --- Weighted graphs: the damped gate state ------------------------------------


def test_weighted_route_agrees_with_closed_form_at_phase_pi():
    rng = random.Random(42)
    for trial in range(6):
        n = rng.randint(4, 6)
        g = make_lattice("ring", n)
        weights = {(u, v): math.pi for u, v in g.edges()}
        wg = graph_from_edges(n, g.edges(), weights=weights)
        ch = random_pauli_channel(rng)
        rho_w = weighted_reduced_pair(wg, 0, 1, ch)
        rho_c = pair_state_matrix(reduced_pair_state(g, 0, 1, ch))
        assert np.allclose(rho_w, rho_c, atol=1e-9)


def test_weighted_route_matches_full_dense_simulation():
    # Only the pair's neighbours may matter: compare against simulating the
    # whole weighted graph, including an edge that leaves the neighbourhood.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]
    weights = {(0, 1): math.pi, (1, 2): 2.0, (2, 3): 1.2, (0, 3): math.pi, (3, 4): 0.7}
    g = graph_from_edges(5, edges, weights=weights)
    for ch in (named_channel("depolarizing", 0.75), named_channel("dephasing", 0.6)):
        got = weighted_reduced_pair(g, 0, 1, ch)
        want = dense_pair_matrix(g, 0, 1, ch)
        assert np.allclose(got, want, atol=1e-12)


def test_weighted_route_with_k_above_l_matches_dense():
    # Qubit k is bit 0 of the result whichever label is larger; the dense
    # oracle keeps label order, so its two qubits are swapped back.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (1, 4)]
    weights = dict(zip(edges, (2.3, math.pi, 1.2, 0.8, 2.9, 1.7)))
    g = graph_from_edges(5, edges, weights=weights)
    swap = [0, 2, 1, 3]  # exchanges bit 0 and bit 1
    for ch in (named_channel("depolarizing", 0.75), PauliChannel(0.6, 0.1, 0.2, 0.1)):
        for k, l in ((1, 0), (3, 2), (4, 1)):
            got = weighted_reduced_pair(g, k, l, ch)
            want = dense_pair_matrix(g, l, k, ch)[np.ix_(swap, swap)]
            assert np.abs(got - want).max() <= 1e-12, (k, l)


def double_star(leaves, weights=None):
    """Edge (0, 1) whose ends each carry `leaves` more neighbours."""
    edges = [(0, 1)] + [(0, v) for v in range(2, 2 + leaves)]
    edges += [(1, v) for v in range(2 + leaves, 2 + 2 * leaves)]
    if weights is not None:
        weights = {e: weights(i) for i, e in enumerate(edges)}
    return graph_from_edges(2 + 2 * leaves, edges, weights=weights)


def test_weighted_route_runs_a_22_qubit_region_at_phase_pi():
    # Ten leaves per end: a 22-qubit region.  At phase pi everywhere the
    # weighted route is the class route's (1 - 2f)^count flips.
    g = double_star(10)
    wg = double_star(10, weights=lambda i: math.pi)
    for ch in (named_channel("depolarizing", 0.8), named_channel("bitflip", 0.9),
               PauliChannel(0.6, 0.1, 0.2, 0.1)):
        want = pair_state_matrix(reduced_pair_state(g, 0, 1, ch))
        assert np.abs(weighted_reduced_pair(wg, 0, 1, ch) - want).max() <= 1e-15
    for family in (DEPOL, DEPHASING, BITFLIP):
        weighted = lifetime_lower_bound(wg, family)
        assert all(e.found for e in weighted.per_edge)
        for w, c in zip(weighted.per_edge, lifetime_lower_bound(g, family).per_edge):
            assert (w.u, w.v) == (c.u, c.v)
            assert w.p_crit == pytest.approx(c.p_crit, abs=1e-12)


def test_weighted_pt_min_eig_sign_tracks_noise():
    edges = [(0, 1), (1, 2), (2, 3)]
    weights = {(0, 1): 2.4, (1, 2): math.pi, (2, 3): 1.0}
    g = graph_from_edges(4, edges, weights=weights)
    clean = weighted_reduced_pair(g, 1, 2, named_channel("depolarizing", 0.999))
    noisy = weighted_reduced_pair(g, 1, 2, named_channel("depolarizing", 0.2))
    assert weighted_pair_pt_min_eig(clean) < 0.0
    assert weighted_pair_pt_min_eig(noisy) > -1e-12


# --- Whole-graph aggregation ----------------------------------------------------


def test_ring_report_reproduces_the_interior_root():
    g = make_lattice("ring", 6)
    report = lifetime_lower_bound(g, DEPOL)
    assert len(report.per_edge) == 6
    root = closed_form_threshold("depolarizing", (2, 2, 4)).value
    for e in report.per_edge:
        assert e.found
        assert e.p_crit == pytest.approx(root, abs=1e-8)
        assert e.kt_crit == pytest.approx(-math.log(root), abs=1e-7)
    assert report.p_global == pytest.approx(0.7167, abs=1e-3)
    assert report.kt_global == pytest.approx(0.3331, abs=1e-3)
    assert report.p_spanning == pytest.approx(report.p_global, abs=1e-8)
    assert report.critical_edge is not None and report.bottleneck_edge is not None


def test_star_report_matches_closed_form():
    for n in (4, 6, 9):
        report = lifetime_lower_bound(make_lattice("star", n), DEPOL)
        root = closed_form_threshold("depolarizing", (n - 1, 1, n)).value
        assert report.p_global == pytest.approx(root, abs=1e-8)


def test_dephasing_report_is_graph_independent():
    for g in (
        make_lattice("ring", 7),
        make_lattice("grid2d", 3, 2),
        make_lattice("star", 5),
    ):
        report = lifetime_lower_bound(g, DEPHASING)
        assert report.p_global == pytest.approx(DEPHASING_THRESHOLD, abs=1e-9)
        assert report.p_spanning == pytest.approx(DEPHASING_THRESHOLD, abs=1e-9)


def test_spanning_certificate_ignores_a_redundant_weak_edge():
    # Two degree-3 hubs joined by the weakest edge (largest threshold), with
    # an alternative path around it: the global certificate pays for the hub
    # edge, the spanning one does not.
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4)]
    g = graph_from_edges(6, edges)
    report = lifetime_lower_bound(g, DEPOL)
    assert report.critical_edge == (0, 1)
    hub_root = closed_form_threshold("depolarizing", edge_degrees(g, 0, 1)).value
    side_root = closed_form_threshold("depolarizing", edge_degrees(g, 1, 4)).value
    assert report.p_global == pytest.approx(hub_root, abs=1e-8)
    assert report.p_spanning == pytest.approx(side_root, abs=1e-8)
    assert report.p_spanning < report.p_global - 1e-3
    assert report.bottleneck_edge == (1, 4)


def test_report_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        lifetime_lower_bound(graph_from_edges(4, [(0, 1), (2, 3)]), DEPOL)
    with pytest.raises(ValidationError, match="no edges"):
        lifetime_lower_bound(graph_from_edges(1, []), DEPOL)
    qo = ChannelFamily.from_spec({"kind": "qo", "B": 1.0, "C": 0.6, "s": 0.4})
    with pytest.raises(ValidationError):
        lifetime_lower_bound(make_lattice("ring", 4), qo)


def test_weighted_graph_report_uses_dense_route():
    edges = [(0, 1), (0, 2), (1, 2)]
    weights = {(0, 1): math.pi, (1, 2): math.pi / 2, (0, 2): 2.0}
    g = graph_from_edges(3, edges, weights=weights)
    report = lifetime_lower_bound(g, DEPOL)
    assert all(e.found for e in report.per_edge)
    phases = {(e.u, e.v): e.phi for e in report.per_edge}
    assert phases[(1, 2)] == pytest.approx(math.pi / 2)
    # Weaker entangling phases should not beat the full-phase edge.
    thresholds = {(e.u, e.v): e.p_crit for e in report.per_edge}
    assert thresholds[(1, 2)] >= thresholds[(0, 1)] - 1e-9


def test_edge_threshold_kt_property():
    e = EdgeThreshold(0, 1, math.pi, 0.5, True, 40)
    assert e.kt_crit == pytest.approx(math.log(2.0))


# --- One solve per edge problem, against the per-edge route ---------------------

PAIR_PAULIS = [[lift_operator(2, q, s) for s in SIGMA] for q in (0, 1)]


def branch_list_pair(g, k, l, ch):
    """Reference: the weighted pair state built one measured-qubit branch at a time.

    Each measured qubit, highest label first, splits every pure branch into
    its outcome-0 half (weight p0 + p3) and outcome-1 half (weight p1 + p2);
    the branches' projectors are summed one by one.
    """
    nk, nl = neighborhood(g, k), neighborhood(g, l)
    region_mask = nk | nl | (1 << k) | (1 << l)
    labels = [k, l] + [v for v in range(g.n) if (region_mask >> v) & 1 and v not in (k, l)]
    position = {v: i for i, v in enumerate(labels)}
    m = len(labels)
    dim = 1 << m
    vec = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    idx = np.arange(dim)
    for u, v in g.edges():
        if (region_mask >> u) & 1 and (region_mask >> v) & 1:
            both = (1 << position[u]) | (1 << position[v])
            vec = np.where((idx & both) == both, vec * np.exp(1j * g.phase(u, v)), vec)
    p0, p1, p2, p3 = ch.probs
    keep, flip = p0 + p3, p1 + p2
    branches = [(1.0, vec)]
    for _ in range(m - 2):
        nxt = []
        for w, v in branches:
            halves = v.reshape(2, -1)
            if keep > 0.0:
                nxt.append((w * keep, halves[0]))
            if flip > 0.0:
                nxt.append((w * flip, halves[1]))
        branches = nxt
    rho = np.zeros((4, 4), dtype=complex)
    for w, v in branches:
        rho += w * np.outer(v, v.conj())
    trace = rho.trace().real
    if trace < 1e-14:
        raise ValidationError("branch weights vanished")
    rho /= trace
    for paulis in PAIR_PAULIS:
        mixed = np.zeros((4, 4), dtype=complex)
        for prob, op in zip(ch.probs, paulis):
            mixed += prob * (op @ rho @ op.conj().T)
        rho = mixed
    return rho


def per_edge_reference(g, family):
    """Reference report: one bisection per edge, then the same two certificates."""
    per_edge = []
    for u, v in g.edges():
        if g.is_weighted:
            def gap(p, u=u, v=v):
                return weighted_pair_pt_min_eig(branch_list_pair(g, u, v, family.pauli(p)))
        else:
            def gap(p, u=u, v=v):
                return max(reduced_pair_state(g, u, v, family.pauli(p)).c) - 0.5
        r = bisect(gap, EDGE_BRACKET[0], EDGE_BRACKET[1])
        p_crit = r.value if r.sign_change_found else math.nan
        per_edge.append(EdgeThreshold(u, v, g.phase(u, v), p_crit, r.sign_change_found, r.iterations))
    found = [e for e in per_edge if e.found]
    p_global, critical = math.nan, None
    if len(found) == len(per_edge):
        worst = max(found, key=lambda e: e.p_crit)
        p_global, critical = worst.p_crit, (worst.u, worst.v)
    p_spanning, bottleneck = math.nan, None
    component = list(range(g.n))
    for e in sorted(found, key=lambda e: e.p_crit):
        old, new = component[e.u], component[e.v]
        component = [new if c == old else c for c in component]
        if len(set(component)) == 1:
            p_spanning, bottleneck = e.p_crit, (e.u, e.v)
            break
    return tuple(per_edge), p_global, p_spanning, critical, bottleneck


def seeded_phase_graph(spec, seed):
    g = make_lattice(*spec)
    rng = random.Random(seed)
    weights = {e: rng.uniform(0.3, math.pi) for e in g.edges()}
    return graph_from_edges(g.n, g.edges(), weights=weights)


@pytest.mark.parametrize("family", [DEPOL, DEPHASING, BITFLIP], ids=lambda f: f.kind)
def test_lower_bound_matches_per_edge_reference(family):
    # The complete, K2,3 and random graphs have edges with common
    # neighbours, which the lattices lack.
    graphs = [
        make_lattice(*spec)
        for spec in (
            ("ring", 4), ("ring", 30), ("line", 7), ("star", 6),
            ("grid2d", 3, 4), ("grid2d", 5, 5), ("grid3d", 3, 3, 3),
            ("complete", 5), ("complete", 12),
        )
    ] + [
        graph_from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
    ] + [
        random_connected_graph(random.Random(seed), 4 + seed)
        for seed in range(10)
    ] + [
        seeded_phase_graph(spec, seed)
        for spec in (("grid2d", 2, 3), ("ring", 5), ("grid2d", 3, 3))
        for seed in range(1, 6)
    ] + [
        # Twelve other neighbours on the middle edge: its series has degree 14.
        double_star(6, weights=lambda i, rng=random.Random(7): rng.uniform(0.05, math.pi)),
    ]
    for g in graphs:
        report = lifetime_lower_bound(g, family)
        got = (report.per_edge, report.p_global, report.p_spanning,
               report.critical_edge, report.bottleneck_edge)
        assert got == per_edge_reference(g, family), g.name


@pytest.mark.parametrize("spec,bisections", [
    (("ring", 30), 1), (("grid2d", 5, 5), 6), (("grid2d", 10, 10), 6),
])
def test_lower_bound_bisects_each_edge_class_once(monkeypatch, spec, bisections):
    # Each distinct ordered degree triple is one closed-form solve, and
    # these graphs have as many of them as ordered edge classes.
    calls = []
    solve = pairdistill.closed_form_threshold

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pairdistill, "closed_form_threshold", counting_solve)
    g = make_lattice(*spec)
    report = lifetime_lower_bound(g, DEPOL)
    assert len(calls) == bisections
    assert len(report.per_edge) == len(g.edges())


def test_stacked_weight_rows_are_checked_as_bell_diagonal_checks_them():
    # Edge (0, 1) has two neighbours of 0 alone, one of 1 alone and one
    # common neighbour: degrees (4, 3, 5).
    g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5)])
    assert edge_degrees(g, 0, 1) == (4, 3, 5)
    good = reduced_pair_state(g, 0, 1, named_channel("depolarizing", 0.7)).c
    negative = (1.0 + 1e-9, -1e-9, 0.0, 0.0)
    off_sum = (0.5, 0.25, 0.25, 1e-9)
    cases = [(negative, "negative weight"), (off_sum, "not 1")]
    cases += [((x, 0.0, 0.0, 0.0), "finite") for x in (math.nan, math.inf)]
    cases += [((math.nan,) * 4, "finite")]
    for bad, message in cases:
        with pytest.raises(ValidationError, match=message):
            BellDiagonal(bad)
    BellDiagonal(good)
    BellDiagonal((1.0 - 1e-13, 1e-13, -1e-13, 1e-13))


def test_weighted_route_matches_branch_construction():
    # Edge (0, 1) with five more neighbours on each end: a 12-qubit region,
    # plus a ring whose pair has two neighbours joined by an internal edge.
    star = double_star(5, weights=lambda i: 0.4 + 0.2 * i)
    ring_edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    square = graph_from_edges(4, ring_edges, weights=dict(zip(ring_edges, (2.0, 1.1, 0.7, 2.9))))
    channels = [
        named_channel("depolarizing", 0.8),
        named_channel("dephasing", 0.3),  # flip = 0
        PauliChannel(0.0, 0.7, 0.3, 0.0),  # keep = 0
    ]
    for g in (star, square):
        for ch in channels:
            got = weighted_reduced_pair(g, 0, 1, ch)
            want = branch_list_pair(g, 0, 1, ch)
            assert np.abs(got - want).max() <= 1e-14
    vanished = SimpleNamespace(probs=(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValidationError, match="vanished"):
        weighted_reduced_pair(star, 0, 1, vanished)


LOCKSTEP_GRAPHS = [("grid2d", 2, 3), ("ring", 5), ("grid2d", 3, 3), ("star", 6), ("line", 5)]


def scalar_edge_results(g, family):
    """One scalar bisection per edge over weighted_reduced_pair, in edge order."""
    per_edge = []
    for u, v in g.edges():
        def gap(p, u=u, v=v):
            return weighted_pair_pt_min_eig(weighted_reduced_pair(g, u, v, family.pauli(p)))

        r = bisect(gap, EDGE_BRACKET[0], EDGE_BRACKET[1])
        p_crit = r.value if r.sign_change_found else math.nan
        per_edge.append(EdgeThreshold(u, v, g.phase(u, v), p_crit, r.sign_change_found, r.iterations))
    return tuple(per_edge)


@pytest.mark.parametrize("family", [DEPOL, DEPHASING, BITFLIP], ids=lambda f: f.kind)
def test_stacked_lower_bound_matches_scalar_bisection(family):
    # The weighted route bisects every edge in lockstep, each pre-scan grid
    # and refinement round as one stack; bisecting the one-matrix route
    # point by point, edge by edge, gives the same results bit for bit.
    for spec in LOCKSTEP_GRAPHS:
        for seed in (1, 2, 3, 4):
            g = seeded_phase_graph(spec, seed)
            got = lifetime_lower_bound(g, family).per_edge
            assert got == scalar_edge_results(g, family), (spec, seed)


@pytest.mark.parametrize("family", [DEPOL, DEPHASING, BITFLIP], ids=lambda f: f.kind)
def test_weighted_route_block_size_does_not_move_results(monkeypatch, family):
    # A block of one matrix bisects each edge alone, one point per call; a
    # block of 40 splits the edges into groups and the stacks into pieces.
    # An edge stack of one matrix bisects one edge per chunk, and one of 20
    # a few edges per chunk.
    graphs = [seeded_phase_graph(spec, seed) for spec in LOCKSTEP_GRAPHS for seed in (5, 6)]
    default = [lifetime_lower_bound(g, family) for g in graphs]
    for name, size in (("_PAIR_BLOCK", 1), ("_PAIR_BLOCK", 40), ("_EDGE_STACK", 1), ("_EDGE_STACK", 20)):
        with monkeypatch.context() as patch:
            patch.setattr(pairdistill, name, size)
            assert [lifetime_lower_bound(g, family) for g in graphs] == default, (name, size)


def poisoned_spectra(window, value):
    """hermitian_spectrum, with every smallest eigenvalue inside window
    replaced by value."""
    spectrum = pairdistill.hermitian_spectrum

    def poisoned(m):
        eigs = spectrum(m)
        low = eigs[..., 0]
        eigs[..., 0] = np.where((window[0] < low) & (low < window[1]), value, low)
        return eigs

    return poisoned


@pytest.mark.parametrize("window,value", [
    ((-0.002, -0.001), math.nan),  # met while refining
    ((0.05, 0.06), -1.0),  # an extra sign change on some pre-scan grids
    ((-0.3, -0.2), math.inf),  # on the pre-scan grid
], ids=["nan", "crossings", "inf"])
def test_weighted_route_raises_what_the_edge_by_edge_route_raises(monkeypatch, window, value):
    monkeypatch.setattr(pairdistill, "hermitian_spectrum", poisoned_spectra(window, value))
    for stack in (pairdistill._EDGE_STACK, 1):  # all edges in one chunk, then one per chunk
        monkeypatch.setattr(pairdistill, "_EDGE_STACK", stack)
        for spec in LOCKSTEP_GRAPHS:
            g = seeded_phase_graph(spec, 1)
            outcomes = []
            for route in (lambda: lifetime_lower_bound(g, DEPOL).per_edge,
                          lambda: scalar_edge_results(g, DEPOL)):
                try:
                    outcomes.append(route())
                except EvaluationError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert isinstance(outcomes[1], tuple), spec  # the poison does make it raise
            assert outcomes[0] == outcomes[1], (spec, stack)


def test_stacked_pair_builder_matches_one_channel_builds():
    # The Chebyshev series of an edge's pair state, summed at p, is the
    # state that weighted_reduced_pair builds for the channel at p; at
    # slope 0 it is a fixed channel's state, with only the constant term.
    g = seeded_phase_graph(("grid2d", 2, 3), 4)
    wide = double_star(6, weights=lambda i, rng=random.Random(7): rng.uniform(0.05, math.pi))
    for graph in (g, wide):
        for kind in ("depolarizing", "dephasing", "bitflip"):
            probs = np.array(named_probs(kind, 0.0))
            slope = np.array(named_probs(kind, 1.0)) - probs
            series = pairdistill._pair_coefficients(graph, 0, 1, probs, slope)
            others = (neighborhood(graph, 0) | neighborhood(graph, 1)).bit_count() - 2
            assert series.shape == (others + 3, 4, 4)
            for p in (0.0, 0.3, 0.8, 1.0):
                got = chebval(2.0 * p - 1.0, series)
                want = weighted_reduced_pair(graph, 0, 1, named_channel(kind, p))
                assert np.abs(got - want).max() <= 1e-15, (kind, p)
    for ch in (PauliChannel(0.0, 0.7, 0.3, 0.0), PauliChannel(0.6, 0.1, 0.2, 0.1)):
        series = pairdistill._pair_coefficients(g, 0, 1, ch.probs, (0.0, 0.0, 0.0, 0.0))
        assert not series[1:].any()
        assert np.abs(series[0] - weighted_reduced_pair(g, 0, 1, ch)).max() <= 1e-15
