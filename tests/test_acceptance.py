"""End-to-end acceptance checks, one per headline result of the library.

Each test pins a published number, a closed form, or a cross-route
equivalence at its stated tolerance.  They intentionally exercise the
public API the way the command-line tool does, and several assert their
own wall-clock budget, so the whole module doubles as a performance
smoke test.  Run with ``pytest tests/test_acceptance.py -v`` to get one
pass/fail line per criterion.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from qdeco.channels import (
    ChannelFamily,
    ChannelMatrix,
    QoChannel,
    depolarizing_eb_threshold,
    eb_threshold,
    is_entanglement_breaking_qo,
)
from qdeco.cli import random_connected_graph, random_pauli_channel
from qdeco.encode import breakeven, encoded_block_bound, encoded_lifetime, level_recursion
from qdeco.ghz import (
    blockwise_upper_M_from_kt,
    blockwise_upper_M_small_kt,
    ghz_lifetime,
)
from qdeco.graphdiag import (
    depol_p_from_q,
    dephasing_p_from_q,
    estimate_threshold_dephasing,
    estimate_threshold_pair,
    estimate_threshold_single,
    lambda_direct,
    lambda_from_pauli,
    pt_spectrum,
    scan_partitions,
)
from qdeco.graphs import (
    Bipartition,
    Graph,
    graph_from_edges,
    make_lattice,
    neighborhood,
)
from qdeco.isingsep import weighted_gate_threshold
from qdeco.oracle import (
    apply_uniform_channel,
    dense_graph_state,
    graph_basis_diagonal,
    pt_spectrum_dense,
)
from qdeco.pairdistill import (
    closed_form_threshold,
    edge_degrees,
    lifetime_lower_bound,
    pair_state_matrix,
    reduced_pair_state,
    weighted_reduced_pair,
)

SQRT2M1 = math.sqrt(2.0) - 1.0
DEPOL = ChannelFamily.from_spec("depolarizing")
DEPHASING = ChannelFamily.from_spec("dephasing")


def test_criterion_01_ring_lower_bound():
    # Interior ring edge: degrees (2, 2, 4), boundary 2p^3 + p^4 = 1.
    root = closed_form_threshold("depolarizing", (2, 2, 4))
    assert root.sign_change_found
    assert root.value == pytest.approx(0.7167, abs=1e-3)
    assert root.kt == pytest.approx(0.3331, abs=1e-3)
    # The full per-edge pipeline on an actual ring lands on the same root.
    report = lifetime_lower_bound(make_lattice("ring", 6), DEPOL)
    assert report.p_global == pytest.approx(root.value, abs=1e-9)


def test_criterion_02_grid_cluster_lower_bounds():
    # Square-lattice bulk edge (4, 4, 8): p^5 (p^3 + 2) = 1.
    grid2d = closed_form_threshold("depolarizing", (4, 4, 8))
    assert grid2d.value == pytest.approx(0.8281, abs=1e-3)
    assert grid2d.kt == pytest.approx(0.1886, abs=1e-3)
    # Cubic-lattice bulk edge (6, 6, 12): p^7 (p^5 + 2) = 1.
    grid3d = closed_form_threshold("depolarizing", (6, 6, 12))
    assert grid3d.value == pytest.approx(0.8765, abs=1e-3)
    assert grid3d.kt == pytest.approx(0.1318, abs=1e-3)


def test_criterion_03_dephasing_lower_bound_graph_independent():
    graphs = [
        make_lattice("line", 4),
        make_lattice("line", 7),
        make_lattice("ring", 5),
        make_lattice("ring", 8),
        make_lattice("star", 4),
        make_lattice("star", 7),
        make_lattice("grid2d", 3, 3),
        make_lattice("grid2d", 4, 2),
        make_lattice("grid3d", 2, 2, 2),
        graph_from_edges(7, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)]),
    ]
    assert len(graphs) == 10
    thresholds = [lifetime_lower_bound(g, DEPHASING).p_global for g in graphs]
    for p in thresholds:
        assert p == pytest.approx(SQRT2M1, abs=1e-9)
    # Same value bit for bit on every graph: the boundary does not depend
    # on the degrees at all under pure dephasing.
    assert len(set(thresholds)) == 1


def test_criterion_04_entanglement_breaking_boundaries():
    # Depolarizing: closed form is exactly 1/3 ...
    assert depolarizing_eb_threshold() == 1.0 / 3.0
    analytic = eb_threshold(DEPOL, via="analytic")
    assert analytic.sign_change_found
    assert analytic.value == pytest.approx(1.0 / 3.0, abs=1e-9)
    # ... and the dual-state partial-transpose route reproduces it.
    dual = eb_threshold(DEPOL, via="jamiolkowski")
    assert dual.sign_change_found
    assert dual.value == pytest.approx(1.0 / 3.0, abs=1e-6)
    # Zero-temperature relaxation never becomes entanglement breaking: the
    # breaking inequality carries a factor s(1 - s) that vanishes at both
    # singular endpoints.  Checked on a time grid out to kappa*t = 50.
    grid = np.concatenate([np.array([1e-3, 0.01, 0.1]), np.linspace(0.5, 50.0, 100)])
    for s in (0.0, 1.0):
        ch = QoChannel(1.0, 0.5, s)
        assert not any(is_entanglement_breaking_qo(ch, float(t)) for t in grid)
    decay = eb_threshold(ChannelFamily.from_spec({"kind": "decay", "kappa": 1.0}))
    assert not decay.sign_change_found


def test_criterion_05_weight_ratio_certificate_constants():
    # Single-vertex certificate: flips at q = 1/2, i.e. depolarizing p = 1/5.
    q_single = estimate_threshold_single()
    assert q_single == 0.5
    assert depol_p_from_q(q_single) == 0.2
    # Two-vertex certificate: quartic root near 0.8457.
    q_pair = estimate_threshold_pair().value
    assert q_pair == pytest.approx(0.8457, abs=5e-4)
    assert depol_p_from_q(q_pair) == pytest.approx(0.0436, abs=5e-4)
    # Dephasing certificate at degree 2.
    q_deph = estimate_threshold_dephasing(2).value
    assert q_deph == pytest.approx(0.7549, abs=5e-4)
    assert dephasing_p_from_q(q_deph) == pytest.approx(0.1397, abs=5e-4)


def test_criterion_06_blockwise_pair_count_bound():
    assert blockwise_upper_M_from_kt(0.8049) == pytest.approx(2.000, abs=5e-3)
    assert blockwise_upper_M_from_kt(0.01) == pytest.approx(1057.0, abs=1.0)
    # Small-time approximation -2 ln(kt) / kt, checked against the accuracy
    # leading-order asymptotics give.  Expanding the exact count,
    #   -ln tanh(kt/2)     = ln(2/kt) + O(kt^2),
    #   ln(1 + expm1(kt)/2) = (kt/2) (1 + kt/4 + O(kt^2)),
    # so M(kt) = (2/kt) ln(2/kt) (1 - kt/4 + O(kt^2)).  The leading term
    # -2 ln(kt)/kt drops the ln 2 inside the logarithm, so its relative
    # deviation is ln 2 / ln(2/kt) - (kt/4)(1 - ln 2 / ln(2/kt)) + O(kt^2):
    # ln 2 / ln(2/kt) to within kt/4.  At kt = 0.01 the deviation is 12.87%
    # (ln 2 / ln 200 = 13.08%); it drops below 10% only near kt = 2**-9,
    # where ln(2/kt) = 10 ln 2, and stays below it for smaller kt.
    def deviation(kt: float) -> float:
        exact = blockwise_upper_M_from_kt(kt)
        return abs(blockwise_upper_M_small_kt(kt) - exact) / exact

    kt = 0.01
    predicted = math.log(2.0) / math.log(2.0 / kt)
    assert deviation(kt) == pytest.approx(predicted, abs=kt / 4), (
        f"small-kt approximation off by {deviation(kt):.2%} at kt={kt}, "
        f"expected ln 2 / ln(2/kt) = {predicted:.2%} within kt/4"
    )
    grid = np.geomspace(2.0**-9, 1e-300, 100)
    deviations = [deviation(float(k)) for k in grid]
    for k, dev in zip(grid, deviations):
        assert dev <= 0.10, f"small-kt approximation off by {dev:.2%} at kt={k:.3e}"
    assert all(b < a for a, b in zip(deviations, deviations[1:])), (
        "small-kt deviation does not fall strictly as kt falls"
    )


def test_criterion_07_encoding_pipeline():
    # Break-even point of the five-qubit-code level map.
    be = breakeven()
    assert be.p == pytest.approx(0.82517, abs=1e-4)
    assert be.kt == pytest.approx(0.1921658, abs=1e-5)
    # Doubling-law closed form at kt = 0.01 for levels 1..6, compared at
    # three significant figures against the reference values.
    printed = [7.5e-4, 4.22e-6, 1.33e-10, 1.34e-19, 1.34e-37, 1.35e-73]
    for j, want in enumerate(printed, start=1):
        got = level_recursion(0.01, j).kt_approx
        assert float(f"{got:.2e}") == want, f"level {j}: {got:.4e} vs {want:.2e}"
    # Pair-count bounds evaluated at the effective encoded error rates.
    for j, want in [(1, 2.103e4), (2, 6.195e6), (3, 3.510e11)]:
        assert encoded_block_bound(0.01, j, pipeline="approx") == pytest.approx(
            want, rel=0.01
        )
    # Encoded lifetimes at a fixed pair budget M = 1057.
    lifetimes = {1: 0.0382, 2: 0.0778, 3: 0.1149, 4: 0.1431, 5: 0.1621}
    for j, want in lifetimes.items():
        assert encoded_lifetime(1057.0, j, pipeline="exact") == pytest.approx(
            want, abs=1e-3
        )


def test_criterion_08_oracle_equivalence_random_triples():
    start = time.monotonic()
    rng = random.Random(20260825)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 7))
        ch = random_pauli_channel(rng)
        part = Bipartition(rng.randint(1, (1 << g.n) - 2), g.n)

        state = lambda_from_pauli(g, ch)
        # Fast weight propagation vs the 4^n direct sum, every index.
        assert np.max(np.abs(state.lam - lambda_direct(g, ch))) <= 1e-10
        # ... and vs the dense density-matrix oracle.
        noisy = apply_uniform_channel(dense_graph_state(g), ChannelMatrix.from_pauli(ch))
        assert np.max(np.abs(state.lam - graph_basis_diagonal(noisy, g))) <= 1e-10
        # Structured partial-transpose spectrum vs dense eigenvalues.
        spec = pt_spectrum(state, part)
        dense = pt_spectrum_dense(noisy, part)
        assert np.max(np.abs(np.sort(spec.lam_prime) - np.sort(dense))) <= 1e-9
    assert time.monotonic() - start <= 120.0


def test_criterion_09_ring_partition_scans():
    start = time.monotonic()
    for n in range(4, 11):
        ring = make_lattice("ring", n)
        report = scan_partitions(ring, DEPOL)
        # The single-vertex (one vs rest) splits hold out longest ...
        assert report.last_ppt.partition.size_a in (1, n - 1)
        # ... and their most negative partial-transpose weight sits at the
        # closed neighbourhood index U = N_k + k, for every vertex k.
        for entry in report.entries:
            if entry.partition.size_a != 1:
                continue
            k = entry.partition.a_mask.bit_length() - 1
            assert entry.argmin_mask == neighborhood(ring, k) | (1 << k)
        # Under dephasing the first split to turn PPT does so at the
        # graph-independent pair threshold sqrt(2) - 1.
        deph = scan_partitions(ring, DEPHASING)
        assert deph.first_ppt.p_crit == pytest.approx(SQRT2M1, abs=1e-3)
    assert time.monotonic() - start <= 300.0


def _depolarizing_roots_by_degrees(g: Graph) -> dict[tuple[int, int, int], float]:
    """Per-edge boundary roots of a graph, keyed by the degree triple.

    Recomputed from scratch on every call so that cross-size comparisons
    test genuine reproducibility rather than a shared cache.
    """
    roots: dict[tuple[int, int, int], float] = {}
    for u, v in g.edges():
        triple = edge_degrees(g, u, v)
        if triple not in roots:
            roots[triple] = closed_form_threshold("depolarizing", triple).value
    return roots


def test_criterion_10_lattice_flatness_vs_ghz_scaling():
    # Lattice side: the per-edge boundary roots depend on the local degree
    # triples only, so they reproduce bit for bit at every system size.
    line_roots = [_depolarizing_roots_by_degrees(make_lattice("line", n)) for n in range(4, 101)]
    ring_roots = [_depolarizing_roots_by_degrees(make_lattice("ring", n)) for n in range(4, 101)]
    grid_sizes = [(w, h) for w in range(2, 11) for h in range(2, w + 1) if w * h <= 100]
    grid_roots = [_depolarizing_roots_by_degrees(make_lattice("grid2d", w, h)) for w, h in grid_sizes]

    for family_roots in (line_roots, ring_roots, grid_roots):
        merged: dict[tuple[int, int, int], float] = {}
        for roots in family_roots:
            for triple, value in roots.items():
                if triple in merged:
                    assert value == merged[triple], f"root drifted for degrees {triple}"
                merged[triple] = value

    # Global lower bound constant in N wherever the governing edge exists:
    # interior (2,2,4) edges for line/ring, bulk (4,4,8) edges for grids.
    assert len({max(r.values()) for r in line_roots}) == 1
    assert len({max(r.values()) for r in ring_roots}) == 1
    bulk_grids = {
        max(r.values()) for r in grid_roots if (4, 4, 8) in r
    }
    assert len(bulk_grids) == 1
    assert bulk_grids.pop() == pytest.approx(0.8281, abs=1e-3)

    # Full pipeline spot checks across sizes agree with the closed forms.
    line_pipeline = {lifetime_lower_bound(make_lattice("line", n), DEPOL).p_global for n in (4, 25, 100)}
    assert len(line_pipeline) == 1
    ring_pipeline = {lifetime_lower_bound(make_lattice("ring", n), DEPOL).p_global for n in (4, 25, 100)}
    assert len(ring_pipeline) == 1
    grid_pipeline = {
        lifetime_lower_bound(make_lattice("grid2d", w, h), DEPOL).p_global
        for w, h in ((4, 3), (4, 4), (7, 7), (10, 10))
    }
    assert len(grid_pipeline) == 1
    assert grid_pipeline.pop() == pytest.approx(0.8281, abs=1e-3)

    # GHZ side: the star-graph pair bound 2 p^N + p^2 = 1 keeps shrinking
    # with N and never reaches the exact one-vs-rest lifetime.
    previous_kt = math.inf
    for n in range(3, 21):
        star = closed_form_threshold("depolarizing", (n - 1, 1, n))
        assert star.sign_change_found
        residual = 2.0 * star.value**n + star.value**2 - 1.0
        assert abs(residual) <= 1e-9
        assert star.kt < previous_kt
        assert star.kt < ghz_lifetime(n, 1, "depolarizing").kt
        previous_kt = star.kt


def test_criterion_11_weighted_route_consistency():
    start = time.monotonic()
    rng = random.Random(1103)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 6))
        ch = random_pauli_channel(rng)
        edges = g.edges()
        u, v = rng.choice(edges)
        weighted = graph_from_edges(
            g.n, edges, weights={e: math.pi for e in edges}
        )
        dense = weighted_reduced_pair(weighted, u, v, ch)
        fast = pair_state_matrix(reduced_pair_state(g, u, v, ch))
        assert np.max(np.abs(dense - fast)) <= 1e-9
    for m in range(1, 11):
        got = weighted_gate_threshold(math.pi, m, m)
        assert got == pytest.approx(SQRT2M1**m, abs=1e-8)
    assert time.monotonic() - start <= 60.0
