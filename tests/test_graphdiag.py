import concurrent.futures
import math
import random
import tracemalloc
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeco import graphdiag
from qdeco.channels import ChannelFamily, ChannelMatrix, PauliChannel, named_channel
from qdeco.cli import random_connected_graph, random_pauli_channel
from qdeco.errors import CapacityError, ValidationError
from qdeco.graphdiag import (
    NPT_VERDICT,
    SCAN_BRACKET,
    FourierForm,
    GraphDiagonalState,
    PartitionScanEntry,
    PtSpectrum,
    dephasing_p_from_q,
    depol_p_from_q,
    estimate_bound_dephasing,
    estimate_bound_pair,
    estimate_bound_single,
    estimate_threshold_dephasing,
    estimate_threshold_pair,
    estimate_threshold_single,
    fourier_bound,
    lambda_direct,
    lambda_estimation_check,
    lambda_from_pauli,
    pauli_q,
    pt_spectrum,
    scan_partitions,
)
from qdeco.graphs import (
    Bipartition,
    bipartitions,
    graph_from_edges,
    load_graph,
    make_lattice,
    neighborhood,
    spread_bits,
)
from qdeco.numeric import (
    DEFAULT_TOL,
    PRESCAN_POINTS,
    MultipleCrossingsError,
    Tolerance,
    bisect,
    prescan_grid,
)
from qdeco.oracle import (
    DenseState,
    apply_uniform_channel,
    dense_graph_state,
    graph_basis_diagonal,
    pt_spectrum_dense,
)

DEPOL = ChannelFamily.from_spec("depolarizing")
DEPHASING = ChannelFamily.from_spec("dephasing")
BITFLIP = ChannelFamily.from_spec("bitflip")
FAMILIES = [DEPOL, DEPHASING, BITFLIP]
FAMILY_IDS = ["depolarizing", "dephasing", "bitflip"]


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
    direct = lambda_direct(g, ch)
    dense = noisy_weights(g, ch)
    assert np.allclose(fast, direct, atol=1e-10)
    assert np.allclose(fast, dense, atol=1e-10)


def scalar_lambda_direct(g, ch, u_mask):
    """lam[U] with its 2^n terms added one by one in U' order, as
    lambda_direct once did, and with the same terms correctly rounded."""
    p0, p1, p2, p3 = ch.probs
    q1, q2, q3 = p1 / p0, p2 / p0, p3 / p0
    terms = []
    for uprime in range(1 << g.n):
        gamma_u = 0
        for k in range(g.n):
            if uprime >> k & 1:
                gamma_u ^= g.adj[k]
        w = gamma_u ^ u_mask
        only_x = (uprime & ~w).bit_count()
        both = (uprime & w).bit_count()
        only_z = (w & ~uprime).bit_count()
        terms.append(q1**only_x * q2**both * q3**only_z)
    total = 0.0
    for term in terms:
        total += term
    return p0**g.n * total, p0**g.n * math.fsum(terms)


@pytest.mark.parametrize("seed", range(8))
def test_lambda_direct_matches_the_scalar_sum(seed):
    rng = random.Random(4100 + seed)
    g = random_connected_graph(rng, 2 + seed % 5)
    channels = [random_pauli_channel(rng)] + [family.pauli(rng.uniform(0.05, 0.95)) for family in FAMILIES]
    for ch in channels:
        direct = lambda_direct(g, ch)
        looped, rounded = np.array([scalar_lambda_direct(g, ch, u) for u in range(1 << g.n)]).T
        # A sum of 2^n nonnegative terms added in order is off by at most
        # (2^n - 1) u relative, u = 2^-53, and each term by a few u; the
        # array passes add in another order, within 1e-15 of the rounded sum.
        assert np.all(np.abs(direct - looped) <= (2**g.n + 8) * 2.0**-53 * looped)
        assert np.all(np.abs(direct - rounded) <= 1e-15 * rounded)


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


MIX_GRAPHS = [f"ring:{n}" for n in range(5, 11)] + ["grid2d:3x3", "star:7", "complete:6"]


@pytest.mark.parametrize("spec", MIX_GRAPHS)
def test_scan_weights_equal_lambda_from_pauli_bit_for_bit(spec):
    # The scan mixes every p through index arrays built once per scan;
    # lambda_from_pauli builds them one vertex at a time.  Both must give
    # exactly the weights of the per-vertex loop.
    g = load_graph(spec)
    shifts = np.array(list(graphdiag._vertex_shifts(g)))
    channels = [family.pauli(p) for family in FAMILIES for p in (0.0, 0.31, 0.77, 1.0)]
    channels.append(random_pauli_channel(random.Random(len(spec) + g.n)))
    idx = np.arange(1 << g.n)
    for ch in channels:
        p0, p1, p2, p3 = ch.probs
        loop = np.zeros(1 << g.n)
        loop[0] = 1.0
        for k in range(g.n):
            nk = neighborhood(g, k)
            loop = (
                p0 * loop
                + p1 * loop[idx ^ nk]
                + p2 * loop[idx ^ (nk | (1 << k))]
                + p3 * loop[idx ^ (1 << k)]
            )
        mixed = graphdiag._mix_weights(g.n, ch.probs, shifts)
        assert np.array_equal(mixed, lambda_from_pauli(g, ch).lam)
        assert np.array_equal(mixed, loop)


def test_lambda_rejects_weighted_graph_and_caps():
    wg = graph_from_edges(2, [(0, 1)], weights={(0, 1): 1.0})
    with pytest.raises(ValidationError):
        lambda_from_pauli(wg, named_channel("depolarizing", 0.5))
    with pytest.raises(ValidationError):
        lambda_direct(wg, named_channel("depolarizing", 0.5))
    big = make_lattice("ring", 21)
    with pytest.raises(CapacityError):
        lambda_from_pauli(big, named_channel("depolarizing", 0.5))
    with pytest.raises(CapacityError):
        lambda_direct(make_lattice("ring", 15), named_channel("depolarizing", 0.5))


def test_lambda_direct_needs_positive_identity_weight():
    g = make_lattice("line", 3)
    with pytest.raises(ValidationError):
        lambda_direct(g, PauliChannel(0.0, 0.5, 0.25, 0.25))


def test_state_validation():
    g = make_lattice("line", 2)
    with pytest.raises(ValidationError):
        GraphDiagonalState(g, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValidationError):
        GraphDiagonalState(g, np.array([0.7, 0.4, -0.1, 0.0]))
    with pytest.raises(ValidationError):
        GraphDiagonalState(g, np.array([0.7, 0.4, 0.1, 0.0]))  # sums to 1.2
    s = GraphDiagonalState(g, [0.7, 0.1, 0.1, 0.1])
    assert s.n == 2 and s.lam.dtype == float


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_state_rejects_non_finite_weights(bad):
    # Every comparison with NaN is False, so all-NaN weights passed the
    # sign and sum checks, and pt_spectrum returned a NaN minimum.
    g = make_lattice("line", 2)
    with pytest.raises(ValidationError, match="finite"):
        GraphDiagonalState(g, np.full(4, bad))
    with pytest.raises(ValidationError, match="finite"):
        GraphDiagonalState(g, np.array([1.0, 0.0, 0.0, bad]))


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


def _dense_graph_diagonal(g, lam):
    """sum_U lam[U] Z^U |G><G| Z^U as a dense state: entry (x, y) of
    Z^U |G><G| Z^U is that of |G><G| times (-1)^(|U & x| + |U & y|)."""
    dim = 1 << g.n
    signs = np.array([[1.0 - 2.0 * ((u & x).bit_count() & 1) for x in range(dim)] for u in range(dim)])
    return DenseState(g.n, dense_graph_state(g).rho * (signs.T @ (lam[:, np.newaxis] * signs)))


@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(2, 6),
    alpha=st.sampled_from([0.05, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_pt_spectrum_of_weights_no_channel_made_matches_dense(rng, n, alpha):
    # Dirichlet weights: no product structure in their transform, and with
    # alpha = 0.05 most of them are close to 0.
    g = random_connected_graph(rng, n)
    lam = np.random.default_rng(rng.randrange(1 << 32)).dirichlet(np.full(1 << n, alpha))
    part = Bipartition(rng.randint(1, (1 << n) - 2), n)
    spec = pt_spectrum(GraphDiagonalState(g, lam), part)
    dense = pt_spectrum_dense(_dense_graph_diagonal(g, lam), part)
    assert np.max(np.abs(np.sort(spec.lam_prime) - dense)) <= 1e-12


class _OneSplit(NamedTuple):
    """The PT terms of one split as a scan builds them (_build_terms on a
    list of one) and their gather (_gather with a stack of one)."""

    rank: int
    shifts: np.ndarray  # (4^rank,) full-width subset masks
    signs: np.ndarray  # (4^rank,) of +/-1
    prefactor: float

    @classmethod
    def of(cls, g, part):
        (rank,), _, stacks = graphdiag._build_terms(g, [part])
        shifts, signs, prefactor = stacks[rank]
        return cls(int(rank), shifts[0], signs[0], prefactor)

    def apply(self, lam):
        """The gathered PT weights of one weight vector of shape (2^n,)."""
        entries = min(len(self.shifts), graphdiag._CHUNK) * len(lam)
        return graphdiag._gather(
            self.shifts[np.newaxis],
            self.signs[np.newaxis],
            self.prefactor,
            lam[np.newaxis],
            np.zeros(1, dtype=np.intp),
            np.empty(entries, dtype=np.intp),
            np.empty(entries),
        )[0]


def _reference_apply(transform, lam):
    """One weight vector through the plain chunked gather, index built per chunk."""
    idx = np.arange(lam.shape[0], dtype=np.intp)
    out = np.zeros(lam.shape[0])
    for start in range(0, transform.shifts.shape[0], 128):
        sh = transform.shifts[start : start + 128]
        sg = transform.signs[start : start + 128]
        out += sg @ lam[idx[np.newaxis, :] ^ sh[:, np.newaxis]]
    return transform.prefactor * out


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("seed", range(4))
def test_stacked_apply_rows_equal_single_rows(seed):
    # A stack of weight vectors, as a scan's grid has, each applied alone.
    rng = random.Random(2300 + seed)
    g = random_connected_graph(rng, rng.randint(5, 8))
    family = rng.choice([DEPOL, DEPHASING])
    stack = np.stack(
        [lambda_from_pauli(g, family.pauli(p)).lam for p in np.linspace(0.0, 1.0, 70)]
    )
    for part in bipartitions(g):
        transform = _OneSplit.of(g, part)
        for lam in stack:
            single = transform.apply(lam)
            assert single.shape == lam.shape
            assert _bitwise_equal(single, _reference_apply(transform, lam))


@pytest.mark.parametrize("n,seed", [(5, 0), (6, 1), (7, 2), (8, 3), (8, 4), (9, 5), (9, 6)])
def test_stacked_gather_rows_equal_one_apply_per_split(n, seed):
    # All splits of one rank in one stack, each on its own weight vector:
    # every row is bit for bit (signbit included) one apply of its split
    # and the plain chunked gather.  From rank 4 a split has 256 terms or
    # more, two chunks of 128 or more.  The buffers are larger than the
    # pass needs and hold junk, as a scan's shared buffers do.
    rng = random.Random(5100 + seed)
    g = random_connected_graph(rng, n)
    family = rng.choice(FAMILIES)
    ps = [rng.uniform(*SCAN_BRACKET) for _ in range(3)] + [SCAN_BRACKET[1]]
    lams = np.stack([lambda_from_pauli(g, family.pauli(p)).lam for p in ps])
    parts = list(bipartitions(g))
    transforms = [_OneSplit.of(g, part) for part in parts]
    _, _, stacks = graphdiag._build_terms(g, parts)
    assert set(stacks) == {t.rank for t in transforms}
    if n >= 8:
        assert max(stacks) >= 4
    for r, (shifts, signs, prefactor) in stacks.items():
        of_rank = [t for t in transforms if t.rank == r]
        rows = np.array([rng.randrange(len(ps)) for _ in of_rank])
        entries = len(of_rank) * min(4**r, 128) << n
        index = np.full(entries + 100, 12345, dtype=np.intp)
        gathered = np.full(entries + 100, np.nan)
        stacked = graphdiag._gather(shifts, signs, prefactor, lams, rows, index, gathered)
        assert stacked.shape == (len(of_rank), 1 << n)
        for transform, row, lam in zip(of_rank, stacked, lams[rows]):
            single = transform.apply(lam)
            assert _bitwise_equal(row, single)
            assert _bitwise_equal(single, _reference_apply(transform, lam))


def test_apply_over_the_index_cap_keeps_no_index():
    g = make_lattice("ring", 11)
    alternating = Bipartition(sum(1 << k for k in range(1, 11, 2)), 11)
    big = _OneSplit.of(g, alternating)
    small = _OneSplit.of(g, Bipartition(0b11, 11))
    # 4^5 terms are 8 chunks of 128; the small split has fewer than one chunk.
    assert big.rank == 5 and big.shifts.shape[0] == 8 * 128
    assert small.shifts.shape[0] < 128
    for p in (0.3, 0.7, 0.95):
        lam = lambda_from_pauli(g, DEPOL.pauli(p)).lam
        for transform in (big, small):
            assert _bitwise_equal(transform.apply(lam), _reference_apply(transform, lam))


@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(2, 6),
    rows=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_stacked_apply_matches_dense_oracle(rng, n, rows):
    g = random_connected_graph(rng, n)
    part = Bipartition(rng.randint(1, (1 << n) - 2), n)
    transform = _OneSplit.of(g, part)
    for ch in [random_pauli_channel(rng) for _ in range(rows)]:
        spec = transform.apply(lambda_from_pauli(g, ch).lam)
        noisy = apply_uniform_channel(dense_graph_state(g), ChannelMatrix.from_pauli(ch))
        assert np.allclose(np.sort(spec), pt_spectrum_dense(noisy, part), atol=1e-9)


def test_popcount_counts_every_byte_of_a_mask():
    rng = random.Random(2900)
    masks = [0, 1, 255, 256, 65535, 65536, (1 << 20) - 1, (1 << 24) - 1]
    masks += [rng.randrange(1 << 24) for _ in range(200)]
    counts = graphdiag._popcount(np.array(masks, dtype=np.intp))
    assert counts.tolist() == [m.bit_count() for m in masks]


# --- The GF(2) elimination and the spans behind the PT terms ----------------


def _reference_span(basis):
    """All 2^len(basis) XOR combinations; bit i of the index selects basis[i]."""
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out


def _span(basis):
    """graphdiag._spans on one basis, as a list."""
    return graphdiag._spans(np.array(basis, dtype=np.intp).reshape(1, len(basis)))[0].tolist()


def _xor(vectors):
    out = 0
    for v in vectors:
        out ^= v
    return out


def _image(columns, x):
    """XOR of the columns that x selects."""
    return _xor(col for j, col in enumerate(columns) if (x >> j) & 1)


@st.composite
def bit_columns(draw):
    """The columns of a binary matrix with 1-8 rows and 1-8 columns."""
    n_rows = draw(st.integers(min_value=1, max_value=8))
    n_cols = draw(st.integers(min_value=1, max_value=8))
    return [draw(st.integers(min_value=0, max_value=(1 << n_rows) - 1)) for _ in range(n_cols)]


@given(bit_columns())
@settings(max_examples=80, deadline=None)
def test_elimination_kernel_is_exactly_the_null_space(columns):
    pivots, kernel = graphdiag._eliminate(columns)
    span = _span(kernel)
    assert set(span) == {x for x in range(1 << len(columns)) if _image(columns, x) == 0}
    assert len(set(span)) == len(span)  # the kernel vectors are independent
    assert len(pivots) + len(kernel) == len(columns)  # rank-nullity


@given(bit_columns())
@settings(max_examples=80, deadline=None)
def test_elimination_pivots_span_every_image_with_its_input(columns):
    pivots, _ = graphdiag._eliminate(columns)
    leads = [img.bit_length() for img, _ in pivots]
    assert leads == sorted(set(leads), reverse=True) and 0 not in leads
    images = _span([img for img, _ in pivots])
    inputs = _span([pre for _, pre in pivots])
    assert set(images) == {_image(columns, x) for x in range(1 << len(columns))}
    assert len(set(images)) == len(images)
    for y, a in zip(images, inputs):
        assert _image(columns, a) == y


@given(bit_columns())
@settings(max_examples=60, deadline=None)
def test_second_elimination_gives_the_orthocomplement(rows):
    # rows are the vectors to be orthogonal to, each of length 8.
    length = 8
    columns = [sum(((v >> j) & 1) << i for i, v in enumerate(rows)) for j in range(length)]
    _, basis = graphdiag._eliminate(columns)
    got = _span(basis)
    expected = {
        x for x in range(1 << length) if all((x & v).bit_count() % 2 == 0 for v in rows)
    }
    assert set(got) == expected
    assert len(got) == len(expected)  # no duplicates in the enumeration


def test_orthocomplement_of_nothing_is_everything():
    _, basis = graphdiag._eliminate([0, 0, 0])
    assert set(_span(basis)) == set(range(8))


def test_elimination_output_order_is_deterministic():
    # Worked by hand: column 2 reduces to 0 against the other two.
    assert graphdiag._eliminate([0b011, 0b101, 0b110]) == (
        [(0b101, 0b010), (0b011, 0b001)],
        [0b111],
    )
    assert _span([0b101, 0b011]) == [0, 0b101, 0b011, 0b110]
    rng = random.Random(11)
    columns = [rng.randrange(1 << 5) for _ in range(6)]
    assert graphdiag._eliminate(columns) == graphdiag._eliminate(list(columns))


@given(
    st.integers(0, 6).flatmap(
        lambda r: st.lists(
            st.lists(st.integers(0, (1 << 14) - 1), min_size=r, max_size=r), min_size=1, max_size=5
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_spans_are_the_reference_span_of_each_row(bases):
    spans = graphdiag._spans(np.array(bases, dtype=np.intp))
    assert spans.dtype == np.intp
    assert spans.tolist() == [_reference_span(basis) for basis in bases]


def _reference_terms(g, part):
    """(rank, shifts, signs, prefactor) of one split, built split by split:
    the same two eliminations, then Python-list spans and one popcount.  The
    reference for _build_terms' values and term order: Y-major, each span
    in _reference_span order."""
    a_bits = part.members()
    c_mask = part.complement_mask
    pivots, kernel = graphdiag._eliminate([g.adj[i] & c_mask for i in a_bits])
    _, x_basis = graphdiag._eliminate(
        [sum(((v >> col) & 1) << k for k, v in enumerate(kernel)) for col in range(len(a_bits))]
    )
    x_c = np.array(_reference_span(x_basis), dtype=np.intp)
    y_pre = np.array(_reference_span([pre for _, pre in pivots]), dtype=np.intp)
    x_full = np.array(
        _reference_span([spread_bits(x, part.a_mask) for x in x_basis]), dtype=np.intp
    )
    y_full = np.array(_reference_span([img for img, _ in pivots]), dtype=np.intp)
    odd = graphdiag._popcount(y_pre[:, np.newaxis] & x_c[np.newaxis, :]) & 1
    shifts = (y_full[:, np.newaxis] ^ x_full[np.newaxis, :]).ravel()
    return len(pivots), shifts, (1.0 - 2.0 * odd).ravel(), 1.0 / len(x_c)


TERM_GRAPHS = [f"ring:{n}" for n in range(3, 11)]
TERM_GRAPHS += ["star:6", "star:7", "star:8", "line:7", "grid2d:3x3", "complete:5", "complete:6"]
TERM_GRAPHS += [f"random:{seed}" for seed in range(40)]


def _term_graph(spec):
    kind, size = spec.split(":")
    if kind == "random":
        rng = random.Random(6100 + int(size))
        return random_connected_graph(rng, rng.randint(2, 10))
    return load_graph(spec)


@pytest.mark.parametrize("spec", TERM_GRAPHS)
def test_built_terms_equal_the_reference_construction_in_order(spec):
    # Every split of the graph in one block: ranks, rows in the stacks,
    # shifts, signs and prefactors bit for bit the reference's, in order.
    g = _term_graph(spec)
    parts = list(bipartitions(g))
    ranks, stack_row, stacks = graphdiag._build_terms(g, parts)
    expected = [_reference_terms(g, part) for part in parts]
    assert ranks.tolist() == [e[0] for e in expected]
    assert sorted(stacks) == sorted(set(ranks.tolist()))
    for r, (shifts, signs, prefactor) in stacks.items():
        of_rank = [e for e in expected if e[0] == r]
        assert stack_row[ranks == r].tolist() == list(range(len(of_rank)))
        assert shifts.dtype == np.intp and signs.dtype == np.float64
        assert np.array_equal(shifts, np.stack([e[1] for e in of_rank]))
        assert _bitwise_equal(signs, np.stack([e[2] for e in of_rank]))
        assert {e[3].hex() for e in of_rank} == {prefactor.hex()}


PT_GRAPHS = [f"ring:{n}" for n in range(4, 10)] + ["star:6", "grid2d:3x3", "complete:5"]
PT_GRAPHS += [f"random:{seed}" for seed in range(20)]


@pytest.mark.parametrize("spec", PT_GRAPHS)
def test_pt_spectrum_is_the_gather_on_every_split(spec):
    # Two transforms and one gather per split, on noisy weights and on
    # Dirichlet weights that no channel made.
    g = _term_graph(spec)
    rng = random.Random(6600 + PT_GRAPHS.index(spec))
    weights = [
        lambda_from_pauli(g, random_pauli_channel(rng)).lam,
        np.random.default_rng(rng.randrange(1 << 32)).dirichlet(np.ones(1 << g.n)),
    ]
    for part in bipartitions(g):
        transform = _OneSplit.of(g, part)
        for lam in weights:
            spec_pt = pt_spectrum(GraphDiagonalState(g, lam), part)
            assert np.max(np.abs(spec_pt.lam_prime - transform.apply(lam))) <= 1e-15


@pytest.mark.parametrize("spec", ["ring:7", "star:6", "grid2d:3x3", "random:5", "random:11"])
def test_one_split_transform_is_its_row_of_a_block(spec):
    g = _term_graph(spec)
    parts = list(bipartitions(g))
    ranks, stack_row, stacks = graphdiag._build_terms(g, parts)
    for part, r, row in zip(parts, ranks.tolist(), stack_row.tolist()):
        transform = _OneSplit.of(g, part)
        shifts, signs, prefactor = stacks[r]
        assert transform.rank == r
        assert np.array_equal(transform.shifts, shifts[row])
        assert _bitwise_equal(transform.signs, signs[row])
        assert transform.prefactor.hex() == prefactor.hex()


def _brute_force_terms(g, part, rng):
    """(shift, sign) of every PT term, built from the definitions by enumeration.

    Each Y of the image of Gamma' gets a preimage chosen at random among all
    of them; the sign of a term does not depend on that choice.
    """
    a, c = part.a_mask, part.complement_mask
    subsets = [x for x in range(1 << g.n) if x & ~a == 0]
    gamma = {x: _xor(g.adj[k] for k in range(g.n) if (x >> k) & 1) & c for x in subsets}
    preimages = {}
    for x in subsets:
        preimages.setdefault(gamma[x], []).append(x)
    kernel = preimages[0]
    xs = [x for x in subsets if all((x & k).bit_count() % 2 == 0 for k in kernel)]
    terms = []
    for y, pre in preimages.items():
        a_y = rng.choice(pre)
        terms += [(y ^ x, 1.0 - 2.0 * ((a_y & x).bit_count() % 2)) for x in xs]
    return sorted(terms), len(xs), len(preimages)


@pytest.mark.parametrize("seed", range(12))
def test_transform_terms_match_a_build_from_any_preimage(seed):
    rng = random.Random(3100 + seed)
    n = rng.randint(2, 7)
    g = graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    )
    for part in bipartitions(g):
        transform = _OneSplit.of(g, part)
        terms, n_x, n_y = _brute_force_terms(g, part, rng)
        assert sorted(zip(transform.shifts.tolist(), transform.signs.tolist())) == terms
        assert transform.prefactor == 1.0 / n_x and n_y == 1 << transform.rank


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


def test_pt_spectrum_rejects_a_partition_of_another_size():
    g = make_lattice("ring", 4)
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.7))
    for part in (Bipartition(0b001, 3), Bipartition(0b00001, 5)):
        with pytest.raises(ValidationError, match="sizes differ"):
            pt_spectrum(state, part)


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


@pytest.mark.parametrize("n", [15, 16])
def test_single_vertex_closed_form_above_the_direct_cap(n):
    # Two transforms of 2^n entries: no longer capped with the 4^n sum.
    rng = random.Random(8800 + n)
    g = random_connected_graph(rng, n)
    state = lambda_from_pauli(g, random_pauli_channel(rng))
    assert n > graphdiag.DIRECT_CAP
    for k in range(n):
        spec = pt_spectrum(state, Bipartition(1 << k, n))
        expected = _one_vertex_formula(state.lam, k, neighborhood(g, k))
        assert np.max(np.abs(spec.lam_prime - expected)) <= 1e-12


def test_single_vertex_isolated_falls_back():
    # An isolated vertex can never make the split NPT: its PT is the identity.
    # The gather has the one term of rank 0, so it is the identity bit for
    # bit; the two transforms of pt_spectrum are so up to rounding.
    g = graph_from_edges(3, [(0, 1)])
    part = Bipartition(0b100, 3)
    state = lambda_from_pauli(g, named_channel("depolarizing", 0.6))
    transform = _OneSplit.of(g, part)
    assert transform.rank == 0
    assert np.array_equal(transform.apply(state.lam), state.lam)
    spec = pt_spectrum(state, part)
    assert np.max(np.abs(spec.lam_prime - state.lam)) <= 1e-15
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
    assert _OneSplit.of(g, part).rank == 1
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
    assert spec.min_value < 0.0
    mixed = lambda_from_pauli(g, named_channel("depolarizing", 0.01))
    assert pt_spectrum(mixed, part).min_value >= 0.0


def test_pt_spectrum_trace_validation():
    g = make_lattice("line", 2)
    with pytest.raises(ValidationError):
        PtSpectrum(np.array([0.5, 0.2, 0.1, 0.1]), Bipartition(1, 2), 0.1)


def test_pt_spectrum_capacity():
    n = graphdiag.FAST_CAP + 1
    state = GraphDiagonalState(make_lattice("ring", n), np.full(1 << n, 0.5**n))
    with pytest.raises(CapacityError, match=f"capped at n={graphdiag.FAST_CAP}"):
        pt_spectrum(state, Bipartition(1, n))


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
    # ring:9 is the smallest ring that two workers scan.
    g = make_lattice("ring", graphdiag._POOL_MIN_N)
    for family in FAMILIES:
        serial = scan_partitions(g, family, jobs=1)
        parallel = scan_partitions(g, family, jobs=2)
        assert serial.rows() == parallel.rows()
        assert [e.argmin_mask for e in serial.entries] == [
            e.argmin_mask for e in parallel.entries
        ]


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus, workers", [(3, 3), (1, None), (None, None)])
def test_scan_workers_capped_at_cpu_count(monkeypatch, cpus, workers):
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    # scan_partitions imports the pool class when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(graphdiag.os, "cpu_count", lambda: cpus)
    g = make_lattice("ring", graphdiag._POOL_MIN_N)
    report = scan_partitions(g, DEPHASING, jobs=1000)
    assert _InProcessPool.sizes == ([] if workers is None else [workers])
    assert report.entries == scan_partitions(g, DEPHASING, jobs=1).entries


def test_scans_below_the_pool_size_start_no_worker(monkeypatch):
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(graphdiag.os, "cpu_count", lambda: 4)
    for g in (make_lattice("ring", 6), make_lattice("ring", graphdiag._POOL_MIN_N - 1)):
        scan_partitions(g, DEPOL, jobs=4)
    assert _InProcessPool.sizes == []


def _zero_as_ppt_if_prescan_zero(f, lo, hi):
    """f, or f with every exact zero read as PPT (1.0) when f is exactly
    zero somewhere on the pre-scan grid, the scan's sign rule."""
    if 0.0 not in [f(x) for x in prescan_grid(lo, hi)]:
        return f
    return lambda p: f(p) or 1.0


def _unshared_scan_entry(g, family, part):
    """One split scanned on its own, with fresh weights at every point."""
    transform = _OneSplit.of(g, part)

    def weights(p):
        return lambda_from_pauli(g, family.pauli(p)).lam

    def min_pt(p):
        return float(transform.apply(weights(p)).min())

    lo, hi = SCAN_BRACKET
    result = bisect(_zero_as_ppt_if_prescan_zero(min_pt, lo, hi), lo, hi)
    argmin = int(np.argmin(transform.apply(weights(hi))))
    if result.sign_change_found:
        return PartitionScanEntry(part, "threshold", result.value, argmin, result.iterations)
    status = "always_npt" if min_pt(hi) < 0.0 else "always_ppt"
    return PartitionScanEntry(part, status, math.nan, argmin, 0)


SCAN_GRAPHS = [("ring", 6), ("star", 5), ("ring", 7), ("grid2d", "3x2"), ("line", 6)] + [
    ("random", seed) for seed in range(10)
]


def _scan_graph(kind, size):
    if kind == "random":
        rng = random.Random(2300 + size)
        return random_connected_graph(rng, rng.randint(3, 7))
    return load_graph(f"{kind}:{size}")


@pytest.mark.parametrize("kind,n", SCAN_GRAPHS)
@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_scan_matches_unshared_per_split_reference(kind, n, family):
    g = _scan_graph(kind, n)
    expected = tuple(_unshared_scan_entry(g, family, part) for part in bipartitions(g))
    entries = scan_partitions(g, family).entries
    assert entries == expected
    # Python floats and ints throughout: a numpy scalar would change the repr.
    assert repr(entries) == repr(expected)


@pytest.mark.parametrize("spec", ["ring:7", "grid2d:2x3"])
def test_scan_compacting_its_coefficients_matches_splits_scanned_alone(spec):
    # Under dephasing the splits of these graphs finish in different rounds,
    # so a block's refinement moves the coefficients of the splits still
    # bisecting to the front of its array while others are dropped.
    g = load_graph(spec)
    parts = list(bipartitions(g))
    entries = graphdiag._scan_splits(g, DEPHASING, parts, DEFAULT_TOL)
    assert len({e.iterations for e in entries if e.status == "threshold"}) > 1
    for entry, part in zip(entries, parts):
        (alone,) = graphdiag._scan_splits(g, DEPHASING, [part], DEFAULT_TOL)
        assert entry.partition == alone.partition == part
        assert entry.status == alone.status
        assert float.hex(entry.p_crit) == float.hex(alone.p_crit)
        assert entry.iterations == alone.iterations
        assert entry.argmin_mask == alone.argmin_mask


def test_bitflip_scan_reads_an_exact_zero_minimum_as_ppt():
    # Under bitflip noise the alternating split of ring:6 has a PT minimum of
    # exactly 0.0 up to p = 1/sqrt(3) and a negative one above it.  The zero
    # is PPT, so the threshold is 1/sqrt(3), not the bracket end.
    g = make_lattice("ring", 6)
    part = Bipartition(0b101010, 6)
    (entry,) = [e for e in scan_partitions(g, BITFLIP).entries if e.partition == part]
    root = 1.0 / math.sqrt(3.0)
    assert entry.status == "threshold"
    assert abs(entry.p_crit - root) <= Tolerance().abs_root

    def dense_min(p):
        noisy = apply_uniform_channel(dense_graph_state(g), ChannelMatrix.from_pauli(BITFLIP.pauli(p)))
        return pt_spectrum_dense(noisy, part)[0]

    for p in (0.3, root - 1e-3):
        assert abs(dense_min(p)) <= 1e-12
    for p in (root + 1e-3, 0.9):
        assert dense_min(p) < -1e-5


def test_scan_computes_each_weight_vector_once(monkeypatch):
    seen = []
    mix = graphdiag._mix_weights

    def counting(vertices, probs, shifts):
        seen.append(probs)
        return mix(vertices, probs, shifts)

    monkeypatch.setattr(graphdiag, "_mix_weights", counting)
    g = make_lattice("ring", 6)
    report = scan_partitions(g, DEPOL)
    assert seen
    # Depolarizing probabilities are one-to-one in p, so a repeated tuple
    # would be a repeated p.
    assert len(seen) == len(set(seen))
    # The 65 pre-scan points serve all 31 splits, and splits related by a
    # rotation or reflection of the ring share their bisection points too.
    assert len(seen) < 65 + sum(e.iterations for e in report.entries)


@pytest.mark.parametrize("n", [7, 10])
def test_scan_memory_stays_within_its_stated_budget(monkeypatch, n):
    # The budget _scan_splits states: a block's coefficients twice over plus
    # its stacked terms (at most 2/(n + 1) of them), the weights cache (2^n
    # floats per distinct p) and four temporaries of _stack_rows(n) rows of
    # 2^n floats: 2^15 entries (256 rows) at n = 7, 128 rows from n = 8.  A
    # temporary the size of a block's coefficients, or one held from the
    # pre-scan into the refinement, exceeds it.
    g = make_lattice("ring", n)
    scan_partitions(make_lattice("ring", 4), DEPHASING)  # anything loaded on first use
    cached = []
    mix = graphdiag._mix_weights

    def counting(vertices, probs, shifts):
        cached.append(probs)
        return mix(vertices, probs, shifts)

    monkeypatch.setattr(graphdiag, "_mix_weights", counting)
    tracemalloc.start()
    try:
        scan_partitions(g, DEPHASING)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cached
    row = 8 << n  # bytes of 2^n floats
    block = min(2 ** (n - 1) - 1, graphdiag._SCAN_BLOCK // ((n + 1) << n))
    coefficients = block * (n + 1) * row
    budget = (2 + 2 / (n + 1)) * coefficients + len(cached) * row
    assert graphdiag._stack_rows(n) == {7: 256, 10: 128}[n]
    budget += 4 * graphdiag._stack_rows(n) * row
    assert peak <= budget


def test_scan_builds_each_transform_once(monkeypatch):
    # Each split's terms are built once, by _build_terms, one call per block.
    built = []
    build = graphdiag._build_terms

    def counting(g, parts):
        built.extend(part.a_mask for part in parts)
        return build(g, parts)

    monkeypatch.setattr(graphdiag, "_build_terms", counting)
    scan_partitions(make_lattice("ring", 9), DEPHASING)
    assert len(built) == len(set(built)) == 255


def _block_of(splits, n):
    """A _SCAN_BLOCK that holds exactly `splits` splits of an n-vertex graph."""
    return splits * ((n + 1) << n)


@pytest.mark.parametrize("spec", ["ring:8", "line:7"])
@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_scan_holds_the_transforms_of_one_block_at_most(monkeypatch, spec, family):
    # A block's stacked terms live until the block ends, and no longer: when
    # the next block's terms are built, and when the scan returns, every
    # array _build_terms gave an earlier block is freed.
    g = load_graph(spec)
    blocks = []  # weak references to the arrays of each block's terms
    build = graphdiag._build_terms

    def recording(g, parts):
        assert all(ref() is None for refs in blocks for ref in refs)
        ranks, stack_row, stacks = build(g, parts)
        arrays = [ranks, stack_row] + [a for shifts, signs, _ in stacks.values() for a in (shifts, signs)]
        blocks.append([weakref.ref(a) for a in arrays])
        return ranks, stack_row, stacks

    monkeypatch.setattr(graphdiag, "_build_terms", recording)
    monkeypatch.setattr(graphdiag, "_SCAN_BLOCK", _block_of(3, g.n))
    report = scan_partitions(g, family)
    assert len(blocks) == math.ceil((2 ** (g.n - 1) - 1) / 3)
    assert all(ref() is None for refs in blocks for ref in refs)
    assert len(report.entries) == 2 ** (g.n - 1) - 1


@pytest.mark.parametrize("spec", ["ring:7", "ring:9"])
def test_scan_gathers_into_one_pair_of_buffers(monkeypatch, spec):
    # Every gather pass of a scan slices the same two buffers, of
    # _stack_rows(n) rows of 2^n entries, and fits in them; at n = 7 that
    # is 2^15 entries, so rank-3 splits (64 terms) share a pass.
    g = load_graph(spec)
    bound = graphdiag._stack_rows(g.n) << g.n
    passes = []
    gather = graphdiag._gather

    def recording(shifts, signs, prefactor, lams, rows, index, gathered):
        passes.append((index, gathered, len(shifts), min(shifts.shape[1], 128)))
        return gather(shifts, signs, prefactor, lams, rows, index, gathered)

    monkeypatch.setattr(graphdiag, "_gather", recording)
    scan_partitions(g, DEPHASING)
    index, gathered = passes[0][:2]
    assert index.shape == gathered.shape == (bound,)
    assert index.dtype == np.intp and gathered.dtype == np.float64
    for pass_index, pass_gathered, stack, k in passes:
        assert pass_index is index and pass_gathered is gathered
        assert stack * k << g.n <= bound
    if g.n == 7:
        assert bound == 1 << 15
        assert max(stack for *_, stack, k in passes if k == 64) == 4


def test_scan_and_pt_spectrum_without_numpy_bitwise_count(monkeypatch):
    # NumPy 1.x has no bitwise_count; the bit counts must not need it.
    g = make_lattice("ring", 6)
    expected_pt = pt_spectrum(lambda_from_pauli(g, DEPOL.pauli(0.4)), Bipartition(0b101, 6))
    expected = {family.kind: scan_partitions(g, family).entries for family in FAMILIES}
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert not hasattr(np, "bitwise_count")
    spec = pt_spectrum(lambda_from_pauli(g, DEPOL.pauli(0.4)), Bipartition(0b101, 6))
    assert _bitwise_equal(spec.lam_prime, expected_pt.lam_prime)
    for family in FAMILIES:
        assert scan_partitions(g, family).entries == expected[family.kind]


def _gather_steered_points(g, family, part):
    """The points where a scan of one split evaluates, bisecting on the
    gather alone, without the clean end (which the scan always gathers)."""
    transform = _OneSplit.of(g, part)

    def min_pt(p):
        return float(transform.apply(lambda_from_pauli(g, family.pauli(p)).lam).min())

    lo, hi = SCAN_BRACKET
    min_pt = _zero_as_ppt_if_prescan_zero(min_pt, lo, hi)
    points = []
    bisect(lambda p: points.append(p) or min_pt(p), lo, hi)
    # bisect evaluates the whole pre-scan grid, hi last, then each midpoint.
    del points[len(prescan_grid(lo, hi)) - 1]
    return points, transform.rank


def _undecided(form, part, points, rank):
    """The points (of the pre-scan grid without its clean end, then the
    refinement points) where the coefficient form is within its bound."""
    assert points[:PRESCAN_POINTS] == prescan_grid(*SCAN_BRACKET)[:-1]
    coefficients = form.coefficients(np.array([part.a_mask]))[0]
    mins = (form.powers(np.array(points)) @ coefficients).min(axis=1)
    return [p for p, v in zip(points, mins) if abs(v) <= fourier_bound(form.n, rank)]


@pytest.mark.parametrize(
    "kind,n,family",
    [("ring", 6, DEPHASING), ("star", 5, BITFLIP), ("ring", 6, DEPOL)],
    ids=["ring-6-dephasing", "star-5-bitflip", "ring-6-depolarizing"],
)
def test_scan_gathers_the_clean_end_and_each_undecided_value(monkeypatch, kind, n, family):
    # Every (split, weight vector) pair the stacked gathers hold: each split
    # gathers its clean end first, then exactly its undecided values.
    g = make_lattice(kind, n)
    parts = list(bipartitions(g))
    form = FourierForm.of(g, family.kind)
    expected = {}
    for part in parts:
        points, rank = _gather_steered_points(g, family, part)
        expected[part.a_mask] = [SCAN_BRACKET[1]] + _undecided(form, part, points, rank)
    terms = {}
    for part in parts:
        transform = _OneSplit.of(g, part)
        terms[transform.shifts.tobytes(), transform.signs.tobytes()] = part.a_mask
    assert len(terms) == len(parts)  # the terms name the split
    gathered = {}
    gather = graphdiag._gather

    def recording(shifts, signs, prefactor, lams, rows, *buffers):
        for i in range(len(shifts)):
            mask = terms[shifts[i].tobytes(), signs[i].tobytes()]
            lam = lams[rows[i]]
            gathered.setdefault(mask, []).append(lam.copy())
        return gather(shifts, signs, prefactor, lams, rows, *buffers)

    monkeypatch.setattr(graphdiag, "_gather", recording)
    scan_partitions(g, family)
    assert {mask: len(lams) for mask, lams in gathered.items()} == {
        mask: len(points) for mask, points in expected.items()
    }
    for mask, lams in gathered.items():
        weights = [lambda_from_pauli(g, family.pauli(p)).lam for p in expected[mask]]
        assert np.array_equal(lams[0], weights[0])  # the clean end
        assert sorted(lam.tobytes() for lam in lams) == sorted(w.tobytes() for w in weights)
    if family is not DEPOL:
        assert sum(map(len, expected.values())) > len(expected)  # some values fell back


def _check_fourier_against_gather(g, family, part, ps):
    """At ps and at the points closest to the split's threshold, where the
    sign is hardest, the coefficient form is within its bound of the gather
    and, where it is beyond the bound, has the sign of the nonzero gather."""
    transform = _OneSplit.of(g, part)

    def gather(q):
        return transform.apply(lambda_from_pauli(g, family.pauli(q)).lam)

    ps = list(ps)
    try:
        root = bisect(lambda q: float(gather(q).min()), *SCAN_BRACKET)
    except MultipleCrossingsError:
        root = None
    if root is not None and root.sign_change_found:
        ps += [min(max(root.value + d, 0.0), 1.0) for d in (-1e-12, 0.0, 1e-12)]
    form = FourierForm.of(g, family.kind)
    bound = fourier_bound(g.n, transform.rank)
    ps = np.array(ps)
    products = form.powers(ps) @ form.coefficients(np.array([part.a_mask]))[0]
    for q, row in zip(ps, products):
        exact = gather(q)
        assert np.max(np.abs(row - exact)) <= bound
        if abs(row.min()) > bound:
            assert exact.min() != 0.0
            assert (row.min() < 0.0) == (exact.min() < 0.0)
    return transform.rank


@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(2, 8),
    family=st.sampled_from(FAMILIES),
    p=st.floats(*SCAN_BRACKET),
)
@settings(max_examples=60, deadline=None)
def test_fourier_form_is_within_its_bound_of_the_gather(rng, n, family, p):
    g = random_connected_graph(rng, n)
    part = Bipartition(rng.randrange(1, 1 << (n - 1)) << 1, n)
    _check_fourier_against_gather(g, family, part, [p])


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_fourier_form_is_within_its_bound_at_the_largest_rank(n, family):
    # The split of largest rank, floor(n / 2), has the largest gather sum.
    g = make_lattice("ring", n)
    part = max(bipartitions(g), key=lambda part: _OneSplit.of(g, part).rank)
    rank = _check_fourier_against_gather(g, family, part, prescan_grid(*SCAN_BRACKET))
    assert rank == n // 2


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_coefficients_are_integers_bounded_by_two_to_the_n(n, family):
    rng = random.Random(4100 + n)
    g = random_connected_graph(rng, n)
    form = FourierForm.of(g, family.kind)
    a_masks = np.array([part.a_mask for part in bipartitions(g)])
    coefficients = form.coefficients(a_masks)
    assert coefficients.shape == (len(a_masks), n + 1, 1 << n)
    assert np.array_equal(coefficients, np.round(coefficients))
    assert np.abs(coefficients).max() <= 2**n
    # The PT keeps the trace at every p: sum_U C[d, U] is 2^n for d = 0, else 0.
    trace = np.where(np.arange(n + 1) == 0, 2.0**n, 0.0)
    assert np.all(coefficients.sum(axis=2) == trace)


@pytest.mark.parametrize(
    "spec", ["ring:6", "ring:7", "ring:8", "line:7", "star:6", "grid2d:2x3", "complete:5"]
)
@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_scan_entries_do_not_depend_on_the_blocks(monkeypatch, spec, family):
    # Blocks of one split, of three, and one block of every split, in one
    # process and in two workers: the entries are the gather's each time.
    g = load_graph(spec)
    parts = list(bipartitions(g))
    expected = repr(tuple(_unshared_scan_entry(g, family, part) for part in parts))
    monkeypatch.setattr(graphdiag, "_SCAN_BLOCK", _block_of(len(parts), g.n))
    assert repr(scan_partitions(g, family).entries) == expected
    for splits in (1, 3):
        monkeypatch.setattr(graphdiag, "_SCAN_BLOCK", _block_of(splits, g.n))
        assert repr(scan_partitions(g, family).entries) == expected
    monkeypatch.setattr(graphdiag, "_POOL_MIN_N", 2)  # pool these small graphs too
    assert repr(scan_partitions(g, family, jobs=2).entries) == expected


def test_scan_rejects_weighted_and_non_pauli():
    wg = graph_from_edges(3, [(0, 1), (1, 2)], weights={(0, 1): 2.0})
    with pytest.raises(ValidationError):
        scan_partitions(wg, DEPOL)
    qo = ChannelFamily.from_spec({"kind": "qo", "B": 1.0, "C": 0.6, "s": 0.4})
    with pytest.raises(ValidationError):
        scan_partitions(make_lattice("ring", 4), qo)


def test_scan_above_the_direct_cap_raises_before_listing_a_split(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the scan went on to its splits")

    monkeypatch.setattr(graphdiag, "bipartitions", unreachable)
    monkeypatch.setattr(graphdiag, "_scan_splits", unreachable)
    for n in (graphdiag.DIRECT_CAP + 1, 20):
        with pytest.raises(CapacityError, match=f"capped at n={graphdiag.DIRECT_CAP}"):
            scan_partitions(make_lattice("ring", n), DEPOL, jobs=2)
    with pytest.raises(AssertionError):  # the cap lets DIRECT_CAP itself through
        scan_partitions(make_lattice("ring", graphdiag.DIRECT_CAP), DEPOL)


def test_scan_of_a_single_vertex_raises():
    with pytest.raises(ValidationError, match="no bipartition"):
        scan_partitions(graph_from_edges(1, []), DEPOL)


def test_scan_entry_fields_and_verdict_text():
    g = make_lattice("line", 3)
    report = scan_partitions(g, DEPOL, tol=Tolerance(abs_root=1e-12))
    for e in report.entries:
        state = lambda_from_pauli(g, DEPOL.pauli(e.p_crit + 1e-6))
        assert pt_spectrum(state, e.partition).min_value < 0.0
        assert e.iterations > 0
    assert "necessary" in NPT_VERDICT
