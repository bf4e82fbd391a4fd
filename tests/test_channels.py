import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeco.channels import (
    NAMED_EXPONENTS,
    SIGMA,
    ChannelFamily,
    ChannelMatrix,
    DephasingSplit,
    PauliChannel,
    QoChannel,
    _qo_breaking_gap,
    decay_gamma,
    decay_kraus,
    depolarizing_eb_threshold,
    eb_threshold,
    extract_dephasing,
    is_entanglement_breaking_qo,
    jamiolkowski_state,
    minimal_dephasing_matrix,
    minimal_dephasing_pauli,
    named_channel,
    named_probs,
    qo_snapshot,
)
from qdeco.errors import ValidationError
from qdeco.numeric import DEFAULT_TOL, min_eig, partial_transpose, prescan_grid


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def pauli_probs(rng):
    raw = rng.uniform(0.05, 1.0, size=4)
    return raw / raw.sum()


# --- Pauli channels -------------------------------------------------------


def test_pauli_channel_validation():
    with pytest.raises(ValidationError):
        PauliChannel(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValidationError):
        PauliChannel(0.5, 0.1, 0.1, 0.1)


def test_named_channel_forms():
    d = named_channel("depolarizing", 0.6)
    assert d.probs == pytest.approx(((1 + 1.8) / 4, 0.1, 0.1, 0.1))
    z = named_channel("dephasing", 0.6)
    assert z.probs == pytest.approx((0.8, 0.0, 0.0, 0.2))
    x = named_channel("bitflip", 0.6)
    assert x.probs == pytest.approx((0.8, 0.2, 0.0, 0.0))
    with pytest.raises(ValidationError):
        named_channel("depolarizing", 1.5)
    with pytest.raises(ValidationError):
        named_channel("amplitude", 0.5)


def dephasing(p):
    return ChannelMatrix.from_pauli(named_channel("dephasing", p))


@pytest.mark.parametrize("kind", sorted(NAMED_EXPONENTS))
def test_named_exponents_are_the_pauli_eigenvalues_of_named_probs(kind):
    # Each eigenvalue is a signed sum of probabilities of order 1, so it
    # rounds in ulps of 1, not of its own size.
    x, y, z = NAMED_EXPONENTS[kind]
    for p in np.linspace(0.0, 1.0, 101):
        p = float(p)
        got = PauliChannel(*named_probs(kind, p)).eigenvalues
        for e, want in zip(got, (p**x, p**y, p**z)):
            assert abs(e - want) <= 4 * math.ulp(1.0), (p, got)


def test_pauli_eigenvalues_of_a_general_channel():
    ch = PauliChannel(0.5, 0.25, 0.125, 0.125)
    assert ch.eigenvalues == (0.5, 0.25, 0.25)
    # Each eigenvalue is the trace of sigma E(sigma) / 2 of the superoperator.
    m = ChannelMatrix.from_pauli(ch)
    for sigma, e in zip(SIGMA[1:], ch.eigenvalues):
        assert np.trace(sigma @ m.apply(sigma)).real / 2 == pytest.approx(e, abs=1e-15)


def test_compose_dephasing_multiplies():
    m = dephasing(0.9).compose(dephasing(0.8))
    assert np.allclose(m.p, dephasing(0.72).p, atol=1e-12)


def test_channel_application_matches_explicit_mixing():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = pauli_probs(rng)
        ch = ChannelMatrix.from_pauli(PauliChannel(*p))
        rho = random_density(rng)
        expected = sum(w * s @ rho @ s.conj().T for w, s in zip(p, SIGMA))
        assert np.allclose(ch.apply(rho), expected, atol=1e-12)


def test_superop_round_trip_and_action():
    rng = np.random.default_rng(1)
    p = pauli_probs(rng)
    ch = ChannelMatrix.from_pauli(PauliChannel(*p))
    s = ch.to_superop()
    back = ChannelMatrix.from_superop(s)
    assert np.allclose(back.p, ch.p, atol=1e-12)
    rho = random_density(rng)
    assert np.allclose(
        (s @ rho.reshape(-1)).reshape(2, 2), ch.apply(rho), atol=1e-12
    )


# --- Quantum-optical channel ----------------------------------------------


def test_qo_channel_validation():
    with pytest.raises(ValidationError):
        QoChannel(B=2.0, C=0.5, s=0.5)  # violates 2C >= B
    with pytest.raises(ValidationError):
        QoChannel(B=1.0, C=1.0, s=1.5)
    with pytest.raises(ValidationError):
        QoChannel(B=-1.0, C=1.0, s=0.5)


def test_qo_snapshot_identities():
    ch = QoChannel(B=1.0, C=0.8, s=0.3)
    for t in (0.0, 0.2, 1.5, 7.0):
        snap = qo_snapshot(ch, t)
        assert sum(snap.lambdas) == pytest.approx(1.0)
        assert snap.a + snap.c == pytest.approx(1.0 + math.exp(-ch.B * t))
        assert snap.lambda0 - snap.lambda3 == pytest.approx(snap.b)
        assert snap.lambda1 == snap.lambda2
    assert qo_snapshot(ch, 0.0).lambdas == pytest.approx((1.0, 0.0, 0.0, 0.0))


def test_qo_matrix_is_a_valid_channel_but_not_unital():
    m = ChannelFamily.from_spec({"kind": "qo", "B": 1.0, "C": 0.9, "s": 0.25}).matrix(0.7)
    rho = jamiolkowski_state(m)  # validates CP + trace
    assert m.is_trace_preserving()
    # The pump toward the bath equilibrium makes the map non-unital: the
    # output-side reduction of the dual state is polarized.
    reduced = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))
    assert not np.allclose(reduced, np.eye(2) / 2, atol=1e-6)


def test_qo_symmetric_bath_has_no_coherence_term():
    snap = qo_snapshot(QoChannel(B=1.0, C=1.0, s=0.5), 0.9)
    assert snap.mu == 0.0
    m = ChannelMatrix.from_qo_snapshot(snap)
    assert np.allclose(m.p, np.diag(np.diag(m.p)), atol=1e-15)


# --- Decay channel ----------------------------------------------------------


def test_decay_kraus_completeness():
    for kt in (0.0, 0.3, 2.0):
        ops = decay_kraus(decay_gamma(kt))
        total = sum(k.conj().T @ k for k in ops)
        assert np.allclose(total, np.eye(2), atol=1e-12)


def test_decay_matrix_matches_kraus_action():
    rng = np.random.default_rng(2)
    gamma = 0.35
    ops = decay_kraus(gamma)
    ch = ChannelMatrix.from_kraus(ops)
    rho = random_density(rng)
    expected = sum(k @ rho @ k.conj().T for k in ops)
    assert np.allclose(ch.apply(rho), expected, atol=1e-12)


# --- Entanglement breaking ---------------------------------------------------


def test_pauli_breaking_predicate():
    # A qubit channel breaks entanglement iff its dual state is PPT.
    def dual_pt_min(p):
        ch = ChannelMatrix.from_pauli(named_channel("depolarizing", p))
        return min_eig(partial_transpose(jamiolkowski_state(ch), 1))

    assert dual_pt_min(0.2) >= DEFAULT_TOL.eig_floor(4)
    assert dual_pt_min(1 / 3) >= DEFAULT_TOL.eig_floor(4)
    assert dual_pt_min(0.34) < DEFAULT_TOL.eig_floor(4)


def test_depolarizing_eb_threshold_is_exactly_one_third():
    assert depolarizing_eb_threshold() == 1.0 / 3.0


def test_eb_threshold_routes_agree_for_depolarizing():
    fam = ChannelFamily.from_spec("depolarizing")
    a = eb_threshold(fam, via="analytic")
    j = eb_threshold(fam, via="jamiolkowski")
    assert a.sign_change_found and j.sign_change_found
    assert a.value == pytest.approx(1 / 3, abs=1e-8)
    assert abs(a.value - j.value) < 1e-6


def test_eb_threshold_routes_agree_for_qo():
    fam = ChannelFamily.from_spec({"kind": "qo", "B": 1.0, "C": 1.0, "s": 0.5})
    a = eb_threshold(fam, via="analytic")
    j = eb_threshold(fam, via="jamiolkowski")
    # (e^t - 1)/2 = 1 at t = ln 3 for these rates.
    assert a.value == pytest.approx(math.log(3.0), abs=1e-8)
    assert abs(a.value - j.value) < 1e-6
    assert is_entanglement_breaking_qo(QoChannel(1.0, 1.0, 0.5), a.value + 1e-6)
    assert not is_entanglement_breaking_qo(QoChannel(1.0, 1.0, 0.5), a.value - 1e-6)
    # From C = 7.1 on, e^(2Ct) passes the float range inside the bracket.
    roots = {}
    for c in (7.2, 20.0):
        fam = ChannelFamily.from_spec({"kind": "qo", "B": 1.0, "C": c, "s": 0.3})
        a = eb_threshold(fam, via="analytic")
        j = eb_threshold(fam, via="jamiolkowski")
        assert a.sign_change_found and abs(a.value - j.value) < 1e-6
        assert is_entanglement_breaking_qo(QoChannel(1.0, c, 0.3), 50.0)
        assert not is_entanglement_breaking_qo(QoChannel(1.0, c, 0.3), a.value - 1e-6)
        roots[c] = a.value
    assert roots[20.0] == pytest.approx(0.14058635192343, abs=1e-12)


def test_qo_breaking_gap_stays_finite_where_ct_overflows():
    # From C = 3.6e306 the gap's sum passes the float range inside the
    # bracket (at C = 8e307, C t itself does from t = 2.25).  The gap is
    # positive there and must stay finite: bisect rejected inf.
    ch = QoChannel(1.0, 8e307, 0.3)
    gaps = [_qo_breaking_gap(ch, t) for t in prescan_grid(1e-9, 50.0)]
    assert all(0.0 < gap < math.inf for gap in gaps)
    assert gaps[-1] == sys.float_info.max
    # The channel breaks from t = 1e-9 on, so neither route finds a crossing.
    fam = ChannelFamily.from_spec({"kind": "qo", "B": 1, "C": 8e307, "s": 0.3})
    for via in ("analytic", "jamiolkowski"):
        assert not eb_threshold(fam, via=via).sign_change_found
    assert is_entanglement_breaking_qo(ch, 1e-9)


def test_decay_never_breaks():
    from qdeco.numeric import min_eig

    idx = np.arange(4)
    rows = (idx[:, None] & ~1) | (idx[None, :] & 1)
    cols = (idx[None, :] & ~1) | (idx[:, None] & 1)
    for kappa in (1.0, 3.0):
        fam = ChannelFamily.from_spec({"kind": "decay", "kappa": kappa})
        res = eb_threshold(fam, via="analytic")
        assert not res.sign_change_found
        # Past kappa t ~ 38 the dual state's PT minimum underflows to
        # exactly 0.0, which is not certified PPT: the dual-state route
        # reports no crossing either, not the bracket end.
        res = eb_threshold(fam, via="jamiolkowski")
        assert not res.sign_change_found and math.isnan(res.value)
        # The dual-state route certifies strict NPT wherever round-off still
        # resolves the surviving coherence.
        for t in np.linspace(0.1, 30.0, 16) / kappa:
            state = jamiolkowski_state(fam.matrix(float(t)))
            pt = np.zeros_like(state)
            pt[rows, cols] = state
            assert min_eig(pt) < 0.0


def test_dephasing_never_breaks_for_positive_p():
    res = eb_threshold(ChannelFamily.from_spec("dephasing"), via="analytic")
    assert not res.sign_change_found


# --- Dephasing extraction ----------------------------------------------------


def test_extract_dephasing_recomposes_exactly():
    rng = np.random.default_rng(3)
    ch = ChannelMatrix.from_pauli(PauliChannel(*pauli_probs(rng)))
    split = extract_dephasing(ch, 0.7)
    assert isinstance(split, DephasingSplit)
    recomposed = split.residual.compose(dephasing(0.7))
    assert np.allclose(recomposed.p, ch.p, atol=1e-10)


def test_minimal_dephasing_closed_forms():
    # Depolarizing: largest extractable dephasing parameter is 2p/(1+p).
    for p in (0.1, 0.5, 0.9):
        got = minimal_dephasing_pauli(named_channel("depolarizing", p))
        assert got == pytest.approx(2 * p / (1 + p), abs=1e-12)
    # A dephasing channel is its own extraction.
    for p in (0.2, 0.8):
        assert minimal_dephasing_pauli(named_channel("dephasing", p)) == pytest.approx(
            p, abs=1e-12
        )
    # Bitflip has a one-sided zero pair: nothing extractable.
    assert minimal_dephasing_pauli(named_channel("bitflip", 0.4)) is None
    # The identity admits only the trivial split.
    assert minimal_dephasing_pauli(PauliChannel(1.0, 0.0, 0.0, 0.0)) is None


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_minimal_dephasing_matrix_route_agrees(seed):
    rng = np.random.default_rng(seed)
    ch = PauliChannel(*pauli_probs(rng))
    closed = minimal_dephasing_pauli(ch)
    numeric = minimal_dephasing_matrix(ChannelMatrix.from_pauli(ch))
    assert closed is not None and numeric is not None
    assert abs(closed - numeric) < 1e-6


def test_minimal_dephasing_matrix_none_for_bitflip():
    m = ChannelMatrix.from_pauli(named_channel("bitflip", 0.4))
    assert minimal_dephasing_matrix(m) is None


# --- Jamiolkowski dual state -------------------------------------------------


def test_jamiolkowski_of_pauli_is_bell_diagonal():
    rng = np.random.default_rng(4)
    p = pauli_probs(rng)
    rho = jamiolkowski_state(ChannelMatrix.from_pauli(PauliChannel(*p)))
    eigs = np.sort(np.linalg.eigvalsh(rho))
    assert np.allclose(eigs, np.sort(p), atol=1e-12)


def test_jamiolkowski_rejects_non_cp():
    bad = ChannelMatrix(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValidationError):
        jamiolkowski_state(bad)


# --- Channel family specs ----------------------------------------------------


def test_family_spec_parsing():
    fam = ChannelFamily.from_spec("depolarizing")
    assert fam.is_pauli_family and fam.kind == "depolarizing"
    fam = ChannelFamily.from_spec({"kind": "qo", "B": 1.0, "C": 1.0, "s": 0.5})
    assert not fam.is_pauli_family
    assert fam.param("s") == 0.5
    assert fam.param("missing", 7.0) == 7.0
    with pytest.raises(ValidationError):
        fam.param("missing")
    # Keys that nothing reads are rejected, not silently ignored.
    for spec in (
        {"kind": "depolarizing", "B": 1.0},
        {"kind": "depolarizing", "p": 0.3},
        {"kind": "qo", "B": 1.0, "C": 1.0, "s": 0.5, "t": 2.0},
        {"kind": "decay", "kappa": 1.0, "t": 2.0},
        {"kind": "decay", "kappa": -1.0},
        {"kind": "decay", "kappa": -1e-300},
    ):
        with pytest.raises(ValidationError):
            ChannelFamily.from_spec(spec)
    with pytest.raises(ValidationError):
        ChannelFamily.from_spec({"kind": "nonsense"})
    with pytest.raises(ValidationError):
        ChannelFamily.from_spec({"p": 0.5})


@pytest.mark.parametrize("bad", [True, False, "0.5", None, [0.5], {"x": 0.5}])
def test_channel_parameters_must_be_int_or_float(bad):
    # JSON true and false load as bool, a subclass of int; float() would
    # read them, and numeric strings, as numbers.
    for spec in (
        {"kind": "decay", "kappa": bad},
        {"kind": "qo", "B": 1.0, "C": bad, "s": 0.5},
        {"kind": "pauli", "p0": 1.0, "p1": 0.0, "p2": 0.0, "p3": bad},
    ):
        with pytest.raises(ValidationError, match=r"channel parameter '\w+' must be a number"):
            ChannelFamily.from_spec(spec)


def test_integer_channel_parameters_read_as_floats():
    fam = ChannelFamily.from_spec({"kind": "qo", "B": 1, "C": 0.5, "s": 0})
    assert fam.params == (("B", 1.0), ("C", 0.5), ("s", 0.0))
    assert all(type(v) is float for _, v in fam.params)
    with pytest.raises(ValidationError, match="must be finite"):
        ChannelFamily.from_spec({"kind": "decay", "kappa": 10**400})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan"])
def test_non_finite_channel_parameters_are_rejected(bad):
    for spec in (
        {"kind": "qo", "B": bad, "C": 1.0, "s": 0.5},
        {"kind": "qo", "B": 1.0, "C": bad, "s": 0.5},
        {"kind": "decay", "kappa": bad},
        {"kind": "pauli", "p0": bad, "p1": 0.0, "p2": 0.0, "p3": 0.0},
    ):
        # The string "nan" is not a number at all.
        match = "must be a number" if isinstance(bad, str) else "must be finite"
        with pytest.raises(ValidationError, match=match):
            ChannelFamily.from_spec(spec)
    bad = float(bad)
    with pytest.raises(ValidationError):
        PauliChannel(bad, 0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        PauliChannel(0.5, 0.5, 0.0, bad)
    for rates in ((bad, 1.0, 0.5), (1.0, bad, 0.5), (bad, bad, 0.5), (1.0, 1.0, bad)):
        with pytest.raises(ValidationError):
            QoChannel(*rates)


def test_family_matrix_axes():
    dep = ChannelFamily.from_spec("depolarizing").matrix(0.4)
    assert np.allclose(
        dep.p, ChannelMatrix.from_pauli(named_channel("depolarizing", 0.4)).p
    )
    decay = ChannelFamily.from_spec({"kind": "decay", "kappa": 2.0})
    assert np.allclose(
        decay.matrix(0.5).p,
        ChannelMatrix.from_kraus(decay_kraus(decay_gamma(1.0))).p,
        atol=1e-12,
    )
    fixed_pauli = ChannelFamily.from_spec(
        {"kind": "pauli", "p0": 0.7, "p1": 0.1, "p2": 0.1, "p3": 0.1}
    )
    assert np.allclose(
        fixed_pauli.matrix(0.5).p,
        ChannelMatrix.from_pauli(PauliChannel(0.7, 0.1, 0.1, 0.1)).p,
    )


def test_eb_threshold_rejects_fixed_pauli():
    fam = ChannelFamily.from_spec(
        {"kind": "pauli", "p0": 0.7, "p1": 0.1, "p2": 0.1, "p3": 0.1}
    )
    with pytest.raises(ValidationError):
        eb_threshold(fam)


# --- NaN times --------------------------------------------------------------
# t < 0 is False for NaN, so these computed with a NaN time instead of raising.

QO = QoChannel(B=1.0, C=0.6, s=0.4)


def test_qo_snapshot_rejects_a_nan_time():
    with pytest.raises(ValidationError):
        qo_snapshot(QO, math.nan)


def test_decay_gamma_rejects_a_nan_time():
    with pytest.raises(ValidationError):
        decay_gamma(math.nan)


def test_is_entanglement_breaking_qo_rejects_a_nan_time():
    with pytest.raises(ValidationError):
        is_entanglement_breaking_qo(QO, math.nan)
