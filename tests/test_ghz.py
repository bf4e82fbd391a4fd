import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeco import ghz
from qdeco.channels import ChannelMatrix, QoChannel, named_channel, qo_snapshot
from qdeco.errors import CapacityError, ValidationError
from qdeco.ghz import (
    GHZ_CAP,
    GhzDiagonal,
    blockwise_lower_M,
    blockwise_lower_M_from_kt,
    blockwise_qo_upper_M,
    blockwise_upper_M,
    blockwise_upper_M_from_kt,
    blockwise_upper_M_small_kt,
    ghz_depol_coeffs,
    ghz_lifetime,
    ghz_qo_coeffs,
)
from qdeco.graphs import Bipartition
from qdeco.numeric import bisect
from qdeco.oracle import (
    apply_uniform_channel,
    dense_ghz,
    ghz_structure,
    is_ppt_dense,
)

QO = QoChannel(B=1.0, C=0.8, s=0.3)


# --- Coefficient formulas vs the dense oracle -------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 6])
@pytest.mark.parametrize("p", [0.15, 0.6, 0.93])
def test_depolarizing_coefficients_match_dense(n, p):
    d = ghz_depol_coeffs(n, p)
    noisy = apply_uniform_channel(
        dense_ghz(n), ChannelMatrix.from_pauli(named_channel("depolarizing", p))
    )
    lam, mu = ghz_structure(noisy)
    assert np.allclose(lam, d.lam, atol=1e-12)
    assert mu == pytest.approx(d.mu, abs=1e-12)
    assert d.symmetric


@pytest.mark.parametrize("n", [2, 4, 5])
@pytest.mark.parametrize("t", [0.13, 0.9, 2.7])
def test_qo_coefficients_match_dense(n, t):
    d = ghz_qo_coeffs(n, QO, t)
    noisy = apply_uniform_channel(
        dense_ghz(n), ChannelMatrix.from_qo_snapshot(qo_snapshot(QO, t))
    )
    lam, mu = ghz_structure(noisy)
    assert np.allclose(lam, d.lam, atol=1e-12)
    assert mu == pytest.approx(d.mu, abs=1e-12)
    # An asymmetric bath (s != 1/2) breaks the k <-> n-k symmetry.
    assert not d.symmetric


def test_validation_of_diagonal_state():
    with pytest.raises(ValidationError):
        GhzDiagonal(2, (0.5, 0.1), 0.0, True)  # wrong length
    with pytest.raises(ValidationError):
        GhzDiagonal(2, (0.5, 0.25, -0.5), 0.0, True)
    with pytest.raises(ValidationError):
        GhzDiagonal(2, (0.5, 0.0, 0.5), 0.9, True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_diagonal_state_rejects_non_finite_entries(bad):
    # Every comparison with NaN is False, so all-NaN coefficients (or a NaN
    # mu) passed the sign, sum and |mu| checks.
    with pytest.raises(ValidationError, match="finite"):
        GhzDiagonal(2, (bad,) * 3, bad, True)
    with pytest.raises(ValidationError, match="finite"):
        GhzDiagonal(2, (0.5, 0.0, 0.5), bad, True)
    with pytest.raises(ValidationError, match="finite"):
        GhzDiagonal(2, (bad, 0.0, 0.5), 0.0, True)


# --- Partial-transpose condition --------------------------------------------


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 2)])
def test_ppt_condition_matches_dense_partial_transpose(n, k):
    crit = ghz_lifetime(n, k).value
    for p in (crit - 0.02, crit + 0.02):
        noisy = apply_uniform_channel(
            dense_ghz(n), ChannelMatrix.from_pauli(named_channel("depolarizing", p))
        )
        # Any size-k subset will do; the state is permutation invariant.
        part = Bipartition((1 << k) - 1, n)
        assert is_ppt_dense(noisy, part) == (p < crit)


def test_two_qubit_lifetime_is_inverse_sqrt_three():
    r = ghz_lifetime(2, 1)
    assert r.sign_change_found
    assert r.value == pytest.approx(1 / math.sqrt(3), abs=1e-9)
    assert r.kt == pytest.approx(0.5 * math.log(3), abs=1e-8)


def test_one_vs_rest_is_most_fragile():
    # The single-party transpose turns positive at the largest p, i.e.
    # earliest in time; balanced splits survive longest.
    p1 = ghz_lifetime(6, 1).value
    p2 = ghz_lifetime(6, 2).value
    p3 = ghz_lifetime(6, 3).value
    assert p1 > p2 > p3


def test_lifetime_shrinks_with_n_for_one_vs_rest():
    # In time units the one-vs-rest lifetime shrinks as parties are added
    # (the critical p rises), monotonically from n = 3 on.  n = 2 -> 3 is
    # the lone exception: 4p^3 + p^2 - 1 = 0 sits below 1/sqrt(3).
    values = [ghz_lifetime(n, 1).value for n in range(3, 9)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert ghz_lifetime(3, 1).value == pytest.approx(0.55669, abs=1e-4)
    assert ghz_lifetime(3, 1).value < ghz_lifetime(2, 1).value


def test_math_logaddexp_is_numpy_logaddexp_bit_for_bit():
    rng = np.random.default_rng(12)
    scale = 10.0 ** rng.integers(-12, 4, size=(100_000, 1))
    pairs = (rng.standard_normal((100_000, 2)) * scale).tolist()
    pairs += [(x, x + d) for x, d in zip(rng.uniform(-50, 50, 2000).tolist(),
                                         rng.standard_normal(2000).tolist())]
    inf, nan = math.inf, math.nan
    pairs += [(0.0, 0.0), (-0.0, 0.0), (1.5, 1.5), (-745.0, -745.0), (700.0, -700.0),
              (inf, inf), (inf, 3.0), (3.0, inf), (-inf, 3.0), (3.0, -inf),
              (-inf, -inf), (inf, -inf), (-inf, inf),
              (nan, 1.0), (1.0, nan), (nan, nan), (nan, inf), (-inf, nan)]
    for x, y in pairs:
        with np.errstate(invalid="ignore"):  # NaN inputs
            want = float(np.logaddexp(x, y))
        got = ghz._logaddexp(x, y)
        if math.isnan(want):
            assert math.isnan(got), (x, y)
        else:
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (x, y)


def _scalar_log_gap(n, k):
    """The depolarizing log gap point by point, as ln lam_k + ln lam_{n-k} - ln mu^2."""
    ln2 = math.log(2.0)

    def gap(p):
        up, down = math.log1p(p), math.log1p(-p)

        def log_lam(j):
            mix = float(np.logaddexp(j * up + (n - j) * down, j * down + (n - j) * up))
            return mix - (n + 1) * ln2

        return log_lam(k) + log_lam(n - k) - 2.0 * (n * math.log(p) - ln2)

    return gap


def test_depolarizing_lifetime_equals_a_scalar_bisection():
    # The grid is one array pass (whose log1p may differ from math.log1p in
    # the last bit), refinement is scalar: results must not move.
    for n in range(2, 41):
        for k in range(1, n):
            want = bisect(_scalar_log_gap(n, k), 1e-9, 1 - 1e-9)
            assert ghz_lifetime(n, k) == want, (n, k)


def test_qo_lifetime_brackets_dense_flip():
    t_crit = ghz_lifetime(3, 1, QO).value
    for t, expect_ppt in ((t_crit - 0.01, False), (t_crit + 0.01, True)):
        noisy = apply_uniform_channel(
            dense_ghz(3), ChannelMatrix.from_qo_snapshot(qo_snapshot(QO, t))
        )
        assert is_ppt_dense(noisy, Bipartition(0b001, 3)) == expect_ppt


def _exact_gap(n, k, p=None, ch=None, t=None):
    """lam_k lam_{n-k} - mu^2 in 60-digit decimals, which do not underflow."""
    with localcontext() as ctx:
        ctx.prec = 60
        if ch is None:
            p = Decimal(p)
            up, down = 1 + p, 1 - p
            lam = [
                (up**j * down ** (n - j) + up ** (n - j) * down**j) / 2 ** (n + 1)
                for j in (k, n - k)
            ]
            mu = p**n / 2
        else:
            eb, b = (-Decimal(ch.B) * Decimal(t)).exp(), (-Decimal(ch.C) * Decimal(t)).exp()
            s = Decimal(ch.s)
            a, c = s + (1 - s) * eb, (1 - s) + s * eb
            lam = [
                (c**j * (1 - c) ** (n - j) + (1 - a) ** j * a ** (n - j)) / 2
                for j in (k, n - k)
            ]
            mu = b**n / 2
        return lam[0] * lam[1] - mu**2


@pytest.mark.parametrize("n,k", [(538, 1), (600, 1), (GHZ_CAP, 1), (537, 268), (GHZ_CAP, 511)])
def test_depolarizing_lifetime_where_the_gap_underflows(n, k):
    # Both terms of the gap round to 0.0 at p = 1e-9 from n = 538 (k = 1),
    # and mid-bracket from n = 452 (k = n // 2); neither may read as a root.
    r = ghz_lifetime(n, k)
    assert r.sign_change_found and r.iterations > 0
    assert _exact_gap(n, k, p=r.value - 1e-8) > 0 > _exact_gap(n, k, p=r.value + 1e-8)


def test_qo_lifetime_where_the_gap_underflows():
    ch = QoChannel(B=1.0, C=0.6, s=0.4)
    r = ghz_lifetime(800, 1, ch)
    assert r.sign_change_found and r.iterations > 0 and r.value < 50.0
    before = _exact_gap(800, 1, ch=ch, t=r.value - 1e-8)
    after = _exact_gap(800, 1, ch=ch, t=r.value + 1e-8)
    assert before < 0 < after


@pytest.mark.parametrize("s", [0.0, 1.0])
@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (12, 5)])
def test_qo_zero_temperature_gap_never_changes_sign(n, k, s):
    # C = B/2 makes lam_k lam_{n-k} / mu^2 = (1 - e^-t)^n < 1 at every t > 0;
    # from t = 37 on, 1 - e^-t rounds to 1.0 and the snapshot's logs cancel.
    ch = QoChannel(B=1.0, C=0.5, s=s)
    r = ghz_lifetime(n, k, ch)
    assert not r.sign_change_found
    assert _exact_gap(n, k, ch=ch, t=50.0) < 0


def test_qo_gap_with_both_terms_zero_raises():
    # Zero temperature, t = 800: a = 0 and 1 - c = 0 make lam_k exactly 0,
    # and mu^2 underflows, so the gap's sign is lost rather than zero.
    with pytest.raises(CapacityError):
        ghz_lifetime(3, 1, QoChannel(B=1.0, C=0.5, s=0.0), t_max=800.0)


def test_one_vs_rest_critical_p_rises_up_to_the_cap():
    values = [ghz_lifetime(n, 1).value for n in range(100, GHZ_CAP + 1)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_lifetime_rejects_bad_group():
    with pytest.raises(ValidationError):
        ghz_lifetime(4, 0)
    with pytest.raises(ValidationError):
        ghz_lifetime(4, 4)
    with pytest.raises(ValidationError):
        ghz_lifetime(4, 1, channel="bitflip")


def test_coefficients_capped_where_floats_overflow():
    # 2^(n+1) stops converting to float at n = 1023.
    assert ghz_depol_coeffs(GHZ_CAP, 0.5).n == GHZ_CAP
    assert ghz_qo_coeffs(GHZ_CAP, QO, 0.1).n == GHZ_CAP
    with pytest.raises(CapacityError):
        ghz_depol_coeffs(GHZ_CAP + 1, 0.5)
    with pytest.raises(CapacityError):
        ghz_qo_coeffs(GHZ_CAP + 1, QO, 0.1)
    with pytest.raises(CapacityError):
        ghz_lifetime(100_000, 1)


# --- Structure of the coefficients -----------------------------------------
#
# lam_k lam_{n-k} falls as k grows to n/2 while mu stays fixed, so as noise
# grows the k = 1 split turns PPT first and the k = floor(n/2) split last.


def _products_fall(lam):
    n = len(lam) - 1
    prods = [lam[k] * lam[n - k] for k in range(1, n // 2 + 1)]
    return all(b <= a + 1e-15 for a, b in zip(prods, prods[1:]))


@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_product_monotonicity_for_depolarizing(n, p):
    assert _products_fall(ghz_depol_coeffs(n, p).lam)


@given(
    st.integers(min_value=2, max_value=7),
    st.floats(min_value=0.05, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_product_monotonicity_for_qo(n, t):
    # After symmetrizing lam_k <-> lam_{n-k}, which local operations reach.
    lam = ghz_qo_coeffs(n, QO, t).lam
    assert _products_fall([(lam[k] + lam[n - k]) / 2 for k in range(n + 1)])


# --- Blockwise bounds ---------------------------------------------------------


def test_blockwise_reference_values():
    assert blockwise_upper_M(math.exp(-0.8049)) == pytest.approx(2.0, abs=5e-3)
    assert blockwise_upper_M(math.exp(-0.01)) == pytest.approx(1057.0, abs=1.0)


def test_blockwise_from_kt_matches_plain_form():
    for kt in (1e-6, 1e-3, 0.05, 0.5, 2.0, 5.0):
        a = blockwise_upper_M_from_kt(kt)
        b = blockwise_upper_M(math.exp(-kt))
        assert a == pytest.approx(b, rel=1e-9)


def test_blockwise_from_kt_stable_at_extreme_times():
    # Near kt = 1e-73 the plain form would see p == 1.0 and blow up; the
    # stable form must keep growing smoothly.
    tiny = blockwise_upper_M_from_kt(1e-73)
    tinier = blockwise_upper_M_from_kt(1e-150)
    assert 0 < tiny < tinier < math.inf
    # Asymptotics: M(kt) ~ [ln(2/kt)] / [kt/2] for tiny kt.
    kt = 1e-100
    expected = math.log(2.0 / kt) / (kt / 2.0)
    assert blockwise_upper_M_from_kt(kt) == pytest.approx(expected, rel=1e-2)
    # Past the largest double the count is inf, subnormal kt included.
    for kt in (1e-306, 1e-310, 5e-324):
        assert blockwise_upper_M_from_kt(kt) == math.inf


def test_blockwise_counts_at_small_kt_match_a_high_precision_reference():
    # The p forms ln((1 - p)/(1 + p)) / ln(2p/(1 + p)) and
    # ln(2(1 - p)/(1 + p)) / ln(2p/(1 + p)) at p = e^-kt, in 60 digits.
    mpmath = pytest.importorskip("mpmath")
    for kt in (1e-6, 1e-8):
        with mpmath.workdps(60):
            p = mpmath.exp(-mpmath.mpf(kt))
            den = mpmath.log(2 * p / (1 + p))
            upper = float(mpmath.log((1 - p) / (1 + p)) / den)
            lower = float(mpmath.log(2 * (1 - p) / (1 + p)) / den)
        assert blockwise_upper_M_from_kt(kt) == pytest.approx(upper, rel=1e-14)
        assert blockwise_lower_M_from_kt(kt) == pytest.approx(lower, rel=1e-14)


def test_blockwise_p_forms_are_the_kt_forms_at_kt_minus_ln_p():
    for p in (1e-300, 0.2, 0.5, 0.9, 0.99, 1.0 - 1e-12):
        kt = -math.log(p)
        assert blockwise_upper_M(p) == blockwise_upper_M_from_kt(kt)
        assert blockwise_lower_M(p) == blockwise_lower_M_from_kt(kt)
    assert blockwise_lower_M_from_kt(1e-310) == math.inf


def test_blockwise_ordering_and_block_size_identity():
    for p in (0.2, 0.5, 0.9, 0.99):
        assert blockwise_lower_M(p) < blockwise_upper_M(p)


def test_blockwise_small_kt_regression():
    # The asymptotic form -2 ln(kt)/kt undershoots the exact value by about
    # 12.8% at kt = 0.01; pin both numbers so drift is caught.
    kt = 0.01
    approx = blockwise_upper_M_small_kt(kt)
    exact = blockwise_upper_M_from_kt(kt)
    assert approx == pytest.approx(921.034, abs=0.01)
    assert exact == pytest.approx(1057.0226, abs=0.01)
    assert abs(approx - exact) / exact == pytest.approx(0.1284, abs=2e-3)
    # The deviation decays only logarithmically.
    assert abs(blockwise_upper_M_small_kt(1e-6) / blockwise_upper_M_from_kt(1e-6) - 1) < 0.05


def test_blockwise_qo_matches_depolarizing_special_case():
    # With equal rates and a symmetric bath the time-t channel is exactly
    # depolarizing at p = e^{-Bt}; the group-count bounds then obey
    # M_qo / M_depol = 2D / (2D + ln p) with D = ln((1+p)/(2p)).
    ch = QoChannel(B=1.0, C=1.0, s=0.5)
    for t in (0.05, 0.3, 1.0):
        p = math.exp(-t)
        m_qo = blockwise_qo_upper_M(ch, t)
        m_dep = blockwise_upper_M(p)
        d = math.log((1 + p) / (2 * p))
        assert m_qo / m_dep == pytest.approx(2 * d / (2 * d + math.log(p)), rel=1e-9)
        assert m_qo > m_dep


def qo_count_reference(s: float, bt: float, mpmath) -> float:
    """ln(ac / ((1 - a)(1 - c))) / (ln(ac) + Bt) from qo_snapshot's a and c,
    at 420 digits: enough for the 2 ln(Bt) digits the difference cancels."""
    with mpmath.workdps(420):
        s, bt = mpmath.mpf(s), mpmath.mpf(bt)
        e = mpmath.exp(-bt)
        a, c = s + (1 - s) * e, (1 - s) + s * e
        return float(mpmath.log(a * c / ((1 - a) * (1 - c))) / (mpmath.log(a * c) + bt))


def test_blockwise_qo_matches_a_high_precision_reference():
    # a and c round to 1.0 and 0.0 long before Bt does; the count, about
    # ln(1/(r Bt^2)) / (r Bt^2) with r = s(1 - s) for small Bt, must follow.
    mpmath = pytest.importorskip("mpmath")
    bts = [10.0 ** (k / 4) for k in range(-600, 12)] + [0.999, 1.0, 1.001, 30.0, 40.0, 700.0]
    for s in (0.05, 0.3, 0.5, 0.9):
        ch = QoChannel(B=1.0, C=0.5, s=s)
        for bt in bts:
            want = qo_count_reference(s, bt, mpmath)
            assert blockwise_qo_upper_M(ch, bt) == pytest.approx(want, rel=1e-13), (s, bt)


def test_blockwise_qo_never_raises_where_bt_underflows():
    # B t below the smallest double: the count is inf, not an error.
    for B in (1e-320, 5e-324):
        assert blockwise_qo_upper_M(QoChannel(B=B, C=0.5, s=0.3), 0.1) == math.inf
    assert blockwise_qo_upper_M(QoChannel(B=1.0, C=0.5, s=0.3), 800.0) == 0.0


def test_blockwise_qo_zero_temperature_is_unbounded():
    assert blockwise_qo_upper_M(QoChannel(1.0, 0.5, 1.0), 2.0) == math.inf
    assert blockwise_qo_upper_M(QoChannel(1.0, 0.5, 0.0), 2.0) == math.inf


def test_blockwise_validation():
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValidationError):
            blockwise_upper_M(bad)
    with pytest.raises(ValidationError):
        blockwise_upper_M_from_kt(0.0)
    with pytest.raises(ValidationError):
        blockwise_upper_M_small_kt(-1.0)


# --- NaN times --------------------------------------------------------------
# kt <= 0 is False for NaN, so these returned NaN instead of raising.


def test_blockwise_upper_M_from_kt_rejects_a_nan_time():
    with pytest.raises(ValidationError):
        blockwise_upper_M_from_kt(math.nan)


def test_blockwise_upper_M_small_kt_rejects_a_nan_time():
    with pytest.raises(ValidationError):
        blockwise_upper_M_small_kt(math.nan)
