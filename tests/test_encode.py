import math

import pytest

from qdeco.encode import (
    LEVEL_CAP,
    breakeven,
    encoded_block_bound,
    encoded_lifetime,
    level_recursion,
    logical_p,
)
from qdeco.errors import EvaluationError, ValidationError
from qdeco.ghz import blockwise_upper_M_from_kt


# --- One level of encoding ------------------------------------------------------


def test_logical_p_equals_the_no_error_weight_map():
    # Same map written two ways: directly in p, and through q = (3p+1)/4
    # with q' = q^4 (5 - 4q).
    for p in (0.0, 0.1, 0.4, 0.825, 0.97, 1.0):
        q = (3.0 * p + 1.0) / 4.0
        q_next = q**4 * (5.0 - 4.0 * q)
        assert logical_p(p) == pytest.approx((4.0 * q_next - 1.0) / 3.0, abs=1e-14)


def test_logical_p_endpoints_and_validation():
    assert logical_p(1.0) == pytest.approx(1.0, abs=1e-15)
    assert logical_p(0.0) == pytest.approx(-0.3125, abs=1e-15)
    with pytest.raises(ValidationError):
        logical_p(-0.01)
    with pytest.raises(ValidationError):
        logical_p(1.01)


def test_break_even_is_a_fixed_point():
    be = breakeven()
    assert be.p == pytest.approx(0.825169, abs=1e-5)
    assert be.kt == pytest.approx(-math.log(be.p), abs=1e-12)
    assert abs(logical_p(be.p) - be.p) < 1e-9
    assert logical_p(be.p + 0.01) > be.p + 0.01
    assert logical_p(be.p - 0.01) < be.p - 0.01


# --- Iterated recursion ----------------------------------------------------------


def test_level_zero_is_the_identity():
    lv = level_recursion(0.3, 0)
    assert lv.p == pytest.approx(math.exp(-0.3), abs=1e-14)
    assert lv.kt_eff == pytest.approx(0.3, abs=1e-12)
    assert lv.physical_qubits == 1


def test_noiseless_fixed_point():
    for j in (0, 3, 8):
        lv = level_recursion(0.0, j)
        assert lv.q == 1.0 and lv.p == 1.0
        assert lv.kt_eff == 0.0 and lv.kt_approx == 0.0
        assert math.isinf(lv.kt_eff_log10) and lv.kt_eff_log10 < 0


def test_validation():
    with pytest.raises(ValidationError):
        level_recursion(-0.1, 1)
    with pytest.raises(ValidationError):
        level_recursion(0.1, LEVEL_CAP + 1)
    with pytest.raises(ValidationError):
        level_recursion(0.1, -1)


def test_level_recursion_rejects_a_nan_time():
    # kt < 0 is False for NaN, which gave a noiseless level (q = 1.0).
    with pytest.raises(ValidationError):
        level_recursion(math.nan, 2)


def test_physical_qubit_count_is_five_to_the_level():
    assert [level_recursion(0.01, j).physical_qubits for j in range(4)] == [
        1,
        5,
        25,
        125,
    ]


def test_error_weight_shrinks_below_break_even_and_grows_above():
    kt_star = breakeven().kt
    below = [level_recursion(0.1, j).kt_eff for j in range(4)]
    assert all(b < a for a, b in zip(below, below[1:]))
    above = [level_recursion(kt_star + 0.1, j).kt_eff for j in range(3)]
    assert all(b > a for a, b in zip(above, above[1:]))


def test_effective_time_monotone_in_kt():
    kt_star = breakeven().kt
    for j in (1, 3, 6):
        grid = [kt_star * x for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
        values = [level_recursion(kt, j).kt_eff for kt in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_doubling_approximation_field():
    # kt_approx must be exactly (7.5 kt)^(2^j) / 7.5 (via logs for depth).
    for j in (1, 2, 4, 6):
        lv = level_recursion(0.01, j)
        want = math.exp((1 << j) * math.log(0.075) - math.log(7.5))
        assert lv.kt_approx == pytest.approx(want, rel=1e-12)
        assert lv.kt_approx_log10 == pytest.approx(math.log10(want), abs=1e-12)


def test_exact_vs_approximation_deviation_profile():
    # The doubling form overshoots the exact recursion more at each level:
    # under 15% through j = 3 at kt = 0.01, and 22.6% at j = 4 (pinned so a
    # change in either pipeline shows up here).
    deviations = {}
    for j in range(1, 5):
        lv = level_recursion(0.01, j)
        deviations[j] = abs(lv.kt_approx / lv.kt_eff - 1.0)
    assert deviations[1] < deviations[2] < deviations[3] < deviations[4]
    for j in (1, 2, 3):
        assert deviations[j] <= 0.15
    assert deviations[4] == pytest.approx(0.2262, abs=2e-3)


def test_deep_levels_follow_the_log_domain_doubling_law():
    # Once eps is tiny, eps' = 10 eps^2 exactly, so consecutive log10
    # effective times obey log kt(j+1) = 2 log kt(j) + 1 - log10(4/3).
    off = 1.0 - math.log10(4.0 / 3.0)
    for j in (5, 6, 7, 10):
        a = level_recursion(0.01, j).kt_eff_log10
        b = level_recursion(0.01, j + 1).kt_eff_log10
        assert b == pytest.approx(2.0 * a + off, abs=1e-6)


def test_underflowed_levels_keep_faithful_logs():
    lv = level_recursion(0.01, 10)
    assert lv.kt_eff == 0.0  # below double range
    assert lv.q == 1.0
    assert math.isfinite(lv.kt_eff_log10)
    assert lv.kt_eff_log10 < -500.0
    assert math.isfinite(lv.ln_eps)


def test_time_below_the_flushed_error_weight_stays_nonzero():
    # One level from kt = 1e-160 gives ln_eps = -735.1: the error weight is
    # flushed to 0.0, but kt_eff = 4 eps / 3 = 7.5e-320 is a subnormal double.
    lv = level_recursion(1e-160, 1)
    assert lv.ln_eps < -700.0
    assert lv.kt_eff > 0.0
    assert math.log10(lv.kt_eff) == pytest.approx(lv.kt_eff_log10, abs=1e-3)


def test_levels_past_full_depolarisation_have_infinite_time():
    # At kt = 1 one level pushes the error weight past 3/4 (logical p < 0),
    # where -ln(1 - 4 eps / 3) has no finite value.
    lv = level_recursion(1.0, 1)
    assert 1.0 - lv.q > 0.75 and lv.p < 0.0
    assert lv.kt_eff == math.inf and lv.kt_eff_log10 == math.inf
    assert lv.kt_approx == pytest.approx(7.5, rel=1e-12)
    assert math.isfinite(lv.ln_eps)
    assert math.isfinite(level_recursion(1.0, 0).kt_eff)
    assert [math.isinf(level_recursion(0.5, j).kt_eff) for j in range(4)] == [
        False, False, True, True,
    ]
    # A start already at eps = 3/4, and a doubling form that overflows.
    deep = level_recursion(1e6, 6)
    assert deep.kt_eff == math.inf and deep.kt_approx == math.inf
    assert math.isfinite(deep.kt_approx_log10)


# --- Blockwise bound composition ---------------------------------------------------


def test_unencoded_bound_values():
    assert encoded_block_bound(0.01, 0) == pytest.approx(1057.02, abs=1e-1)
    # Past kt = 709 e^kt overflows; the bound is zero there, not an error.
    assert encoded_block_bound(1e6, 0) == 0.0
    assert encoded_block_bound(0.8049, 0) == pytest.approx(2.000, abs=5e-3)


def test_encoded_bound_reference_magnitudes():
    for j, want in ((1, 2.103e4), (2, 6.195e6), (3, 3.510e11)):
        assert encoded_block_bound(0.01, j) == pytest.approx(want, rel=0.01)


def test_encoded_bound_pipelines_agree_at_level_zero():
    exact = encoded_block_bound(0.05, 0, pipeline="exact")
    approx = encoded_block_bound(0.05, 0, pipeline="approx")
    # Level zero leaves kt untouched in the exact pipeline; the doubling
    # form reads (7.5 kt)^1 / 7.5 = kt, so both reduce to the plain bound.
    assert exact == pytest.approx(blockwise_upper_M_from_kt(0.05), rel=1e-12)
    assert approx == pytest.approx(exact, rel=1e-12)


def test_encoded_bound_errors():
    with pytest.raises(ValidationError):
        encoded_block_bound(0.0, 2)
    with pytest.raises(ValidationError):
        encoded_block_bound(0.01, 1, pipeline="magic")


# --- Lifetime inversion --------------------------------------------------------------


def test_encoded_lifetimes_reference_values():
    want = {0: 0.01, 1: 0.0382, 2: 0.0778, 3: 0.1149, 4: 0.1431, 5: 0.1621}
    for j, kt in want.items():
        assert encoded_lifetime(1057.0, j) == pytest.approx(kt, abs=1e-3)


def test_lifetime_round_trips_the_block_bound():
    for j in (0, 1, 2, 3):
        for pipeline in ("exact", "approx"):
            M = encoded_block_bound(0.05, j, pipeline=pipeline)
            back = encoded_lifetime(M, j, pipeline=pipeline)
            assert back == pytest.approx(0.05, abs=1e-7)


def test_lifetime_errors():
    with pytest.raises(ValidationError):
        encoded_lifetime(1.5, 1)
    with pytest.raises(ValidationError):
        encoded_lifetime(100.0, LEVEL_CAP + 1)
    # M = 5 corresponds to an unencoded time beyond break-even: the exact
    # recursion can never stretch the lifetime that far.
    with pytest.raises(EvaluationError):
        encoded_lifetime(5.0, 2, pipeline="exact")
    # The doubling approximation has a closed inverse with no such limit.
    assert encoded_lifetime(5.0, 2, pipeline="approx") > 0.0


@pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf])
def test_lifetime_rejects_a_non_finite_group_count(M):
    for j, pipeline in ((0, "exact"), (2, "exact"), (2, "approx")):
        with pytest.raises(ValidationError, match="finite"):
            encoded_lifetime(M, j, pipeline=pipeline)
