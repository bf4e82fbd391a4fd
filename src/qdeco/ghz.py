"""GHZ-diagonal states under local decoherence.

Closed-form coefficients for depolarizing and general quantum-optical
couplings, lifetime thresholds of partial-transpose positivity per group
size, and the blockwise (grouped-party) bounds obtained by re-scaling.

A state here is diagonal in the computational basis -- with the coefficient
depending only on the excitation count k -- plus a single real coherence mu
between |0...0> and |1...1>.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import reduce

from .channels import QoChannel, qo_snapshot
from .errors import CapacityError, ValidationError
from .numeric import (
    DEFAULT_TOL,
    ThresholdResult,
    Tolerance,
    bisect,
    bisect_from_grid,
    prescan_grid,
)

GHZ_CAP = 1022  # 2^(n+1) and the binomial weights stay within float range
_SYM_ATOL = 1e-12
_LN2 = math.log(2.0)

# The depolarizing bracket, and (log1p(p), log1p(-p), log(p)) at each point
# of its pre-scan grid: every depolarizing lifetime evaluates its grid from
# these.
_DEPOL_BRACKET = (1e-9, 1 - 1e-9)
_DEPOL_GRID_LOGS = [
    (math.log1p(p), math.log1p(-p), math.log(p)) for p in prescan_grid(*_DEPOL_BRACKET)
]


class GhzDiagonal(namedtuple("GhzDiagonal", "n lam mu symmetric")):
    __slots__ = ()

    def __new__(cls, n: int, lam: tuple[float, ...], mu: float, symmetric: bool) -> GhzDiagonal:
        if n < 1:
            raise ValidationError("need at least one qubit")
        if len(lam) != n + 1:
            raise ValidationError(f"need {n + 1} coefficients")
        if not all(map(math.isfinite, (*lam, mu))):
            raise ValidationError("coefficients must be finite")
        if any(v < -1e-12 for v in lam):
            raise ValidationError("negative diagonal coefficient")
        total = sum(math.comb(n, k) * v for k, v in enumerate(lam))
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"coefficients sum to {total}, not 1")
        if abs(mu) > 0.5 + 1e-12:
            raise ValidationError("|mu| exceeds 1/2")
        return super().__new__(cls, n, lam, mu, symmetric)

    @staticmethod
    def from_lambdas(n: int, lam: list[float], mu: float) -> "GhzDiagonal":
        sym = all(abs(lam[k] - lam[n - k]) <= _SYM_ATOL for k in range(n + 1))
        return GhzDiagonal(n, tuple(lam), mu, sym)


def _check_cap(n: int) -> None:
    if n > GHZ_CAP:
        raise CapacityError(f"GHZ coefficients capped at n={GHZ_CAP}, got n={n}")


def ghz_depol_coeffs(n: int, p: float) -> GhzDiagonal:
    """Coefficients after a depolarizing channel with parameter p per qubit."""
    _check_cap(n)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p={p} outside [0, 1]")
    lam = [
        ((1 + p) ** k * (1 - p) ** (n - k) + (1 + p) ** (n - k) * (1 - p) ** k)
        / 2 ** (n + 1)
        for k in range(n + 1)
    ]
    return GhzDiagonal.from_lambdas(n, lam, p**n / 2)


def ghz_qo_coeffs(n: int, ch: QoChannel, t: float) -> GhzDiagonal:
    """Coefficients after the quantum-optical channel for time t per qubit."""
    _check_cap(n)
    snap = qo_snapshot(ch, t)
    a, b, c = snap.a, snap.b, snap.c
    lam = [
        (c**k * (1 - c) ** (n - k) + (1 - a) ** k * a ** (n - k)) / 2
        for k in range(n + 1)
    ]
    return GhzDiagonal.from_lambdas(n, lam, b**n / 2)


def _ln(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _logaddexp(x: float, y: float) -> float:
    """np.logaddexp of two floats, bit for bit, in math alone.

    It follows numpy's npy_logaddexp: ln 2 added to x when x == y (which
    also keeps two infinities of one sign), else the larger plus
    log1p(exp(-|x - y|)), and NaN when x - y is NaN.
    """
    if x == y:
        return x + _LN2
    d = x - y
    if d > 0.0:
        return x + math.log1p(math.exp(-d))
    if d <= 0.0:
        return y + math.log1p(math.exp(d))
    return d


def _log1mexp(x: float) -> float:
    """ln(1 - e^-x) for x >= 0, without cancellation at either end."""
    if x > _LN2:
        return math.log1p(-math.exp(-x))
    return _ln(-math.expm1(-x))


def _qo_log_gap_ratio(ch: QoChannel, n: int, k: int, t: float) -> float:
    """ln(lam_k lam_{n-k} / mu^2) of the quantum-optical GHZ state at time t.

    The ratio is a sum of four products of per-qubit factors, each built
    from the rates rather than from qo_snapshot's rounded a, b, c: with
    u = 1 - e^-Bt, 1 - a = (1 - s) u and 1 - c = s u, and b = e^-Ct enters
    only through the exact ln(x / b^2) = ln x + 2Ct.  So where the factors
    cancel (s = 0 and 2C = B give the ratio (1 - e^-Bt)^n) the logarithm
    keeps the sign: -n e^-Bt, not a rounding residue of n Bt - 2n Ct.
    """
    ls, l1s = _ln(ch.s), _ln(1.0 - ch.s)
    lu = _log1mexp(ch.B * t)
    two_ct, net = 2.0 * ch.C * t, (2.0 * ch.C - ch.B) * t
    la_b2 = _logaddexp(ls + two_ct, l1s + net)  # ln(a / b^2)
    lc_b2 = _logaddexp(l1s + two_ct, ls + net)  # ln(c / b^2)
    lc = _logaddexp(l1s, ls - ch.B * t)
    l1a, l1c = l1s + lu, ls + lu
    ca, cross = lc + la_b2, l1c + l1a + two_ct  # ln(ca / b^2), ln((1-c)(1-a) / b^2)
    terms = [
        n * (lc_b2 + l1c),
        k * ca + (n - k) * cross,
        (n - k) * ca + k * cross,
        n * (la_b2 + l1a),
    ]
    return reduce(_logaddexp, terms)  # a left fold, as np.logaddexp.reduce


def ghz_lifetime(
    n: int,
    k: int,
    channel: str | QoChannel = "depolarizing",
    t_max: float = 50.0,
    tol: Tolerance = DEFAULT_TOL,
) -> ThresholdResult:
    """Boundary of the k-group partial-transpose condition.

    For the depolarizing channel the result's value is the critical p; for a
    quantum-optical channel it is the critical time on [0, t_max].  k = 1
    bounds distillability; k = floor(n/2) bounds full separability in the
    symmetric case.

    The function bisected is ln(lam_k lam_{n-k}) - ln(mu^2), which has the
    sign of the gap lam_k lam_{n-k} - mu^2 but does not underflow: for large
    n both terms of the gap round to 0.0 (from n = 538 at p = 1e-9), and an
    exact zero would be taken for the root.  For the depolarizing channel
    every value is evaluated in math alone, the pre-scan grid's from the
    logarithms of p computed once per process (_DEPOL_GRID_LOGS).  For a
    quantum-optical channel it is taken from the rates (see
    _qo_log_gap_ratio).  Where that is not finite (a coefficient is exactly
    0, as at t = 0) or is exactly 0.0, the gap itself is used, and a gap
    with both terms 0.0 raises CapacityError.
    """
    if not 1 <= k <= n - 1:
        raise ValidationError(f"group size k={k} outside 1..{n - 1}")
    _check_cap(n)

    if channel == "depolarizing":
        # lam_k = lam_{n-k}, so the log gap is 2 ln lam_k - ln mu^2, from
        # log1p(p), log1p(-p) and log(p); the grid's are _DEPOL_GRID_LOGS.
        m, shift = n - k, (n + 1) * _LN2

        def log_gap(up: float, down: float, log_p: float) -> float:
            log_lam = _logaddexp(k * up + m * down, k * down + m * up)
            return 2.0 * (log_lam - shift) - 2.0 * (n * log_p - _LN2)

        grid = [log_gap(up, down, log_p) for up, down, log_p in _DEPOL_GRID_LOGS]
        return bisect_from_grid(
            lambda p: log_gap(math.log1p(p), math.log1p(-p), math.log(p)),
            *_DEPOL_BRACKET, grid, tol,
        )

    if isinstance(channel, QoChannel):

        def gap_t(t: float) -> float:
            log_gap = _qo_log_gap_ratio(channel, n, k, t)
            if math.isfinite(log_gap) and log_gap != 0.0:
                return log_gap
            d = ghz_qo_coeffs(n, channel, t)
            if d.lam[k] * d.lam[n - k] == 0.0 and d.mu**2 == 0.0:
                raise CapacityError(
                    f"both terms of the n={n}, k={k} gap are 0.0 at t={t}; its sign is lost"
                )
            return d.lam[k] * d.lam[n - k] - d.mu**2

        return bisect(gap_t, 0.0, t_max, tol)

    raise ValidationError(f"unsupported channel {channel!r}")


def _check_open_unit(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p={p} must lie strictly inside (0, 1)")


def blockwise_upper_M(p: float) -> float:
    """Group count at or above which the partial transpose w.r.t. the
    smallest group is certainly positive (equal-size blocks, large N):
    ln((1 - p)/(1 + p)) / ln(2p/(1 + p)), evaluated as
    blockwise_upper_M_from_kt at kt = -ln p, where nothing cancels."""
    _check_open_unit(p)
    return blockwise_upper_M_from_kt(-math.log(p))


def blockwise_lower_M(p: float) -> float:
    """Group count at or below which every blockwise partial transpose is
    certainly non-positive: ln(2(1 - p)/(1 + p)) / ln(2p/(1 + p)),
    evaluated as blockwise_lower_M_from_kt at kt = -ln p."""
    _check_open_unit(p)
    return blockwise_lower_M_from_kt(-math.log(p))


def _blockwise_den(kt: float) -> float:
    """ln((1 + e^kt)/2) = -ln(2p/(1 + p)) at p = e^-kt, for 0 < kt.

    Past kt = 709, where e^kt overflows, it is kt - ln 2 to double
    precision."""
    return math.log1p(math.expm1(kt) / 2.0) if kt < 709.0 else kt - _LN2


def blockwise_upper_M_from_kt(kt: float) -> float:
    """blockwise_upper_M at p = e^{-kt}, stable down to kt ~ 1e-300.

    Uses log(tanh(kt/2)) for the numerator and log1p(expm1(kt)/2) for the
    denominator so that nothing cancels when p rounds to 1.0; needed for the
    encoded-qubit pipeline where effective times reach 1e-73 and below.
    The count is about (2/kt) ln(2/kt), which exceeds the largest double
    from kt ~ 8e-306 down; below the smallest normal double, where kt/2
    loses bits or rounds to 0.0, it is inf.
    """
    if not 0.0 < kt:  # NaN fails too
        raise ValidationError("kt must be positive")
    if kt < sys.float_info.min:
        return math.inf
    return -math.log(math.tanh(kt / 2.0)) / _blockwise_den(kt)


def blockwise_lower_M_from_kt(kt: float) -> float:
    """blockwise_lower_M at p = e^{-kt}: the upper count less
    ln 2 / ln((1 + e^kt)/2), inf where the upper count is."""
    upper = blockwise_upper_M_from_kt(kt)
    return upper if upper == math.inf else upper - _LN2 / _blockwise_den(kt)


def blockwise_upper_M_small_kt(kt: float) -> float:
    """Leading small-time behavior of blockwise_upper_M at p = e^{-kt}.

    The exact count is (2/kt) ln(2/kt) (1 - kt/4 + O(kt^2)); this leading
    form drops the ln 2 inside the logarithm, so it undershoots by a
    relative error of about ln 2 / ln(2/kt) (within kt/4).  That is 12.9%
    at kt = 0.01 and falls below 10% only for kt of about 2**-9 or less; the
    error decays logarithmically.  Use blockwise_upper_M_from_kt for the exact value.
    """
    if not 0.0 < kt:  # NaN fails too
        raise ValidationError("kt must be positive")
    return -2.0 * math.log(kt) / kt


def blockwise_qo_upper_M(ch: QoChannel, t: float) -> float:
    """Blockwise group-count bound for the quantum-optical channel.

    The count is ln(ac / ((1 - a)(1 - c))) / (ln(ac) + Bt) with a and c of
    qo_snapshot, taken from the rates, since a and c cancel in both
    logarithms.  With r = s(1 - s) and u = 1 - e^-Bt, (1 - a)(1 - c) =
    r u^2 and ac = r u^2 + e^-Bt, so the numerator is
    log1p(e^-Bt / (r u^2)) and the denominator log1p(4 r sinh^2(Bt/2)) =
    Bt + ln(r u^2) + numerator.  Below Bt = 1 the numerator is the
    difference of the denominator's two forms (r u^2 underflows from
    Bt ~ 1e-154 down); from Bt = 709 on, where sinh^2 overflows, the
    denominator is its second form, which Bt dominates there.  Where the
    denominator rounds to 0.0 the count is inf.

    Returns inf for the zero-temperature cases s in {0, 1}, where no finite
    bound exists (the partial transpose stays non-positive for all times).
    """
    if ch.s in (0.0, 1.0):
        return math.inf
    if not (ch.B > 0.0 and t > 0.0):  # NaN fails too
        raise ValidationError("need B > 0 and t > 0")
    bt, r = ch.B * t, ch.s * (1.0 - ch.s)
    den = math.log1p(4.0 * r * math.sinh(bt / 2.0) ** 2) if bt < 709.0 else math.nan
    if den == 0.0:
        return math.inf
    u = -math.expm1(-bt)
    log_ru2 = math.log(r) + 2.0 * math.log(u)
    if bt < 1.0:
        return (den - bt - log_ru2) / den
    num = math.log1p(math.exp(-bt) / (r * u * u))
    return num / (den if bt < 709.0 else bt + log_ru2 + num)
