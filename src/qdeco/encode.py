"""Effective decoherence of logical qubits under concatenated encoding.

Encoding each qubit of a state into the five-qubit error-correcting code,
applying independent depolarizing noise to the physical qubits, correcting,
and twirling leaves the logical qubit depolarized with a new parameter.
One level of code maps the no-error weight q = (3p + 1)/4 through
q -> q^5 + 5 q^4 (1 - q) = q^4 (5 - 4q); below the break-even point the map
drives the effective noise towards zero doubly exponentially in the number
of levels.  Deep levels underflow doubles (effective times reach 1e-73 and
far beyond), so the recursion also runs in the log domain of the error
weight eps = 1 - q.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import EvaluationError, ValidationError
from .ghz import blockwise_upper_M_from_kt
from .numeric import DEFAULT_TOL, Tolerance, bisect

LEVEL_CAP = 12
_LN10 = math.log(10.0)
_LN_4_3 = math.log(4.0 / 3.0)
# Below this log error weight the recursion is exactly eps' = 10 eps^2 in
# double precision (the higher-order terms fall outside the mantissa).
_LOG_DOMAIN_SWITCH = -40.0


def logical_p(p: float) -> float:
    """One level of encoding: effective depolarizing parameter of the logical qubit."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    return (3.0 * p + 1.0) ** 4 * (4.0 - 3.0 * p) / 192.0 - 1.0 / 3.0


class CodeLevel(NamedTuple):
    """State of the recursion after j levels of encoding.

    q is the no-error weight, p the depolarizing parameter, kt_eff = -ln p
    the effective elapsed time.  Deep levels underflow q to exactly 1.0 and
    kt_eff to 0.0; ln_eps and the *_log10 fields stay finite and faithful.
    Once the error weight reaches 3/4 (p <= 0, past full depolarisation) no
    finite time exists and kt_eff = kt_eff_log10 = inf.  kt_approx carries
    the closed-form doubling approximation (7.5 kt)^(2^j) / 7.5 for
    comparison, inf where that overflows.
    """

    j: int
    q: float
    p: float
    kt_eff: float
    kt_eff_log10: float
    kt_approx: float
    kt_approx_log10: float
    ln_eps: float

    @property
    def physical_qubits(self) -> int:
        return 5**self.j


def _eps_step(eps: float) -> float:
    """Error weight after one level: eps' = 10 e^2 - 20 e^3 + 15 e^4 - 4 e^5."""
    return eps**2 * (10.0 + eps * (-20.0 + eps * (15.0 - 4.0 * eps)))


def level_recursion(kt: float, j: int) -> CodeLevel:
    """Iterate the five-qubit-code map j times starting from -ln p = kt."""
    if not 0.0 <= kt:  # NaN fails too
        raise ValidationError(f"kt must be nonnegative, got {kt}")
    if not 0 <= j <= LEVEL_CAP:
        raise ValidationError(f"level must lie in 0..{LEVEL_CAP}, got {j}")
    p = math.exp(-kt)
    eps = 0.75 * -math.expm1(-kt)  # 1 - q at level 0, computed without cancellation
    ln_eps = math.log(eps) if eps > 0.0 else -math.inf
    for _ in range(j):
        if ln_eps > _LOG_DOMAIN_SWITCH:
            eps = _eps_step(eps)
            ln_eps = math.log(eps) if eps > 0.0 else -math.inf
        else:
            ln_eps = 2.0 * ln_eps + _LN10
            eps = math.exp(ln_eps) if ln_eps > -700.0 else 0.0

    # kt_eff = -ln(1 - 4 eps / 3); below the switch the linear term is exact.
    if eps >= 0.75:  # logical p <= 0: past full depolarisation, no finite time
        kt_eff = kt_eff_log10 = math.inf
    elif eps > 0.0:
        kt_eff = -math.log1p(-4.0 * eps / 3.0)
        kt_eff_log10 = math.log10(kt_eff)
    elif math.isinf(ln_eps):  # noiseless fixed point
        kt_eff = 0.0
        kt_eff_log10 = -math.inf
    else:  # eps flushed to 0.0; 4 eps / 3 may still be a (subnormal) double
        kt_eff = math.exp(_LN_4_3 + ln_eps)
        kt_eff_log10 = (_LN_4_3 + ln_eps) / _LN10

    if kt == 0.0:
        kt_approx, kt_approx_log10 = 0.0, -math.inf
    else:
        ln_approx = (1 << j) * math.log(7.5 * kt) - math.log(7.5)
        try:
            kt_approx = math.exp(ln_approx)
        except OverflowError:
            kt_approx = math.inf
        kt_approx_log10 = ln_approx / _LN10

    q = 1.0 - eps
    return CodeLevel(
        j=j,
        q=q,
        p=(4.0 * q - 1.0) / 3.0,
        kt_eff=kt_eff,
        kt_eff_log10=kt_eff_log10,
        kt_approx=kt_approx,
        kt_approx_log10=kt_approx_log10,
        ln_eps=ln_eps,
    )


class BreakEven(NamedTuple):
    p: float
    kt: float


def breakeven(tol: Tolerance = DEFAULT_TOL) -> BreakEven:
    """Fixed point of logical_p: encoding helps exactly below kt = -ln p*."""
    result = bisect(lambda p: logical_p(p) - p, 0.5, 1.0 - 1e-9, tol)
    return BreakEven(result.value, -math.log(result.value))


def _effective_kt(kt: float, j: int, pipeline: str) -> float:
    level = level_recursion(kt, j)
    if pipeline == "exact":
        return level.kt_eff
    if pipeline == "approx":
        return level.kt_approx
    raise ValidationError(f"pipeline must be 'exact' or 'approx', got {pipeline!r}")


def encoded_block_bound(kt: float, j: int, pipeline: str = "approx") -> float:
    """Group count above which the encoded blockwise transpose is positive.

    Runs the level recursion to the effective time, then evaluates the
    blockwise group bound there (in its underflow-safe form).  The default
    pipeline is the doubling approximation, whose outputs match the quoted
    reference magnitudes; pass pipeline="exact" for the iterated recursion.
    """
    kt_eff = _effective_kt(kt, j, pipeline)
    if kt_eff <= 0.0:
        raise ValidationError("effective time vanished; no finite group bound")
    return blockwise_upper_M_from_kt(kt_eff)


def encoded_lifetime(
    M: float,
    j: int,
    pipeline: str = "exact",
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Physical time until an encoded state's blockwise bound drops to M groups.

    First inverts the blockwise bound for the unencoded target time, then
    inverts the (monotone below break-even) level map kt -> kt_eff(kt, j)
    around it.  The default pipeline inverts the exact recursion.
    """
    if not 2.0 <= M < math.inf:
        raise ValidationError(f"group count must be finite and at least 2, got {M}")
    if not 0 <= j <= LEVEL_CAP:
        raise ValidationError(f"level must lie in 0..{LEVEL_CAP}, got {j}")
    target = bisect(
        lambda kt: blockwise_upper_M_from_kt(kt) - M, 1e-12, 5.0, tol
    )
    if not target.sign_change_found:
        raise EvaluationError(f"no unencoded time reaches M = {M}")
    kt_target = target.value
    if j == 0:
        return kt_target
    if pipeline == "approx":
        # (7.5 kt)^(2^j) / 7.5 = kt_target has the closed-form inverse.
        return math.exp(math.log(7.5 * kt_target) / (1 << j)) / 7.5
    kt_star = breakeven(tol).kt
    if kt_target >= kt_star:
        raise EvaluationError(
            f"target time {kt_target:.6g} is at or beyond break-even "
            f"{kt_star:.6g}; encoding cannot reach it"
        )
    result = bisect(
        lambda kt: _effective_kt(kt, j, pipeline) - kt_target,
        1e-9,
        kt_star,
        tol,
    )
    if not result.sign_change_found:
        raise EvaluationError("level map never crosses the target time")
    return result.value
