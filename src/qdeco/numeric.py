"""Numerical primitives: bracketed root finding, Hermitian spectra and the
dense partial transpose.

Every threshold in this package is the root of an empirically monotone
condition, so the bisection here insists on a certified single sign change
(via a coarse pre-scan) before it refines the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, ValidationError

PRESCAN_POINTS = 64


@dataclass(frozen=True)
class Tolerance:
    """Numerical knobs shared across the package.

    abs_root: absolute bisection tolerance on the parameter axis.
    eig_zero: eigenvalues above this (negative) floor count as non-negative;
        None means the dimension-scaled default -1e-12 * dim.
    max_iter: bisection iteration cap.
    """

    abs_root: float = 1e-10
    eig_zero: float | None = None
    max_iter: int = 200

    def __post_init__(self) -> None:
        if self.abs_root <= 0:
            raise ValidationError("abs_root must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")

    def eig_floor(self, dim: int) -> float:
        if self.eig_zero is not None:
            return self.eig_zero
        return -1e-12 * dim


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a bracketed root search.

    value is NaN when no sign change was found in the bracket; callers should
    check sign_change_found before using it.
    """

    value: float
    bracket: tuple[float, float]
    iterations: int
    sign_change_found: bool

    @property
    def kt(self) -> float:
        """The critical value re-expressed as -ln(value), for p = e^{-kt} axes."""
        return -math.log(self.value)


class MultipleCrossingsError(EvaluationError):
    """The pre-scan saw more than one sign change; bisection would be ambiguous."""


def _checked(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise EvaluationError(f"function evaluated to non-finite value {y!r} at {x!r}")
    return y


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
    prescan: bool = True,
) -> ThresholdResult:
    """Find the root of f in [lo, hi] given exactly one sign change.

    A coarse pre-scan (PRESCAN_POINTS intervals) certifies that the bracket
    contains exactly one crossing; more than one raises MultipleCrossingsError,
    none yields sign_change_found=False with a NaN value.  Deterministic:
    identical inputs give bit-identical outputs.
    """
    if not lo < hi:
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")

    f_lo = _checked(f, lo)
    f_hi = _checked(f, hi)
    if f_lo == 0.0:
        return ThresholdResult(lo, (lo, hi), 0, True)
    if f_hi == 0.0:
        return ThresholdResult(hi, (lo, hi), 0, True)

    if prescan:
        xs = [lo + (hi - lo) * i / PRESCAN_POINTS for i in range(PRESCAN_POINTS + 1)]
        ys = [f_lo] + [_checked(f, x) for x in xs[1:-1]] + [f_hi]
        crossings = []
        prev_sign = math.copysign(1.0, ys[0])
        for i in range(1, len(ys)):
            if ys[i] == 0.0:
                return ThresholdResult(xs[i], (lo, hi), 0, True)
            sign = math.copysign(1.0, ys[i])
            if sign != prev_sign:
                crossings.append(i)
                prev_sign = sign
        if len(crossings) > 1:
            raise MultipleCrossingsError(
                f"{len(crossings)} sign changes in [{lo}, {hi}]; "
                "refine the bracket before bisecting"
            )
        if not crossings:
            return ThresholdResult(math.nan, (lo, hi), 0, False)
        a, b = xs[crossings[0] - 1], xs[crossings[0]]
        f_a = ys[crossings[0] - 1]
    else:
        if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
            return ThresholdResult(math.nan, (lo, hi), 0, False)
        a, b, f_a = lo, hi, f_lo

    iterations = 0
    while b - a > tol.abs_root and iterations < tol.max_iter:
        mid = 0.5 * (a + b)
        f_mid = _checked(f, mid)
        iterations += 1
        if f_mid == 0.0:
            a = b = mid
            break
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_a):
            a, f_a = mid, f_mid
        else:
            b = mid
    return ThresholdResult(0.5 * (a + b), (a, b), iterations, True)


def check_hermitian(m: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.allclose(m, m.conj().T, atol=atol, rtol=0.0):
        worst = float(np.max(np.abs(m - m.conj().T)))
        raise ValidationError(f"matrix is not Hermitian (max asymmetry {worst:.3e})")
    return m


def hermitian_spectrum(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, ascending."""
    m = check_hermitian(m)
    return np.linalg.eigvalsh(m)


def partial_transpose(rho: np.ndarray, a_mask: int) -> np.ndarray:
    """Transpose the qubits in a_mask of a 2^n x 2^n matrix; qubit k is bit k.

    Entrywise, <i|rho^{T_A}|j> = rho[(i & ~a) | (j & a), (j & ~a) | (i & a)].
    """
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if rho.shape != (1 << n, 1 << n) or a_mask >> n:
        raise ValidationError(f"mask {a_mask:#b} does not fit a {rho.shape} qubit matrix")
    # Reshaped to (2,)*2n, row axis n-1-k and column axis 2n-1-k hold qubit k.
    axes = list(range(2 * n))
    for k in range(n):
        if a_mask >> k & 1:
            axes[n - 1 - k], axes[2 * n - 1 - k] = 2 * n - 1 - k, n - 1 - k
    return rho.reshape((2,) * (2 * n)).transpose(axes).reshape(dim, dim)


def min_eig(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> float:
    return float(hermitian_spectrum(m, tol)[0])


def is_ppt_matrix(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the smallest eigenvalue clears the (negative) zero floor."""
    return min_eig(m, tol) >= tol.eig_floor(m.shape[0])
