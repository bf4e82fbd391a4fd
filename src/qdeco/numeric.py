"""Numerical primitives: bracketed root finding, Hermitian spectra and the
dense partial transpose.

Every threshold in this package is the root of an empirically monotone
condition, so the bisection here insists on a certified single sign change
(via a coarse pre-scan) before it refines the bracket.  The entry points
are prescan_grid, the points of that pre-scan; bisect_from_grid, which
takes the values of f there, however the caller computed them (one array
pass), and refines with a scalar f; bisect, which is bisect_from_grid with
the grid evaluated point by point; and bisect_lockstep, bisect_from_grid
of many problems on one bracket, which holds the problems still bisecting
as arrays and calls f once per refinement round on all their midpoints.
Both check each grid with one array function, _prescan; the scalar route
refines in a plain loop, the lockstep one with a few array operations per
round.  The Hermitian check, the spectra and the partial transpose take
stacks (..., d, d) of matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EvaluationError, ValidationError

PRESCAN_POINTS = 64
MAX_ITER = 200  # stops bisection where abs_root is below the float spacing


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerances shared across the package.

    abs_root: absolute bisection tolerance on the parameter axis.
    eig_floor(dim) is fixed: eigenvalues of a dim x dim matrix above
    -1e-12 * dim count as non-negative, since round-off leaves them there.
    """

    abs_root: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 < self.abs_root < math.inf:
            raise ValidationError(f"abs_root must be finite and positive, got {self.abs_root}")

    def eig_floor(self, dim: int) -> float:
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


def _non_finite(y: float, x: float) -> EvaluationError:
    # float() so that a numpy value prints as a Python float does.
    return EvaluationError(f"function evaluated to non-finite value {float(y)!r} at {float(x)!r}")


def _check_bracket(lo: float, hi: float) -> None:
    if not lo < hi:
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")


def prescan_grid(lo: float, hi: float) -> list[float]:
    """The PRESCAN_POINTS + 1 points where bisect's pre-scan evaluates f.

    These are lo, the interior points lo + (hi - lo) * i / PRESCAN_POINTS and
    hi itself; the values of f there are bisect_from_grid's grid_values.
    """
    _check_bracket(lo, hi)
    inner = [lo + (hi - lo) * i / PRESCAN_POINTS for i in range(1, PRESCAN_POINTS)]
    return [lo, *inner, hi]


def _prescan(
    lo: float, hi: float, grid_values: Sequence[float]
) -> ThresholdResult | tuple[float, float, bool]:
    """The pre-scan of grid_values, the values of f at prescan_grid(lo, hi).

    Checks that every value is finite (the first that is not raises), then
    returns a final result, for an exact zero at lo, at hi or at the first
    interior point that has one, or for no sign change; or the crossing's
    bracket and whether f is negative at its left end, (a, b, f(a) < 0).
    More than one sign change raises MultipleCrossingsError.
    """
    _check_bracket(lo, hi)
    ys = np.asarray(grid_values, dtype=float)
    if ys.shape != (PRESCAN_POINTS + 1,):
        raise ValidationError(f"need {PRESCAN_POINTS + 1} grid values, got {len(grid_values)}")
    finite = np.isfinite(ys)
    if not finite.all():
        k = int(np.argmin(finite))
        raise _non_finite(ys[k], prescan_grid(lo, hi)[k])
    if ys[0] == 0.0:
        return ThresholdResult(lo, (lo, hi), 0, True)
    if ys[-1] == 0.0:
        return ThresholdResult(hi, (lo, hi), 0, True)

    # Unlike prescan_grid, x(PRESCAN_POINTS) is lo + (hi - lo), which can
    # differ from hi in the last bit; the refined bracket starts from x.
    def x(i: int) -> float:
        return lo + (hi - lo) * i / PRESCAN_POINTS

    zeros = np.flatnonzero(ys == 0.0)
    if len(zeros):
        return ThresholdResult(x(int(zeros[0])), (lo, hi), 0, True)
    negative = np.signbit(ys)
    crossings = np.flatnonzero(negative[1:] != negative[:-1])
    if len(crossings) > 1:
        raise MultipleCrossingsError(
            f"{len(crossings)} sign changes in [{lo}, {hi}]; "
            "refine the bracket before bisecting"
        )
    if not len(crossings):
        return ThresholdResult(math.nan, (lo, hi), 0, False)
    c = int(crossings[0])
    return x(c), x(c + 1), bool(negative[c])


def bisect_from_grid(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    grid_values: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
) -> ThresholdResult:
    """bisect, given the values of f at prescan_grid(lo, hi).

    The caller computes grid_values however it likes (for instance in one
    array pass; a list or an array); _prescan checks them, and each
    refinement point is then evaluated by the scalar f.  Only the signs of
    the values and whether they are exactly zero steer the bisection, and
    every value, given or computed, is checked to be finite.  While
    refining it holds the bracket and the sign of f at its left end;
    bisect_lockstep refines the same way on arrays, but one cheap root
    refines faster in this scalar loop than through numpy calls.
    """
    found = _prescan(lo, hi, grid_values)
    if isinstance(found, ThresholdResult):
        return found
    a, b, negative = found

    iterations = 0
    while b - a > tol.abs_root and iterations < MAX_ITER:
        mid = 0.5 * (a + b)
        f_mid = f(mid)
        if not math.isfinite(f_mid):
            raise _non_finite(f_mid, mid)
        iterations += 1
        if f_mid == 0.0:
            a = b = mid
            break
        if (f_mid < 0.0) == negative:
            a = mid
        else:
            b = mid
    return ThresholdResult(0.5 * (a + b), (a, b), iterations, True)


def bisect_lockstep(
    f: Callable[[np.ndarray, np.ndarray], Sequence[float]],
    grids: Iterable[Sequence[float]],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
) -> list[ThresholdResult]:
    """bisect_from_grid of many problems on one bracket, driven in lockstep.

    grids yields, problem by problem, the values of each problem at
    prescan_grid(lo, hi), as a list or an array; it is consumed in order,
    one grid at a time, and each grid is checked by _prescan, the pre-scan
    of bisect, before the next is drawn.  The problems with a crossing then
    refine together, held as arrays in problem order: their ids, brackets
    [a, b] and the sign of f at a, with one round count for all, since
    every problem refines from the first round.  Each round keeps the
    problems still bisecting (b - a > abs_root and fewer than MAX_ITER
    rounds), calls f(problems, points) once on their midpoints, f
    returning the value of problem problems[i] at points[i] as a list or an
    array, checks every value to be finite and moves each bracket end as
    bisect_from_grid does.  Result i is bisect_from_grid's for problem i,
    Python floats and iterations included.  Where bisecting the problems in
    order would raise an EvaluationError, this raises it: that of the
    first problem to fail; no grid after that problem's is drawn.
    """
    results: list[ThresholdResult | None] = []
    failed: EvaluationError | None = None
    starts = []  # (problem, a, b, f(a) < 0) of each problem with a crossing
    for i, ys in enumerate(grids):
        results.append(None)
        try:
            found = _prescan(lo, hi, ys)
        except EvaluationError as exc:
            failed = exc
            break
        if isinstance(found, ThresholdResult):
            results[i] = found
        else:
            starts.append((i, *found))

    ids = np.array([s[0] for s in starts], dtype=np.intp)
    a = np.array([s[1] for s in starts], dtype=float)
    b = np.array([s[2] for s in starts], dtype=float)
    negative = np.array([s[3] for s in starts], dtype=bool)
    rounds = 0
    while True:
        bisecting = b - a > tol.abs_root
        if rounds == MAX_ITER:
            bisecting[:] = False  # the iteration guard of bisect_from_grid
        if not bisecting.all():
            done = ~bisecting
            for i, a_i, b_i in zip(ids[done].tolist(), a[done].tolist(), b[done].tolist()):
                results[i] = ThresholdResult(0.5 * (a_i + b_i), (a_i, b_i), rounds, True)
            ids, a, b, negative = ids[bisecting], a[bisecting], b[bisecting], negative[bisecting]
        if not len(ids):
            break
        mid = 0.5 * (a + b)
        ys = np.asarray(f(ids, mid), dtype=float)
        if ys.shape != mid.shape:
            raise ValidationError(f"need {len(mid)} values in a round, got {ys.shape}")
        rounds += 1
        finite = np.isfinite(ys)
        if not finite.all():
            # Every problem still bisecting comes before any that failed
            # earlier, so the first failure of this round is the first yet.
            k = int(np.argmin(finite))
            failed = _non_finite(ys[k], mid[k])
            ids, a, b, negative, mid, ys = ids[:k], a[:k], b[:k], negative[:k], mid[:k], ys[:k]
        same = np.signbit(ys) == negative
        a = np.where(same, mid, a)
        b = np.where(same, b, mid)
        if not ys.all():  # an exact zero is the root
            zero = ys == 0.0
            a[zero] = b[zero] = mid[zero]
    if failed is not None:
        raise failed
    return results


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
) -> ThresholdResult:
    """Find the root of f in [lo, hi] given exactly one sign change.

    A coarse pre-scan (f at the PRESCAN_POINTS + 1 points of prescan_grid)
    certifies that the bracket contains exactly one crossing; more than one
    raises MultipleCrossingsError, none yields sign_change_found=False with
    a NaN value.  Deterministic: identical inputs give bit-identical
    outputs.  This is bisect_from_grid with f evaluated point by point, in
    the order of the points; every value is checked to be finite.
    """
    return bisect_from_grid(f, lo, hi, [f(x) for x in prescan_grid(lo, hi)], tol)


def check_hermitian(m: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """m as a complex array, checked to be a stack (..., d, d) of Hermitian
    matrices: max |m - m^H| <= atol, so NaN and inf entries are rejected."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected square matrices, got shape {m.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, rejected below
        worst = float(np.max(np.abs(m - m.swapaxes(-1, -2).conj()), initial=0.0))
    if not worst <= atol:
        raise ValidationError(f"matrix is not Hermitian (max asymmetry {worst:.3e})")
    return m


def hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """All real eigenvalues of each Hermitian matrix of a stack, ascending."""
    return np.linalg.eigvalsh(check_hermitian(m))


def partial_transpose(rho: np.ndarray, a_mask: int) -> np.ndarray:
    """Transpose the qubits in a_mask of each 2^n x 2^n matrix of a stack
    (..., 2^n, 2^n); qubit k is bit k.

    Entrywise, <i|rho^{T_A}|j> = rho[(i & ~a) | (j & a), (j & ~a) | (i & a)].
    """
    lead, dim = rho.shape[:-2], rho.shape[-1]
    n = dim.bit_length() - 1
    if rho.shape[-2:] != (1 << n, 1 << n) or a_mask >> n:
        raise ValidationError(f"mask {a_mask:#b} does not fit a {rho.shape} qubit matrix")
    # Reshaped to lead + (2,)*2n, row axis n-1-k and column axis 2n-1-k
    # (after the lead axes) hold qubit k.
    s = len(lead)
    axes = list(range(s + 2 * n))
    for k in range(n):
        if a_mask >> k & 1:
            row, col = s + n - 1 - k, s + 2 * n - 1 - k
            axes[row], axes[col] = col, row
    return rho.reshape(lead + (2,) * (2 * n)).transpose(axes).reshape(rho.shape)


def min_eig(m: np.ndarray) -> float:
    return float(hermitian_spectrum(m)[0])
