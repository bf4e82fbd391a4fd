"""Numerical primitives: bracketed root finding, Hermitian spectra and the
dense partial transpose.

Every threshold in this package is the root of an empirically monotone
condition, so the bisection here insists on a certified single sign change
(via a coarse pre-scan) before it refines the bracket.  The entry points
are prescan_grid, the points of that pre-scan; bisect_from_grid, which
takes the values of f there, however the caller computed them (one array
pass), and refines with a scalar f; bisect, which is bisect_from_grid with
the grid evaluated point by point; and bisect_lockstep, bisect_from_grid
of many problems on one bracket, which calls f once per refinement round
on the midpoint of every problem still bisecting.  The Hermitian check,
the spectra and the partial transpose take stacks (..., d, d) of matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Sequence

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


def _checked(y: float, x: float) -> float:
    if not math.isfinite(y):
        raise EvaluationError(f"function evaluated to non-finite value {y!r} at {x!r}")
    return y


def prescan_grid(lo: float, hi: float) -> list[float]:
    """The PRESCAN_POINTS + 1 points where bisect's pre-scan evaluates f.

    These are lo, the interior points lo + (hi - lo) * i / PRESCAN_POINTS and
    hi itself; the values of f there are bisect_from_grid's grid_values.
    """
    if not lo < hi:
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")
    inner = [lo + (hi - lo) * i / PRESCAN_POINTS for i in range(1, PRESCAN_POINTS)]
    return [lo, *inner, hi]


def _prescan(lo: float, hi: float, ys: list[float]) -> ThresholdResult | tuple[float, float, float]:
    """The pre-scan of the values ys at prescan_grid(lo, hi).

    Returns a final result, or the crossing's bracket and left value (a, b, f(a)).
    """
    if ys[0] == 0.0:
        return ThresholdResult(lo, (lo, hi), 0, True)
    if ys[-1] == 0.0:
        return ThresholdResult(hi, (lo, hi), 0, True)

    # Unlike prescan_grid, xs ends at lo + (hi - lo), which can differ from
    # hi in the last bit; the refined bracket starts from xs.
    xs = [lo + (hi - lo) * i / PRESCAN_POINTS for i in range(PRESCAN_POINTS + 1)]
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
    return xs[crossings[0] - 1], xs[crossings[0]], ys[crossings[0] - 1]


def _bisect_steps(
    lo: float,
    hi: float,
    grid_values: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
) -> Generator[float, float, ThresholdResult]:
    """The bisection of `bisect` as a generator, for loops that evaluate f.

    grid_values are the values of f at prescan_grid(lo, hi).  The generator
    yields each refinement point where it needs f and is sent f's value
    there; it returns the ThresholdResult (as StopIteration.value).  Only
    the signs of the values and whether they are exactly zero steer it, so
    a caller may send any finite value of the right sign that is zero
    exactly where f is.  Every value, given or sent, is checked to be
    finite.  While refining it holds three floats, not the pre-scan's
    values.
    """
    grid = prescan_grid(lo, hi)
    if len(grid_values) != len(grid):
        raise ValidationError(f"need {len(grid)} grid values, got {len(grid_values)}")
    found = _prescan(lo, hi, [_checked(y, x) for y, x in zip(grid_values, grid)])
    del grid, grid_values
    if isinstance(found, ThresholdResult):
        return found
    a, b, f_a = found

    iterations = 0
    while b - a > tol.abs_root and iterations < MAX_ITER:
        mid = 0.5 * (a + b)
        f_mid = _checked((yield mid), mid)
        iterations += 1
        if f_mid == 0.0:
            a = b = mid
            break
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_a):
            a, f_a = mid, f_mid
        else:
            b = mid
    return ThresholdResult(0.5 * (a + b), (a, b), iterations, True)


def bisect_from_grid(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    grid_values: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
) -> ThresholdResult:
    """bisect, given the values of f at prescan_grid(lo, hi).

    The caller computes grid_values however it likes (for instance in one
    array pass); each refinement point is then evaluated by the scalar f.
    Only the signs of the values and whether they are exactly zero steer
    the bisection, and every value, given or computed, is checked to be
    finite.
    """
    steps = _bisect_steps(lo, hi, grid_values, tol)
    y = None
    try:
        while True:
            y = f(steps.send(y))
    except StopIteration as stop:
        return stop.value


def bisect_lockstep(
    f: Callable[[np.ndarray, np.ndarray], Sequence[float]],
    grids: Iterable[Sequence[float]],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
) -> list[ThresholdResult]:
    """bisect_from_grid of many problems on one bracket, driven in lockstep.

    grids yields, problem by problem, the values of each problem at
    prescan_grid(lo, hi); it is consumed in order, one grid at a time, and
    each grid is checked before the next is drawn.  f(problems, points)
    returns the value of problem problems[i] at points[i] for every i; it
    is called once per refinement round, on the midpoint of every problem
    still bisecting.  Result i is bisect_from_grid's for problem i,
    iterations included.  Where bisecting the problems in order would raise
    an EvaluationError, this raises it: that of the first problem to fail;
    no grid after that problem's is drawn.
    """
    results: list[ThresholdResult | None] = []
    failed: tuple[int, EvaluationError] | None = None
    active = []  # (problem, bisection steps, next point)

    def advance(i: int, steps, y: float | None) -> None:
        nonlocal failed
        if failed is not None and i > failed[0]:
            return  # a bisection before this one has failed
        try:
            active.append((i, steps, steps.send(y)))
        except StopIteration as stop:
            results[i] = stop.value
        except EvaluationError as exc:
            failed = (i, exc)

    for i, ys in enumerate(grids):
        results.append(None)
        advance(i, _bisect_steps(lo, hi, ys, tol), None)
        if failed is not None:
            break
    while active:
        stepping, active = active, []
        ys = f(np.array([i for i, _, _ in stepping]), np.array([x for _, _, x in stepping]))
        for (i, steps, _), y in zip(stepping, ys):
            advance(i, steps, y)
    if failed is not None:
        raise failed[1]
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
