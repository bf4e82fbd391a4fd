"""Numerical primitives: bracketed root finding, Hermitian spectra and the
dense partial transpose.

Every threshold in this package is the root of an empirically monotone
condition, so the bisection here insists on a certified single sign change
(via a coarse pre-scan) before it refines the bracket.  The entry points
are prescan_grid, the points of that pre-scan; bisect_from_grid, which
takes the values of f there, however the caller computed them, and
refines with a scalar f; bisect, which is bisect_from_grid with the grid
evaluated point by point; and bisect_lockstep, bisect_from_grid of many
problems on one bracket, which takes their grids as one
(problems, PRESCAN_POINTS + 1) array, holds the problems still bisecting
as arrays and calls f once per refinement round on all their midpoints.
One set of rules reads a grid: _read_row reads bisect_from_grid's row in
plain Python, and _prescan reads the lockstep's rows in one array pass,
handing each row with a non-finite value or an exact zero to _read_row;
both read the sign changes through _crossing.  The scalar route refines
in a plain loop, the lockstep one with a few array operations per round.
The Hermitian check, the spectra and the partial transpose take stacks
(..., d, d) of matrices.

The scalar routes (prescan_grid, bisect_from_grid, bisect) need no numpy,
so a closed-form threshold runs without it; the array functions import
numpy when first called.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import EvaluationError, ValidationError

if TYPE_CHECKING:
    import numpy as np

PRESCAN_POINTS = 64
MAX_ITER = 200  # stops bisection where abs_root is below the float spacing


class Tolerance(namedtuple("Tolerance", "abs_root")):
    """Numerical tolerances shared across the package.

    abs_root: absolute bisection tolerance on the parameter axis.
    eig_floor(dim) is fixed: eigenvalues of a dim x dim matrix above
    -1e-12 * dim count as non-negative, since round-off leaves them there.
    """

    __slots__ = ()

    def __new__(cls, abs_root: float = 1e-10) -> Tolerance:
        if not 0.0 < abs_root < math.inf:
            raise ValidationError(f"abs_root must be finite and positive, got {abs_root}")
        return super().__new__(cls, abs_root)

    def eig_floor(self, dim: int) -> float:
        return -1e-12 * dim


DEFAULT_TOL = Tolerance()


class ThresholdResult(NamedTuple):
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


def _cell_end(lo: float, hi: float, i: int) -> float:
    # Unlike prescan_grid, the point at i = PRESCAN_POINTS is lo + (hi - lo),
    # which can differ from hi in the last bit; a refined bracket starts
    # from these points.
    return lo + (hi - lo) * i / PRESCAN_POINTS


def _crossing(
    lo: float, hi: float, crossings: int, cell: int, negative: bool
) -> ThresholdResult | tuple[float, float, bool]:
    """The pre-scan's reading of a row whose values are finite and nonzero:
    crossings sign changes, the first between points cell and cell + 1,
    negative the sign bit of its first value.  Raises
    MultipleCrossingsError for more than one crossing; returns the result
    of no crossing, or (a, b, negative) for the cell [a, b] of one."""
    if crossings > 1:
        raise MultipleCrossingsError(
            f"{crossings} sign changes in [{lo}, {hi}]; refine the bracket before bisecting"
        )
    if not crossings:
        return ThresholdResult(math.nan, (lo, hi), 0, False)
    return _cell_end(lo, hi, cell), _cell_end(lo, hi, cell + 1), negative


def _read_row(
    lo: float, hi: float, grid_values: Sequence[float]
) -> ThresholdResult | tuple[float, float, bool]:
    """The pre-scan of one problem, its values at prescan_grid(lo, hi), in
    plain Python.

    A non-finite value raises EvaluationError (the first such value names
    it).  An exact zero (-0.0 too) is the root: at lo, else at hi, else at
    the first interior point that has one.  Otherwise no value is -0.0 or
    NaN, so y < 0 is its sign bit, and _crossing reads the sign changes.
    """
    row = list(grid_values)
    if len(row) != PRESCAN_POINTS + 1:
        raise ValidationError(f"need {PRESCAN_POINTS + 1} grid values, got {len(row)}")
    if not all(map(math.isfinite, row)):
        k = next(i for i, y in enumerate(row) if not math.isfinite(y))
        raise _non_finite(row[k], prescan_grid(lo, hi)[k])
    if 0.0 in row:
        at = lo if row[0] == 0.0 else hi if row[-1] == 0.0 else _cell_end(lo, hi, row.index(0.0))
        return ThresholdResult(at, (lo, hi), 0, True)
    negative = [y < 0.0 for y in row]
    left = negative[0]
    if (not left) not in negative:
        return _crossing(lo, hi, 0, 0, left)
    cell = negative.index(not left) - 1
    crossings = sum(map(operator.ne, negative, negative[1:])) if left in negative[cell + 1 :] else 1
    return _crossing(lo, hi, crossings, cell, left)


def _prescan(
    lo: float, hi: float, grids: np.ndarray
) -> tuple[list[ThresholdResult | None], list[tuple[int, float, float, bool]],
           EvaluationError | None]:
    """The pre-scan of every row of grids, shape (problems, PRESCAN_POINTS +
    1): row i holds the values of problem i at prescan_grid(lo, hi).

    One array pass counts the sign changes of every row and finds its
    first crossing cell; rows with a non-finite value or an exact zero are
    read by _read_row instead, and the others by _crossing, so every row is
    read by the rules of bisect_from_grid.  Rows are read in order, and no
    row after a failing one is read.  Returns (results, starts, failed).
    results holds, for each row read, its final result, or None for a row
    with a crossing.  starts holds (i, a, b, f(a) < 0) for each row i with
    a crossing, [a, b] its grid cell.  failed is the error of the failing
    row, or None.
    """
    import numpy as np

    _check_bracket(lo, hi)
    ys = np.asarray(grids, dtype=float)
    if ys.ndim != 2 or ys.shape[1] != PRESCAN_POINTS + 1:
        raise ValidationError(
            f"need rows of {PRESCAN_POINTS + 1} grid values, got shape {ys.shape}"
        )
    plain = (np.isfinite(ys) & (ys != 0.0)).all(axis=1).tolist()
    negative = ys < 0.0
    changes = negative[:, 1:] != negative[:, :-1]
    count = changes.sum(axis=1).tolist()
    cell = changes.argmax(axis=1).tolist()
    left = negative[:, 0].tolist()

    results: list[ThresholdResult | None] = []
    starts = []
    try:
        for i, row_is_plain in enumerate(plain):
            if row_is_plain:
                outcome = _crossing(lo, hi, count[i], cell[i], left[i])
            else:
                outcome = _read_row(lo, hi, ys[i].tolist())
            if isinstance(outcome, ThresholdResult):
                results.append(outcome)
            else:
                results.append(None)
                starts.append((i, *outcome))
    except EvaluationError as exc:
        return results, starts, exc
    return results, starts, None


def bisect_from_grid(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    grid_values: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
) -> ThresholdResult:
    """bisect, given the values of f at prescan_grid(lo, hi).

    The caller computes grid_values however it likes (a list or an array);
    _read_row checks them in plain Python, and each refinement point is
    then evaluated by the scalar f.  Only the signs of the values and
    whether they are exactly zero steer the bisection, and every value,
    given or computed, is checked to be finite.  While refining it holds
    the bracket and the sign of f at its left end; bisect_lockstep refines
    the same way on arrays, but one cheap root refines faster in this
    scalar loop than through numpy calls.
    """
    _check_bracket(lo, hi)
    outcome = _read_row(lo, hi, grid_values)
    if isinstance(outcome, ThresholdResult):
        return outcome
    a, b, negative = outcome

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
    grids: np.ndarray,
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
) -> list[ThresholdResult]:
    """bisect_from_grid of many problems on one bracket, driven in lockstep.

    grids has one row per problem, shape (problems, PRESCAN_POINTS + 1):
    row i holds the values of problem i at prescan_grid(lo, hi), as an
    array or as nested lists.  _prescan, the pre-scan of bisect, checks
    every row in one array pass.  The problems with a crossing then refine
    together, held as arrays in problem order: their ids, brackets [a, b]
    and the sign of f at a, with one round count for all, since every
    problem refines from the first round.  Each round keeps the problems
    still bisecting (b - a > abs_root and fewer than MAX_ITER rounds),
    calls f(problems, points) once on their midpoints, f returning the
    value of problem problems[i] at points[i] as a list or an array, checks
    every value to be finite and moves each bracket end as bisect_from_grid
    does.  Result i is bisect_from_grid's for problem i, Python floats and
    iterations included.  Where bisecting the problems in order would raise
    an EvaluationError, this raises it: that of the first problem to fail;
    no problem after one whose grid fails refines.
    """
    import numpy as np

    results, starts, failed = _prescan(lo, hi, grids)
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
    import numpy as np

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
    import numpy as np

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
