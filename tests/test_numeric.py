import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeco.errors import EvaluationError, ValidationError
from qdeco.numeric import (
    DEFAULT_TOL,
    MAX_ITER,
    PRESCAN_POINTS,
    MultipleCrossingsError,
    Tolerance,
    ThresholdResult,
    bisect,
    bisect_from_grid,
    bisect_lockstep,
    check_hermitian,
    hermitian_spectrum,
    min_eig,
    partial_transpose,
    prescan_grid,
)


def test_bisect_linear_root():
    r = bisect(lambda x: x - 0.3, 0.0, 1.0)
    assert r.sign_change_found
    assert abs(r.value - 0.3) < 1e-9
    assert r.iterations > 0


def test_bisect_exact_endpoint_zero():
    r = bisect(lambda x: x, 0.0, 1.0)
    assert r.sign_change_found and r.value == 0.0 and r.iterations == 0


def test_bisect_no_crossing_is_flagged_not_raised():
    r = bisect(lambda x: 1.0 + x * x, -1.0, 1.0)
    assert not r.sign_change_found
    assert math.isnan(r.value)


def test_bisect_two_crossings_raise():
    with pytest.raises(MultipleCrossingsError):
        bisect(lambda x: (x - 0.2) * (x - 0.8), 0.0, 1.0)


def test_bisect_stops_at_the_iteration_guard():
    # A step has no exact zero, and below the float spacing the bracket
    # stops shrinking; the guard ends the loop.
    r = bisect(lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0, Tolerance(abs_root=1e-300))
    assert r.iterations == MAX_ITER
    assert abs(r.value - 0.3) < 1e-15


def test_bisect_rejects_bad_bracket():
    with pytest.raises(ValidationError):
        bisect(lambda x: x, 1.0, 0.0)


def test_bisect_rejects_non_finite_values():
    with pytest.raises(EvaluationError):
        bisect(lambda x: math.inf, 0.0, 1.0)


def test_bisect_deterministic():
    f = lambda x: math.cos(3.0 * x) - 0.42
    a = bisect(f, 0.0, 1.0)
    b = bisect(f, 0.0, 1.0)
    assert a == b


@given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
@settings(max_examples=50, deadline=None)
def test_bisect_recovers_planted_root(root):
    r = bisect(lambda x: math.tanh(x - root), 0.0, 1.0)
    assert r.sign_change_found
    assert abs(r.value - root) <= 2e-10


BISECT_CASES = [
    (lambda x: x - 0.3, 0.0, 1.0),
    (lambda x: x, 0.0, 1.0),
    (lambda x: 1.0 + x * x, -1.0, 1.0),
    (lambda x: math.cos(3.0 * x) - 0.42, 0.0, 1.0),
    (lambda x: math.tanh(x - 0.123456789), 0.0, 1.0),
    (lambda x: x - 1.0 / 3.0, 1e-6, 1.0 - 1e-6),
    (lambda x: 0.5 - x, 0.0, 1.0),  # zero at a grid point
]


def test_prescan_grid_ends_at_hi_itself():
    xs = prescan_grid(1e-6, 1.0 - 1e-6)
    assert len(xs) == 65
    assert xs[0] == 1e-6 and xs[-1] == 1.0 - 1e-6
    assert all(a < b for a, b in zip(xs, xs[1:]))


def _drive(f, lo, hi, tol=DEFAULT_TOL, grid_values=None):
    """bisect_from_grid of f: the result and every point where it called f.

    grid_values default to f at prescan_grid(lo, hi).
    """
    if grid_values is None:
        grid_values = [f(x) for x in prescan_grid(lo, hi)]
    points = []
    result = bisect_from_grid(lambda x: points.append(x) or f(x), lo, hi, grid_values, tol)
    return result, points


STEP_CASES = BISECT_CASES + [
    (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0, Tolerance(abs_root=1e-300)),
]


@pytest.mark.parametrize("case", range(len(STEP_CASES)))
def test_bisect_steps_driven_by_hand_match_bisect(case):
    f, lo, hi, *tol = STEP_CASES[case]
    tol = tol[0] if tol else DEFAULT_TOL
    result, points = _drive(f, lo, hi, tol)
    calls = []
    assert result == bisect(lambda x: calls.append(x) or f(x), lo, hi, tol)
    # bisect evaluates the whole pre-scan grid first, then each point where
    # bisect_from_grid, given the grid's values, calls f.
    assert calls == prescan_grid(lo, hi) + points


@pytest.mark.parametrize("case", range(len(BISECT_CASES)))
def test_bisect_grid_values_match_f_only_path(case):
    # Grid values computed outside bisect_from_grid give the same result as
    # bisect, which evaluates f on the grid itself.
    f, lo, hi = BISECT_CASES[case]
    grid = [f(x) for x in prescan_grid(lo, hi)]
    assert _drive(f, lo, hi, grid_values=grid)[0] == bisect(f, lo, hi)


def _outcome(f, lo, hi, tol=DEFAULT_TOL):
    """bisect's result for f, or the class and message of what it raises."""
    try:
        return bisect(f, lo, hi, tol)
    except EvaluationError as exc:
        return type(exc), str(exc)


def _values(arrays, ys):
    return np.array(ys) if arrays else ys


def _lockstep(fs, lo, hi, tol=DEFAULT_TOL, arrays=False):
    """bisect_lockstep over the scalar functions fs, their grids evaluated
    point by point into one (problems, PRESCAN_POINTS + 1) stack: the
    result (or the class and message of what it raises) and each
    refinement call.  With arrays, the stack of grids and f's values are
    numpy arrays, not lists."""
    calls = []
    grids = [[f(x) for x in prescan_grid(lo, hi)] for f in fs]

    def f(problems, points):
        assert len(problems) == len(points)
        calls.append(list(zip(problems.tolist(), points.tolist())))
        return _values(arrays, [fs[i](x) for i, x in zip(problems.tolist(), points.tolist())])

    stack = _values(arrays, grids) if fs else np.empty((0, PRESCAN_POINTS + 1))
    try:
        return bisect_lockstep(f, stack, lo, hi, tol), calls
    except EvaluationError as exc:
        return (type(exc), str(exc)), calls


def _midpoints(f, lo, hi, tol=DEFAULT_TOL):
    """The points where bisect refines f, up to where it ends or fails."""
    points = []
    grid = prescan_grid(lo, hi)
    try:
        bisect(lambda x: points.append(x) or f(x), lo, hi, tol)
    except EvaluationError:
        pass
    return points[len(grid) :]


@pytest.mark.parametrize("case", range(len(STEP_CASES)))
def test_bisect_stacked_matches_bisect(case):
    # bisect_lockstep of one problem: f sees one-point calls at exactly the
    # points bisect evaluates one by one after the grid.
    f, lo, hi, *tol = STEP_CASES[case]
    tol = tol[0] if tol else DEFAULT_TOL
    result, points = _drive(f, lo, hi, tol)
    got, calls = _lockstep([f], lo, hi, tol)
    assert got == [bisect(f, lo, hi, tol)] == [result]
    assert calls == [[(0, x)] for x in points]


# Problems on [0, 1] of each kind bisect_lockstep must keep apart.
LOCKSTEP_CASES = {
    "root": lambda x: x - 0.3,
    "slow root": lambda x: math.tanh(x - 0.123456789),
    "no crossing": lambda x: 1.0 + x * x,
    "zero on the grid": lambda x: 0.5 - x,
    "zero while refining": lambda x: x - 0.30859375,  # 19.75 / 64
    "step": lambda x: -1.0 if x < 0.3 else 1.0,
    "non-finite on the grid": lambda x: math.inf if x > 0.9 else x - 0.3,
    "non-finite while refining": lambda x: math.nan if 0.1999 < x < 0.2003 else x - 0.2001,
    "two crossings": lambda x: (x - 0.2) * (x - 0.8),
}
FAILING = {"non-finite on the grid", "non-finite while refining", "two crossings"}
FAILING_ON_THE_GRID = {"non-finite on the grid", "two crossings"}
PROBLEM_SETS = [
    ["root", "no crossing", "zero on the grid", "zero while refining", "step", "slow root"],
    ["step", "root", "root", "no crossing"],
    ["root", "non-finite while refining", "two crossings"],
    ["two crossings", "non-finite while refining"],
    ["slow root", "non-finite on the grid", "root"],
    ["zero while refining", "two crossings", "non-finite while refining"],
    ["non-finite while refining", "non-finite on the grid"],
]


def test_lockstep_cases_are_what_they_say():
    assert _outcome(LOCKSTEP_CASES["zero on the grid"], 0.0, 1.0).iterations == 0
    r = _outcome(LOCKSTEP_CASES["zero while refining"], 0.0, 1.0)
    assert r.value == 0.30859375 and r.iterations == 2
    assert not _outcome(LOCKSTEP_CASES["no crossing"], 0.0, 1.0).sign_change_found
    for name in FAILING:
        f = LOCKSTEP_CASES[name]
        assert _outcome(f, 0.0, 1.0)[0] == (
            MultipleCrossingsError if name == "two crossings" else EvaluationError
        )
        grid = [f(x) for x in prescan_grid(0.0, 1.0)]
        assert all(map(math.isfinite, grid)) == (name != "non-finite on the grid")


@pytest.mark.parametrize("names", PROBLEM_SETS, ids=lambda names: "+".join(names))
def test_bisect_lockstep_matches_bisect_per_problem(names):
    # Each result equals bisect's (value, bracket and iterations); a set
    # with a failing problem raises what bisecting in order raises first,
    # and no problem after the first whose grid fails its pre-scan refines.
    fs = [LOCKSTEP_CASES[name] for name in names]
    expected = [_outcome(f, 0.0, 1.0) for f in fs]
    failures = [e for e in expected if not isinstance(e, ThresholdResult)]
    got, calls = _lockstep(fs, 0.0, 1.0)
    assert got == (failures[0] if failures else expected)
    prescan_failing = [i for i, name in enumerate(names) if name in FAILING_ON_THE_GRID]
    assert all(i < (prescan_failing + [len(fs)])[0] for call in calls for i, _ in call)
    # Refinement round r holds the r-th midpoint of problems still
    # bisecting, in problem order: all of them when no problem fails.
    midpoints = [_midpoints(f, 0.0, 1.0) for f in fs]
    for r, call in enumerate(calls):
        bisecting = [(i, m[r]) for i, m in enumerate(midpoints) if r < len(m)]
        if failures:
            assert set(call) <= set(bisecting)
        else:
            assert call == bisecting
    if not failures:
        assert len(calls) == max(r.iterations for r in expected)


def test_bisect_stacked_accepts_array_values_and_checks_them():
    # bisect_lockstep's grids (one 2-D array) and f's values may be arrays;
    # every value is checked.
    def f(problems, xs):
        return xs - 0.3 - 0.1 * problems

    grid = np.array(prescan_grid(0.0, 1.0))
    grids = f(np.repeat(np.arange(3), len(grid)), np.tile(grid, 3)).reshape(3, len(grid))
    rs = bisect_lockstep(f, grids, 0.0, 1.0)
    assert rs == [bisect(lambda x, i=i: x - 0.3 - 0.1 * i, 0.0, 1.0) for i in range(3)]
    two = np.array([grid - 0.3] * 2)
    with pytest.raises(EvaluationError):
        bisect_lockstep(f, np.array([grid - 0.3, grid * math.nan]), 0.0, 1.0)
    with pytest.raises(EvaluationError):
        bisect_lockstep(lambda problems, xs: [math.nan] * len(xs), two, 0.0, 1.0)
    with pytest.raises(ValidationError):
        bisect_lockstep(f, grid[np.newaxis, :-1], 0.0, 1.0)
    with pytest.raises(ValidationError):  # one problem's row, not a stack of rows
        bisect_lockstep(f, grid - 0.3, 0.0, 1.0)
    with pytest.raises(ValidationError):  # one value too few in a round
        bisect_lockstep(lambda problems, xs: xs[1:] - 0.3, two, 0.0, 1.0)
    assert bisect_lockstep(f, np.empty((0, len(grid))), 0.0, 1.0) == []


@pytest.mark.parametrize("arrays", [False, True], ids=["lists", "arrays"])
@pytest.mark.parametrize("case", ["non-finite on the grid", "non-finite while refining"])
def test_non_finite_messages_are_the_same_on_every_route(case, arrays):
    # A numpy value prints as the Python float it is, on every route.
    f = LOCKSTEP_CASES[case]
    g = (lambda x: np.float64(f(x))) if arrays else f
    grid = [g(x) for x in prescan_grid(0.0, 1.0)]
    routes = [
        lambda: bisect(g, 0.0, 1.0),
        lambda: bisect_from_grid(g, 0.0, 1.0, _values(arrays, grid)),
        lambda: bisect_lockstep(
            lambda problems, xs: _values(arrays, [g(x) for x in xs.tolist()]),
            [_values(arrays, grid)], 0.0, 1.0,
        ),
    ]
    messages = set()
    for route in routes:
        with pytest.raises(EvaluationError) as info:
            route()
        messages.add(str(info.value))
    (message,) = messages
    assert "np." not in message
    if case == "non-finite on the grid":
        assert message == "function evaluated to non-finite value inf at 0.90625"


_SPECIAL_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0]


@st.composite
def _grid_rows(draw):
    """A bracket and a row of grid values on it: a few sign changes, with
    NaN, infinities and signed zeros written over some values."""
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (1e-9, 1.0 - 1e-9), (-3.0, 50.0)]))
    cuts = draw(st.lists(st.integers(1, PRESCAN_POINTS), max_size=4))
    sign = draw(st.sampled_from([1.0, -1.0]))
    sizes = draw(st.lists(
        st.floats(1e-300, 1e300), min_size=PRESCAN_POINTS + 1, max_size=PRESCAN_POINTS + 1
    ))
    row = [sign * (-1.0) ** sum(i >= c for c in cuts) * y for i, y in enumerate(sizes)]
    for i, y in draw(st.lists(
        st.tuples(st.integers(0, PRESCAN_POINTS), st.sampled_from(_SPECIAL_VALUES)), max_size=3
    )):
        row[i] = y
    root = draw(st.floats(lo, hi))
    return lo, hi, row, root


@given(_grid_rows())
@settings(max_examples=400, deadline=None)
def test_scalar_and_array_prescans_read_a_row_alike(case):
    # bisect_from_grid reads its row in plain Python and bisect_lockstep in
    # one array pass; on any row both give the same result, or raise the
    # same exception with the same message.
    lo, hi, row, root = case

    def outcome(route):
        try:
            return route()
        except (EvaluationError, ValidationError) as exc:
            return type(exc), str(exc)

    scalar = outcome(lambda: bisect_from_grid(lambda x: x - root, lo, hi, row))
    stacked = outcome(lambda: bisect_lockstep(lambda problems, xs: xs - root, [row], lo, hi))
    assert repr(stacked) == repr([scalar] if isinstance(scalar, ThresholdResult) else scalar)


@st.composite
def _problem(draw):
    """One scalar problem on [0, 1] of a kind bisect_lockstep must keep apart."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(
        ["grid root", "dyadic root", "root", "step", "no crossing", "non-finite on the grid",
         "non-finite while refining", "two crossings"]
    ))
    if kind == "grid root":
        r = draw(st.integers(0, PRESCAN_POINTS)) / PRESCAN_POINTS
        return lambda x: sign * (x - r)
    if kind == "dyadic root":
        m = draw(st.integers(7, 30))
        r = (2 * draw(st.integers(0, 2 ** (m - 1) - 1)) + 1) / 2**m
        return lambda x: sign * (x - r)
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    if kind == "root":
        r = draw(unit)
        return lambda x: sign * math.tanh(x - r)
    if kind == "step":
        r = draw(unit)
        return lambda x: sign * (-1.0 if x < r else 1.0)
    if kind == "no crossing":
        c = draw(st.floats(1e-3, 10.0))
        return lambda x: sign * (c + x * x)
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if kind == "non-finite on the grid":
        r = draw(st.integers(0, PRESCAN_POINTS)) / PRESCAN_POINTS
        return lambda x: bad if x == r else sign * (x - 0.3)
    if kind == "non-finite while refining":
        r, w = draw(unit), draw(st.floats(1e-9, 1e-3))
        return lambda x: bad if abs(x - r) < w else sign * (x - r)
    r1, r2 = draw(unit), draw(unit)
    return lambda x: sign * (x - r1) * (x - r2)


@st.composite
def _problem_sets(draw):
    fs = draw(st.lists(_problem(), max_size=6))
    tol = draw(st.sampled_from([DEFAULT_TOL, Tolerance(abs_root=1e-300)]))
    return fs, tol, draw(st.booleans())


@given(_problem_sets())
@settings(max_examples=200, deadline=None)
def test_bisect_lockstep_matches_bisect_on_random_problem_sets(problems):
    # Results (repr included) or the first failure and every round's call
    # are those that bisecting in order implies.
    fs, tol, arrays = problems
    expected = [_outcome(f, 0.0, 1.0, tol) for f in fs]
    midpoints = [_midpoints(f, 0.0, 1.0, tol) for f in fs]
    fails = [not isinstance(e, ThresholdResult) for e in expected]
    on_the_grid = [i for i, m in enumerate(midpoints) if fails[i] and not m]
    got, calls = _lockstep(fs, 0.0, 1.0, tol, arrays)
    failures = [e for e, failed in zip(expected, fails) if failed]
    assert repr(got) == repr(failures[0] if failures else expected)
    # Round r holds the r-th midpoint of every problem still bisecting: one
    # before every failure seen so far, with a point left.
    limit = on_the_grid[0] if on_the_grid else len(fs)
    rounds = []
    while True:
        r = len(rounds)
        call = [(i, m[r]) for i, m in enumerate(midpoints[:limit]) if r < len(m)]
        if not call:
            break
        rounds.append(call)
        limit = min([limit] + [i for i, _ in call if fails[i] and r == len(midpoints[i]) - 1])
    assert calls == rounds


def test_bisect_checks_the_bracket_before_evaluating_f():
    calls = []
    with pytest.raises(ValidationError):
        bisect(lambda x: calls.append(x) or x, 1.0, 0.0)
    assert calls == []


def test_bisect_grid_values_two_crossings_raise():
    f = lambda x: (x - 0.2) * (x - 0.8)
    with pytest.raises(MultipleCrossingsError):
        _drive(f, 0.0, 1.0, grid_values=[f(x) for x in prescan_grid(0.0, 1.0)])


def test_bisect_grid_values_are_checked():
    f = lambda x: x - 0.3
    grid = [f(x) for x in prescan_grid(0.0, 1.0)]
    for bad in (math.nan, math.inf):
        with pytest.raises(EvaluationError):
            _drive(f, 0.0, 1.0, grid_values=grid[:40] + [bad] + grid[41:])
    with pytest.raises(ValidationError):
        _drive(f, 0.0, 1.0, grid_values=grid[:-1])


def test_bisect_grid_values_leave_only_refinement_to_f():
    grid = [x - 0.3 for x in prescan_grid(0.0, 1.0)]
    r, points = _drive(lambda x: x - 0.3, 0.0, 1.0, grid_values=grid)
    assert len(points) == r.iterations > 0


def test_threshold_result_kt_axis():
    r = ThresholdResult(math.exp(-0.25), (0.0, 1.0), 10, True)
    assert abs(r.kt - 0.25) < 1e-14


def test_tolerance_validation():
    with pytest.raises(ValidationError):
        Tolerance(abs_root=0.0)
    # nan <= 0 is false, so a sign test alone would let these through and
    # bisect would return the middle of the pre-scan cell.
    for bad in (math.nan, math.inf, -math.inf, -1e-10):
        with pytest.raises(ValidationError):
            Tolerance(abs_root=bad)
    # The eigenvalue floor is fixed: no tolerance overrides it.
    with pytest.raises(TypeError):
        Tolerance(eig_zero=-1e-9)
    assert Tolerance(abs_root=1e-6).eig_floor(4) == DEFAULT_TOL.eig_floor(4) == -4e-12
    assert DEFAULT_TOL.eig_floor(16) == -1.6e-11


def _eig_count_below(m: np.ndarray, x: float) -> int:
    """Independent eigenvalue-count oracle via the LDL^* inertia of m - x*I.

    The number of negative pivots of the Cholesky-like elimination equals the
    number of eigenvalues below x (Sylvester's law of inertia), computed here
    with plain Gaussian elimination and no eigen-solver.
    """
    a = np.array(m, dtype=complex) - x * np.eye(m.shape[0])
    n = a.shape[0]
    count = 0
    for k in range(n):
        pivot = a[k, k].real
        if pivot < 0:
            count += 1
        if abs(pivot) < 1e-300:
            pivot = 1e-300
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :]) / pivot
    return count


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_spectrum_matches_inertia_count_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = raw + raw.conj().T
    eigs = hermitian_spectrum(m)
    assert np.all(np.diff(eigs) >= 0)
    for x in rng.normal(scale=2.0, size=4):
        expected = int(np.sum(eigs < x))
        # Skip probes that land within round-off of an eigenvalue.
        if np.min(np.abs(eigs - x)) < 1e-8:
            continue
        assert _eig_count_below(m, float(x)) == expected


def test_spectrum_trace_and_symmetry():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(6, 6))
    m = raw + raw.T
    eigs = hermitian_spectrum(m)
    assert abs(np.sum(eigs) - np.trace(m)) < 1e-9
    assert min_eig(m) == pytest.approx(eigs[0])


def test_check_hermitian_rejects():
    with pytest.raises(ValidationError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        check_hermitian(np.zeros((2, 3)))


def _random_stack(rng, shape, hermitian=False):
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return m + m.swapaxes(-1, -2).conj() if hermitian else m


def test_partial_transpose_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        dim = 1 << n
        stack = _random_stack(rng, (2, 3, dim, dim))
        for a in range(1 << n):
            got = partial_transpose(stack, a)
            expected = np.array([[partial_transpose(m, a) for m in row] for row in stack])
            assert np.array_equal(got, expected), (n, a)


def test_partial_transpose_rejects_a_mask_beyond_the_qubits():
    with pytest.raises(ValidationError):
        partial_transpose(np.zeros((5, 4, 4)), 0b100)


def test_check_hermitian_accepts_and_returns_a_stack():
    stack = _random_stack(np.random.default_rng(12), (7, 4, 4), hermitian=True)
    assert np.array_equal(check_hermitian(stack), stack)
    assert check_hermitian(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_check_hermitian_rejects_bad_stacks():
    stack = _random_stack(np.random.default_rng(13), (5, 4, 4), hermitian=True)
    one_off = stack.copy()
    one_off[3, 0, 1] += 1e-9
    nan = stack.copy()
    nan[1, 2, 2] = math.nan
    inf = stack.copy()
    inf[4, 0, 0] = math.inf
    for bad in (one_off, nan, inf, np.zeros((5, 4, 3)), np.zeros(4)):
        with pytest.raises(ValidationError):
            check_hermitian(bad)


def test_check_hermitian_tolerance_is_absolute():
    m = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
    assert np.array_equal(check_hermitian(m), m)
    with pytest.raises(ValidationError):
        check_hermitian(m, atol=1e-14)


def test_hermitian_spectrum_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(14)
    for dim in (1, 4, 16):
        stack = _random_stack(rng, (9, dim, dim), hermitian=True)
        got = hermitian_spectrum(stack)
        assert got.shape == (9, dim)
        assert np.array_equal(got, np.array([hermitian_spectrum(m) for m in stack]))
