"""Simplex solver tests against independent oracles: vertex enumeration, and
SciPy's HiGHS solver where SciPy is installed."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtmarl import linprog
from gtmarl.errors import NumericalError, SimplexIterationError, SpecError
from gtmarl.linprog import (
    EQUAL,
    FEAS_TOL,
    GREATER,
    LESS,
    OPTIMAL,
    LinearProgram,
    Violation,
    _basis_solution,
    _simplex,
    _solve_standard,
    check_feasible,
    linear_program,
    solve_lp,
)


def vertex_enumeration_max(objective, a_rows, senses, rhs, lower, upper):
    """Oracle: enumerate all basic points (intersections of n constraint
    boundaries, variable bounds included), keep the feasible ones, and return
    the best objective value. Only for small dense LPs known to be feasible
    and bounded."""
    objective = np.asarray(objective, dtype=float)
    n = objective.size
    rows = []
    rhs_all = []
    for row, b in zip(np.atleast_2d(a_rows), rhs):
        rows.append(np.asarray(row, dtype=float))
        rhs_all.append(float(b))
    for j in range(n):
        if np.isfinite(lower[j]):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rhs_all.append(float(lower[j]))
        if np.isfinite(upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rhs_all.append(float(upper[j]))
    rows = np.asarray(rows)
    rhs_all = np.asarray(rhs_all)

    def feasible(x):
        for row, sense, b in zip(np.atleast_2d(a_rows), senses, rhs):
            v = float(np.asarray(row) @ x)
            if sense == "<=" and v > b + 1e-8:
                return False
            if sense == ">=" and v < b - 1e-8:
                return False
            if sense == "==" and abs(v - b) > 1e-8:
                return False
        if np.any(x < lower - 1e-8) or np.any(x > upper + 1e-8):
            return False
        return True

    best = -np.inf
    for combo in itertools.combinations(range(rows.shape[0]), n):
        a_sq = rows[list(combo)]
        if abs(np.linalg.det(a_sq)) < 1e-10:
            continue
        x = np.linalg.solve(a_sq, rhs_all[list(combo)])
        if feasible(x):
            best = max(best, float(objective @ x))
    return best


def random_bounded_lp(rng):
    """Feasible-and-bounded by construction: box bounds plus random <= rows
    that are satisfied at a random interior point."""
    n = int(rng.integers(2, 5))
    extra = int(rng.integers(1, 1 + min(8, 12 - 2 * n)))
    point = rng.uniform(0.2, 0.8, n)
    a_rows = rng.normal(size=(extra, n))
    rhs = a_rows @ point + rng.uniform(0.1, 1.0, extra)
    lower = np.zeros(n)
    upper = np.ones(n)
    objective = rng.normal(size=n)
    senses = ["<="] * extra
    return objective, a_rows, senses, rhs, lower, upper


class TestAgainstVertexOracle:
    def test_fifty_random_bounded_lps(self):
        rng = np.random.default_rng(20240811)
        for _ in range(50):
            objective, a_rows, senses, rhs, lower, upper = random_bounded_lp(rng)
            lp = linear_program(objective, a_rows, senses, rhs, lower, upper)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            expected = vertex_enumeration_max(
                objective, a_rows, senses, rhs, lower, upper
            )
            assert sol.objective_value == pytest.approx(expected, abs=1e-7)

    def test_equality_constrained(self):
        # max x + 2y st x + y = 1, x,y >= 0 -> (0, 1), value 2
        lp = linear_program([1.0, 2.0], [[1.0, 1.0]], ["=="], [1.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
        assert sol.x == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_free_variable(self):
        # max -z with z free and z >= -3 via constraint -> z = -3
        lp = linear_program(
            [-1.0],
            [[1.0]],
            [">="],
            [-3.0],
            lower=[-np.inf],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


class TestStatuses:
    def test_infeasible(self):
        lp = linear_program(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, 1.0]],
            ["<=", ">="],
            [1.0, 2.0],
        )
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = linear_program([1.0, 0.0], [[0.0, 1.0]], ["<="], [1.0])
        assert solve_lp(lp).status == "unbounded"

    def test_iteration_budget(self):
        rng = np.random.default_rng(5)
        objective, a_rows, senses, rhs, lower, upper = random_bounded_lp(rng)
        lp = linear_program(objective, a_rows, senses, rhs, lower, upper)
        with pytest.raises(SimplexIterationError) as info:
            solve_lp(lp, max_iterations=1)
        assert info.value.iterations == 1

    def test_random_infeasible_classified(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            row = np.abs(rng.normal(size=n)) + 0.1
            # sum of nonnegative terms can't be both <= 1 and >= large
            lp = linear_program(
                rng.normal(size=n),
                [row, row],
                ["<=", ">="],
                [1.0, 10.0 + float(rng.uniform())],
            )
            assert solve_lp(lp).status == "infeasible"

    def test_random_unbounded_classified(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            # only constrain the first variable; maximize the last
            row = np.zeros(n)
            row[0] = 1.0
            objective = np.zeros(n)
            objective[-1] = 1.0
            lp = linear_program(objective, [row], ["<="], [1.0])
            assert solve_lp(lp).status == "unbounded"


class TestDuals:
    def test_duals_match_objective_sensitivity(self):
        # max x+y st x <= 2, y <= 3: duals are (1, 1)
        lp = linear_program([1.0, 1.0], [[1, 0], [0, 1]], ["<=", "<="], [2.0, 3.0])
        sol = solve_lp(lp)
        assert sol.row_duals == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_duals_strong_duality_on_random_lps(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            objective, a_rows, senses, rhs, lower, upper = random_bounded_lp(rng)
            # drop upper bounds into explicit rows so every binding constraint
            # carries a reported dual
            n = objective.size
            rows = list(np.atleast_2d(a_rows))
            all_rhs = list(rhs)
            for j in range(n):
                e = np.zeros(n)
                e[j] = 1.0
                rows.append(e)
                all_rhs.append(1.0)
            senses_all = ["<="] * len(rows)
            lp = linear_program(
                objective, rows, senses_all, all_rhs, lower, np.full(n, np.inf)
            )
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            duals = sol.row_duals
            assert np.all(duals >= -1e-9)
            # strong duality: b'y == c'x at the optimum
            assert float(np.asarray(all_rhs) @ duals) == pytest.approx(
                sol.objective_value, abs=1e-7
            )

    def test_geq_row_dual_sign(self):
        # max -x st x >= 2 -> x = 2; relaxing the rhs by d changes the
        # objective by -d, so the reported dual is -1
        lp = linear_program([-1.0], [[1.0]], [">="], [2.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-9)
        assert sol.row_duals == pytest.approx([-1.0], abs=1e-9)


def reference_check_feasible(lp, x, tol):
    """check_feasible as a Python loop over rows and variables."""
    v = np.asarray(x, dtype=float)
    out = []
    if lp.a_matrix.shape[0]:
        resid = lp.a_matrix @ v - lp.rhs
        for i, s in enumerate(lp.senses):
            r = resid[i]
            if s == LESS and r > tol:
                out.append(Violation("row", i, float(r)))
            elif s == GREATER and -r > tol:
                out.append(Violation("row", i, float(-r)))
            elif s == EQUAL and abs(r) > tol:
                out.append(Violation("row", i, float(abs(r))))
    for j in range(v.size):
        if lp.lower[j] - v[j] > tol:
            out.append(Violation("lower", j, float(lp.lower[j] - v[j])))
        if v[j] - lp.upper[j] > tol:
            out.append(Violation("upper", j, float(v[j] - lp.upper[j])))
    return out


class TestValidationAndFeasibility:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(SpecError):
            linear_program([1.0, 2.0], [[1.0]], ["<="], [1.0])

    def test_bad_sense_rejected(self):
        with pytest.raises(SpecError):
            linear_program([1.0], [[1.0]], ["<"], [1.0])

    def test_check_feasible_boundary_is_closed(self):
        lp = linear_program([1.0], [[1.0]], ["<="], [1.0])
        assert check_feasible(lp, np.array([1.0 + 0.5 * FEAS_TOL]), FEAS_TOL) == []
        violations = check_feasible(lp, np.array([1.0 + 2 * FEAS_TOL]), FEAS_TOL)
        assert len(violations) == 1
        assert violations[0].kind == "row"

    def test_non_finite_rejected(self):
        with pytest.raises(SpecError):
            linear_program([np.nan], [[1.0]], ["<="], [1.0])

    def test_check_feasible_matches_loop_reference(self):
        rng = np.random.default_rng(20)
        offsets = FEAS_TOL * np.array([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
        seen, feasible = set(), 0
        for _ in range(2000):
            m, n = int(rng.integers(0, 6)), int(rng.integers(1, 6))
            x = rng.normal(size=n)
            a = rng.normal(size=(m, n))
            # each rhs and bound sits within 2 FEAS_TOL of x's boundary, or far off
            near = rng.random(size=m + 2 * n) < 0.7
            shift = np.where(near, rng.choice(offsets, size=m + 2 * n), rng.normal(size=m + 2 * n))
            rhs = a @ x + shift[:m]
            lower = np.where(rng.random(n) < 0.3, -np.inf, x + shift[m:m + n])
            upper = np.where(rng.random(n) < 0.3, np.inf, x + shift[m + n:])
            upper = np.maximum(upper, lower)
            senses = [str(s) for s in rng.choice((LESS, EQUAL, GREATER), size=m)]
            lp = linear_program(np.ones(n), a, senses, rhs, lower, upper)
            got = check_feasible(lp, x)
            # repr tells an int from a numpy integer and compares each amount exactly
            assert repr(got) == repr(reference_check_feasible(lp, x, FEAS_TOL))
            seen.update((v.kind, lp.senses[v.index] if v.kind == "row" else None) for v in got)
            feasible += not got
        # every kind of violation occurs, and so do feasible points
        assert seen == {("row", LESS), ("row", EQUAL), ("row", GREATER),
                        ("lower", None), ("upper", None)}
        assert feasible > 0


class TestDeterminism:
    def test_bitwise_repeatability(self):
        rng = np.random.default_rng(11)
        objective, a_rows, senses, rhs, lower, upper = random_bounded_lp(rng)
        lp = linear_program(objective, a_rows, senses, rhs, lower, upper)
        first = solve_lp(lp)
        second = solve_lp(lp)
        assert first.objective_value == second.objective_value
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.row_duals, second.row_duals)


@st.composite
def mixed_lps(draw):
    """Feasible by construction: == rows, <= and >= rows and bounds all hold
    at a small-integer point p, and zero slacks make p a degenerate vertex.
    Some variables are free; the program may be unbounded."""
    n = draw(st.integers(1, 5))
    small = st.integers(-2, 2)
    p = np.array(draw(st.lists(small, min_size=n, max_size=n)), dtype=float)
    rows, senses, rhs = [], [], []
    for _ in range(draw(st.integers(0, 6))):
        row = np.array(draw(st.lists(small, min_size=n, max_size=n)), dtype=float)
        sense = draw(st.sampled_from(("<=", ">=", "==")))
        slack = 0.0 if sense == "==" else float(draw(st.integers(0, 2)))
        rows.append(row)
        senses.append(sense)
        rhs.append(row @ p + (slack if sense == "<=" else -slack))
    lower = np.empty(n)
    upper = np.empty(n)
    for j in range(n):
        free = draw(st.booleans())
        lower[j] = -np.inf if free else p[j] - draw(st.integers(0, 2))
        upper[j] = np.inf if draw(st.booleans()) else p[j] + draw(st.integers(0, 2))
    objective = np.array(draw(st.lists(small, min_size=n, max_size=n)), dtype=float)
    return linear_program(objective, np.reshape(rows, (len(rows), n)), senses, rhs, lower, upper)


def highs(lp):
    """scipy.optimize.linprog (HiGHS) on the same program, maximized."""
    optimize = pytest.importorskip("scipy.optimize")
    ub = [i for i, sense in enumerate(lp.senses) if sense != "=="]
    eq = [i for i, sense in enumerate(lp.senses) if sense == "=="]
    sign = np.array([1.0 if lp.senses[i] == "<=" else -1.0 for i in ub])
    return optimize.linprog(
        -lp.objective,
        A_ub=lp.a_matrix[ub] * sign[:, None] if ub else None,
        b_ub=lp.rhs[ub] * sign if ub else None,
        A_eq=lp.a_matrix[eq] if eq else None,
        b_eq=lp.rhs[eq] if eq else None,
        bounds=[
            (None if np.isneginf(lo) else lo, None if np.isposinf(hi) else hi)
            for lo, hi in zip(lp.lower, lp.upper)
        ],
        method="highs",
    )


class TestAgainstHighs:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mixed_lps())
    def test_equality_rows_free_variables_degenerate_vertices(self, lp):
        ref = highs(lp)
        assert ref.status in (0, 3)  # optimal or unbounded: never infeasible
        sol = solve_lp(lp)
        if ref.status == 3:
            assert sol.status == "unbounded"
            return
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-7)
        assert check_feasible(lp, sol.x) == []

    def test_degenerate_vertex_with_equality_and_free_rows(self):
        # max x + y + z st x + y + z == 1, x - y == 0, x + y <= 1, x + y >= 1,
        # z free: four rows through the vertex (1/2, 1/2, 0)
        lp = linear_program(
            [1.0, 1.0, 1.0],
            [[1, 1, 1], [1, -1, 0], [1, 1, 0], [1, 1, 0]],
            ["==", "==", "<=", ">="],
            [1.0, 0.0, 1.0, 1.0],
            lower=[0.0, 0.0, -np.inf],
        )
        ref = highs(lp)
        sol = solve_lp(lp)
        assert sol.status == "optimal" and ref.status == 0
        assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-9)
        assert sol.x == pytest.approx([0.5, 0.5, 0.0], abs=1e-9)


class TestBasisSolutionWithEqualityRow:
    """_basis_solution on a hand-made program with an == row:
        max -x0 - 2 x1 - 5 x2  s.t.  x1 + 2 x2 <= 0.6,  x0 + x1 + 2 x2 == 1,  x >= 0.
    Columns as in _simplex: x0..x2 are 0..2, the slack of row 0 is 3, and the
    == row has no slack; its artificial would be 4. The optimum is x0 = 1
    with basis [3, 0], where the == row's multiplier is -1: it is free, so
    no test may ask it to be nonnegative."""

    a = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 2.0]])
    senses = (LESS, EQUAL)
    b = np.array([0.6, 1.0])
    c = np.array([-1.0, -2.0, -5.0])

    def solve(self, basis):
        return _basis_solution(self.a, self.senses, self.b, self.c, np.array(basis))

    def test_accepts_the_optimal_basis(self):
        x, duals = self.solve([3, 0])
        assert x.tolist() == [1.0, 0.0, 0.0]
        assert duals.tolist() == [0.0, -1.0]
        status, cold_x, cold_duals, cold_basis = _simplex(self.a, self.senses, self.b, self.c)
        assert status == OPTIMAL and cold_basis.tolist() == [3, 0]
        assert np.array_equal(x, cold_x) and np.array_equal(duals, cold_duals)

    @pytest.mark.parametrize("basis", [
        [3, 1],  # x1 = 1 leaves the slack of row 0 at -0.4
        [1, 0],  # x = (0.4, 0.6, 0): feasible, but the slack's reduced cost is -1
        #          (every structural reduced cost is >= 0)
        [1, 2],  # columns 1 and 2 are parallel: a singular basis matrix
        [3, 4],  # the == row's artificial: _simplex's starting basis
        [3],  # one column for two rows: a basis of another program
    ], ids=["primal-infeasible", "dual-infeasible", "singular", "artificial", "short"])
    def test_refuses_a_basis_that_is_not_optimal(self, basis):
        assert self.solve(basis) is None

    def test_solve_standard_falls_back_and_keeps_the_cold_basis(self, monkeypatch):
        x, _, basis = _solve_standard(self.a, self.senses, self.b, self.c, "test LP",
                                      np.array([3, 4]))
        assert x.tolist() == [1.0, 0.0, 0.0] and basis.tolist() == [3, 0]

        def forbidden_simplex(*args, **kwargs):
            raise AssertionError("the simplex ran although the start basis was optimal")

        monkeypatch.setattr(linprog, "_simplex", forbidden_simplex)
        x, _, kept = _solve_standard(self.a, self.senses, self.b * 2.0, self.c, "test LP", basis)
        assert x.tolist() == [2.0, 0.0, 0.0] and kept is basis
