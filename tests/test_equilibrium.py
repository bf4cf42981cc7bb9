"""Equilibrium solvers vs independent oracles: closed-form 2x2 Nash, exact
best-response polytope vertices, CE polytope vertex enumeration, and
primal-dual gap bounds."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gtmarl import equilibrium, learners, linprog
from gtmarl.equilibrium import (
    CE_OBJECTIVES,
    EGALITARIAN,
    PLUTOCRATIC,
    UTILITARIAN,
    best_response,
    ce_check,
    ce_violations,
    correlated_eq_solve,
    epsilon_nash_check,
    minimax_solve,
    solve_ce_distribution,
    stage_minimax,
    support_enumeration_nash,
)
from gtmarl.errors import NumericalError, SpecError
from gtmarl.games import (
    build_matrix_game,
    classic_game,
    joint_count,
    make_stochastic_game,
    mixed_profile,
    random_game,
    strides,
)
from gtmarl.learners import LearningSchedule, correlated_q_train, minimax_q_train
from gtmarl.linprog import OPTIMAL, LinearProgram, linear_program, solve_lp


# --- independent oracles ------------------------------------------------------

def nash_2x2_oracle(u1, u2):
    """All Nash equilibria of a 2x2 game by direct case analysis: the four
    pure cells plus the interior indifference point when it exists."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    found = []
    for a in range(2):
        for b in range(2):
            if u1[a, b] >= u1[1 - a, b] - 1e-12 and u2[a, b] >= u2[a, 1 - b] - 1e-12:
                x = np.eye(2)[a]
                y = np.eye(2)[b]
                found.append((x, y))
    # interior mixed: opponent mixture makes each player indifferent
    dy = (u1[0, 0] - u1[1, 0]) + (u1[1, 1] - u1[0, 1])
    dx = (u2[0, 0] - u2[0, 1]) + (u2[1, 1] - u2[1, 0])
    if abs(dx) > 1e-12 and abs(dy) > 1e-12:
        q = (u1[1, 1] - u1[0, 1]) / dy  # P(col plays 0)
        p = (u2[1, 1] - u2[1, 0]) / dx  # P(row plays 0)
        if 1e-12 < p < 1 - 1e-12 and 1e-12 < q < 1 - 1e-12:
            found.append((np.array([p, 1 - p]), np.array([q, 1 - q])))
    return found


def exact_solve(rows, rhs):
    """The unique solution of a square Fraction system, or None if it is
    singular (Gauss-Jordan elimination)."""
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c] / aug[c][c]
                aug[r] = [u - f * w for u, w in zip(aug[r], aug[c])]
    return [aug[r][n] / aug[r][r] for r in range(n)]


def exact_polytope_vertices(m):
    """Every nonzero vertex of {v >= 0 : m v <= 1} for a positive integer
    matrix m, in exact arithmetic, with its label set: j when v_j = 0 and
    d + i when row i is tight."""
    k, d = len(m), len(m[0])
    g = [[-int(i == j) for j in range(d)] for i in range(d)] + [list(r) for r in m]
    h = [0] * d + [1] * k
    found = {}
    for subset in itertools.combinations(range(d + k), d):
        v = exact_solve([[Fraction(e) for e in g[i]] for i in subset],
                        [Fraction(h[i]) for i in subset])
        if v is None or not any(v):
            continue
        slack = [h[i] - sum(e * x for e, x in zip(g[i], v)) for i in range(d + k)]
        if min(slack) >= 0:
            found[tuple(v)] = frozenset(i for i, s in enumerate(slack) if s == 0)
    return found


def exact_extreme_equilibria(a, b):
    """Every extreme Nash equilibrium of the integer bimatrix game (a, b):
    after a shift that makes both matrices positive, the completely labeled
    vertex pairs of P = {x >= 0 : b'x <= 1} and Q = {y >= 0 : a y <= 1}.
    Labels 0..k1-1 are row actions, k1.. column actions."""
    k1, k2 = len(a), len(a[0])
    shift = 1 - min(min(map(min, a)), min(map(min, b)))
    xs = exact_polytope_vertices([[b[i][j] + shift for i in range(k1)] for j in range(k2)])
    ys = exact_polytope_vertices([[e + shift for e in row] for row in a])
    return [
        ([float(e / sum(x)) for e in x], [float(e / sum(y)) for e in y])
        for x, x_labels in xs.items()
        for y, y_labels in ys.items()
        # Q numbers its own labels y_j = 0 first: move them after the rows
        if len(x_labels | {(i + k1) % (k1 + k2) for i in y_labels}) == k1 + k2
    ]


def ce_incentive_rows_2x2(u1, u2):
    """CE incentive constraints for a 2x2 game over flat lambda order
    (a1, a2) -> 2*a1 + a2. Row r says: expected gain of following the
    recommendation over one deviation map, must be >= 0."""
    rows = []
    for a in range(2):  # agent 1 recommended a, deviates to 1-a
        row = np.zeros(4)
        for b in range(2):
            row[2 * a + b] = u1[a, b] - u1[1 - a, b]
        rows.append(row)
    for b in range(2):  # agent 2 recommended b, deviates to 1-b
        row = np.zeros(4)
        for a in range(2):
            row[2 * a + b] = u2[a, b] - u2[a, 1 - b]
        rows.append(row)
    return np.asarray(rows)


def ce_polytope_vertices_2x2(u1, u2):
    """Vertices of the CE polytope: active-set enumeration of the simplex
    facets (lambda_j = 0) and incentive facets, three at a time, together
    with the normalization equality."""
    incentives = ce_incentive_rows_2x2(u1, u2)
    facets = [np.eye(4)[j] for j in range(4)] + [incentives[r] for r in range(4)]
    vertices = []
    for combo in itertools.combinations(range(8), 3):
        a_sq = np.vstack([np.ones(4)] + [facets[c] for c in combo])
        b = np.array([1.0, 0.0, 0.0, 0.0])
        if abs(np.linalg.det(a_sq)) < 1e-10:
            continue
        lam = np.linalg.solve(a_sq, b)
        if lam.min() < -1e-9:
            continue
        if np.any(incentives @ lam < -1e-9):
            continue
        if not any(np.allclose(lam, v, atol=1e-9) for v in vertices):
            vertices.append(lam)
    return vertices


def utilitarian_ce_oracle_2x2(u1, u2):
    vertices = ce_polytope_vertices_2x2(u1, u2)
    welfare = u1.reshape(-1) + u2.reshape(-1)
    return max(float(welfare @ v) for v in vertices)


# --- minimax ------------------------------------------------------------------

class TestMinimax:
    def test_fixed_game_frozen_values(self):
        # saddle-free 2x2: row mixes (1/4, 3/4), value 1.5
        value, x, y = stage_minimax([[3.0, 0.0], [1.0, 2.0]])
        assert value == pytest.approx(1.5, abs=1e-9)
        assert x == pytest.approx([0.25, 0.75], abs=1e-9)
        assert y == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_matching_pennies(self):
        sol = minimax_solve(classic_game("matching_pennies"))
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert sol.strategies.mixtures[0] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_rps_uniform(self):
        sol = minimax_solve(classic_game("rps"))
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        for mix in sol.strategies.mixtures:
            assert mix == pytest.approx([1 / 3] * 3, abs=1e-9)

    def test_saddle_point_game(self):
        # strictly dominant row: pure saddle at (row 0, col 1), value 2
        value, x, y = stage_minimax([[3.0, 2.0], [1.0, 0.0]])
        assert value == pytest.approx(2.0, abs=1e-9)
        assert x == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_primal_dual_gap_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            k = int(rng.integers(2, 4))
            a = rng.uniform(-1, 1, size=(k, k))
            value, x, y = stage_minimax(a)
            guaranteed = float(np.min(x @ a))
            exposed = float(np.max(a @ y))
            assert exposed - guaranteed <= 1e-8
            assert guaranteed - 1e-8 <= value <= exposed + 1e-8

    def test_rejects_general_sum(self):
        with pytest.raises(SpecError):
            minimax_solve(classic_game("chicken"))

    def test_shift_invariance(self):
        a = np.array([[3.0, 0.0], [1.0, 2.0]])
        v0, x0, _ = stage_minimax(a)
        v1, x1, _ = stage_minimax(a - 10.0)
        assert v1 == pytest.approx(v0 - 10.0, abs=1e-9)
        assert x1 == pytest.approx(x0, abs=1e-9)


def reference_stage_minimax(matrix):
    """stage_minimax through the general solver: the value LP stated as a
    LinearProgram and solved by solve_lp."""
    a = np.asarray(matrix, dtype=float)
    k1, k2 = a.shape
    shift = 1.0 - a.min()
    lp = LinearProgram(
        objective=np.ones(k2),
        a_matrix=a + shift,
        senses=("<=",) * k1,
        rhs=np.ones(k1),
        lower=np.zeros(k2),
        upper=np.full(k2, np.inf),
    )
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise NumericalError(f"value LP ended with status {sol.status}")
    duals = np.where(sol.row_duals > 0.0, sol.row_duals, 0.0)
    total = float(sol.x.sum())
    dual_total = float(duals.sum())
    if total <= 0.0 or dual_total <= 0.0:
        raise NumericalError("value LP returned a degenerate mixture")
    return 1.0 / total - shift, duals / dual_total, sol.x / total


def outcome(solver, matrix):
    """The solver's result as raw bytes, or its NumericalError message."""
    try:
        value, x, y = solver(matrix)
    except NumericalError as exc:
        return ("error", str(exc))
    return ("ok", np.float64(value).tobytes(), x.tobytes(), y.tobytes())


@st.composite
def stage_matrices(draw):
    """Random real matrices, small-integer matrices (ties and degenerate
    vertices) and constant matrices, 1x1 to 8x8."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(("real", "integer", "constant")))
    if kind == "real":
        elements = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
        return draw(hnp.arrays(np.float64, shape, elements=elements))
    if kind == "integer":
        return draw(hnp.arrays(np.int64, shape, elements=st.integers(-2, 2))).astype(float)
    return np.full(shape, float(draw(st.integers(-5, 5))))


class TestStageKernel:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(stage_matrices())
    def test_bit_identical_to_general_solver(self, matrix):
        assert outcome(stage_minimax, matrix) == outcome(reference_stage_minimax, matrix)

    @pytest.mark.xfail(strict=True, raises=NumericalError,
                       reason="FEAS_TOL is absolute: rounding on rows of A+k near 7 exceeds it")
    def test_entries_near_float32_epsilon(self):
        # A valid stage matrix that fails today with "simplex returned an
        # infeasible point (off by 1.78814e-09)"; it must pass once the
        # feasibility check is relative.
        e = 1.1920929e-07
        a = np.array([[-3.0, e, e, e], [e, 0.0, -6.0, e], [e, e, -1.0, e]])
        value, x, y = stage_minimax(a)
        tol = linprog.FEAS_TOL * (1.0 + np.abs(a).max())
        assert value == pytest.approx(-0.7499999552965153, abs=tol)  # HiGHS
        assert np.all(x @ a >= value - tol) and np.all(a @ y <= value + tol)

    def test_rejects_bad_input(self):
        with pytest.raises(SpecError, match="2-D"):
            stage_minimax([1.0, 2.0])
        with pytest.raises(SpecError, match="non-finite"):
            stage_minimax([[1.0, np.inf]])

    def test_status_check(self, monkeypatch):
        monkeypatch.setattr(linprog, "_run_phase", lambda *args: "unbounded")
        with pytest.raises(NumericalError, match="value LP ended with status unbounded"):
            stage_minimax([[1.0, 0.0], [0.0, 1.0]])

    def test_feasibility_check(self, monkeypatch):
        def corrupt(tab, basis, *args):
            basis[0] = 0
            tab[0, -1] = 5.0  # q[0] = 5 breaks every row of the 2x2 LP
            return OPTIMAL

        monkeypatch.setattr(linprog, "_run_phase", corrupt)
        with pytest.raises(NumericalError, match="simplex returned an infeasible point"):
            stage_minimax([[1.0, 0.0], [0.0, 1.0]])


def basis_check(matrix, basis):
    """The value LP of matrix at basis, by LU solves and an SVD rank test
    independent of linprog: None for a singular basis matrix, else x_B and
    the reduced costs of every column (slacks last)."""
    a = np.asarray(matrix, dtype=float)
    k1, k2 = a.shape
    columns = np.hstack([a + (1.0 - a.min()), np.eye(k1)])
    costs = np.append(np.ones(k2), np.zeros(k1))
    factor = columns[:, basis]
    if np.linalg.matrix_rank(factor) < k1:
        return None
    x_basic = np.linalg.solve(factor, np.ones(k1))
    duals = np.linalg.solve(factor.T, costs[basis])
    return x_basic, duals @ columns - costs


@st.composite
def stage_sequences(draw):
    """A stage matrix, 1x1 to 8x8, and one to six successors. Each successor
    moves one entry part of the way to a target (as a Q update does), nudges
    every entry, repeats the matrix, or draws an unrelated one (whose start
    basis is then stale). Entries are real, small integers (ties, degenerate
    vertices), one constant, or 1e-6-scale."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(("real", "integer", "constant", "tiny")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = {"real": 100.0, "integer": 2.0, "constant": 5.0, "tiny": 1e-6}[kind]

    def fresh():
        if kind == "integer":
            return rng.integers(-2, 3, size=shape).astype(float)
        if kind == "constant":
            return np.full(shape, float(rng.integers(-5, 6)))
        return scale * rng.uniform(-1.0, 1.0, size=shape)

    matrices = [fresh()]
    for move in draw(st.lists(st.sampled_from(("entry", "nudge", "same", "fresh")),
                              min_size=1, max_size=6)):
        a = matrices[-1].copy()
        if move == "entry":
            i, j = rng.integers(shape[0]), rng.integers(shape[1])
            target = rng.integers(-2, 3) if kind == "integer" else scale * rng.uniform(-1, 1)
            a[i, j] += (1.0 if kind == "integer" else rng.choice((0.5, 0.1, 1e-3))) * (
                target - a[i, j])
        elif move == "nudge":
            a += scale * 1e-4 * rng.standard_normal(shape)
        elif move == "fresh":
            a = fresh()
        matrices.append(a)
    return matrices


class TestWarmStart:
    """stage_minimax(matrix, bases): the answer read from a still-optimal
    basis agrees with the cold solve, and any other basis falls back to it."""

    @staticmethod
    def cold_with_basis(a):
        """The cold solve's outcome and the basis it ended on, from an empty
        warm-start list, which the solve fills."""
        bases = []
        got = outcome(lambda m: stage_minimax(m, bases), a)
        assert got == outcome(stage_minimax, a)
        return got, (bases[0] if bases else None)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stage_sequences())
    def test_carried_basis_agrees_with_cold_solve(self, matrices):
        bases = []
        for a in matrices:
            check = basis_check(a, bases[0]) if bases else None
            warm = outcome(lambda m: stage_minimax(m, bases), a)
            cold, cold_basis = self.cold_with_basis(a)
            stale = check is None or check[0].min() < -1e-6 or check[1].min() < -1e-6
            if stale or cold[0] == "error":
                # a basis that is not optimal, and any matrix the cold solve
                # fails on, must give exactly the cold outcome
                if stale:
                    assert warm == cold
                    if cold[0] == "ok":
                        assert np.array_equal(bases[0], cold_basis)
                continue
            assert warm[0] == "ok"
            scale = 1.0 + np.abs(a).max()
            value, x, y = np.frombuffer(warm[1])[0], np.frombuffer(warm[2]), np.frombuffer(warm[3])
            assert abs(value - np.frombuffer(cold[1])[0]) <= 1e-12 * scale
            tol = linprog.FEAS_TOL * scale
            assert x.min() >= 0.0 and y.min() >= 0.0
            assert abs(x.sum() - 1.0) <= 1e-12 and abs(y.sum() - 1.0) <= 1e-12
            assert np.all(x @ a >= value - tol) and np.all(a @ y <= value + tol)
            x_basic, reduced = basis_check(a, cold_basis)
            nonbasic = np.delete(reduced, cold_basis)
            if x_basic.min() > 1e-7 and nonbasic.min(initial=np.inf) > 1e-7:
                # a nondegenerate optimal basis on both sides: the optimum is unique
                assert np.allclose(x, np.frombuffer(cold[2]), rtol=0.0, atol=1e-9)
                assert np.allclose(y, np.frombuffer(cold[3]), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("matrix, basis", [
        # infeasible: shifted to [[5, 1], [1, 5]], row 1 tight at q0 = 1 breaks row 0
        ([[4.0, 0.0], [0.0, 4.0]], [2, 0]),
        # not optimal: the slack basis of any matrix
        ([[3.0, 0.0], [1.0, 2.0]], [2, 3]),
        # singular: columns 0 and 1 are equal
        ([[1.0, 1.0, 0.0], [2.0, 2.0, 3.0]], [0, 1]),
        ([[2.0, 2.0], [2.0, 2.0]], [0, 1]),
    ], ids=["infeasible", "not-optimal", "duplicate-columns", "constant"])
    def test_stale_basis_falls_back_to_cold_solve(self, matrix, basis):
        check = basis_check(matrix, np.array(basis))
        assert check is None or check[0].min() < 0.0 or check[1].min() < 0.0
        cold, cold_basis = self.cold_with_basis(matrix)
        bases = [np.array(basis)]
        assert outcome(lambda m: stage_minimax(m, bases), matrix) == cold
        assert np.array_equal(bases[0], cold_basis)

    def test_basis_of_another_lp_falls_back_to_cold_solve(self):
        """A basis that does not fit the value LP (an index past its last
        slack, or another LP's row count) is refused, not indexed."""
        a = np.eye(2)
        cold, cold_basis = self.cold_with_basis(a)
        bases = [np.array([4, 5])]
        assert outcome(lambda m: stage_minimax(m, bases), a) == cold
        assert np.array_equal(bases[0], cold_basis)
        bases = []
        stage_minimax(np.array([[3.0, 0.0, 1.0], [1.0, 2.0, 0.0], [0.0, 1.0, 4.0]]), bases)
        assert bases[0].size == 3
        assert outcome(lambda m: stage_minimax(m, bases), a) == cold
        assert np.array_equal(bases[0], cold_basis)

    def test_optimal_basis_needs_no_pivot(self, monkeypatch):
        a = np.array([[3.0, 0.0], [1.0, 2.0]])
        bases = []
        stage_minimax(a, bases)

        def forbidden_simplex(*args, **kwargs):
            raise AssertionError("the simplex ran although the start basis was optimal")

        monkeypatch.setattr(linprog, "_simplex", forbidden_simplex)
        value, x, y = stage_minimax(a + 1e-3, bases)
        assert value == pytest.approx(1.5 + 1e-3, abs=1e-12)
        assert x == pytest.approx([0.25, 0.75], abs=1e-12)
        assert y == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_corrupted_warm_answer_fails_the_feasibility_check(self, monkeypatch):
        def corrupt(a, senses, b, c, basis):
            return np.full(a.shape[1], 5.0), np.ones(a.shape[0])  # q = 5 breaks every row

        monkeypatch.setattr(linprog, "_basis_solution", corrupt)
        with pytest.raises(NumericalError, match="simplex returned an infeasible point"):
            stage_minimax([[1.0, 0.0], [0.0, 1.0]], [np.array([0, 1])])

    def test_learners_pivot_on_few_stage_solves(self, monkeypatch):
        """Carried bases leave the simplex to at most 5% of the stage solves
        of minimax-Q, and to at most one solve per state (the first sweep's)
        in Shapley's value iteration, which takes only a few sweeps."""
        pivoted = [0]
        simplex = linprog._simplex

        def counted(*args, **kwargs):
            pivoted[0] += 1
            return simplex(*args, **kwargs)

        monkeypatch.setattr(linprog, "_simplex", counted)
        game = random_game(3, (2, 2), zero_sum=True, num_states=3, discount=0.9)
        minimax_q_train(game, LearningSchedule(max_steps=2000, seed=1))
        assert pivoted[0] <= 0.05 * (2000 + game.num_states)
        pivoted[0] = 0
        learners.shapley_value_iteration(game)
        assert pivoted[0] <= game.num_states


# --- Nash ----------------------------------------------------------------------

class TestSupportEnumeration:
    def test_matching_pennies_unique_mixed(self):
        eqs = support_enumeration_nash(classic_game("matching_pennies"))
        assert len(eqs) == 1
        assert eqs[0].mixtures[0] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_pd_unique_pure(self):
        eqs = support_enumeration_nash(classic_game("prisoners_dilemma"))
        assert len(eqs) == 1
        assert eqs[0].mixtures[0] == pytest.approx([0.0, 1.0], abs=0)
        assert eqs[0].mixtures[1] == pytest.approx([0.0, 1.0], abs=0)

    def test_chicken_three_equilibria(self):
        eqs = support_enumeration_nash(classic_game("chicken"))
        assert len(eqs) == 3
        mixed = [e for e in eqs if all(m.min() > 1e-9 for m in e.mixtures)]
        assert len(mixed) == 1
        assert mixed[0].mixtures[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
        assert mixed[0].mixtures[1] == pytest.approx([2 / 3, 1 / 3], abs=1e-9)

    def test_matches_closed_form_oracle_on_random_games(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            g = random_game(int(rng.integers(1 << 30)), (2, 2))
            mine = support_enumeration_nash(g)
            oracle = nash_2x2_oracle(g.payoffs[0], g.payoffs[1])
            # every oracle equilibrium appears in the returned list
            for x, y in oracle:
                assert any(
                    np.allclose(e.mixtures[0], x, atol=1e-7)
                    and np.allclose(e.mixtures[1], y, atol=1e-7)
                    for e in mine
                )
            # and everything returned really is an equilibrium
            for e in mine:
                assert epsilon_nash_check(g, e, 1e-8).passed

    @pytest.mark.parametrize("k1, k2", itertools.product(range(1, 5), repeat=2))
    def test_matches_exact_oracle_on_small_integer_games(self, k1, k2):
        rng = np.random.default_rng(100 * k1 + k2)
        for _ in range(20):
            a, b = rng.integers(-2, 3, (2, k1, k2))
            g = build_matrix_game((k1, k2), [a.ravel(), b.ravel()])
            oracle = exact_extreme_equilibria(a.tolist(), b.tolist())
            mine = support_enumeration_nash(g)
            assert len(mine) == len(oracle), (a.tolist(), b.tolist())
            for x, y in oracle:
                assert any(np.allclose(e.mixtures[0], x, rtol=0, atol=1e-9)
                           and np.allclose(e.mixtures[1], y, rtol=0, atol=1e-9)
                           for e in mine), (a.tolist(), b.tolist(), x, y)
            for e in mine:
                assert epsilon_nash_check(g, e, 1e-9).passed

    def test_degenerate_game_returns_every_extreme_equilibrium(self):
        # a support pair that holds a segment of equilibria: x = (1, 0)
        # against y on the segment from (1/2, 0, 1/2) to (0, 1/2, 1/2)
        g = build_matrix_game((2, 3), [[0, 0, 1, 1, 1, 0], [0, 0, 0, 2, 1, 1]])
        eqs = [[m.tolist() for m in e.mixtures] for e in support_enumeration_nash(g)]
        assert eqs == [
            [[1.0, 0.0], [0.0, 0.0, 1.0]],
            [[1.0, 0.0], [0.5, 0.0, pytest.approx(0.5, abs=1e-15)]],
            [[1.0, 0.0], [0.0, 0.5, pytest.approx(0.5, abs=1e-15)]],
            [[0.0, 1.0], [1.0, 0.0, 0.0]],
        ]

    def test_constant_game_returns_every_pure_profile(self):
        g = build_matrix_game((2, 2), [[3.0] * 4, [3.0] * 4])
        eqs = [[m.tolist() for m in e.mixtures] for e in support_enumeration_nash(g)]
        assert eqs == [[x, y] for x in ([1.0, 0.0], [0.0, 1.0]) for y in ([1.0, 0.0], [0.0, 1.0])]

    # the last case's row payoffs span more than the largest float
    @pytest.mark.parametrize("scales", [(1e-6, 1e-6), (1e6, 1e6), (1e9, 1e9), (1e308, 1.0)],
                             ids=["1e-6", "1e6", "1e9", "row-1e308"])
    def test_payoff_scale_does_not_change_the_equilibria(self, scales):
        for seed in range(30):
            g = random_game(seed, (3, 3))
            scaled = build_matrix_game((3, 3), [u.ravel() * c for u, c in zip(g.payoffs, scales)])
            base = support_enumeration_nash(g)
            eqs = support_enumeration_nash(scaled)
            assert len(eqs) == len(base)
            for e, f in zip(eqs, base):
                for m, n in zip(e.mixtures, f.mixtures):
                    assert m == pytest.approx(n, abs=1e-12)

    def test_action_cap(self):
        g = random_game(0, (5, 2))
        with pytest.raises(SpecError):
            support_enumeration_nash(g)

    def test_best_response_tie_goes_low(self):
        g = build_matrix_game((2, 2), [[1.0, 1.0, 1.0, 1.0], [0, 0, 0, 0]])
        action, value = best_response(g, mixed_profile([[0.5, 0.5], [0.5, 0.5]]), 0)
        assert action == 0
        assert value == pytest.approx(1.0)


# --- correlated equilibria -------------------------------------------------------

class TestCorrelatedEquilibria:
    def test_chicken_utilitarian_frozen(self):
        g = classic_game("chicken")
        policy = correlated_eq_solve(g, UTILITARIAN)
        assert policy.probs == pytest.approx([0.5, 0.25, 0.25, 0.0], abs=1e-9)
        welfare = float(policy.probs @ (g.payoff_flat(0) + g.payoff_flat(1)))
        assert welfare == pytest.approx(10.5, abs=1e-6)
        oracle = utilitarian_ce_oracle_2x2(g.payoffs[0], g.payoffs[1])
        assert welfare == pytest.approx(oracle, abs=1e-9)

    def test_pd_utilitarian_is_dd_point_mass(self):
        g = classic_game("prisoners_dilemma")
        policy = correlated_eq_solve(g, UTILITARIAN)
        assert policy.probs == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=0)
        welfare = float(policy.probs @ (g.payoff_flat(0) + g.payoff_flat(1)))
        assert welfare == 2.0

    def test_utilitarian_matches_vertex_oracle_random(self):
        rng = np.random.default_rng(321)
        for _ in range(25):
            g = random_game(int(rng.integers(1 << 30)), (2, 2))
            policy = correlated_eq_solve(g, UTILITARIAN)
            welfare = float(policy.probs @ (g.payoff_flat(0) + g.payoff_flat(1)))
            oracle = utilitarian_ce_oracle_2x2(g.payoffs[0], g.payoffs[1])
            assert welfare == pytest.approx(oracle, abs=1e-7)
            assert ce_check(g, policy, 1e-9).passed

    def test_egalitarian_chicken(self):
        g = classic_game("chicken")
        policy = correlated_eq_solve(g, EGALITARIAN)
        per_agent = [float(policy.probs @ g.payoff_flat(i)) for i in range(2)]
        assert min(per_agent) == pytest.approx(5.25, abs=1e-6)
        assert ce_check(g, policy, 1e-9).passed

    def test_egalitarian_battle_of_sexes(self):
        g = build_matrix_game((2, 2), [[3, 0, 0, 2], [2, 0, 0, 3]])
        policy = correlated_eq_solve(g, EGALITARIAN)
        per_agent = [float(policy.probs @ g.payoff_flat(i)) for i in range(2)]
        assert min(per_agent) == pytest.approx(2.5, abs=1e-6)
        assert policy.probs == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-7)

    def test_plutocratic_battle_of_sexes(self):
        g = build_matrix_game((2, 2), [[3, 0, 0, 2], [2, 0, 0, 3]])
        policy = correlated_eq_solve(g, PLUTOCRATIC)
        best = max(float(policy.probs @ g.payoff_flat(i)) for i in range(2))
        assert best == pytest.approx(3.0, abs=1e-6)
        assert ce_check(g, policy, 1e-9).passed

    def test_plutocratic_chicken(self):
        g = classic_game("chicken")
        policy = correlated_eq_solve(g, PLUTOCRATIC)
        best = max(float(policy.probs @ g.payoff_flat(i)) for i in range(2))
        assert best == pytest.approx(7.0, abs=1e-6)

    def test_nash_subset_of_ce_random(self):
        rng = np.random.default_rng(777)
        for _ in range(50):
            g = random_game(int(rng.integers(1 << 30)), (2, 2))
            for x, y in nash_2x2_oracle(g.payoffs[0], g.payoffs[1]):
                product = np.outer(x, y).reshape(-1)
                assert ce_check(g, product, 1e-8).passed

    def test_point_mass_violation_magnitude(self):
        # telling both chicken drivers to cooperate invites a unit deviation
        g = classic_game("chicken")
        report = ce_check(g, np.array([1.0, 0.0, 0.0, 0.0]), 1e-9)
        assert not report.passed
        assert report.max_violation == pytest.approx(1.0, abs=1e-12)

    def test_unknown_objective(self):
        with pytest.raises(SpecError):
            correlated_eq_solve(classic_game("chicken"), "dictatorial")

    def test_ce_violations_raw_interface(self):
        g = classic_game("prisoners_dilemma")
        worst, detail = ce_violations(
            g.actions, [g.payoff_flat(0), g.payoff_flat(1)], np.array([1.0, 0, 0, 0])
        )
        # both players gain 2 by defecting from enforced (C, C)
        assert worst == pytest.approx(2.0, abs=1e-12)
        assert len(detail) > 0

    def test_three_agent_ce(self):
        g = random_game(12, (2, 2, 2))
        policy = correlated_eq_solve(g, UTILITARIAN)
        assert policy.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert ce_check(g, policy, 1e-9).passed


# --- CE layer against its loop-built reference ---------------------------------

def reference_incentive_rows(actions, payoffs_flat):
    """The CE incentive rows built one (agent, action, alternative) row at a
    time."""
    count = joint_count(actions)
    digits = np.stack(np.unravel_index(np.arange(count), actions))
    place = strides(actions)
    rows = []
    labels = []
    for i, k in enumerate(actions):
        u = np.asarray(payoffs_flat[i], dtype=float)
        for a in range(k):
            idx = np.flatnonzero(digits[i] == a)
            for alt in range(k):
                if alt == a:
                    continue
                row = np.zeros(count)
                row[idx] = u[idx] - u[idx + (alt - a) * place[i]]
                rows.append(row)
                labels.append((i, a, alt))
    if rows:
        return np.stack(rows), labels
    return np.zeros((0, count)), labels


def reference_solve_ce_distribution(actions, payoffs_flat, objective):
    """The CE LP stated once per objective: one statement shared by the
    utilitarian and plutocratic weights, a second with the egalitarian
    floor."""
    count = joint_count(actions)
    inc, _ = reference_incentive_rows(actions, payoffs_flat)
    n_inc = inc.shape[0]

    def solve_with(weights):
        a = np.vstack([inc, np.ones((1, count))])
        senses = (">=",) * n_inc + ("==",)
        rhs = np.zeros(n_inc + 1)
        rhs[-1] = 1.0
        sol = solve_lp(linear_program(weights, a, senses, rhs))
        if sol.status != OPTIMAL:
            raise NumericalError(f"CE LP ended with status {sol.status}")
        return sol.x, sol.objective_value

    if objective == UTILITARIAN:
        lam, _ = solve_with(np.sum([np.asarray(u, dtype=float) for u in payoffs_flat], axis=0))
    elif objective == PLUTOCRATIC:
        best_lam, best_val = None, -np.inf
        for u in payoffs_flat:
            lam, val = solve_with(np.asarray(u, dtype=float))
            if val > best_val:
                best_lam, best_val = lam, val
        lam = best_lam
    else:
        n_agents = len(payoffs_flat)
        a = np.zeros((n_inc + 1 + n_agents, count + 1))
        a[:n_inc, :count] = inc
        a[n_inc, :count] = 1.0
        for i, u in enumerate(payoffs_flat):
            a[n_inc + 1 + i, :count] = -np.asarray(u, dtype=float)
            a[n_inc + 1 + i, count] = 1.0
        senses = (">=",) * n_inc + ("==",) + ("<=",) * n_agents
        rhs = np.zeros(n_inc + 1 + n_agents)
        rhs[n_inc] = 1.0
        c = np.zeros(count + 1)
        c[count] = 1.0
        lower = np.zeros(count + 1)
        lower[count] = -np.inf
        sol = solve_lp(linear_program(c, a, senses, rhs, lower=lower))
        if sol.status != OPTIMAL:
            raise NumericalError(f"CE LP ended with status {sol.status}")
        lam = sol.x[:count]
    lam = np.where(lam > 0.0, lam, 0.0)
    total = lam.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("CE LP returned a degenerate distribution")
    return lam / total


def reference_ce_violations(actions, payoffs_flat, lam):
    inc, labels = reference_incentive_rows(tuple(actions), payoffs_flat)
    values = inc @ np.asarray(lam, dtype=float) if inc.shape[0] else np.zeros(0)
    worst = 0.0
    detail = []
    for (agent, a, alt), val in zip(labels, values):
        gap = max(0.0, -float(val))
        worst = max(worst, gap)
        detail.append((agent, a, alt, gap))
    return worst, detail


def ce_outcome(solver, actions, payoffs, objective):
    """The distribution as raw bytes, or the NumericalError message."""
    try:
        return ("ok", solver(actions, payoffs, objective).tobytes())
    except NumericalError as exc:
        return ("error", str(exc))


@st.composite
def ce_stage_games(draw):
    """Two-agent shapes up to 3x3 and 4x4, and three-agent shapes up to
    2x2x2, with real or small-integer payoffs (ties and degenerate
    vertices), an objective and a nonnegative test distribution. Half the
    two-agent draws are 4x4, 3x2 or 2x3, the shapes where the CE LP is known
    to fail, so that error texts are compared too."""
    agents = draw(st.sampled_from((2, 3)))
    actions = tuple(draw(st.integers(1, 3 if agents == 2 else 2)) for _ in range(agents))
    if agents == 2 and draw(st.booleans()):
        actions = draw(st.sampled_from(((4, 4), (3, 2), (2, 3))))
    count = joint_count(actions)
    if draw(st.booleans()):
        elements = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
        payoffs = [draw(hnp.arrays(np.float64, count, elements=elements)) for _ in actions]
    else:
        payoffs = [draw(hnp.arrays(np.int64, count, elements=st.integers(-2, 2))).astype(float)
                   for _ in actions]
    objective = draw(st.sampled_from((UTILITARIAN, EGALITARIAN, PLUTOCRATIC)))
    lam = draw(hnp.arrays(np.float64, count, elements=st.floats(0.0, 1.0)))
    return actions, payoffs, objective, lam


def known_failing_ce(seed, actions, objective):
    """A feasible CE LP on which the simplex fails today (see
    test_cli.test_known_ce_lp_failures), as a ce_stage_games example."""
    g = random_game(seed, actions)
    payoffs = [g.payoff_flat(i) for i in range(g.num_agents)]
    return actions, payoffs, objective, np.full(g.joint_actions, 1.0 / g.joint_actions)


CHICKEN = [[6.0, 2.0, 7.0, 0.0], [6.0, 7.0, 2.0, 0.0]]


def break_ce_incentives(monkeypatch):
    """Make the CE LP return the point mass on joint action 0, and make every
    incentive row read -0.5 there, so the CE entry's own incentive check finds
    a breach of 0.5."""
    incentive_rows = equilibrium._incentive_rows

    def rows_with_a_breach(actions, payoffs):
        inc, labels = incentive_rows(actions, payoffs)
        inc[:, 0] = -0.5
        return inc, labels

    monkeypatch.setattr(equilibrium, "_incentive_rows", rows_with_a_breach)
    monkeypatch.setattr(equilibrium, "_solve_standard",
                        lambda a, senses, b, c, what, basis: (np.eye(a.shape[1])[0], None, None))


class TestCeLayer:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(ce_stage_games())
    @example(known_failing_ce(8, (4, 4), UTILITARIAN))
    @example(known_failing_ce(405, (3, 3), UTILITARIAN))
    @example(known_failing_ce(3116, (2, 2, 2), EGALITARIAN))
    def test_bit_identical_to_loop_reference(self, game):
        actions, payoffs, objective, lam = game
        got = ce_outcome(solve_ce_distribution, actions, payoffs, objective)
        assert got == ce_outcome(reference_solve_ce_distribution, actions, payoffs, objective)
        distributions = [lam] + ([np.frombuffer(got[1])] if got[0] == "ok" else [])
        for dist in distributions:
            # repr tells -0.0 from 0.0 and a numpy scalar from a float
            assert repr(ce_violations(actions, payoffs, dist)) == repr(
                reference_ce_violations(actions, payoffs, dist))

    @staticmethod
    def patch_phase_2(monkeypatch, after):
        """Run phase 1 as is and pass phase 2's tableau, basis and status to
        after, whose return value becomes phase 2's status."""
        run_phase = linprog._run_phase

        def patched(tab, basis, obj_row, nrows, *args):
            status = run_phase(tab, basis, obj_row, nrows, *args)
            return after(tab, basis, status) if obj_row == nrows else status

        monkeypatch.setattr(linprog, "_run_phase", patched)

    def test_status_check(self, monkeypatch):
        self.patch_phase_2(monkeypatch, lambda tab, basis, status: "unbounded")
        with pytest.raises(NumericalError, match="CE LP ended with status unbounded"):
            solve_ce_distribution((2, 2), CHICKEN, UTILITARIAN)

    def test_feasibility_check(self, monkeypatch):
        def corrupt(tab, basis, status):
            basis[0] = 0
            tab[0, -1] = 5.0  # lambda[0] = 5 breaks the total-mass row
            return status

        self.patch_phase_2(monkeypatch, corrupt)
        with pytest.raises(NumericalError, match="simplex returned an infeasible point"):
            solve_ce_distribution((2, 2), CHICKEN, UTILITARIAN)

    @pytest.mark.parametrize("objective", CE_OBJECTIVES)
    def test_incentive_check(self, monkeypatch, objective):
        break_ce_incentives(monkeypatch)
        with pytest.raises(NumericalError, match=r"^stage CE violates incentives by 0\.5$"):
            solve_ce_distribution((2, 2), CHICKEN, objective)


CE_WARM_SHAPES = ((2,), (1, 1), (2, 2), (3, 2), (3, 3), (2, 2, 2))


@st.composite
def ce_update_sequences(draw):
    """A stage game of one of CE_WARM_SHAPES, an objective, and two to
    twelve successors, each moving one joint action's payoffs (every agent's
    entry, as a correlated-Q update moves one entry of every table) part of
    the way to a target. Payoffs are real or small integers (ties,
    degenerate vertices)."""
    actions = draw(st.sampled_from(CE_WARM_SHAPES))
    objective = draw(st.sampled_from(CE_OBJECTIVES))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def fresh(size):
        return rng.integers(-2, 3, size).astype(float) if integer else rng.uniform(-10, 10, size)

    u = fresh((len(actions), joint_count(actions)))
    games = [u]
    for _ in range(draw(st.integers(2, 12))):
        u = u.copy()
        j = rng.integers(u.shape[1])
        step = 1.0 if integer else rng.choice((0.5, 0.1, 1e-3))
        u[:, j] += step * (fresh(len(actions)) - u[:, j])
        games.append(u)
    return actions, objective, games


def ce_value(u, lam, objective):
    values = u @ lam
    return {UTILITARIAN: values.sum(), EGALITARIAN: values.min(),
            PLUTOCRATIC: values.max()}[objective]


def highs_ce_value(actions, u, objective):
    """The optimal CE welfare by scipy.optimize.linprog (HiGHS) over the
    reference incentive rows, with the egalitarian floor as a free column."""
    optimize = pytest.importorskip("scipy.optimize")
    inc, _ = reference_incentive_rows(actions, u)
    agents, count = u.shape
    if objective == EGALITARIAN:
        a_ub = np.block([[-inc, np.zeros((inc.shape[0], 1))], [-u, np.ones((agents, 1))]])
        ref = optimize.linprog(np.append(np.zeros(count), -1.0), A_ub=a_ub,
                               b_ub=np.zeros(a_ub.shape[0]), A_eq=[np.append(np.ones(count), 0.0)],
                               b_eq=[1.0], bounds=[(0, None)] * count + [(None, None)],
                               method="highs")
        assert ref.status == 0
        return -ref.fun
    best = -np.inf
    for c in ([u.sum(axis=0)] if objective == UTILITARIAN else u):
        ref = optimize.linprog(-c, A_ub=-inc if inc.size else None,
                               b_ub=np.zeros(inc.shape[0]) if inc.size else None,
                               A_eq=np.ones((1, count)), b_eq=[1.0], method="highs")
        assert ref.status == 0
        best = max(best, -ref.fun)
    return best


class TestCeWarmStart:
    """solve_ce_distribution with carried bases, as correlated-Q calls it:
    each answer is a CE of its game with the optimal welfare."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ce_update_sequences())
    def test_carried_bases_agree_with_cold_solves(self, sequence):
        actions, objective, games = sequence
        bases = []
        for u in games:
            warm = ce_outcome(lambda *args: solve_ce_distribution(*args, bases), actions, u,
                              objective)
            cold = ce_outcome(solve_ce_distribution, actions, u, objective)
            if cold[0] == "error":
                continue  # a feasible CE LP the cold simplex fails on (test_known_ce_lp_failures)
            assert warm[0] == "ok", warm
            lam = np.frombuffer(warm[1])
            assert ce_violations(actions, u, lam)[0] <= linprog.FEAS_TOL
            value = ce_value(u, lam, objective)
            assert abs(value - ce_value(u, np.frombuffer(cold[1]), objective)) <= 1e-9 * (
                1.0 + abs(value))
        if cold[0] == "ok":
            ref = highs_ce_value(actions, games[-1], objective)
            assert abs(value - ref) <= 1e-7 * (1.0 + abs(ref))

    @pytest.mark.parametrize("objective, count", [
        (PLUTOCRATIC, 1),  # one basis for two LPs
        (UTILITARIAN, 2),  # two bases for one LP
        (EGALITARIAN, 2),
    ])
    def test_bases_must_fit_the_lps(self, objective, count):
        lps = 2 if objective == PLUTOCRATIC else 1
        bases = [np.arange(5)] * count
        with pytest.raises(SpecError, match=rf"^{count} warm-start bases for {lps} LPs$"):
            solve_ce_distribution((2, 2), CHICKEN, objective, bases)

    def test_correlated_q_solves_few_ce_lps_cold(self, monkeypatch):
        """Carried bases leave the simplex to at most a third of the CE LPs
        of correlated-Q, and the run ends where a run without them does."""
        cold_runs = [0]
        simplex = linprog._simplex

        def counted(*args, **kwargs):
            cold_runs[0] += 1
            return simplex(*args, **kwargs)

        game = random_game(3, (2, 2), num_states=2, discount=0.9)
        schedule = LearningSchedule(max_steps=1500, seed=1)
        for objective in CE_OBJECTIVES:
            monkeypatch.setattr(linprog, "_simplex", counted)
            cold_runs[0] = 0
            res = correlated_q_train(game, objective, schedule)
            solves = schedule.max_steps + game.num_states
            lps = solves * (game.num_agents if objective == PLUTOCRATIC else 1)
            assert cold_runs[0] <= lps / 3
            monkeypatch.setattr(linprog, "_simplex", simplex)
            monkeypatch.setattr(learners, "solve_ce_distribution",
                                lambda *args: solve_ce_distribution(*args[:3]))
            ref = correlated_q_train(game, objective, schedule)
            monkeypatch.undo()
            for got, want in zip(res.q.tables, ref.q.tables):
                assert np.allclose(got, want, rtol=0.0, atol=1e-9)
            assert np.allclose(res.stage_policies, ref.stage_policies, rtol=0.0, atol=1e-9)


def test_first_solve_on_an_empty_list_tries_no_basis(monkeypatch):
    """A solve on an empty list goes straight to the simplex; the next
    tries the basis of each LP that the first left in the list."""
    tried = [0]
    basis_solution = linprog._basis_solution

    def counted(*args):
        tried[0] += 1
        return basis_solution(*args)

    monkeypatch.setattr(linprog, "_basis_solution", counted)
    bases = []
    stage_minimax([[3.0, 0.0], [1.0, 2.0]], bases)
    assert tried[0] == 0 and len(bases) == 1
    stage_minimax([[3.0, 0.5], [1.0, 2.0]], bases)
    assert tried[0] == 1 and len(bases) == 1
    for objective in CE_OBJECTIVES:
        lps = 2 if objective == PLUTOCRATIC else 1
        tried[0], bases = 0, []
        solve_ce_distribution((2, 2), CHICKEN, objective, bases)
        assert tried[0] == 0 and len(bases) == lps
        solve_ce_distribution((2, 2), np.array(CHICKEN) + 0.5, objective, bases)
        assert tried[0] == lps and len(bases) == lps


def test_stage_solvers_and_learners_bypass_the_general_solver(monkeypatch):
    """stage_minimax, every CE objective, minimax-Q and correlated-Q call the
    simplex core directly, never solve_lp or check_feasible; correlated-Q
    checks each stage CE once, inside the CE entry, never by ce_violations."""
    def forbidden(*args, **kwargs):
        raise AssertionError("general LP solver or second CE check called on a stage LP path")

    monkeypatch.setattr(linprog, "solve_lp", forbidden)
    monkeypatch.setattr(linprog, "check_feasible", forbidden)
    monkeypatch.setattr(equilibrium, "ce_violations", forbidden)
    # also the name a `from .equilibrium import ce_violations` in learners would bind
    monkeypatch.setattr(learners, "ce_violations", forbidden, raising=False)
    stage_minimax([[1.0, -1.0], [-1.0, 1.0]])
    for objective in (UTILITARIAN, EGALITARIAN, PLUTOCRATIC):
        solve_ce_distribution((2, 2), CHICKEN, objective)
    rng = np.random.default_rng(5)
    transition = rng.dirichlet(np.ones(2), size=(2, 4))
    rewards = rng.normal(size=(2, 4))
    schedule = LearningSchedule(max_steps=50, seed=1)
    minimax_q_train(make_stochastic_game((2, 2), transition, [rewards, -rewards], 0.9), schedule)
    general = make_stochastic_game((2, 2), transition, [rewards, rng.normal(size=(2, 4))], 0.9)
    correlated_q_train(general, schedule=schedule)
