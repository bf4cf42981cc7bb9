"""Tabular learners: Shapley value iteration against closed forms, minimax-Q
and correlated-Q on games with known solutions, regret matching with an
independent log-replay pass, and fictitious play."""

import itertools
import json

import numpy as np
import pytest

from gtmarl import learners
from gtmarl.equilibrium import CE_OBJECTIVES, ce_check, stage_minimax
from gtmarl.errors import NumericalError, SpecError
from gtmarl.games import build_matrix_game, classic_game, make_stochastic_game, random_game
from gtmarl.learners import (
    EXTERNAL,
    INTERNAL,
    LearningSchedule,
    OpponentModel,
    correlated_q_train,
    estimate_opponent_policy,
    fictitious_play,
    minimax_q_train,
    regret_matching_play,
    save_qtables,
    shapley_value_iteration,
    simulate_episode,
)


def constant_reward_game(c: float, gamma: float):
    """One state, 2x2, zero-sum, every joint action pays c to the row agent."""
    transition = np.ones((1, 4, 1))
    r1 = np.full((1, 4), c)
    return make_stochastic_game((2, 2), transition, [r1, -r1], gamma)


def alternating_reward_game(gamma: float):
    """Two states swapping deterministically; state 0 pays 1, state 1 pays 0."""
    transition = np.zeros((2, 4, 2))
    transition[0, :, 1] = 1.0
    transition[1, :, 0] = 1.0
    r1 = np.zeros((2, 4))
    r1[0] = 1.0
    return make_stochastic_game((2, 2), transition, [r1, -r1], gamma)


def single_agent_mdp(gamma: float):
    """Deterministic 2-state, 2-action MDP with optimum V = (18, 20) at 0.9."""
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0
    transition[0, 1, 1] = 1.0
    transition[1, 0, 0] = 1.0
    transition[1, 1, 1] = 1.0
    rewards = np.array([[1.0, 0.0], [0.0, 2.0]])
    return make_stochastic_game((2,), transition, [rewards], gamma)


def support_enumeration_value(m: np.ndarray) -> float | None:
    """Value of the zero-sum game m (row player maximizes) by equal-size
    support pairs, each an exact square solve; None if no pair certifies."""
    k1, k2 = m.shape
    scale = 1e-9 * max(1.0, float(np.abs(m).max()))
    for size in range(1, min(k1, k2) + 1):
        system = np.zeros((size + 1, size + 1))
        system[size, :size] = 1.0
        system[:size, size] = -1.0
        rhs = np.zeros(size + 1)
        rhs[size] = 1.0
        for rows in itertools.combinations(range(k1), size):
            for cols in itertools.combinations(range(k2), size):
                sub = m[np.ix_(rows, cols)]
                try:
                    system[:size, :size] = sub
                    y_part = np.linalg.solve(system, rhs)
                    system[:size, :size] = sub.T
                    x_part = np.linalg.solve(system, rhs)
                except np.linalg.LinAlgError:
                    continue
                if min(y_part[:size].min(), x_part[:size].min()) < -scale:
                    continue
                x = np.zeros(k1)
                y = np.zeros(k2)
                x[list(rows)] = x_part[:size]
                y[list(cols)] = y_part[:size]
                value = float(x @ m @ y)
                if np.max(m @ y) <= value + scale and np.min(x @ m) >= value - scale:
                    return value
    return None


def highs_value(m: np.ndarray) -> float:
    """Value of the zero-sum game m by scipy.optimize.linprog (HiGHS):
    max w over mixtures x with x @ m[:, j] >= w for every column j."""
    optimize = pytest.importorskip("scipy.optimize")
    k1, k2 = m.shape
    ref = optimize.linprog(np.append(np.zeros(k1), -1.0),
                           A_ub=np.hstack([-m.T, np.ones((k2, 1))]), b_ub=np.zeros(k2),
                           A_eq=[np.append(np.ones(k1), 0.0)], b_eq=[1.0],
                           bounds=[(0, None)] * k1 + [(None, None)], method="highs")
    assert ref.status == 0
    return -ref.fun


def assert_shapley_fixed_point(game, values, tol=1e-10):
    """Every stage value of r1 + gamma P v, by support enumeration and by
    HiGHS, is within tol * (1 + max|v|) of v."""
    bound = tol * (1.0 + np.abs(values).max())
    cont = game.rewards[0] + game.discount * game.transition @ values
    for s in range(game.num_states):
        stage = cont[s].reshape(game.actions)
        enumerated = support_enumeration_value(stage)
        assert enumerated is not None, f"state {s}: no support pair certifies"
        assert abs(enumerated - values[s]) <= bound, f"state {s}: support enumeration"
        assert abs(highs_value(stage) - values[s]) <= bound, f"state {s}: HiGHS"


def value_iteration_oracle(game, iterations: int = 400) -> np.ndarray:
    r = game.rewards[0]
    v = np.zeros(game.num_states)
    for _ in range(iterations):
        q = r + game.discount * game.transition @ v
        v = q.max(axis=1)
    return v


SEEDS = 15  # games per (shape, states, gamma) in the fixed-point grid: 720 in all


class TestShapleyValueIteration:
    def test_constant_reward_closed_form(self):
        res = shapley_value_iteration(constant_reward_game(1.0, 0.9))
        assert res.values[0] == pytest.approx(10.0, abs=1e-12)

    def test_alternating_reward_closed_form(self):
        res = shapley_value_iteration(alternating_reward_game(0.9))
        # V0 = 1 / (1 - g^2), V1 = g * V0
        assert res.values[0] == pytest.approx(1.0 / 0.19, abs=1e-12)
        assert res.values[1] == pytest.approx(0.9 / 0.19, abs=1e-12)

    def test_bellman_fixed_point_on_random_games(self):
        for seed in range(5):
            game = random_game(seed, (2, 2), zero_sum=True, num_states=3, discount=0.9)
            res = shapley_value_iteration(game)
            cont = game.rewards[0] + game.discount * game.transition @ res.values
            for s in range(game.num_states):
                stage_value, _, _ = stage_minimax(cont[s].reshape(game.actions))
                assert stage_value == pytest.approx(res.values[s], abs=1e-8)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 5), (5, 5)],
                             ids=["2x2", "3x2", "2x5", "5x5"])
    def test_fixed_point_by_independent_oracles(self, shape):
        """On a seeded grid of games the returned values are a fixed point of
        Shapley's operator by support enumeration and by HiGHS, in a handful
        of sweeps."""
        for states, gamma, seed in itertools.product((2, 3, 5, 8), (0.5, 0.9, 0.99), range(SEEDS)):
            game = random_game(seed, shape, zero_sum=True, num_states=states, discount=gamma)
            res = shapley_value_iteration(game)
            assert res.iterations <= 10, (states, gamma, seed)
            assert_shapley_fixed_point(game, res.values)

    def test_safeguard_drops_a_cycling_evaluation(self, monkeypatch):
        """Each sweep but the last makes one policy-evaluation solve unless
        its evaluation point is dropped; on this game one point is dropped,
        and the values still certify."""
        solves = [0]
        solve = np.linalg.solve

        def spy(*args):
            solves[0] += 1
            return solve(*args)

        game = random_game(42, (2, 2), zero_sum=True, num_states=3, discount=0.9)
        monkeypatch.setattr(learners.np.linalg, "solve", spy)
        res = shapley_value_iteration(game)
        monkeypatch.undo()
        assert res.iterations - 1 - solves[0] == 1
        assert_shapley_fixed_point(game, res.values)

    def test_policies_are_distributions(self):
        res = shapley_value_iteration(alternating_reward_game(0.9))
        assert res.row_policies.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)
        assert res.col_policies.min() >= -1e-12

    def test_requires_zero_sum_two_player(self):
        general = random_game(3, (2, 2), num_states=2, discount=0.9)
        with pytest.raises(SpecError):
            shapley_value_iteration(general)
        with pytest.raises(SpecError):
            shapley_value_iteration(classic_game("rps"))


class TestMinimaxQ:
    def test_constant_reward_converges_exactly(self):
        game = constant_reward_game(1.0, 0.9)
        schedule = LearningSchedule(
            alpha0=1.0, alpha_decay="constant", epsilon0=1.0,
            epsilon_decay="constant", max_steps=3000, seed=0,
        )
        res = minimax_q_train(game, schedule)
        assert res.values[0] == pytest.approx(10.0, abs=1e-7)
        assert res.q.tables[0][0] == pytest.approx(np.full(4, 10.0), abs=1e-7)

    def test_curve_and_policies_shape(self):
        game = random_game(10, (2, 2), zero_sum=True, num_states=3, discount=0.9)
        oracle = shapley_value_iteration(game).values
        schedule = LearningSchedule(max_steps=4000, seed=10)
        res = minimax_q_train(game, schedule, record_every=1000, oracle_values=oracle)
        assert len(res.curve) == 4
        steps, rewards, errs = zip(*res.curve)
        assert steps == (1000, 2000, 3000, 4000)
        assert errs[-1] == pytest.approx(np.max(np.abs(res.values - oracle)), abs=1e-12)
        assert res.policies.shape == (3, 2)
        assert res.policies.sum(axis=1) == pytest.approx([1.0] * 3, abs=1e-9)
        assert res.opponent_policies.sum(axis=1) == pytest.approx([1.0] * 3, abs=1e-9)

    def test_error_shrinks_with_training(self):
        game = random_game(10, (2, 2), zero_sum=True, num_states=3, discount=0.9)
        oracle = shapley_value_iteration(game).values
        short = minimax_q_train(
            game, LearningSchedule(max_steps=500, seed=10), oracle_values=oracle
        )
        long = minimax_q_train(
            game, LearningSchedule(max_steps=40000, seed=10), oracle_values=oracle
        )
        err_short = np.max(np.abs(short.values - oracle))
        err_long = np.max(np.abs(long.values - oracle))
        assert err_long < err_short
        assert err_long < 0.1

    def test_deterministic_per_seed(self):
        game = random_game(4, (2, 2), zero_sum=True, num_states=2, discount=0.9)
        schedule = LearningSchedule(max_steps=2000, seed=7)
        a = minimax_q_train(game, schedule)
        b = minimax_q_train(game, schedule)
        assert np.array_equal(a.q.tables[0], b.q.tables[0])

    def test_requires_zero_sum(self):
        general = random_game(3, (2, 2), num_states=2, discount=0.9)
        with pytest.raises(SpecError):
            minimax_q_train(general, LearningSchedule(max_steps=10))


class TestCorrelatedQ:
    def test_single_agent_matches_value_iteration(self):
        game = single_agent_mdp(0.9)
        schedule = LearningSchedule(
            alpha0=1.0, alpha_decay="constant", epsilon0=1.0,
            epsilon_decay="constant", max_steps=4000, seed=1,
        )
        res = correlated_q_train(game, schedule=schedule)
        learned = res.q.tables[0].max(axis=1)
        oracle = value_iteration_oracle(game)
        assert oracle == pytest.approx([18.0, 20.0], abs=1e-9)
        assert learned == pytest.approx(oracle, abs=1e-6)
        # greedy recommendations: head to the good state and stay there
        assert res.stage_policies[0] == pytest.approx([0.0, 1.0], abs=1e-9)
        assert res.stage_policies[1] == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_repeated_pd_defects(self):
        pd = classic_game("prisoners_dilemma")
        transition = np.ones((1, 4, 1))
        game = make_stochastic_game(
            (2, 2), transition, [pd.payoff_flat(0)[None, :], pd.payoff_flat(1)[None, :]], 0.9
        )
        schedule = LearningSchedule(
            alpha0=1.0, alpha_decay="constant", epsilon0=1.0,
            epsilon_decay="constant", max_steps=5000, seed=2,
        )
        res = correlated_q_train(game, schedule=schedule)
        assert res.stage_policies[0] == pytest.approx([0, 0, 0, 1], abs=1e-9)
        assert res.q.tables[0][0, 3] == pytest.approx(10.0, abs=1e-2)
        assert res.q.tables[1][0, 3] == pytest.approx(10.0, abs=1e-2)
        stage = build_matrix_game((2, 2), [res.q.tables[i][0] for i in range(2)])
        assert ce_check(stage, res.stage_policies[0], 1e-3).passed

    def test_curve_tracks_per_agent_rewards(self):
        game = random_game(8, (2, 2), num_states=2, discount=0.9)
        res = correlated_q_train(
            game, schedule=LearningSchedule(max_steps=1000, seed=3), record_every=500
        )
        assert len(res.curve) == 2
        assert len(res.curve[0]) == 3  # step plus one mean reward per agent


def test_one_stage_solve_per_state_and_per_step(monkeypatch):
    """Each state is solved once before step 1 and once after each update:
    max_steps + num_states stage solves, for minimax-Q and every CE objective."""
    calls = [0]

    def counting(real):
        def solver(*args):
            calls[0] += 1
            return real(*args)
        return solver

    monkeypatch.setattr(learners, "stage_minimax", counting(learners.stage_minimax))
    monkeypatch.setattr(learners, "solve_ce_distribution",
                        counting(learners.solve_ce_distribution))
    game = random_game(10, (2, 2), zero_sum=True, num_states=3, discount=0.9)
    minimax_q_train(game, LearningSchedule(max_steps=200, seed=10))
    assert calls[0] == 200 + 3
    game = random_game(8, (2, 2), num_states=2, discount=0.9)
    for objective in CE_OBJECTIVES:
        calls[0] = 0
        correlated_q_train(game, objective, LearningSchedule(max_steps=150, seed=3))
        assert calls[0] == 150 + 2


class TestRegretMatching:
    def test_external_regret_decays_and_replays(self):
        game = classic_game("rps")
        steps = 20000
        res = regret_matching_play(game, steps, mode=EXTERNAL, seed=0)
        final = res.curve[-1][1]
        assert final <= 0.05

        # independent replay of the action log
        u = [game.payoffs[0], game.payoffs[1]]
        acts = res.actions
        replayed = 0.0
        for i in range(2):
            other = acts[:, 1 - i]
            mine = acts[:, i]
            if i == 0:
                realized = u[0][mine, other]
                alt = np.stack([u[0][a, other] for a in range(3)])
            else:
                realized = u[1][other, mine]
                alt = np.stack([u[1][other, a] for a in range(3)])
            regret = (alt - realized).sum(axis=1) / steps
            replayed = max(replayed, float(regret.max()))
        assert max(replayed, 0.0) == pytest.approx(final, abs=1e-10)

    def test_internal_mode_reaches_approximate_ce(self):
        game = classic_game("rps")
        res = regret_matching_play(game, 5000, mode=INTERNAL, seed=1)
        assert ce_check(game, res.empirical, 0.05).passed

    def test_empirical_matches_action_log(self):
        game = classic_game("matching_pennies")
        res = regret_matching_play(game, 500, seed=3)
        counts = np.zeros(4)
        for a, b in res.actions:
            counts[2 * a + b] += 1.0
        assert res.empirical == pytest.approx(counts / 500, abs=1e-12)

    def test_seed_determinism(self):
        game = classic_game("rps")
        a = regret_matching_play(game, 300, seed=9)
        b = regret_matching_play(game, 300, seed=9)
        assert np.array_equal(a.actions, b.actions)

    def test_unknown_mode(self):
        with pytest.raises(SpecError):
            regret_matching_play(classic_game("rps"), 10, mode="swap")


class TestFictitiousPlay:
    def test_matching_pennies_converges_to_uniform(self):
        res = fictitious_play(classic_game("matching_pennies"), 2000)
        assert res.empirical[0] == pytest.approx([0.5, 0.5], abs=0.05)
        assert res.empirical[1] == pytest.approx([0.5, 0.5], abs=0.05)
        assert res.exploitability[-1] < 0.05

    def test_pd_defects_immediately(self):
        res = fictitious_play(classic_game("prisoners_dilemma"), 100)
        assert res.empirical[0] == pytest.approx([0.0, 1.0], abs=0)
        assert res.empirical[1] == pytest.approx([0.0, 1.0], abs=0)

    def test_first_round_tie_breaks_low(self):
        res = fictitious_play(classic_game("matching_pennies"), 1)
        assert res.actions.shape == (1, 2)
        assert tuple(res.actions[0]) == (0, 0)

    def test_requires_two_players(self):
        g = random_game(0, (2, 2, 2))
        with pytest.raises(SpecError):
            fictitious_play(g, 10)


class TestOpponentModel:
    def test_uniform_before_data(self):
        model = OpponentModel(num_states=2, num_actions=2)
        assert estimate_opponent_policy(model, 0) == pytest.approx([0.5, 0.5], abs=0)

    def test_laplace_smoothing(self):
        model = OpponentModel(num_states=1, num_actions=2)
        for _ in range(3):
            model.observe(0, 1)
        assert estimate_opponent_policy(model, 0) == pytest.approx([0.2, 0.8], abs=1e-12)

    def test_zero_prior_needs_data(self):
        model = OpponentModel(num_states=1, num_actions=2, prior=0.0)
        with pytest.raises(SpecError):
            estimate_opponent_policy(model, 0)
        model.observe(0, 0)
        assert estimate_opponent_policy(model, 0) == pytest.approx([1.0, 0.0], abs=0)

    def test_observe_validation(self):
        model = OpponentModel(num_states=1, num_actions=2)
        with pytest.raises(SpecError):
            model.observe(1, 0)
        with pytest.raises(SpecError):
            model.observe(0, 5)


class TestSimulateEpisode:
    def test_zero_sum_returns_cancel(self):
        game = random_game(6, (2, 2), zero_sum=True, num_states=3, discount=0.9)
        uniform = [np.full((3, 2), 0.5), np.full((3, 2), 0.5)]
        res = simulate_episode(game, uniform, horizon=50, seed=11)
        assert len(res.steps) == 50
        assert res.returns[1] == pytest.approx(-res.returns[0], abs=1e-12)

    def test_correlated_device_accepted(self):
        game = random_game(6, (2, 2), num_states=2, discount=0.9)
        device = np.full((2, 4), 0.25)
        res = simulate_episode(game, device, horizon=20, seed=2, start_state=1)
        assert res.steps[0][0] == 1

    def test_seed_determinism(self):
        game = random_game(6, (2, 2), num_states=2, discount=0.9)
        uniform = [np.full((2, 2), 0.5)] * 2
        a = simulate_episode(game, uniform, horizon=30, seed=5)
        b = simulate_episode(game, uniform, horizon=30, seed=5)
        assert a.steps == b.steps

    def test_validation(self):
        game = random_game(6, (2, 2), num_states=2, discount=0.9)
        with pytest.raises(SpecError):
            simulate_episode(game, [np.full((2, 2), 0.5)] * 2, horizon=0)
        with pytest.raises(SpecError):
            simulate_episode(classic_game("rps"), [np.full((1, 3), 1 / 3)] * 2, 5)


class TestSchedulesAndQTables:
    def test_schedule_validation(self):
        with pytest.raises(SpecError):
            LearningSchedule(alpha0=0.0)
        with pytest.raises(SpecError):
            LearningSchedule(alpha0=1.5)
        with pytest.raises(SpecError):
            LearningSchedule(alpha_decay="linear")
        with pytest.raises(SpecError):
            LearningSchedule(epsilon0=1.5)
        with pytest.raises(SpecError):
            LearningSchedule(max_steps=0)
        with pytest.raises(SpecError):
            LearningSchedule(episode_length=0)

    def test_save_qtables_round_trip(self, tmp_path):
        game = constant_reward_game(1.0, 0.9)
        res = minimax_q_train(game, LearningSchedule(max_steps=100, seed=0))
        path = tmp_path / "q.json"
        save_qtables(path, res.q)
        doc = json.loads(path.read_text())
        assert doc["agents"] == 1
        assert doc["states"] == 1
        assert doc["joint_actions"] == 4
        assert np.asarray(doc["tables"][0]) == pytest.approx(res.q.tables[0], abs=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_save_qtables_refuses_a_non_finite_table(self, tmp_path, bad):
        # a bare NaN or Infinity token is not JSON
        path = tmp_path / "q.json"
        with pytest.raises(NumericalError, match="q.json"):
            save_qtables(path, learners.QTables((np.array([[0.0, bad]]),)))
        assert not path.exists()
