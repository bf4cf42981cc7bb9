"""Opponent shaping on iterated 2x2 games: exact values against closed forms
and Monte-Carlo rollouts, analytic gradients against finite differences and
the per-logit loop, the analytic LOLA step against finite differences, and
the shaped-vs-naive update pair."""

import numpy as np
import pytest

import gtmarl.shaping as shaping
from gtmarl.errors import DivergenceError, SpecError
from gtmarl.games import classic_game, random_game
from gtmarl.shaping import (
    LOLA,
    NAIVE,
    LolaConfig,
    Memory1Policy,
    exact_values,
    iterated_game,
    lola_step,
    mean_cooperation,
    memory1_policy,
    naive_step,
    train_shapers,
    value_gradients,
    write_shaping_csv,
)

PD = classic_game("prisoners_dilemma")
# role swap permutes the conditioning outcomes: CD and DC trade places
SWAP = np.array([0, 1, 3, 2, 4])
STAGES = [classic_game(name) for name in ("prisoners_dilemma", "chicken", "matching_pennies")]
STAGES += [random_game(seed, (2, 2)) for seed in (1, 2, 3)]


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def mc_values(game, theta1, theta2, rollouts, horizon, seed):
    """Plain simulation of the memory-1 outcome chain; returns per-rollout
    discounted return arrays for both players."""
    r1 = game.stage.payoff_flat(0)
    r2 = game.stage.payoff_flat(1)
    s1 = sigmoid(np.asarray(theta1, dtype=float))
    s2 = sigmoid(np.asarray(theta2, dtype=float))
    rng = np.random.default_rng(seed)
    ret1 = np.zeros(rollouts)
    ret2 = np.zeros(rollouts)
    coop1 = rng.random(rollouts) < s1[0]
    coop2 = rng.random(rollouts) < s2[0]
    outcome = 2 * (1 - coop1.astype(int)) + (1 - coop2.astype(int))
    disc = 1.0
    for t in range(horizon):
        ret1 += disc * r1[outcome]
        ret2 += disc * r2[outcome]
        disc *= game.gamma
        if t + 1 == horizon:
            break
        coop1 = rng.random(rollouts) < s1[outcome + 1]
        coop2 = rng.random(rollouts) < s2[outcome + 1]
        outcome = 2 * (1 - coop1.astype(int)) + (1 - coop2.astype(int))
    return ret1, ret2


class TestExactValues:
    def test_always_cooperate_closed_form(self):
        g = iterated_game(PD, 0.8)
        allc = memory1_policy(np.full(5, 20.0))
        v1, v2 = exact_values(g, allc, allc)
        assert v1 == pytest.approx(15.0, abs=1e-6)
        assert v2 == pytest.approx(15.0, abs=1e-6)

    def test_always_defect_closed_form(self):
        g = iterated_game(PD, 0.8)
        alld = memory1_policy(np.full(5, -20.0))
        v1, v2 = exact_values(g, alld, alld)
        assert v1 == pytest.approx(5.0, abs=1e-6)
        assert v2 == pytest.approx(5.0, abs=1e-6)

    def test_memoryless_uniform_closed_form(self):
        # logit 0 everywhere makes rounds i.i.d. uniform: V = (9/4) / (1 - g)
        g = iterated_game(PD, 0.8)
        zeros = memory1_policy(np.zeros(5))
        v1, v2 = exact_values(g, zeros, zeros)
        assert v1 == pytest.approx(11.25, abs=1e-12)
        assert v2 == pytest.approx(11.25, abs=1e-12)

    def test_role_swap_identity(self):
        g = iterated_game(PD, 0.96)
        rng = np.random.default_rng(5)
        a = memory1_policy(rng.standard_normal(5))
        b = memory1_policy(rng.standard_normal(5))
        v = exact_values(g, a, b)
        w = exact_values(
            g, memory1_policy(b.theta[SWAP]), memory1_policy(a.theta[SWAP])
        )
        assert v[0] == pytest.approx(w[1], abs=1e-12)
        assert v[1] == pytest.approx(w[0], abs=1e-12)

    def test_matches_monte_carlo_on_seeded_pairs(self):
        g = iterated_game(PD, 0.96)
        for seed in range(10):
            prng = np.random.default_rng(100 + seed)
            th1 = prng.standard_normal(5)
            th2 = prng.standard_normal(5)
            v1, v2 = exact_values(g, memory1_policy(th1), memory1_policy(th2))
            m1, m2 = mc_values(g, th1, th2, rollouts=2000, horizon=500, seed=7000 + seed)
            for exact, sample in ((v1, m1), (v2, m2)):
                se = sample.std(ddof=1) / np.sqrt(sample.size)
                assert abs(sample.mean() - exact) <= 3.0 * se


class TestValueGradients:
    def test_matches_central_differences(self):
        g = iterated_game(PD, 0.96)
        h = 1e-6
        for seed in range(10):
            prng = np.random.default_rng(200 + seed)
            th1 = prng.standard_normal(5)
            th2 = prng.standard_normal(5)
            grads = value_gradients(g, memory1_policy(th1), memory1_policy(th2))
            for block, (value_of, wrt) in enumerate(
                ((0, 0), (0, 1), (1, 0), (1, 1))
            ):
                for idx in range(5):
                    bump = np.zeros(5)
                    bump[idx] = h
                    args_hi = [th1.copy(), th2.copy()]
                    args_lo = [th1.copy(), th2.copy()]
                    args_hi[wrt] = args_hi[wrt] + bump
                    args_lo[wrt] = args_lo[wrt] - bump
                    hi = exact_values(
                        g, memory1_policy(args_hi[0]), memory1_policy(args_hi[1])
                    )[value_of]
                    lo = exact_values(
                        g, memory1_policy(args_lo[0]), memory1_policy(args_lo[1])
                    )[value_of]
                    fd = (hi - lo) / (2.0 * h)
                    scale = max(1.0, abs(fd))
                    assert abs(grads[block][idx] - fd) / scale <= 1e-5

    def test_role_swap_identity(self):
        g = iterated_game(PD, 0.96)
        rng = np.random.default_rng(5)
        a = memory1_policy(rng.standard_normal(5))
        b = memory1_policy(rng.standard_normal(5))
        g11, _, _, g22 = value_gradients(g, a, b)
        h11, _, _, h22 = value_gradients(
            g, memory1_policy(b.theta[SWAP]), memory1_policy(a.theta[SWAP])
        )
        assert g22 == pytest.approx(h11[SWAP], abs=1e-12)
        assert g11 == pytest.approx(h22[SWAP], abs=1e-12)

    def test_saturated_policy_has_flat_gradient(self):
        g = iterated_game(PD, 0.96)
        allc = memory1_policy(np.full(5, 30.0))
        g11, _, _, g22 = value_gradients(g, allc, allc)
        assert np.max(np.abs(g11)) < 1e-10
        assert np.max(np.abs(g22)) < 1e-10


def reference_value_gradients(game, p1, p2):
    """value_gradients as a loop over the logits: for each one, its own
    direction row (the slots of player 2's move swapped), one dot product
    against z_i = K^{-1} r_i, and for a row logit the weight gamma w[s] from
    a second solve w = K^{-T} p0."""
    p0, m, prob1, prob2 = shaping._outcome_chain(p1.theta, p2.theta)
    r1, r2 = game.stage.payoff_flat(0), game.stage.payoff_flat(1)
    k = np.eye(4) - game.gamma * m
    z = np.linalg.solve(k, np.stack([r1, r2], axis=1))
    w = np.linalg.solve(k.T, p0)

    def own_direction(other_coop):
        # d(outcome row)/d(own cooperation prob), own move listed first
        return np.array([other_coop, 1.0 - other_coop, -other_coop, -(1.0 - other_coop)])

    grads = np.zeros((2, 2, 5))  # [value of agent, theta of agent, coord]
    for agent, (probs, probs_other) in enumerate(((prob1, prob2), (prob2, prob1))):
        sig_grad = probs * (1.0 - probs)
        for idx in range(5):
            direction = own_direction(probs_other[idx])
            if agent == 1:
                # player 2's move is the second letter: swap the CD/DC slots
                direction = direction[[0, 2, 1, 3]]
            scale = sig_grad[0] if idx == 0 else game.gamma * sig_grad[idx] * w[idx - 1]
            for value_of in range(2):
                grads[value_of, agent, idx] = scale * (direction @ z[:, value_of])
    return grads[0, 0], grads[0, 1], grads[1, 0], grads[1, 1]


def reference_lola_step(game, p1, p2, config, h=1e-6):
    """lola_step with the cross-term gradient taken by central differences
    (step h) of the product of the exact first-order gradients."""
    g11, _, _, g22 = value_gradients(game, p1, p2)

    def cross(theta1, theta2):
        a, _, _, b = value_gradients(game, Memory1Policy(theta1), Memory1Policy(theta2))
        return float(a @ b)

    shape1 = np.empty(5)
    shape2 = np.empty(5)
    for idx in range(5):
        bump = np.zeros(5)
        bump[idx] = h
        shape1[idx] = (cross(p1.theta + bump, p2.theta) - cross(p1.theta - bump, p2.theta)) / (2 * h)
        shape2[idx] = (cross(p1.theta, p2.theta + bump) - cross(p1.theta, p2.theta - bump)) / (2 * h)
    new1 = p1.theta + config.alpha * g11 + config.beta * shape1
    new2 = p2.theta + config.alpha * g22 + config.beta * shape2
    return memory1_policy(new1), memory1_policy(new2)


def seeded_logit_pairs(count, seed, gammas=(0.96,)):
    """(game, policy, policy) over STAGES and every discount in gammas: logits
    uniform on [-5, 5], and in every fourth pair about a third of them
    saturated at +-20."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        thetas = rng.uniform(-5.0, 5.0, size=(2, 5))
        if k % 4 == 0:
            mask = rng.random((2, 5)) < 0.35
            thetas[mask] = 20.0 * rng.choice([-1.0, 1.0], size=mask.sum())
        gamma = gammas[(k // len(STAGES)) % len(gammas)]
        game = iterated_game(STAGES[k % len(STAGES)], gamma)
        yield game, memory1_policy(thetas[0]), memory1_policy(thetas[1])


class TestGradientOracle:
    def test_matches_the_per_logit_loop(self):
        pairs = seeded_logit_pairs(200, 33, gammas=(0.5, 0.9, 0.96, 0.99))
        for game, a, b in pairs:
            got = np.concatenate(value_gradients(game, a, b))
            want = np.concatenate(reference_value_gradients(game, a, b))
            assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


class TestLolaCrossTerm:
    def test_matches_finite_difference_step(self):
        cfg = LolaConfig(alpha=1.0, beta=1.0, gamma=0.96)
        for game, a, b in seeded_logit_pairs(200, 31):
            start = np.concatenate([a.theta, b.theta])
            got = np.concatenate([p.theta for p in lola_step(game, a, b, cfg)]) - start
            want = np.concatenate([p.theta for p in reference_lola_step(game, a, b, cfg)]) - start
            assert np.max(np.abs(got - want)) <= 1e-6 * (1.0 + np.max(np.abs(want)))

    def test_hessians_are_symmetric_and_match_the_gradients(self):
        h = 1e-6
        for k, (game, a, b) in enumerate(seeded_logit_pairs(40, 32)):
            hess = shaping._value_hessians(game, a.theta, b.theta)
            assert hess.shape == (2, 10, 10)
            scale = 1.0 + np.max(np.abs(hess))
            assert np.max(np.abs(hess - hess.transpose(0, 2, 1))) <= 1e-12 * scale
            if k % 4:
                continue  # differentiate the gradients on a quarter of the pairs

            def grads(theta):
                g = value_gradients(game, Memory1Policy(theta[:5]), Memory1Policy(theta[5:]))
                return np.array([np.concatenate(g[:2]), np.concatenate(g[2:])])

            theta = np.concatenate([a.theta, b.theta])
            for idx in range(10):
                bump = np.zeros(10)
                bump[idx] = h
                fd = (grads(theta + bump) - grads(theta - bump)) / (2 * h)
                assert np.max(np.abs(hess[:, idx] - fd)) <= 1e-6 * scale

    def test_one_value_gradients_call_per_step(self, monkeypatch):
        calls = []
        original = shaping.value_gradients

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(shaping, "value_gradients", counted)
        g = iterated_game(PD, 0.96)
        cfg = LolaConfig(alpha=1.0, beta=0.2, gamma=0.96, steps=12, seed=3)
        train_shapers(g, cfg, learner=LOLA)
        assert len(calls) == cfg.steps


class TestUpdates:
    def test_beta_zero_is_naive_bitwise(self):
        g = iterated_game(PD, 0.96)
        rng = np.random.default_rng(3)
        a = memory1_policy(rng.standard_normal(5))
        b = memory1_policy(rng.standard_normal(5))
        cfg = LolaConfig(alpha=0.7, beta=0.0, gamma=0.96, steps=0)
        l1, l2 = lola_step(g, a, b, cfg)
        n1, n2 = naive_step(g, a, b, 0.7)
        assert np.array_equal(l1.theta, n1.theta)
        assert np.array_equal(l2.theta, n2.theta)

    def test_trainer_beta_zero_matches_naive_trajectory(self):
        g = iterated_game(PD, 0.96)
        cfg = LolaConfig(alpha=1.0, beta=0.0, gamma=0.96, steps=50, seed=4)
        lola_traj = train_shapers(g, cfg, learner=LOLA)
        naive_traj = train_shapers(g, cfg, learner=NAIVE)
        assert np.array_equal(lola_traj.thetas1, naive_traj.thetas1)
        assert np.array_equal(lola_traj.values, naive_traj.values)

    def test_shaping_term_changes_update(self):
        g = iterated_game(PD, 0.96)
        rng = np.random.default_rng(8)
        a = memory1_policy(rng.standard_normal(5))
        b = memory1_policy(rng.standard_normal(5))
        with_beta = lola_step(g, a, b, LolaConfig(alpha=1.0, beta=1.0, gamma=0.96))
        without = lola_step(g, a, b, LolaConfig(alpha=1.0, beta=0.0, gamma=0.96))
        assert not np.allclose(with_beta[0].theta, without[0].theta)

    def test_naive_pd_learns_to_defect(self):
        g = iterated_game(PD, 0.96)
        defecting = 0
        for seed in range(10):
            cfg = LolaConfig(alpha=1.0, beta=0.0, gamma=0.96, steps=500, seed=seed)
            traj = train_shapers(g, cfg, learner=NAIVE)
            c1, c2 = mean_cooperation(
                g,
                memory1_policy(traj.thetas1[-1]),
                memory1_policy(traj.thetas2[-1]),
            )
            if c1 < 0.05 and c2 < 0.05:
                defecting += 1
        assert defecting >= 8

    def test_divergence_aborts_with_step(self):
        g = iterated_game(PD, 0.96)
        cfg = LolaConfig(alpha=1e4, beta=0.0, gamma=0.96, steps=100, seed=0)
        with pytest.raises(DivergenceError):
            train_shapers(g, cfg, learner=NAIVE)

    def test_gamma_mismatch_rejected(self):
        g = iterated_game(PD, 0.8)
        with pytest.raises(SpecError):
            train_shapers(g, LolaConfig(gamma=0.96, steps=1))

    def test_unknown_learner(self):
        g = iterated_game(PD, 0.96)
        with pytest.raises(SpecError):
            train_shapers(g, LolaConfig(steps=1), learner="sga")


class TestInterfaces:
    def test_policy_validation(self):
        with pytest.raises(SpecError):
            memory1_policy([0.0, 1.0])
        with pytest.raises(SpecError):
            memory1_policy([np.nan] * 5)
        pol = memory1_policy(np.zeros(5))
        assert not pol.theta.flags.writeable

    def test_game_validation(self):
        with pytest.raises(SpecError):
            iterated_game(classic_game("rps"), 0.9)
        with pytest.raises(SpecError):
            iterated_game(PD, 1.0)

    def test_config_validation(self):
        # each rejected field is named in the message, with its value
        for field, value, message in [
            ("alpha", 0.0, "alpha 0.0 must be finite and positive"),
            ("alpha", np.inf, "alpha inf must be finite and positive"),
            ("alpha", np.nan, "alpha nan must be finite and positive"),
            ("beta", -0.5, "beta -0.5 must be finite and nonnegative"),
            ("beta", np.inf, "beta inf must be finite and nonnegative"),
            ("gamma", 1.0, "gamma 1.0 outside (0, 1)"),
            ("gamma", np.nan, "gamma nan outside (0, 1)"),
            ("steps", -1, "steps -1 must be an integer >= 0"),
            ("steps", 2.5, "steps 2.5 must be an integer >= 0"),
            ("steps", True, "steps True must be an integer >= 0"),
            ("seed", -1, "seed -1 must be an integer >= 0"),
            ("seed", 1.0, "seed 1.0 must be an integer >= 0"),
        ]:
            with pytest.raises(SpecError) as err:
                LolaConfig(**{field: value})
            assert str(err.value) == message

    def test_config_accepts_zero_steps_and_numpy_integers(self):
        assert LolaConfig(steps=0).steps == 0
        assert LolaConfig(steps=np.int64(3), seed=np.int64(2)).seed == 2

    def test_mean_cooperation_extremes(self):
        g = iterated_game(PD, 0.96)
        allc = memory1_policy(np.full(5, 30.0))
        alld = memory1_policy(np.full(5, -30.0))
        c1, c2 = mean_cooperation(g, allc, alld)
        assert c1 == pytest.approx(1.0, abs=1e-9)
        assert c2 == pytest.approx(0.0, abs=1e-9)

    def test_shaping_csv_format(self, tmp_path):
        g = iterated_game(PD, 0.96)
        traj = train_shapers(g, LolaConfig(steps=3, seed=1), learner=NAIVE)
        path = tmp_path / "shaping.csv"
        write_shaping_csv(path, traj)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("step,value_1,value_2,p1_coop_init")
        assert len(lines) == 5
        row = lines[1].split(",")
        assert row[0] == "0"
        assert len(row) == 13
        assert all(0.0 <= float(v) <= 1.0 for v in row[3:])
