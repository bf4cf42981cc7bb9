"""Hybrid evolutionary / policy-gradient training: environment mechanics,
the batched rollout against a one-episode-at-a-time reference, the replay
ring, finite-difference checks of both gradient updates, target-network
tracking, the team learner against one learner per agent, and determinism
of the full loop."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtmarl import merl
from gtmarl.errors import MAX_RECORDED_ENTRIES, SpecError
from gtmarl.merl import (
    CRITIC_DIM,
    FEATURE_DIM,
    LinearActor,
    MerlConfig,
    QuadraticCritic,
    RendezvousEnv,
    ReplayBuffer,
    TeamPopulation,
    agent_features,
    critic_td_update,
    dpg_actor_update,
    ea_generation,
    merl_train,
    rollout_team,
    soft_update,
)

SEEK = np.tile([-1.0, 1.0, 0.0], 3)   # each agent chases the others' centroid
DRIFT = np.tile([0.0, 0.0, 1.0], 3)   # constant +1 velocity, never meets


def random_batch(rng, size=64):
    phi = rng.normal(size=(size, FEATURE_DIM))
    phi[:, 2] = 1.0
    action = rng.uniform(-1, 1, size)
    reward = rng.normal(size=size)
    phi_next = rng.normal(size=(size, FEATURE_DIM))
    phi_next[:, 2] = 1.0
    return phi, action, reward, phi_next


class TestEnvironment:
    def test_reset_is_seeded_and_bounded(self):
        env = RendezvousEnv(init_range=3.0)
        a = env.reset(4)
        b = env.reset(4)
        assert np.array_equal(a, b)
        assert np.max(np.abs(a)) <= 3.0
        assert a.shape == (3,)

    def test_step_moves_and_scores(self):
        env = RendezvousEnv(num_agents=3, init_range=0.0)
        env.reset(0)  # everyone starts at zero
        positions, local, team, done = env.step([1.0, 1.0, -1.0])
        assert np.array_equal(positions, [1.0, 1.0, -1.0])
        # agent 0 sits 1 away from the centroid of (1, -1)
        assert local == pytest.approx([-1.0, -1.0, -2.0], abs=1e-12)
        assert team == 0.0
        assert not done

    def test_actions_are_clipped(self):
        env = RendezvousEnv(init_range=0.0)
        env.reset(0)
        positions, _, _, _ = env.step([5.0, -7.0, 0.25])
        assert np.array_equal(positions, [1.0, -1.0, 0.25])

    def test_meeting_pays_one_and_ends(self):
        env = RendezvousEnv(init_range=0.01)
        env.reset(2)
        _, _, team, done = env.step([0.0, 0.0, 0.0])
        assert team == 1.0
        assert done
        with pytest.raises(SpecError):
            env.step([0.0, 0.0, 0.0])

    def test_horizon_ends_episode(self):
        env = RendezvousEnv(horizon=2, init_range=0.0)
        env.reset(0)
        env.step([1.0, 0.0, -1.0])
        _, _, _, done = env.step([0.0, 0.0, 0.0])
        assert done

    def test_wrong_action_shape(self):
        env = RendezvousEnv()
        env.reset(0)
        with pytest.raises(SpecError):
            env.step([0.0, 0.0])

    def test_validation(self):
        with pytest.raises(SpecError):
            RendezvousEnv(num_agents=1)
        with pytest.raises(SpecError):
            RendezvousEnv(epsilon_meet=0.0)

    def test_agent_features(self):
        phi = agent_features(np.array([2.0, -1.0, 5.0]), 0)
        assert phi == pytest.approx([2.0, 2.0, 1.0], abs=1e-12)


class TestGradientUpdates:
    def test_critic_update_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        batch = random_batch(rng)
        critic = QuadraticCritic(rng.normal(size=CRITIC_DIM))
        target_actor = LinearActor(rng.normal(size=FEATURE_DIM) * 0.3)
        target_critic = QuadraticCritic(rng.normal(size=CRITIC_DIM))
        alpha, gamma = 0.01, 0.95
        updated = critic_td_update(critic, target_actor, target_critic, batch, alpha, gamma)
        analytic = (critic.weights - updated.weights) / alpha

        phi, action, reward, phi_next = batch
        targets = reward + gamma * target_critic.value(phi_next, target_actor.act(phi_next))

        def loss(w):
            pred = QuadraticCritic(w).value(phi, action)
            return float(np.mean((pred - targets) ** 2))

        h = 1e-6
        for idx in range(CRITIC_DIM):
            bump = np.zeros(CRITIC_DIM)
            bump[idx] = h
            fd = (loss(critic.weights + bump) - loss(critic.weights - bump)) / (2 * h)
            assert abs(analytic[idx] - fd) / max(1.0, abs(fd)) <= 1e-5

    def test_actor_update_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        batch = random_batch(rng)
        critic = QuadraticCritic(rng.normal(size=CRITIC_DIM))
        actor = LinearActor(rng.normal(size=FEATURE_DIM) * 0.05)  # stays unsaturated
        alpha = 0.01
        phi = batch[0]
        assert np.max(np.abs(phi @ actor.weights)) < 1.0
        updated = dpg_actor_update(actor, critic, batch, alpha)
        analytic = (updated.weights - actor.weights) / alpha

        def objective(w):
            return float(np.mean(critic.value(phi, np.clip(phi @ w, -1.0, 1.0))))

        h = 1e-7
        for idx in range(FEATURE_DIM):
            bump = np.zeros(FEATURE_DIM)
            bump[idx] = h
            fd = (objective(actor.weights + bump) - objective(actor.weights - bump)) / (2 * h)
            assert abs(analytic[idx] - fd) / max(1.0, abs(fd)) <= 1e-5

    def test_saturated_actor_gets_zero_gradient(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng)
        critic = QuadraticCritic(rng.normal(size=CRITIC_DIM))
        actor = LinearActor(np.array([0.0, 0.0, 10.0]))  # preactivation 10 everywhere
        updated = dpg_actor_update(actor, critic, batch, 0.5)
        assert np.array_equal(updated.weights, actor.weights)

    def test_critic_value_and_grad_shapes(self):
        critic = QuadraticCritic(np.arange(CRITIC_DIM, dtype=float))
        phi = np.array([[1.0, 2.0, 1.0]])
        action = np.array([0.5])
        # w0 a^2 + (phi . w[1:4]) a + phi . w[4:]
        expected = 0.0 + (1 * 1 + 2 * 2 + 1 * 3) * 0.5 + (1 * 4 + 2 * 5 + 1 * 6)
        assert critic.value(phi, action)[0] == pytest.approx(expected, abs=1e-12)
        assert critic.grad_action(phi, action)[0] == pytest.approx(8.0, abs=1e-12)


class TestSoftUpdate:
    def test_full_copy_at_tau_one(self):
        target = np.array([1.0, 2.0, 3.0])
        online = np.array([-4.0, 0.5, 7.0])
        assert np.array_equal(soft_update(target, online, 1.0), online)

    def test_frozen_at_tau_zero(self):
        target = np.array([1.0, 2.0])
        assert np.array_equal(soft_update(target, np.array([9.0, 9.0]), 0.0), target)

    def test_geometric_convergence(self):
        online = np.array([1.0, -2.0, 0.5])
        target = np.zeros(3)
        tau = 0.3
        err0 = np.max(np.abs(target - online))
        for k in range(1, 30):
            target = soft_update(target, online, tau)
            err = np.max(np.abs(target - online))
            assert err == pytest.approx(err0 * (1 - tau) ** k, rel=1e-12)

    def test_validation(self):
        with pytest.raises(SpecError):
            soft_update(np.zeros(2), np.ones(2), -0.1)
        with pytest.raises(SpecError):
            soft_update(np.zeros(2), np.ones(2), 1.1)


class TestReplayBuffer:
    def test_fifo_overwrite(self):
        buf = ReplayBuffer(3)
        for k in range(5):
            buf.push(np.full(FEATURE_DIM, k), float(k), float(k), np.zeros(FEATURE_DIM))
        assert len(buf) == 3
        assert buf.insertions == 5
        rng = np.random.default_rng(0)
        _, _, rewards, _ = buf.sample(rng, 200)
        assert set(np.unique(rewards)) == {2.0, 3.0, 4.0}

    def test_sample_deterministic_and_copied(self):
        buf = ReplayBuffer(10)
        for k in range(10):
            buf.push(np.full(FEATURE_DIM, k), float(k), float(k), np.zeros(FEATURE_DIM))
        a = buf.sample(np.random.default_rng(5), 8)
        b = buf.sample(np.random.default_rng(5), 8)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        a[0][:] = 99.0
        c = buf.sample(np.random.default_rng(5), 8)
        assert np.array_equal(b[0], c[0])

    @pytest.mark.parametrize(
        "capacity, before, count",
        [(10, 0, 4), (10, 3, 0), (10, 7, 6), (10, 3, 25), (1, 2, 3)],
        ids=["fits", "empty", "wraps", "exceeds", "one-slot"],
    )
    def test_extend_matches_push_loop(self, capacity, before, count):
        rng = np.random.default_rng(capacity + before + count)
        rows = random_batch(rng, before + count)
        pushed, extended = ReplayBuffer(capacity), ReplayBuffer(capacity)
        for k in range(before):
            extended.push(*(part[k] for part in rows))
        for k in range(before + count):
            pushed.push(*(part[k] for part in rows))
        extended.extend(*(part[before:] for part in rows))
        assert extended.insertions == pushed.insertions == before + count
        assert len(extended) == len(pushed)
        if len(pushed):
            a = pushed.sample(np.random.default_rng(9), 50)
            b = extended.sample(np.random.default_rng(9), 50)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_empty_sample_rejected(self):
        with pytest.raises(SpecError):
            ReplayBuffer(4).sample(np.random.default_rng(0), 1)
        with pytest.raises(SpecError):
            ReplayBuffer(0)


def team_batch(batches, axis=0):
    """Per-agent (phi, action, reward, phi') batches stacked on one agent axis."""
    return tuple(np.stack(parts, axis=axis) for parts in zip(*batches))


class TestTeamLearner:
    """One learner with a leading agent axis against one learner per agent:
    every result must be the per-agent results stacked, bit for bit."""

    @pytest.mark.parametrize("agents", [1, 2, 5])
    def test_team_calls_match_per_agent_calls(self, agents):
        rng = np.random.default_rng(agents)
        batches = [random_batch(rng, 64) for _ in range(agents)]
        phi, action, _, _ = batch = team_batch(batches)
        # actor weights that saturate some actions and not others
        actor, target_actor = rng.normal(size=(2, agents, FEATURE_DIM)) * 0.6
        critic, target_critic = rng.normal(size=(2, agents, CRITIC_DIM))

        def per_agent(call):
            return np.stack([call(i, b) for i, b in enumerate(batches)])

        assert np.array_equal(LinearActor(actor).act(phi),
                              per_agent(lambda i, b: LinearActor(actor[i]).act(b[0])))
        assert np.array_equal(QuadraticCritic(critic).value(phi, action),
                              per_agent(lambda i, b: QuadraticCritic(critic[i]).value(b[0], b[1])))
        assert np.array_equal(
            QuadraticCritic(critic).grad_action(phi, action),
            per_agent(lambda i, b: QuadraticCritic(critic[i]).grad_action(b[0], b[1])))
        team = critic_td_update(QuadraticCritic(critic), LinearActor(target_actor),
                                QuadraticCritic(target_critic), batch, 0.05, 0.95)
        assert np.array_equal(team.weights, per_agent(lambda i, b: critic_td_update(
            QuadraticCritic(critic[i]), LinearActor(target_actor[i]),
            QuadraticCritic(target_critic[i]), b, 0.05, 0.95).weights))
        team = dpg_actor_update(LinearActor(actor), QuadraticCritic(critic), batch, 0.05)
        assert np.array_equal(team.weights, per_agent(lambda i, b: dpg_actor_update(
            LinearActor(actor[i]), QuadraticCritic(critic[i]), b, 0.05).weights))

    @pytest.mark.parametrize("agents", [1, 2, 5])
    @pytest.mark.parametrize("capacity, count", [(300, 120), (50, 130)], ids=["fits", "wraps"])
    def test_team_rows_sample_as_per_agent_buffers(self, agents, capacity, count):
        rng = np.random.default_rng(10 * agents + capacity)
        rows = [random_batch(rng, count) for _ in range(agents)]
        team = team_batch(rows, axis=1)  # (count, agents, ...) rows
        team_buffer, buffers = ReplayBuffer(capacity), [ReplayBuffer(capacity) for _ in rows]
        for k in range(3):  # pushed rows, then two ring writes
            team_buffer.push(*(part[k] for part in team))
        team_buffer.extend(*(part[3:70] for part in team))
        team_buffer.extend(*(part[70:] for part in team))
        for buffer, agent_rows in zip(buffers, rows):
            buffer.extend(*agent_rows)
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        for batch_size in (1, 16, 40):
            got = team_buffer.sample(a, batch_size)
            want = team_batch([buffer.sample(b, batch_size) for buffer in buffers])
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    # the one-draw identities the team's sampling and initial actors rest on;
    # 2**31 - 1 rejects often, 2**32 + 5 needs 64-bit draws
    @pytest.mark.parametrize("size", [3, 150, 2**31 - 1, 2**32 + 5])
    @pytest.mark.parametrize("agents", [2, 3, 5])
    def test_one_team_draw_is_one_draw_per_agent(self, size, agents):
        for seed in range(30):
            one, each = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                assert np.array_equal(one.integers(0, size, size=(agents, 16)),
                                      [each.integers(0, size, size=16) for _ in range(agents)])
            assert np.array_equal(one.standard_normal((agents, FEATURE_DIM)),
                                  [each.standard_normal(FEATURE_DIM) for _ in range(agents)])


def reference_rollout(env, genomes, seeds):
    """One episode at a time, one agent at a time, through RendezvousEnv.step,
    agent_features and LinearActor.act: the loop that rollout_team batches.
    Returns what rollout_team returns."""
    n = env.num_agents
    fitness = np.zeros((len(genomes), len(seeds)))
    rows = []
    for g, genome in enumerate(genomes):
        actors = [LinearActor(w.copy()) for w in np.reshape(genome, (n, FEATURE_DIM))]
        for k, seed in enumerate(seeds):
            positions = env.reset(seed)
            done = False
            while not done:
                phis = [agent_features(positions, i) for i in range(n)]
                actions = np.array([float(actors[i].act(phis[i])) for i in range(n)])
                positions, local, team, done = env.step(actions)
                fitness[g, k] += team
                next_phis = [agent_features(positions, i) for i in range(n)]
                rows.append((phis, actions, local, next_phis))
    return fitness, tuple(np.array(part) for part in zip(*rows))


@st.composite
def rollout_cases(draw):
    """Environments with 2..5 agents and horizons 1..25, and genome lists
    that mix random teams (which often run to the horizon) with noisy
    seeking teams (which meet after a few steps)."""
    n = draw(st.integers(2, 5))
    env = RendezvousEnv(
        num_agents=n,
        horizon=draw(st.integers(1, 25)),
        epsilon_meet=draw(st.sampled_from([0.05, 0.5, 1.5, 3.0, 9.0])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    genomes = []
    for _ in range(draw(st.integers(1, 4))):
        scale = draw(st.sampled_from([0.1, 1.0, 3.0]))
        seeking = draw(st.booleans())
        genomes.append(np.tile([-1.0, 1.0, 0.0], n) * seeking + scale * rng.normal(size=3 * n))
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
    return env, genomes, seeds


class TestRollout:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rollout_cases())
    # every episode meets at step 1: nine exceeds any spread after one move
    @example((RendezvousEnv(num_agents=4, epsilon_meet=9.0), [np.tile([0.0, 0.0, 1.0], 4)], [1, 2]))
    def test_matches_one_episode_at_a_time(self, case):
        env, genomes, seeds = case
        fitness, transitions = rollout_team(env, genomes, seeds)
        ref_fitness, ref_transitions = reference_rollout(env, genomes, seeds)
        assert fitness.tobytes() == ref_fitness.tobytes()
        for got, ref in zip(transitions, ref_transitions):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_seeking_team_meets(self):
        env = RendezvousEnv()
        for seed in range(5):
            fitness, (phi, action, reward, phi_next) = rollout_team(env, [SEEK], [seed])
            assert fitness[0, 0] == 1.0
            assert action.shape[1] == 3
            assert len(action) <= 25

    def test_drifting_team_never_meets(self):
        env = RendezvousEnv()
        fitness, (phi, action, reward, phi_next) = rollout_team(env, [DRIFT], [0])
        assert fitness[0, 0] == 0.0
        assert len(action) == 25

    def test_rollout_deterministic(self):
        env = RendezvousEnv()
        f1, t1 = rollout_team(env, [SEEK, DRIFT], [7, 8])
        f2, t2 = rollout_team(env, [SEEK, DRIFT], [7, 8])
        assert np.array_equal(f1, f2)
        for a, b in zip(t1, t2):
            assert np.array_equal(a, b)


class TestEvolution:
    def test_elites_survive_bitwise(self):
        rng = np.random.default_rng(3)
        genomes = [rng.normal(size=9) for _ in range(4)]
        pop = TeamPopulation(genomes=[g.copy() for g in genomes], elite_count=2)
        fitnesses = [5.0, 1.0, 9.0, 3.0]
        child = ea_generation(pop, fitnesses, 0.1, rng)
        assert np.array_equal(child.genomes[0], genomes[2])
        assert np.array_equal(child.genomes[1], genomes[0])
        assert child.generation == 1

    def test_zero_sigma_no_crossover_copies_parents(self):
        rng = np.random.default_rng(4)
        genomes = [rng.normal(size=9) for _ in range(5)]
        pop = TeamPopulation(genomes=[g.copy() for g in genomes], elite_count=1)
        child = ea_generation(pop, [1.0, 2.0, 3.0, 4.0, 5.0], 0.0, rng, crossover=False)
        for g in child.genomes:
            assert any(np.array_equal(g, parent) for parent in genomes)

    def test_crossover_mixes_agent_blocks(self):
        rng = np.random.default_rng(11)
        a = np.zeros(9)
        b = np.ones(9)
        pop = TeamPopulation(genomes=[a, b], elite_count=1)
        child = ea_generation(pop, [1.0, 1.0], 0.0, rng)
        offspring = child.genomes[1].reshape(3, FEATURE_DIM)
        for block in offspring:
            assert np.array_equal(block, np.zeros(3)) or np.array_equal(block, np.ones(3))

    def test_tied_fitness_uses_uniform_selection(self):
        rng = np.random.default_rng(6)
        pop = TeamPopulation(genomes=[np.zeros(9), np.ones(9), np.full(9, 2.0)], elite_count=1)
        child = ea_generation(pop, [0.0, 0.0, 0.0], 0.0, rng, crossover=False)
        assert len(child.genomes) == 3

    def test_validation(self):
        with pytest.raises(SpecError):
            TeamPopulation(genomes=[], elite_count=1)
        with pytest.raises(SpecError):
            TeamPopulation(genomes=[np.zeros(9)], elite_count=1)
        pop = TeamPopulation(genomes=[np.zeros(9), np.ones(9)], elite_count=1)
        with pytest.raises(SpecError):
            ea_generation(pop, [1.0], 0.1, 0)
        with pytest.raises(SpecError):
            ea_generation(pop, [1.0, 2.0], -0.1, 0)

    def test_integer_seed_accepted(self):
        pop = TeamPopulation(genomes=[np.zeros(9), np.ones(9), np.full(9, 2.0)], elite_count=1)
        a = ea_generation(pop, [1.0, 2.0, 3.0], 0.5, 42)
        b = ea_generation(pop, [1.0, 2.0, 3.0], 0.5, 42)
        for x, y in zip(a.genomes, b.genomes):
            assert np.array_equal(x, y)


class TestTrainingLoop:
    CFG = dict(
        population=4, elite_count=1, generations=6, horizon=10,
        eval_episodes=2, batch_size=16, buffer_capacity=2000, seed=3,
    )

    def test_deterministic_per_seed(self):
        a = merl_train(MerlConfig(**self.CFG))
        b = merl_train(MerlConfig(**self.CFG))
        assert np.array_equal(a.best_genome, b.best_genome)
        assert np.array_equal(a.pg_genome, b.pg_genome)
        assert [h.mean_fitness for h in a.history] == [h.mean_fitness for h in b.history]

    def test_best_ever_is_running_maximum(self):
        res = merl_train(MerlConfig(**self.CFG))
        best = [h.best_fitness for h in res.history]
        ever = [h.best_ever for h in res.history]
        assert ever == list(np.maximum.accumulate(best))
        assert res.best_fitness == ever[-1]
        assert len(res.best_genomes) == 6

    def test_gradient_stream_does_not_disturb_evolution(self):
        base = dict(self.CFG)
        base["migration_period"] = None
        with_pg = merl_train(MerlConfig(**base, pg_updates=10))
        without = merl_train(MerlConfig(**base, pg_updates=0))
        assert [h.best_fitness for h in with_pg.history] == [
            h.best_fitness for h in without.history
        ]
        assert np.array_equal(with_pg.best_genome, without.best_genome)

    def test_one_rollout_per_generation(self, monkeypatch):
        # looked up through the module, where the benchmark's tracer wraps it
        calls = []

        def spy(env, genomes, seeds):
            calls.append(len(genomes))
            return rollout_team(env, genomes, seeds)

        monkeypatch.setattr(merl, "rollout_team", spy)
        merl_train(MerlConfig(**self.CFG))
        assert calls == [self.CFG["population"] + 1] * self.CFG["generations"]

    @pytest.mark.parametrize("agents", [2, 5])
    def test_one_team_update_per_gradient_step(self, monkeypatch, agents):
        # looked up through the module, where the benchmark's tracer wraps them;
        # per generation: [replay rows written, critic calls, actor calls]
        counts = []
        config = MerlConfig(**dict(self.CFG, num_agents=agents, batch_size=150, pg_updates=3))

        def rollout_spy(env, genomes, seeds):
            fitness, transitions = rollout_team(env, genomes, seeds)
            counts.append([len(transitions[1]), 0, 0])
            return fitness, transitions

        def critic_spy(critic, target_actor, target_critic, batch, alpha_q, gamma):
            assert batch[0].shape == (agents, config.batch_size, FEATURE_DIM)
            counts[-1][1] += 1
            return critic_td_update(critic, target_actor, target_critic, batch, alpha_q, gamma)

        def actor_spy(actor, critic, batch, alpha_pi):
            assert actor.weights.shape == (agents, FEATURE_DIM)
            counts[-1][2] += 1
            return dpg_actor_update(actor, critic, batch, alpha_pi)

        monkeypatch.setattr(merl, "rollout_team", rollout_spy)
        monkeypatch.setattr(merl, "critic_td_update", critic_spy)
        monkeypatch.setattr(merl, "dpg_actor_update", actor_spy)
        merl_train(config)
        held = np.minimum(np.cumsum([c[0] for c in counts]), config.buffer_capacity)
        expected = [config.pg_updates if h >= config.batch_size else 0 for h in held]
        assert [c[1] for c in counts] == [c[2] for c in counts] == expected
        assert expected[0] == 0 and expected[-1] == config.pg_updates

    def test_config_validation(self):
        with pytest.raises(SpecError):
            MerlConfig(population=2, elite_count=2)
        with pytest.raises(SpecError):
            MerlConfig(gamma=1.0)
        with pytest.raises(SpecError):
            MerlConfig(tau=1.5)
        with pytest.raises(SpecError):
            MerlConfig(migration_period=0)
        with pytest.raises(SpecError):
            MerlConfig(generations=0)

    @pytest.mark.parametrize("field, named", [
        ("num_agents", "population 10, eval_episodes 5, horizon 25, num_agents {v}"),
        ("horizon", "population 10, eval_episodes 5, horizon {v}, num_agents 3"),
        ("population", "population {v}, eval_episodes 5, horizon 25, num_agents 3"),
        ("eval_episodes", "population 10, eval_episodes {v}, horizon 25, num_agents 3"),
        ("buffer_capacity", "num_agents 3, buffer_capacity {v}"),
    ])
    def test_sizes_over_the_recording_cap(self, field, named):
        # the config allocates nothing, so these sizes are safe to construct
        value = 10**14
        with pytest.raises(SpecError) as err:
            MerlConfig(**{field: value})
        message = str(err.value)
        assert message.startswith(named.format(v=value) + ": ")
        assert message.endswith(f"entries to record exceed the cap {MAX_RECORDED_ENTRIES}")

    def test_sizes_at_the_recording_cap(self):
        # 11 genomes x 5 episodes x 26 rows x 3 agents x 3 features per row
        # of rollout features; 3 agents x capacity x 8 entries per replay row
        MerlConfig(buffer_capacity=MAX_RECORDED_ENTRIES // 24)
        with pytest.raises(SpecError):
            MerlConfig(buffer_capacity=MAX_RECORDED_ENTRIES // 24 + 1)
