"""Replicator and selection-mutation dynamics: invariants, convergence,
and the softmax policy map."""

import numpy as np
import pytest

from gtmarl.dynamics import (
    DynamicsParams,
    boltzmann_policy,
    discrete_replicator_step,
    fixed_point_check,
    integrate_replicator,
    population_state,
    replicator_derivative,
    selection_mutation_derivative,
    write_trajectory_csv,
)
from gtmarl.errors import IntegrationError, SpecError
from gtmarl.games import classic_game

RPS = classic_game("rps").payoffs[0]
PD = classic_game("prisoners_dilemma").payoffs[0]


class TestReplicatorDerivative:
    def test_uniform_rps_is_fixed(self):
        x = np.full(3, 1 / 3)
        assert np.max(np.abs(replicator_derivative(RPS, x))) < 1e-12
        assert fixed_point_check(RPS, x, 1e-12)

    def test_vertices_are_fixed(self):
        for i in range(3):
            assert fixed_point_check(RPS, np.eye(3)[i], 0.0)

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n))
            x = rng.dirichlet(np.ones(n))
            assert abs(replicator_derivative(a, x).sum()) < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(SpecError):
            replicator_derivative(np.zeros((2, 3)), np.array([0.5, 0.5]))


class TestIntegration:
    def test_simplex_invariant(self):
        params = DynamicsParams(dt=0.01, steps=2000)
        traj = integrate_replicator(RPS, [0.5, 0.3, 0.2], params)
        assert traj.shape == (2001, 3)
        assert np.max(np.abs(traj.sum(axis=1) - 1.0)) < 1e-9
        assert traj.min() >= 0.0

    def test_pd_converges_to_defection(self):
        params = DynamicsParams(dt=0.05, steps=4000)  # t = 200
        traj = integrate_replicator(PD, [0.5, 0.5], params)
        assert traj[-1, 1] > 0.999

    def test_rps_cycles_without_converging(self):
        params = DynamicsParams(dt=0.01, steps=5000)
        traj = integrate_replicator(RPS, [0.5, 0.3, 0.2], params)
        assert traj.min() > 1e-3
        # the orbit leaves the start and comes back near it
        dist = np.linalg.norm(traj - traj[0], axis=1)
        assert dist.max() > 0.05
        assert dist[2500:].min() < 0.02

    def test_rps_conserves_product_of_shares(self):
        params = DynamicsParams(dt=0.01, steps=5000)
        traj = integrate_replicator(RPS, [0.5, 0.3, 0.2], params)
        products = traj.prod(axis=1)
        assert np.max(np.abs(products - products[0])) < 1e-6

    def test_dominated_strategy_dies_out(self):
        # rock-paper-scissors plus a rock clone handicapped by 0.5
        a = np.array(
            [
                [0.0, -1.0, 1.0, 0.0],
                [1.0, 0.0, -1.0, 1.0],
                [-1.0, 1.0, 0.0, -1.0],
                [-0.5, -1.5, 0.5, -0.5],
            ]
        )
        params = DynamicsParams(dt=0.05, steps=10000)  # t = 500
        traj = integrate_replicator(a, np.full(4, 0.25), params)
        assert traj[-1, 3] < 1e-3

    def test_symmetric_game_mean_fitness_monotone(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        params = DynamicsParams(dt=0.01, steps=3000)
        traj = integrate_replicator(a, rng.dirichlet(np.ones(4)), params)
        fitness = np.einsum("ti,ij,tj->t", traj, a, traj)
        assert np.min(np.diff(fitness)) > -1e-8

    def test_euler_also_stays_on_simplex(self):
        params = DynamicsParams(dt=0.01, steps=500)
        traj = integrate_replicator(RPS, [0.4, 0.3, 0.3], params, method="euler")
        assert np.max(np.abs(traj.sum(axis=1) - 1.0)) < 1e-9

    def test_unknown_method(self):
        with pytest.raises(SpecError):
            integrate_replicator(RPS, [0.4, 0.3, 0.3], DynamicsParams(), method="heun")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_aborts_with_step_index(self):
        a = np.array([[1e300, 0.0], [0.0, -1e300]])
        with pytest.raises(IntegrationError, match="^non-finite state at integration step 1$"):
            integrate_replicator(a, [0.5, 0.5], DynamicsParams(dt=0.01, steps=10))

    def test_overshooting_step_aborts_with_step_and_mass(self):
        """A step that leaves the simplex by more than drift is refused, not
        clipped onto a vertex (where the flow would rest)."""
        with pytest.raises(IntegrationError,
                           match="^negative mass -0.37989 at integration step 2$") as err:
            integrate_replicator(RPS, [0.5, 0.3, 0.2], DynamicsParams(dt=5.0, steps=100))
        assert err.value.step == 2
        traj = integrate_replicator(RPS, [0.5, 0.3, 0.2], DynamicsParams(dt=2.0, steps=100))
        assert traj.min() > 0.0

    def test_start_state_validated(self):
        with pytest.raises(SpecError):
            integrate_replicator(RPS, [0.5, 0.3, 0.3], DynamicsParams())


class TestDiscreteStep:
    def test_pd_step_value(self):
        state = discrete_replicator_step(PD, [0.5, 0.5])
        # fitnesses (1.5, 3.0), average 2.25
        assert state.x == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    def test_nonpositive_fitness_needs_shift(self):
        with pytest.raises(SpecError):
            discrete_replicator_step(RPS, [0.0, 1.0, 0.0])
        state = discrete_replicator_step(RPS, [0.0, 1.0, 0.0], shift=2.0)
        assert state.x == pytest.approx([0.0, 1.0, 0.0], abs=0)

    def test_shift_fixed_points_match_flow(self):
        x = np.full(3, 1 / 3)
        state = discrete_replicator_step(RPS, x, shift=5.0)
        assert state.x == pytest.approx(x, abs=1e-12)


class TestBoltzmannPolicy:
    def test_tau_zero_is_uniform(self):
        assert boltzmann_policy([3.0, -1.0, 7.0], 0.0) == pytest.approx([1 / 3] * 3, abs=0)

    def test_large_tau_concentrates(self):
        p = boltzmann_policy([1.0, 2.0, 0.5], 200.0)
        assert p[1] > 1.0 - 1e-12

    def test_shift_invariance(self):
        q = np.array([0.3, -0.7, 1.1])
        assert boltzmann_policy(q + 42.0, 2.5) == pytest.approx(
            boltzmann_policy(q, 2.5), abs=1e-15
        )

    def test_monotone_in_value(self):
        p = boltzmann_policy([1.0, 2.0], 1.0)
        assert p[1] > p[0]
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(SpecError):
            boltzmann_policy([np.inf, 0.0], 1.0)


class TestSelectionMutation:
    def test_mutation_vanishes_at_uniform(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            a = rng.normal(size=(n, m))
            w = rng.dirichlet(np.ones(m))
            # tau = 0 leaves only the mutation term
            params = DynamicsParams(alpha=1.0, tau=0.0)
            d = selection_mutation_derivative(a, np.full(n, 1 / n), w, params)
            assert np.max(np.abs(d)) < 1e-12

    def test_components_sum_to_zero_on_random_points(self):
        rng = np.random.default_rng(123)
        params = DynamicsParams(alpha=0.7, tau=1.3)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            a = rng.normal(size=(n, m))
            x = rng.dirichlet(np.ones(n))
            w = rng.dirichlet(np.ones(m))
            assert abs(selection_mutation_derivative(a, x, w, params).sum()) < 1e-10

    def test_alpha_scales_linearly(self):
        a = np.array([[1.0, -1.0], [0.0, 2.0]])
        x = np.array([0.3, 0.7])
        w = np.array([0.6, 0.4])
        d1 = selection_mutation_derivative(a, x, w, DynamicsParams(alpha=1.0, tau=0.8))
        d3 = selection_mutation_derivative(a, x, w, DynamicsParams(alpha=3.0, tau=0.8))
        assert d3 == pytest.approx(3.0 * d1, abs=1e-14)

    def test_handles_zero_mass_coordinates(self):
        a = np.eye(3)
        d = selection_mutation_derivative(
            a, np.array([0.0, 0.5, 0.5]), np.full(3, 1 / 3), DynamicsParams()
        )
        assert np.all(np.isfinite(d))

    def test_shape_mismatch(self):
        with pytest.raises(SpecError):
            selection_mutation_derivative(
                np.zeros((2, 2)), [0.5, 0.5], [1 / 3, 1 / 3, 1 / 3], DynamicsParams()
            )


class TestParamsAndState:
    def test_params_validation(self):
        with pytest.raises(SpecError):
            DynamicsParams(dt=0.0)
        with pytest.raises(SpecError):
            DynamicsParams(steps=0)
        with pytest.raises(SpecError):
            DynamicsParams(alpha=np.nan)

    def test_population_state_normalizes_and_freezes(self):
        state = population_state([0.25, 0.75])
        assert not state.x.flags.writeable
        with pytest.raises(SpecError):
            population_state([0.3, 0.3])
        with pytest.raises(SpecError):
            population_state([1.5, -0.5])


class TestTrajectoryCsv:
    def test_format(self, tmp_path):
        traj = integrate_replicator(RPS, [0.5, 0.3, 0.2], DynamicsParams(dt=0.5, steps=3))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, 0.5)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,x_3"
        assert len(lines) == 5
        first = [float(v) for v in lines[1].split(",")]
        assert first == pytest.approx([0.0, 0.5, 0.3, 0.2], abs=0)
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(1.5, abs=0)
        assert sum(last[1:]) == pytest.approx(1.0, abs=1e-9)
