"""Hybrid evolutionary / policy-gradient training on a 1-D rendezvous task.

A population of team genomes (concatenated per-agent linear actor weights)
evolves against episode fitness (total team reward), while a separate
policy-gradient team, one learner whose weights carry a leading agent axis,
steps every agent's deterministic actor and quadratic critic at once off one
replay ring of team rows. Every migration period the gradient team's weights
are copied over the worst non-elite genome.

Fitness is always measured on the same fixed evaluation episodes, so with
elitism the best-ever fitness is literally nondecreasing; one batched
rollout steps a generation's episodes together. All randomness is
split over three generator streams (population init + evolution, gradient
updates, evaluation seeds are plain integers), which keeps the evolutionary
trajectory bit-identical whether or not gradient updates run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, SpecError, check_recorded
from .output import write_csv

FEATURE_DIM = 3  # own position, centroid of the others, bias
CRITIC_DIM = 1 + 2 * FEATURE_DIM  # a^2, a * phi, phi


@dataclass
class RendezvousEnv:
    """N agents on the line; actions are velocities clipped to [-1, 1].
    The team earns 1 once every pairwise distance is below epsilon_meet
    (which ends the episode); each agent's local reward is the negated
    distance to the centroid of the other agents, after moving."""

    num_agents: int = 3
    horizon: int = 25
    epsilon_meet: float = 0.5
    init_range: float = 3.0
    seed: int = 0
    positions: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.num_agents < 2:
            raise SpecError("rendezvous needs at least two agents")
        if self.horizon < 1:
            raise SpecError("horizon must be positive")
        if self.epsilon_meet <= 0:
            raise SpecError("epsilon_meet must be positive")
        self._t = 0
        self._done = True
        if self.positions is None:
            self.positions = np.zeros(self.num_agents)

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.positions = rng.uniform(-self.init_range, self.init_range, self.num_agents)
        self._t = 0
        self._done = False
        return self.positions.copy()

    def step(self, joint_action):
        """Returns (positions, local rewards, team reward, done)."""
        if self._done:
            raise SpecError("episode already finished; call reset()")
        act = np.asarray(joint_action, dtype=float)
        if act.shape != (self.num_agents,):
            raise SpecError("one action per agent is required")
        self.positions, _, local, met = _rendezvous_rules(self.positions, act, self.epsilon_meet)
        met = bool(met)
        team = 1.0 if met else 0.0
        self._t += 1
        self._done = met or self._t >= self.horizon
        return self.positions.copy(), local, team, self._done


def _features(positions: np.ndarray) -> np.ndarray:
    """(own position, centroid of the other agents, 1) for every agent, the
    agents on the last axis of positions."""
    total = positions.sum(axis=-1, keepdims=True)
    centroid = (total - positions) / (positions.shape[-1] - 1)
    return np.stack([positions, centroid, np.ones_like(positions)], axis=-1)


def _rendezvous_rules(positions: np.ndarray, action: np.ndarray, epsilon_meet: float):
    """The rendezvous rules on arrays with the agents on the last axis: move
    by the clipped action; return (positions, features, local rewards,
    whether every pairwise distance is below epsilon_meet) after the move."""
    positions = positions + np.clip(action, -1.0, 1.0)
    phi = _features(positions)
    local = -np.abs(positions - phi[..., 1])
    # rounding is monotone, so max - min is the largest rounded |p_i - p_j|
    met = positions.max(axis=-1) - positions.min(axis=-1) < epsilon_meet
    return positions, phi, local, met


def agent_features(positions: np.ndarray, agent: int) -> np.ndarray:
    """(own position, centroid of the other agents, 1)."""
    return _features(positions)[agent]


def _dot(phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """phi @ w, agent by agent when w has a leading agent axis."""
    return np.matmul(phi, w[..., None])[..., 0]


@dataclass(frozen=True)
class LinearActor:
    weights: np.ndarray  # (FEATURE_DIM,), or (agents, FEATURE_DIM) for a team

    def act(self, phi: np.ndarray) -> np.ndarray:
        """Deterministic clipped-linear action; phi may be (3,), (T, 3) or,
        for a team, (agents, T, 3)."""
        return np.clip(_dot(phi, self.weights), -1.0, 1.0)


@dataclass(frozen=True)
class QuadraticCritic:
    """Q(s, a) = w_aa a^2 + (w_af . phi) a + w_s . phi, linear in weights;
    a team's (agents, CRITIC_DIM) weights take (agents, T) actions."""

    weights: np.ndarray  # (CRITIC_DIM,), or (agents, CRITIC_DIM) for a team

    def value(self, phi: np.ndarray, action: np.ndarray) -> np.ndarray:
        w = self.weights
        return (w[..., :1] * action**2 + _dot(phi, w[..., 1 : 1 + FEATURE_DIM]) * action
                + _dot(phi, w[..., 1 + FEATURE_DIM :]))

    def grad_action(self, phi: np.ndarray, action: np.ndarray) -> np.ndarray:
        w = self.weights
        return 2.0 * w[..., :1] * action + _dot(phi, w[..., 1 : 1 + FEATURE_DIM])


def _critic_features(phi: np.ndarray, action: np.ndarray) -> np.ndarray:
    return np.concatenate([action[..., None] ** 2, action[..., None] * phi, phi], axis=-1)


class ReplayBuffer:
    """Fixed-capacity FIFO ring over (phi, action, reward, next phi) rows,
    shaped by the first write. A row may hold a team's transition, agents
    first; sample then draws each agent's rows as one buffer per agent would."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise SpecError("capacity must be positive")
        self.capacity = capacity
        self.insertions = 0
        self._fields = ()

    def __len__(self) -> int:
        return min(self.insertions, self.capacity)

    def _allocate(self, *shapes) -> None:
        if not self._fields:
            self._fields = tuple(np.zeros((self.capacity,) + shape) for shape in shapes)

    def push(self, phi, action: float, reward: float, phi_next) -> None:
        self._allocate(*(np.shape(part) for part in (phi, action, reward, phi_next)))
        slot = self.insertions % self.capacity
        for store, value in zip(self._fields, (phi, action, reward, phi_next)):
            store[slot] = value
        self.insertions += 1

    def extend(self, phi, action, reward, phi_next) -> None:
        """push() every row of the arrays in order, as one ring write: only
        the last `capacity` rows survive, so only they are written."""
        self._allocate(*(np.shape(part)[1:] for part in (phi, action, reward, phi_next)))
        count = len(action)
        keep = min(count, self.capacity)
        slots = (self.insertions + count - keep + np.arange(keep)) % self.capacity
        for store, rows in zip(self._fields, (phi, action, reward, phi_next)):
            store[slots] = rows[count - keep :]
        self.insertions += count

    def sample(self, rng: np.random.Generator, batch_size: int):
        size = len(self)
        if size == 0:
            raise SpecError("cannot sample from an empty buffer")
        agents = self._fields[1].shape[1:]  # () for one agent's rows
        # one draw for the team is one draw per agent in turn; agent i reads
        # column i, row draw * agents + i of the ring with its agent axis flattened
        rows = rng.integers(0, size, size=agents + (batch_size,))
        if agents:
            rows = rows * agents[0] + np.arange(agents[0])[:, None]
        return tuple(store.reshape((-1,) + store.shape[1 + len(agents):]).take(rows, axis=0)
                     for store in self._fields)


def soft_update(target_params: np.ndarray, online_params: np.ndarray, tau: float) -> np.ndarray:
    if not 0.0 <= tau <= 1.0:
        raise SpecError(f"tau {tau} outside [0, 1]")
    return tau * online_params + (1.0 - tau) * target_params


def critic_td_update(critic: QuadraticCritic, target_actor: LinearActor,
                     target_critic: QuadraticCritic, batch, alpha_q: float,
                     gamma: float) -> QuadraticCritic:
    """One exact gradient-descent step on the mean squared TD error with
    bootstrapped targets y = r + gamma Q'(s', pi'(s')); a team steps every
    agent on its own rows of an (agents, T, ...) batch."""
    phi, action, reward, phi_next = batch
    next_action = target_actor.act(phi_next)
    targets = reward + gamma * target_critic.value(phi_next, next_action)
    features = _critic_features(phi, action)
    residual = _dot(features, critic.weights) - targets
    grad = 2.0 * _dot(features.swapaxes(-1, -2), residual) / phi.shape[-2]
    return QuadraticCritic(critic.weights - alpha_q * grad)


def dpg_actor_update(actor: LinearActor, critic: QuadraticCritic, batch, alpha_pi: float) -> LinearActor:
    """Deterministic policy-gradient ascent; the clip contributes zero
    gradient wherever the preactivation saturates; a team steps every agent
    on its own rows of an (agents, T, ...) batch."""
    phi = batch[0]
    pre = _dot(phi, actor.weights)
    action = np.clip(pre, -1.0, 1.0)
    dq_da = critic.grad_action(phi, action)
    mask = (np.abs(pre) < 1.0).astype(float)
    grad = (phi * (dq_da * mask)[..., None]).mean(axis=-2)
    return LinearActor(actor.weights + alpha_pi * grad)


# --- evolutionary layer -----------------------------------------------------

@dataclass
class TeamPopulation:
    genomes: list          # list of (num_agents * FEATURE_DIM,) arrays
    elite_count: int
    generation: int = 0

    def __post_init__(self):
        if not self.genomes:
            raise SpecError("population cannot be empty")
        if not 1 <= self.elite_count < len(self.genomes):
            raise SpecError(
                f"elite count {self.elite_count} invalid for population "
                f"{len(self.genomes)}"
            )


def rollout_team(env: RendezvousEnv, genomes, seeds):
    """One episode of every genome on every seed, stepped together; an
    episode leaves the live set once its agents meet or the horizon ends.
    Returns (fitness[g, s] = total team reward, transitions), transitions
    being (phi (K, n, 3), action (K, n), local reward (K, n), next phi
    (K, n, 3)) with rows in genome, then seed, then step order."""
    g, s, n, horizon = len(genomes), len(seeds), env.num_agents, env.horizon
    pos = np.tile([env.reset(seed) for seed in seeds], (g, 1))
    weights = np.repeat(np.asarray(genomes, dtype=float).reshape(g, n, FEATURE_DIM, 1), s, 0)
    # phi[e, t] holds episode e's features before step t, phi[e, t + 1] after it
    phi = np.empty((g * s, horizon + 1, n, FEATURE_DIM))
    phi[:, 0] = _features(pos)
    action, reward = np.empty((2, g * s, horizon, n))
    fitness = np.zeros(g * s)
    steps = np.zeros((g * s, horizon), dtype=bool)
    live = np.arange(g * s)
    for t in range(horizon):
        if not live.size:
            break
        # a (1, 3) @ (3, 1) product per agent: the same dot as LinearActor.act
        act = np.clip(np.matmul(phi[live, t, :, None], weights[live])[..., 0, 0], -1.0, 1.0)
        pos, phi[live, t + 1], local, met = _rendezvous_rules(pos, act, env.epsilon_meet)
        action[live, t], reward[live, t], steps[live, t] = act, local, True
        fitness[live] += met
        live, pos = live[~met], pos[~met]
    transitions = (phi[:, :-1][steps], action[steps], reward[steps], phi[:, 1:][steps])
    return fitness.reshape(g, s), transitions


def _rank_order(fitnesses: np.ndarray) -> list[int]:
    # descending fitness, ties toward the lower genome index
    return sorted(range(fitnesses.size), key=lambda i: (-fitnesses[i], i))


def ea_generation(
    pop: TeamPopulation,
    fitnesses,
    mutation_sigma: float,
    rng,
    crossover: bool = True,
) -> TeamPopulation:
    """Elites survive bitwise; the remainder comes from fitness-proportional
    parent selection (uniform fallback when all fitnesses tie), uniform-mask
    crossover at agent-block granularity, and additive Gaussian noise."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    f = np.asarray(fitnesses, dtype=float)
    if f.shape != (len(pop.genomes),):
        raise SpecError("one fitness per genome is required")
    if mutation_sigma < 0:
        raise SpecError("mutation_sigma must be nonnegative")
    order = _rank_order(f)
    size = len(pop.genomes)
    num_agents = pop.genomes[0].size // FEATURE_DIM
    new_genomes = [pop.genomes[order[e]].copy() for e in range(pop.elite_count)]
    weights = f - f.min()
    total = weights.sum()
    probs = np.full(size, 1.0 / size) if total <= 0.0 else weights / total
    for _ in range(size - pop.elite_count):
        pa = int(rng.choice(size, p=probs))
        if crossover:
            pb = int(rng.choice(size, p=probs))
            mask = rng.integers(0, 2, size=num_agents).astype(bool)
            blocks_a = pop.genomes[pa].reshape(num_agents, FEATURE_DIM)
            blocks_b = pop.genomes[pb].reshape(num_agents, FEATURE_DIM)
            child = np.where(mask[:, None], blocks_a, blocks_b).reshape(-1)
        else:
            child = pop.genomes[pa].copy()
        if mutation_sigma > 0.0:
            child = child + rng.normal(0.0, mutation_sigma, size=child.size)
        new_genomes.append(child)
    return TeamPopulation(
        genomes=new_genomes,
        elite_count=pop.elite_count,
        generation=pop.generation + 1,
    )


# --- full training loop -----------------------------------------------------

@dataclass(frozen=True)
class MerlConfig:
    num_agents: int = 3
    population: int = 10
    elite_count: int = 2
    generations: int = 50
    horizon: int = 25
    epsilon_meet: float = 0.5
    init_range: float = 3.0
    buffer_capacity: int = 20000
    batch_size: int = 64
    pg_updates: int = 10
    alpha_q: float = 5e-3
    alpha_pi: float = 5e-3
    tau: float = 0.05
    gamma: float = 0.95
    mutation_sigma: float = 0.1
    migration_period: int | None = 5
    eval_episodes: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.elite_count < self.population:
            raise SpecError("elite count must be in [1, population)")
        if self.generations < 1:
            raise SpecError("generations must be positive")
        for name in ("epsilon_meet", "init_range", "alpha_q", "alpha_pi", "mutation_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise SpecError(f"{name} {getattr(self, name)} must be finite")
        if not 0.0 <= self.tau <= 1.0:
            raise SpecError("tau outside [0, 1]")
        if not 0.0 < self.gamma < 1.0:
            raise SpecError("gamma outside (0, 1)")
        if self.migration_period is not None and self.migration_period < 1:
            raise SpecError("migration_period must be positive when set")
        if self.eval_episodes < 1:
            raise SpecError("eval_episodes must be positive")
        # a generation's rollout features, and the replay rows (phi, a, r, phi')
        n, size, episodes, horizon = (
            self.num_agents, self.population, self.eval_episodes, self.horizon)
        check_recorded((size + 1) * episodes * (horizon + 1) * n * FEATURE_DIM, population=size,
                       eval_episodes=episodes, horizon=horizon, num_agents=n)
        check_recorded(n * self.buffer_capacity * (2 * FEATURE_DIM + 2), num_agents=n,
                       buffer_capacity=self.buffer_capacity)


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    pg_fitness: float
    best_ever: float


@dataclass(frozen=True)
class MerlResult:
    history: tuple[GenerationStats, ...]
    best_genomes: tuple[np.ndarray, ...]  # best genome after each generation
    best_genome: np.ndarray
    best_fitness: float
    pg_genome: np.ndarray


def _eval_seeds(config: MerlConfig) -> list[int]:
    # fixed across generations so repeated fitness evaluations are identical
    return [1000 * config.seed + 7919 * k for k in range(config.eval_episodes)]


def merl_train(config: MerlConfig) -> MerlResult:
    """Run the hybrid loop; fully deterministic for a given config."""
    env = RendezvousEnv(
        num_agents=config.num_agents,
        horizon=config.horizon,
        epsilon_meet=config.epsilon_meet,
        init_range=config.init_range,
    )
    seq = np.random.SeedSequence(config.seed)
    ea_seq, pg_seq = seq.spawn(2)
    rng_ea = np.random.default_rng(ea_seq)
    rng_pg = np.random.default_rng(pg_seq)
    eval_seeds = _eval_seeds(config)
    genome_dim = config.num_agents * FEATURE_DIM

    pop = TeamPopulation(
        genomes=[rng_ea.standard_normal(genome_dim) for _ in range(config.population)],
        elite_count=config.elite_count,
    )
    # the gradient team: every agent's weights on one leading agent axis
    actor = LinearActor(rng_pg.standard_normal((config.num_agents, FEATURE_DIM)))
    critic = QuadraticCritic(np.zeros((config.num_agents, CRITIC_DIM)))
    target_actor, target_critic = LinearActor(actor.weights), QuadraticCritic(critic.weights)
    buffer = ReplayBuffer(config.buffer_capacity)

    history = []
    best_genomes = []
    best_ever = -np.inf
    best_genome = pop.genomes[0].copy()
    for gen in range(config.generations):
        pg_genome = actor.weights.flatten()
        fitness, transitions = rollout_team(env, pop.genomes + [pg_genome], eval_seeds)
        buffer.extend(*transitions)
        fitnesses = fitness.mean(axis=1)[:-1]
        pg_fitness = fitness[-1].mean()

        order = _rank_order(fitnesses)
        gen_best = order[0]
        if fitnesses[gen_best] > best_ever:
            best_ever = float(fitnesses[gen_best])
            best_genome = pop.genomes[gen_best].copy()
        history.append(
            GenerationStats(
                generation=gen,
                best_fitness=float(fitnesses[gen_best]),
                mean_fitness=float(fitnesses.mean()),
                pg_fitness=float(pg_fitness),
                best_ever=float(best_ever),
            )
        )
        best_genomes.append(pop.genomes[gen_best].copy())

        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            for _ in range(config.pg_updates if len(buffer) >= config.batch_size else 0):
                batch = buffer.sample(rng_pg, config.batch_size)
                critic = critic_td_update(critic, target_actor, target_critic, batch,
                                          config.alpha_q, config.gamma)
                actor = dpg_actor_update(actor, critic, batch, config.alpha_pi)
                target_actor = LinearActor(
                    soft_update(target_actor.weights, actor.weights, config.tau))
                target_critic = QuadraticCritic(
                    soft_update(target_critic.weights, critic.weights, config.tau))
        if not (np.isfinite(actor.weights).all() and np.isfinite(critic.weights).all()):
            raise DivergenceError(gen + 1, "actor or critic weights not finite in generation "
                                           f"{gen + 1} of {config.generations}")

        if (
            config.migration_period is not None
            and (gen + 1) % config.migration_period == 0
        ):
            # the gradient team, as evaluated this generation, joins the
            # population in place of the worst genome
            worst = order[-1]
            pop.genomes[worst] = pg_genome.copy()
            fitnesses[worst] = pg_fitness

        pop = ea_generation(pop, fitnesses, config.mutation_sigma, rng_ea)

    return MerlResult(
        history=tuple(history),
        best_genomes=tuple(best_genomes),
        best_genome=best_genome,
        best_fitness=float(best_ever),
        pg_genome=actor.weights.flatten(),
    )


def write_merl_csv(path, result: MerlResult, config_echo: str = "") -> None:
    header = ["generation", "best_fitness", "mean_fitness", "pg_fitness", "best_ever"]
    rows = (
        (r.generation, r.best_fitness, r.mean_fitness, r.pg_fitness, r.best_ever)
        for r in result.history
    )
    write_csv(path, header, rows, [f"config {config_echo}"] if config_echo else [])
