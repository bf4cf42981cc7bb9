"""Tabular multi-agent learners on matrix and stochastic games.

The stochastic-game learners bootstrap through per-state stage games built
from the current joint Q values: minimax-Q evaluates each stage game by its
zero-sum LP value, correlated-Q by a correlated-equilibrium distribution.
Stage solutions are cached per state (StageCache) and invalidated whenever
that state's Q row changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .equilibrium import (
    UTILITARIAN,
    ce_violations,
    solve_ce_distribution,
    stage_minimax,
)
from .errors import NumericalError, SpecError
from .games import MatrixGame, StochasticGame

VISIT_DECAY_POWER = 0.85
CONSTANT = "constant"
ONE_OVER_VISITS = "one_over_visits"
_DECAYS = (CONSTANT, ONE_OVER_VISITS)

EXTERNAL = "external"
INTERNAL = "internal"

STATIONARY_POWER_STEPS = 50


@dataclass(frozen=True)
class LearningSchedule:
    """Step-size and exploration schedule for the tabular learners.

    one_over_visits decays as 1 / (1 + visits)^0.85, counting visits of the
    (state, joint action) pair for alpha and of the state for epsilon.
    episode_length, when set, restarts the trajectory in a uniformly random
    state every that many steps.
    """

    alpha0: float = 1.0
    alpha_decay: str = ONE_OVER_VISITS
    epsilon0: float = 0.2
    epsilon_decay: str = CONSTANT
    max_steps: int = 10000
    seed: int = 0
    episode_length: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha0 <= 1.0:
            raise SpecError(f"alpha0 {self.alpha0} outside (0, 1]")
        if not 0.0 <= self.epsilon0 <= 1.0:
            raise SpecError(f"epsilon0 {self.epsilon0} outside [0, 1]")
        if self.alpha_decay not in _DECAYS or self.epsilon_decay not in _DECAYS:
            raise SpecError("decay tags must be 'constant' or 'one_over_visits'")
        if self.max_steps < 1:
            raise SpecError("max_steps must be at least 1")
        if self.episode_length is not None and self.episode_length < 1:
            raise SpecError("episode_length must be positive when set")


def _alpha(schedule: LearningSchedule, visits: int) -> float:
    if schedule.alpha_decay == CONSTANT:
        return schedule.alpha0
    return schedule.alpha0 / (1.0 + visits) ** VISIT_DECAY_POWER


def _epsilon(schedule: LearningSchedule, visits: int) -> float:
    if schedule.epsilon_decay == CONSTANT:
        return schedule.epsilon0
    return schedule.epsilon0 / (1.0 + visits) ** VISIT_DECAY_POWER


@dataclass(frozen=True)
class QTables:
    """Per-agent action values indexed by (state, flat joint action)."""

    tables: tuple[np.ndarray, ...]

    @property
    def num_agents(self) -> int:
        return len(self.tables)


def save_qtables(path, q: QTables) -> None:
    states, joint = q.tables[0].shape
    doc = {
        "agents": q.num_agents,
        "states": states,
        "joint_actions": joint,
        "tables": [t.tolist() for t in q.tables],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _sample(rng: np.random.Generator, cumulative: np.ndarray) -> int:
    idx = int(np.searchsorted(cumulative, rng.random(), side="right"))
    return min(idx, cumulative.size - 1)


def _require_stochastic(game, zero_sum: bool, two_player: bool) -> None:
    if not isinstance(game, StochasticGame):
        raise SpecError("a stochastic game is required")
    if two_player and game.num_agents != 2:
        raise SpecError("exactly two agents are required")
    if zero_sum and not game.zero_sum:
        raise SpecError("a zero-sum game is required")


class StageCache:
    """Stage-game solutions per state, solved again only after invalidate.

    solve(s) computes state s's solution from the learner's current Q
    tables; the learners' solve functions look up stage_minimax and
    solve_ce_distribution by module name at call time. get counts hits and
    misses, and names the state and step in any NumericalError of a solve.
    """

    def __init__(self, states: int, solve):
        self._solve = solve
        self.valid = np.zeros(states, dtype=bool)
        self.entries: list = [None] * states
        self.hits = 0
        self.misses = 0

    def get(self, s: int, step: int):
        if self.valid[s]:
            self.hits += 1
            return self.entries[s]
        self.misses += 1
        try:
            entry = self._solve(s)
        except NumericalError as exc:
            raise NumericalError(f"stage solve failed at state {s}, step {step}: {exc}") from exc
        self.entries[s] = entry
        self.valid[s] = True
        return entry

    def invalidate(self, s: int) -> None:
        self.valid[s] = False


# --- exact zero-sum solver (oracle for minimax-Q) --------------------------

@dataclass(frozen=True)
class ShapleyResult:
    values: np.ndarray
    row_policies: np.ndarray
    col_policies: np.ndarray
    iterations: int


def shapley_value_iteration(
    game: StochasticGame, tol: float = 1e-10, max_iterations: int = 200000
) -> ShapleyResult:
    """Value iteration with a minimax stage solve per state; converges
    gamma-linearly to the exact discounted value of the zero-sum game."""
    _require_stochastic(game, zero_sum=True, two_player=True)
    if tol <= 0:
        raise SpecError("tol must be positive")
    k1, k2 = game.actions
    states = game.num_states
    values = np.zeros(states)
    row_pol = np.zeros((states, k1))
    col_pol = np.zeros((states, k2))
    r1 = game.rewards[0]
    p = game.transition
    for iteration in range(1, max_iterations + 1):
        new = np.empty(states)
        for s in range(states):
            stage = (r1[s] + game.discount * (p[s] @ values)).reshape(k1, k2)
            try:
                new[s], row_pol[s], col_pol[s] = stage_minimax(stage)
            except NumericalError as exc:
                raise NumericalError(
                    f"stage solve failed at state {s}, sweep {iteration}: {exc}"
                ) from exc
        delta = float(np.max(np.abs(new - values)))
        values = new
        if delta <= tol:
            return ShapleyResult(values, row_pol, col_pol, iteration)
    raise NumericalError(f"value iteration did not reach {tol} in {max_iterations} sweeps")


# --- minimax-Q --------------------------------------------------------------

@dataclass(frozen=True)
class MinimaxQResult:
    q: QTables                      # agent 1's table; agent 2's is its negation
    values: np.ndarray              # stage value per state under the final Q
    policies: np.ndarray            # agent 1 maximin mixture per state
    opponent_policies: np.ndarray   # agent 2 minimax mixture per state
    curve: tuple                    # (step, mean reward, sup value error) rows
    stage_hits: int                 # StageCache counters of the run
    stage_misses: int


def minimax_q_train(
    game: StochasticGame,
    schedule: LearningSchedule,
    record_every: int | None = None,
    oracle_values: np.ndarray | None = None,
) -> MinimaxQResult:
    """Asymmetric minimax-Q: one table for agent 1, both agents play the
    stage solution of the current Q with epsilon-uniform exploration."""
    _require_stochastic(game, zero_sum=True, two_player=True)
    k1, k2 = game.actions
    states, joint = game.num_states, game.joint_actions
    gamma = game.discount
    r1 = game.rewards[0]
    p_cum = np.cumsum(game.transition, axis=2)
    rng = np.random.default_rng(schedule.seed)

    q = np.zeros((states, joint))
    visits_sa = np.zeros((states, joint), dtype=np.int64)
    visits_s = np.zeros(states, dtype=np.int64)

    def solve(s: int):
        v, x, y = stage_minimax(q[s].reshape(k1, k2))
        return v, x, y, np.cumsum(x), np.cumsum(y)

    cache = StageCache(states, solve)

    curve = []
    reward_sum, reward_n = 0.0, 0
    s = int(rng.integers(states))
    for t in range(schedule.max_steps):
        if (
            schedule.episode_length is not None
            and t > 0
            and t % schedule.episode_length == 0
        ):
            s = int(rng.integers(states))
        _, _, _, cum_x, cum_y = cache.get(s, t + 1)
        eps = _epsilon(schedule, int(visits_s[s]))
        visits_s[s] += 1
        a1 = int(rng.integers(k1)) if rng.random() < eps else _sample(rng, cum_x)
        a2 = int(rng.integers(k2)) if rng.random() < eps else _sample(rng, cum_y)
        j = a1 * k2 + a2
        reward = r1[s, j]
        s_next = _sample(rng, p_cum[s, j])
        next_value = cache.get(s_next, t + 1)[0]
        alpha = _alpha(schedule, int(visits_sa[s, j]))
        visits_sa[s, j] += 1
        q[s, j] += alpha * (reward + gamma * next_value - q[s, j])
        cache.invalidate(s)
        reward_sum += reward
        reward_n += 1
        if record_every and (t + 1) % record_every == 0:
            err = np.nan
            if oracle_values is not None:
                values = np.array([cache.get(ss, t + 1)[0] for ss in range(states)])
                err = float(np.max(np.abs(values - oracle_values)))
            curve.append((t + 1, reward_sum / reward_n, err))
            reward_sum, reward_n = 0.0, 0
        s = s_next
    final = [cache.get(ss, schedule.max_steps) for ss in range(states)]
    return MinimaxQResult(
        q=QTables((q.copy(),)),
        values=np.array([entry[0] for entry in final]),
        policies=np.array([entry[1] for entry in final]),
        opponent_policies=np.array([entry[2] for entry in final]),
        curve=tuple(curve),
        stage_hits=cache.hits,
        stage_misses=cache.misses,
    )


# --- correlated-Q -----------------------------------------------------------

@dataclass(frozen=True)
class CorrelatedQResult:
    q: QTables
    stage_policies: np.ndarray  # per-state correlated distribution (states, joint)
    curve: tuple                # (step, mean reward per agent...) rows
    stage_hits: int             # StageCache counters of the run
    stage_misses: int


def correlated_q_train(
    game: StochasticGame,
    objective: str = UTILITARIAN,
    schedule: LearningSchedule = LearningSchedule(),
    record_every: int | None = None,
) -> CorrelatedQResult:
    """General-sum correlated-Q: the joint action is sampled from a shared
    correlated-equilibrium distribution of the per-state stage game; each
    agent bootstraps with the stage expectation of its own Q."""
    _require_stochastic(game, zero_sum=False, two_player=False)
    n = game.num_agents
    states, joint = game.num_states, game.joint_actions
    gamma = game.discount
    rewards = game.rewards
    p_cum = np.cumsum(game.transition, axis=2)
    rng = np.random.default_rng(schedule.seed)

    q = [np.zeros((states, joint)) for _ in range(n)]
    visits_sa = np.zeros((states, joint), dtype=np.int64)
    visits_s = np.zeros(states, dtype=np.int64)

    def solve(s: int):
        payoffs = [q[i][s] for i in range(n)]
        dist = solve_ce_distribution(game.actions, payoffs, objective)
        worst, _ = ce_violations(game.actions, payoffs, dist)
        if worst > 1e-9:
            raise NumericalError(f"stage CE violates incentives by {worst:g}")
        return dist, np.cumsum(dist)

    cache = StageCache(states, solve)

    curve = []
    reward_sum = np.zeros(n)
    reward_n = 0
    s = int(rng.integers(states))
    for t in range(schedule.max_steps):
        if (
            schedule.episode_length is not None
            and t > 0
            and t % schedule.episode_length == 0
        ):
            s = int(rng.integers(states))
        lam_cum = cache.get(s, t + 1)[1]
        eps = _epsilon(schedule, int(visits_s[s]))
        visits_s[s] += 1
        j = int(rng.integers(joint)) if rng.random() < eps else _sample(rng, lam_cum)
        s_next = _sample(rng, p_cum[s, j])
        lam_next = cache.get(s_next, t + 1)[0]
        alpha = _alpha(schedule, int(visits_sa[s, j]))
        visits_sa[s, j] += 1
        for i in range(n):
            target = rewards[i][s, j] + gamma * float(lam_next @ q[i][s_next])
            q[i][s, j] += alpha * (target - q[i][s, j])
            reward_sum[i] += rewards[i][s, j]
        cache.invalidate(s)
        reward_n += 1
        if record_every and (t + 1) % record_every == 0:
            curve.append((t + 1, *(reward_sum / reward_n)))
            reward_sum = np.zeros(n)
            reward_n = 0
        s = s_next
    final = [cache.get(ss, schedule.max_steps)[0] for ss in range(states)]
    return CorrelatedQResult(
        q=QTables(tuple(t.copy() for t in q)),
        stage_policies=np.array(final),
        curve=tuple(curve),
        stage_hits=cache.hits,
        stage_misses=cache.misses,
    )


# --- regret matching --------------------------------------------------------

@dataclass(frozen=True)
class RegretState:
    mode: str
    regrets: tuple[np.ndarray, ...]      # (k,) external or (k, k) internal, per agent
    play_counts: tuple[np.ndarray, ...]
    joint_counts: np.ndarray


@dataclass(frozen=True)
class RegretMatchingResult:
    mode: str
    empirical: np.ndarray   # distribution over flat joint actions
    curve: tuple            # (step, max over agents of average positive regret)
    actions: np.ndarray     # (steps, agents) action log
    state: RegretState


def _external_strategy(regret: np.ndarray) -> np.ndarray:
    positive = np.where(regret > 0.0, regret, 0.0)
    total = positive.sum()
    if total <= 0.0:
        return np.full(regret.size, 1.0 / regret.size)
    return positive / total


def _internal_strategy(regret: np.ndarray) -> np.ndarray:
    """Stationary distribution of the row-switch chain built from positive
    pairwise regrets, via a fixed number of power-iteration steps."""
    k = regret.shape[0]
    positive = np.where(regret > 0.0, regret, 0.0)
    np.fill_diagonal(positive, 0.0)
    scale = max(1.0, 2.0 * positive.sum(axis=1).max())
    chain = positive / scale
    np.fill_diagonal(chain, 1.0 - chain.sum(axis=1))
    dist = np.full(k, 1.0 / k)
    for _ in range(STATIONARY_POWER_STEPS):
        dist = dist @ chain
    total = dist.sum()
    if not np.all(np.isfinite(dist)) or total <= 0.0 or dist.min() < 0.0:
        return np.full(k, 1.0 / k)
    return dist / total


def regret_matching_play(
    game: MatrixGame,
    steps: int,
    mode: str = EXTERNAL,
    seed: int = 0,
    record_every: int | None = None,
) -> RegretMatchingResult:
    """Self-play regret matching on a matrix game. External mode plays
    proportionally to positive cumulative action regrets; internal mode uses
    pairwise swap regrets. Uniform play is the fallback whenever no regret
    is positive."""
    if mode not in (EXTERNAL, INTERNAL):
        raise SpecError(f"unknown regret mode {mode!r}")
    if steps < 1:
        raise SpecError("steps must be at least 1")
    n = game.num_agents
    counts = tuple(np.zeros(k, dtype=np.int64) for k in game.actions)
    joint_counts = np.zeros(game.joint_actions, dtype=np.int64)
    if mode == EXTERNAL:
        regrets = [np.zeros(k) for k in game.actions]
    else:
        regrets = [np.zeros((k, k)) for k in game.actions]
    # own-action-major payoff views: payoff_own[i][a, rest] with the other
    # agents' actions flattened in their original order
    payoff_own = []
    other_strides = []
    for i in range(n):
        moved = np.moveaxis(game.payoffs[i], i, 0)
        payoff_own.append(np.ascontiguousarray(moved.reshape(game.actions[i], -1)))
        shape = tuple(game.actions[o] for o in range(n) if o != i)
        strides = np.ones(len(shape), dtype=int)
        for d in range(len(shape) - 2, -1, -1):
            strides[d] = strides[d + 1] * shape[d + 1]
        other_strides.append(strides)
    rng = np.random.default_rng(seed)
    if record_every is None:
        record_every = max(1, steps // 200)
    actions_log = np.zeros((steps, n), dtype=np.int64)
    curve = []
    for t in range(steps):
        played = np.empty(n, dtype=np.int64)
        for i in range(n):
            if mode == EXTERNAL:
                strategy = _external_strategy(regrets[i])
            else:
                strategy = _internal_strategy(regrets[i])
            played[i] = _sample(rng, np.cumsum(strategy))
        actions_log[t] = played
        for i in range(n):
            others = np.delete(played, i)
            rest_index = int(others @ other_strides[i]) if others.size else 0
            values = payoff_own[i][:, rest_index]
            gains = values - values[played[i]]
            if mode == EXTERNAL:
                regrets[i] += gains
            else:
                regrets[i][played[i]] += gains
            counts[i][played[i]] += 1
        joint_counts[int(np.ravel_multi_index(played, game.actions))] += 1
        if (t + 1) % record_every == 0:
            worst = 0.0
            for i in range(n):
                worst = max(worst, float(regrets[i].max()) / (t + 1))
            curve.append((t + 1, max(0.0, worst)))
    state = RegretState(
        mode=mode,
        regrets=tuple(r.copy() for r in regrets),
        play_counts=tuple(c.copy() for c in counts),
        joint_counts=joint_counts.copy(),
    )
    return RegretMatchingResult(
        mode=mode,
        empirical=joint_counts / steps,
        curve=tuple(curve),
        actions=actions_log,
        state=state,
    )


# --- opponent modeling and fictitious play ----------------------------------

@dataclass
class OpponentModel:
    """Laplace-smoothed per-state action counts for one opponent."""

    num_states: int
    num_actions: int
    prior: float = 1.0
    counts: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.num_states < 1 or self.num_actions < 1:
            raise SpecError("model dimensions must be positive")
        if self.prior < 0:
            raise SpecError("prior must be nonnegative")
        if self.counts is None:
            self.counts = np.zeros((self.num_states, self.num_actions))

    def observe(self, state: int, action: int) -> None:
        if not 0 <= state < self.num_states:
            raise SpecError(f"unknown state {state}")
        if not 0 <= action < self.num_actions:
            raise SpecError(f"unknown action {action}")
        self.counts[state, action] += 1.0


def estimate_opponent_policy(model: OpponentModel, state: int) -> np.ndarray:
    """(count + prior) / (total + prior * actions); uniform before any data."""
    if not 0 <= state < model.num_states:
        raise SpecError(f"unknown state {state}")
    row = model.counts[state]
    total = row.sum() + model.prior * model.num_actions
    if total <= 0.0:
        raise SpecError("a zero prior needs at least one observation")
    return (row + model.prior) / total


@dataclass(frozen=True)
class FictitiousPlayResult:
    empirical: tuple[np.ndarray, ...]
    exploitability: np.ndarray
    actions: np.ndarray


def fictitious_play(game: MatrixGame, steps: int) -> FictitiousPlayResult:
    """Simultaneous fictitious play on a two-player matrix game: both agents
    best-respond to a Laplace-smoothed empirical mixture of the opponent
    (uniform at the first round); ties break toward the lower action index.
    The exploitability curve tracks the largest best-response gain against
    the empirical profile."""
    if game.num_agents != 2:
        raise SpecError("fictitious play covers two-player games here")
    if steps < 1:
        raise SpecError("steps must be at least 1")
    k1, k2 = game.actions
    a_mat, b_mat = game.payoffs
    models = (OpponentModel(1, k1), OpponentModel(1, k2))
    actions_log = np.zeros((steps, 2), dtype=np.int64)
    exploitability = np.zeros(steps)
    for t in range(steps):
        belief2 = estimate_opponent_policy(models[1], 0)
        belief1 = estimate_opponent_policy(models[0], 0)
        a1 = int(np.argmax(a_mat @ belief2))
        a2 = int(np.argmax(belief1 @ b_mat))
        models[0].observe(0, a1)
        models[1].observe(0, a2)
        actions_log[t] = (a1, a2)
        emp1 = models[0].counts[0] / (t + 1)
        emp2 = models[1].counts[0] / (t + 1)
        gain1 = float(np.max(a_mat @ emp2) - emp1 @ a_mat @ emp2)
        gain2 = float(np.max(emp1 @ b_mat) - emp1 @ b_mat @ emp2)
        exploitability[t] = max(gain1, gain2)
    empirical = (models[0].counts[0] / steps, models[1].counts[0] / steps)
    return FictitiousPlayResult(
        empirical=empirical, exploitability=exploitability, actions=actions_log
    )


# --- rollout ----------------------------------------------------------------

@dataclass(frozen=True)
class EpisodeResult:
    steps: tuple          # (state, flat joint action, rewards tuple, next state)
    returns: np.ndarray   # per-agent discounted return


def simulate_episode(
    game: StochasticGame,
    policies,
    horizon: int,
    seed: int = 0,
    start_state: int = 0,
) -> EpisodeResult:
    """Seeded rollout. policies is either a sequence of per-agent arrays
    (states, own actions) sampled independently, or a single array
    (states, joint actions) sampled as a correlated device."""
    _require_stochastic(game, zero_sum=False, two_player=False)
    if horizon < 1:
        raise SpecError(f"horizon {horizon} must be at least 1")
    if not 0 <= start_state < game.num_states:
        raise SpecError(f"start state {start_state} out of range")
    n = game.num_agents
    correlated = isinstance(policies, np.ndarray) and policies.ndim == 2
    if correlated:
        if policies.shape != (game.num_states, game.joint_actions):
            raise SpecError("correlated policy shape mismatch")
        cum = np.cumsum(policies, axis=1)
    else:
        if len(policies) != n:
            raise SpecError("one policy per agent is required")
        cums = []
        for i, pol in enumerate(policies):
            arr = np.asarray(pol, dtype=float)
            if arr.shape != (game.num_states, game.actions[i]):
                raise SpecError(f"policy for agent {i} has shape {arr.shape}")
            cums.append(np.cumsum(arr, axis=1))
    p_cum = np.cumsum(game.transition, axis=2)
    rng = np.random.default_rng(seed)
    s = start_state
    steps = []
    returns = np.zeros(n)
    discount = 1.0
    for _ in range(horizon):
        if correlated:
            j = _sample(rng, cum[s])
        else:
            chosen = tuple(_sample(rng, cums[i][s]) for i in range(n))
            j = int(np.ravel_multi_index(chosen, game.actions))
        rewards = tuple(float(game.rewards[i][s, j]) for i in range(n))
        s_next = _sample(rng, p_cum[s, j])
        steps.append((s, j, rewards, s_next))
        returns += discount * np.asarray(rewards)
        discount *= game.discount
        s = s_next
    return EpisodeResult(steps=tuple(steps), returns=returns)
