"""Tabular multi-agent learners on matrix and stochastic games.

Minimax-Q and correlated-Q share one stage-Q loop: Q-learning that
bootstraps through per-state stage games built from the current joint Q
values. Each learner supplies only its stage solve: the zero-sum LP value
and maximin mixtures for minimax-Q, a correlated-equilibrium distribution
for correlated-Q. Each state is solved once before the first step and again
right after each update of its Q row. Shapley's sweeps and both learners
keep one warm-start list per state, empty before the state's first solve,
which each stage solve fills with the bases its LPs ended on for the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equilibrium import UTILITARIAN, solve_ce_distribution, stage_minimax
from .errors import NumericalError, SpecError, check_recorded
from .games import MatrixGame, StochasticGame, require_kind, strides
from .output import write_json

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
    write_json(path, doc)


def _sample(rng: np.random.Generator, cumulative: np.ndarray) -> int:
    idx = int(cumulative.searchsorted(rng.random(), side="right"))
    return min(idx, cumulative.size - 1)


def _require_stochastic(game, zero_sum: bool, two_player: bool) -> None:
    require_kind(game, "stochastic")
    if two_player and game.num_agents != 2:
        raise SpecError("exactly two agents are required")
    if zero_sum and not game.zero_sum:
        raise SpecError("a zero-sum game is required")


def _solve_stage(s: int, unit: str, count: int, solve, *args):
    """solve(*args) for state s; a NumericalError names s and the step or sweep."""
    try:
        return solve(*args)
    except NumericalError as exc:
        raise NumericalError(f"stage solve failed at state {s}, {unit} {count}: {exc}") from exc


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
    """Shapley's value of the zero-sum game, by safeguarded policy iteration.

    A sweep at v solves each state's stage game r1 + gamma P v with
    stage_minimax, which gives T(v) (the stage values) and a stationary
    pair of mixtures; each state's solve starts from the basis of its last
    solve. Once max|T(v) - v| <= tol the sweep's T(v) and mixtures are
    returned, and since T is a gamma-contraction they are within
    gamma / (1 - gamma) * tol of the exact value. Otherwise the next v is
    the exact value of the sweep's pair: one solve of (I - gamma P_xy) v =
    r_xy (Pollatschek and Avi-Itzhak, 1969). That step can cycle, so a
    point whose residual exceeds gamma times the last accepted one is
    dropped and the kept T(v) of the last accepted point, a value-iteration
    step, is swept instead. Each accepted point thus contracts at least as
    value iteration does, in at most two sweeps. iterations counts sweeps,
    and max_iterations bounds them."""
    _require_stochastic(game, zero_sum=True, two_player=True)
    if tol <= 0:
        raise SpecError("tol must be positive")
    k1, k2 = game.actions
    states = game.num_states
    gamma = game.discount
    values = np.zeros(states)
    row_pol = np.zeros((states, k1))
    col_pol = np.zeros((states, k2))
    r1 = game.rewards[0]
    p = game.transition
    bases = [[] for _ in range(states)]
    evaluated = False
    for sweep in range(1, max_iterations + 1):
        new = np.empty(states)
        for s in range(states):
            stage = (r1[s] + gamma * (p[s] @ values)).reshape(k1, k2)
            new[s], row_pol[s], col_pol[s] = _solve_stage(
                s, "sweep", sweep, stage_minimax, stage, bases[s])
        delta = float(np.max(np.abs(new - values)))
        if delta <= tol:
            return ShapleyResult(new, row_pol, col_pol, sweep)
        if evaluated and delta > gamma * accepted:
            values, evaluated = kept, False
            continue
        accepted, kept, evaluated = delta, new, True
        joint = (row_pol[:, :, None] * col_pol[:, None, :]).reshape(states, -1)
        values = np.linalg.solve(np.eye(states) - gamma * np.einsum("sj,sjt->st", joint, p),
                                 np.einsum("sj,sj->s", joint, r1))
    raise NumericalError(f"value iteration did not reach {tol} in {max_iterations} sweeps")


# --- the stage-game Q-learning loop -----------------------------------------

def _stage_q_loop(game, schedule, record_every, q, solve, extra=lambda stage: (),
                  extra_columns=0):
    """The Q-learning loop of minimax-Q and correlated-Q; table i of q
    learns from reward table i. solve(s) gives state s's stage solution
    under the current q as (each table's stage value, cumulatives, policy);
    each cumulative draws one digit of the joint action, most significant
    first, or epsilon-uniform exploration does. Each state is solved before
    step 1 and right after each update of its Q row; a NumericalError names
    the state and the step (0 before step 1). extra(stage) gives, from the
    solutions per state, the extra_columns curve columns after the mean
    rewards. A curve of more than MAX_RECORDED_ENTRIES entries is refused
    before the first step. Returns (curve, final policy per state)."""
    if record_every is not None:
        if record_every < 1:
            raise SpecError("record_every must be at least 1")
        check_recorded(schedule.max_steps // record_every * (1 + len(q) + extra_columns),
                       steps=schedule.max_steps, record_every=record_every)
    states = game.num_states
    rewards = game.rewards[:len(q)]
    p_cum = np.cumsum(game.transition, axis=2)
    rng = np.random.default_rng(schedule.seed)
    visits_sa = np.zeros(q[0].shape, dtype=np.int64)
    visits_s = np.zeros(states, dtype=np.int64)

    curve = []
    reward_sum = np.zeros(len(q))
    reward_n = 0
    s = int(rng.integers(states))
    stage = [_solve_stage(ss, "step", 0, solve, ss) for ss in range(states)]
    for t in range(schedule.max_steps):
        if (
            schedule.episode_length is not None
            and t > 0
            and t % schedule.episode_length == 0
        ):
            s = int(rng.integers(states))
        eps = _epsilon(schedule, int(visits_s[s]))
        visits_s[s] += 1
        j = 0
        for cum in stage[s][1]:
            explore = rng.random() < eps
            j = j * cum.size + (int(rng.integers(cum.size)) if explore else _sample(rng, cum))
        s_next = _sample(rng, p_cum[s, j])
        values = stage[s_next][0]
        alpha = _alpha(schedule, int(visits_sa[s, j]))
        visits_sa[s, j] += 1
        for i, (table, reward, value) in enumerate(zip(q, rewards, values)):
            table[s, j] += alpha * (reward[s, j] + game.discount * value - table[s, j])
            reward_sum[i] += reward[s, j]
        stage[s] = _solve_stage(s, "step", t + 1, solve, s)
        reward_n += 1
        if record_every and (t + 1) % record_every == 0:
            curve.append((t + 1, *(reward_sum / reward_n), *extra(stage)))
            reward_sum = np.zeros(len(q))
            reward_n = 0
        s = s_next
    return tuple(curve), [entry[2] for entry in stage]


# --- minimax-Q --------------------------------------------------------------

@dataclass(frozen=True)
class MinimaxQResult:
    q: QTables                      # agent 1's table; agent 2's is its negation
    values: np.ndarray              # stage value per state under the final Q
    policies: np.ndarray            # agent 1 maximin mixture per state
    opponent_policies: np.ndarray   # agent 2 minimax mixture per state
    curve: tuple                    # (step, mean reward, sup value error) rows


def minimax_q_train(
    game: StochasticGame,
    schedule: LearningSchedule,
    record_every: int | None = None,
    oracle_values: np.ndarray | None = None,
) -> MinimaxQResult:
    """Asymmetric minimax-Q: one table for agent 1, both agents play the
    stage solution of the current Q with epsilon-uniform exploration. Each
    state's stage solve starts from the basis of its last one."""
    _require_stochastic(game, zero_sum=True, two_player=True)
    q = np.zeros((game.num_states, game.joint_actions))
    bases = [[] for _ in range(game.num_states)]

    def solve(s: int):
        v, x, y = stage_minimax(q[s].reshape(game.actions), bases[s])
        return (v,), (np.cumsum(x), np.cumsum(y)), (v, x, y)

    def sup_error(stage):
        if oracle_values is None:
            return (np.nan,)
        values = np.array([entry[0][0] for entry in stage])
        return (float(np.max(np.abs(values - oracle_values))),)

    curve, final = _stage_q_loop(game, schedule, record_every, (q,), solve, sup_error, 1)
    values, policies, opponent_policies = (np.array(part) for part in zip(*final))
    return MinimaxQResult(QTables((q.copy(),)), values, policies, opponent_policies, curve)


# --- correlated-Q -----------------------------------------------------------

@dataclass(frozen=True)
class CorrelatedQResult:
    q: QTables
    stage_policies: np.ndarray  # per-state correlated distribution (states, joint)
    curve: tuple                # (step, mean reward per agent...) rows


def correlated_q_train(
    game: StochasticGame,
    objective: str = UTILITARIAN,
    schedule: LearningSchedule = LearningSchedule(),
    record_every: int | None = None,
) -> CorrelatedQResult:
    """General-sum correlated-Q: the joint action is sampled from a shared
    correlated-equilibrium distribution of the per-state stage game; each
    agent bootstraps with the stage expectation of its own Q. Each state's
    CE LPs (one per agent for plutocratic) start from the bases of its last
    stage solve."""
    _require_stochastic(game, zero_sum=False, two_player=False)
    q = tuple(np.zeros((game.num_states, game.joint_actions)) for _ in game.rewards)
    bases = [[] for _ in range(game.num_states)]

    def solve(s: int):
        payoffs = [table[s] for table in q]
        dist = solve_ce_distribution(game.actions, payoffs, objective, bases[s])
        return [float(dist @ u) for u in payoffs], (np.cumsum(dist),), dist

    curve, final = _stage_q_loop(game, schedule, record_every, q, solve)
    return CorrelatedQResult(QTables(tuple(t.copy() for t in q)), np.array(final), curve)


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


def _external_strategy(positive: np.ndarray) -> np.ndarray:
    total = positive.sum()
    if total <= 0.0:
        return np.full(positive.size, 1.0 / positive.size)
    return positive / total


def _internal_strategy(positive: np.ndarray) -> np.ndarray:
    """Stationary distribution of the row-switch chain built from positive
    off-diagonal pairwise regrets, via a fixed number of power-iteration
    steps (ndarray.dot into a spare buffer: `@` at a third of the call cost)."""
    k = positive.shape[0]
    scale = max(1.0, 2.0 * positive.sum(axis=1).max())
    chain = positive / scale
    chain.flat[::k + 1] = 1.0 - chain.sum(axis=1)
    dist, spare = np.full(k, 1.0 / k), np.empty(k)
    for _ in range(STATIONARY_POWER_STEPS):
        dist.dot(chain, out=spare)
        dist, spare = spare, dist
    total = dist.sum()
    if not np.isfinite(dist).all() or total <= 0.0 or dist.min() < 0.0:
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
    if record_every is not None and record_every < 1:
        raise SpecError("record_every must be at least 1")
    n = game.num_agents
    check_recorded(n * steps, steps=steps)  # the action log
    regrets = [np.zeros(k if mode == EXTERNAL else (k, k)) for k in game.actions]
    strategy_of = _external_strategy if mode == EXTERNAL else _internal_strategy
    # own-action-major payoff views: payoff_own[i][a, rest] with the other
    # agents' actions flattened in their original order
    payoff_own = []
    for i in range(n):
        moved = np.moveaxis(game.payoffs[i], i, 0)
        payoff_own.append(np.ascontiguousarray(moved.reshape(game.actions[i], -1)))
    other_agents = [np.delete(np.arange(n), i) for i in range(n)]
    other_strides = [strides(game.actions[:i] + game.actions[i + 1:]) for i in range(n)]
    rng = np.random.default_rng(seed)
    if record_every is None:
        record_every = max(1, steps // 200)
    actions_log = np.zeros((steps, n), dtype=np.int64)
    curve = []
    last_positive, cumulative = [b""] * n, [None] * n
    for t in range(steps):
        played = actions_log[t]
        for i in range(n):
            # play depends only on the positive regrets (off the diagonal in
            # internal mode), which often survive a step unchanged
            positive = np.where(regrets[i] > 0.0, regrets[i], 0.0)
            if mode == INTERNAL:
                positive.flat[::game.actions[i] + 1] = 0.0
            key = positive.tobytes()
            if key != last_positive[i]:
                last_positive[i], cumulative[i] = key, strategy_of(positive).cumsum()
            played[i] = _sample(rng, cumulative[i])
        for i in range(n):
            others = played[other_agents[i]]
            rest_index = int(others @ other_strides[i]) if others.size else 0
            values = payoff_own[i][:, rest_index]
            gains = values - values[played[i]]
            if mode == EXTERNAL:
                regrets[i] += gains
            else:
                regrets[i][played[i]] += gains
        if (t + 1) % record_every == 0:
            worst = 0.0
            for i in range(n):
                worst = max(worst, float(regrets[i].max()) / (t + 1))
            curve.append((t + 1, max(0.0, worst)))
    joint = np.ravel_multi_index(actions_log.T, game.actions)
    joint_counts = np.bincount(joint, minlength=game.joint_actions)
    state = RegretState(
        mode=mode,
        regrets=tuple(r.copy() for r in regrets),
        play_counts=tuple(np.bincount(a, minlength=k) for a, k in zip(actions_log.T, game.actions)),
        joint_counts=joint_counts,
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
    check_recorded(3 * steps, steps=steps)  # the action log and the curve
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
