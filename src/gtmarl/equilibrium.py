"""Equilibrium computations on matrix games.

minimax_solve handles two-player zero-sum games through the value LP in its
normalized form: after shifting the payoff matrix to be strictly positive,
each player's optimal mixture is the scaled solution of a one-phase LP
(max 1'q subject to Aq <= 1, q >= 0). Correlated equilibria come from one CE
LP statement over a cached incentive index for all three welfare objectives,
each answer checked against the incentive rows built for its LP; ce_violations
reads the same index. Both LPs are stated in standard form and solved by
linprog's simplex core directly, with solve_lp's answer bit for bit.
A support enumeration oracle covers small general-sum games.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SpecError
from .games import MatrixGame, MixedProfile, expected_payoff, joint_count, mixed_profile, strides
from .linprog import EQUAL, FEAS_TOL, LESS, _solve_standard

UTILITARIAN = "utilitarian_sum"
EGALITARIAN = "egalitarian_min"
PLUTOCRATIC = "plutocratic_max"
CE_OBJECTIVES = (UTILITARIAN, EGALITARIAN, PLUTOCRATIC)

MAX_JOINT_ACTIONS = 4096
MAX_ENUM_ACTIONS = 4


@dataclass(frozen=True)
class MinimaxSolution:
    value: float
    strategies: MixedProfile


@dataclass(frozen=True)
class CorrelatedPolicy:
    """Distribution over joint actions, flat joint-action order."""

    probs: np.ndarray


@dataclass(frozen=True)
class NashCheckReport:
    passed: bool
    gains: np.ndarray  # per-agent best-response improvement
    eps: float


@dataclass(frozen=True)
class CeCheckReport:
    passed: bool
    max_violation: float
    violations: tuple  # (agent, recommended, alternative, violation)


def _stage_lps(a, senses, b, weights, what: str, bases) -> list:
    """x, the row multipliers and the final basis of max c @ x over one stage
    LP per c in weights. bases, a warm-start list its caller keeps, holds
    each LP's start basis once filled (every LP is cold while it is empty,
    or without one) and is left holding the bases the answers came from."""
    if bases and len(bases) != len(weights):
        raise SpecError(f"{len(bases)} warm-start bases for {len(weights)} LPs")
    solved = [_solve_standard(a, senses, b, c, what, start)
              for c, start in zip(weights, bases or [None] * len(weights))]
    if bases is not None:
        bases[:] = [basis for _, _, basis in solved]
    return solved


def stage_minimax(matrix, bases=None) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and maximin mixtures of a zero-sum stage game given the row
    player's payoff matrix. Used directly on Q-table slices by learners.

    With the matrix shifted strictly positive, max 1'q s.t. (A + k)q <= 1
    yields the column mixture as q scaled and the row mixture as the scaled
    dual multipliers; the shifted value is 1 / sum(q). bases is the value
    LP's warm-start list (see _stage_lps); learners keep one per state.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise SpecError("stage payoff matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(a)):
        raise SpecError("stage payoff matrix has non-finite entries")
    shift = 1.0 - a.min()
    ((q, row_duals, _),) = _stage_lps(a + shift, (LESS,) * a.shape[0], 1.0, [1.0],
                                      "value LP", bases)
    duals = np.where(row_duals > 0.0, row_duals, 0.0)  # clip -1e-11 drift
    total = float(q.sum())
    dual_total = float(duals.sum())
    if total <= 0.0 or dual_total <= 0.0:
        raise NumericalError("value LP returned a degenerate mixture")
    y = q / total
    x = duals / dual_total
    return 1.0 / total - shift, x, y


def minimax_solve(game: MatrixGame) -> MinimaxSolution:
    """Exact value and optimal mixtures of a two-player zero-sum game."""
    if game.num_agents != 2:
        raise SpecError("minimax_solve needs exactly two agents")
    if not game.zero_sum:
        raise SpecError("minimax_solve needs a zero-sum game")
    value, x, y = stage_minimax(game.payoffs[0])
    return MinimaxSolution(value=float(value), strategies=mixed_profile([x, y]))


def _own_action_values(
    game: MatrixGame, mixtures, agent: int
) -> np.ndarray:
    """Expected payoff of each of the agent's pure actions against the
    other agents' mixtures."""
    t = np.moveaxis(game.payoffs[agent], agent, 0)
    for other in range(game.num_agents):
        if other == agent:
            continue
        m = np.asarray(mixtures[other], dtype=float)
        # after moveaxis, the next non-own axis is always axis 1
        t = np.tensordot(t, m, axes=(1, 0))
    return t


def best_response(game: MatrixGame, profile: MixedProfile, agent: int) -> tuple[int, float]:
    """Best pure response against the others' mixtures; ties break toward
    the lowest action index."""
    if not 0 <= agent < game.num_agents:
        raise SpecError(f"agent {agent} out of range")
    values = _own_action_values(game, profile.mixtures, agent)
    idx = int(np.argmax(values))
    return idx, float(values[idx])


def epsilon_nash_check(game: MatrixGame, profile: MixedProfile, eps: float) -> NashCheckReport:
    """Per-agent unilateral improvement against the profile; passes iff the
    largest gain is at most eps."""
    if not 0.0 <= eps < np.inf:
        raise SpecError(f"eps must be finite and nonnegative, not {eps}")
    current = expected_payoff(game, profile)
    gains = np.empty(game.num_agents)
    for i in range(game.num_agents):
        _, br_value = best_response(game, profile, i)
        gains[i] = br_value - current[i]
    return NashCheckReport(passed=bool(gains.max() <= eps), gains=gains, eps=eps)


@functools.lru_cache(maxsize=32)
def _incentive_index(actions: tuple[int, ...]):
    """The CE incentive rows' labels (agent i, recommended a, alternative
    alt) and, per nonzero entry u_i[j] - u_i[swapped], its row, agent, j and
    swapped: j runs over the joint actions whose i-th digit is a, and
    swapped puts alt in that digit."""
    count = joint_count(actions)
    labels = tuple((i, a, alt) for i, k in enumerate(actions)
                   for a, alt in itertools.permutations(range(k), 2))
    agent, rec, alt = np.array(labels, dtype=np.int64).reshape(-1, 3).T
    digits = np.stack(np.unravel_index(np.arange(count), actions))
    rows, cols = np.nonzero(digits[agent] == rec[:, None])
    agents = agent[rows]
    swapped = cols + (alt - rec)[rows] * strides(actions)[agents]
    index = (rows, agents, cols, swapped)
    for arr in index:
        arr.setflags(write=False)
    return labels, index


def _incentive_rows(actions, payoffs) -> tuple[np.ndarray, tuple]:
    """Incentive rows and labels for payoffs stacked as (agents, joint)."""
    actions = tuple(int(k) for k in actions)
    labels, (rows, agents, cols, swapped) = _incentive_index(actions)
    inc = np.zeros((len(labels), joint_count(actions)))
    inc[rows, cols] = payoffs[agents, cols] - payoffs[agents, swapped]
    return inc, labels


def solve_ce_distribution(actions, payoffs_flat, objective: str, bases=None) -> np.ndarray:
    """Optimal correlated distribution over flat joint actions for raw payoff
    vectors. Shared by correlated_eq_solve and the correlated-Q learner.

    One LP over the distribution: incentive rows >= 0 and total mass 1.
    Utilitarian maximizes the summed payoffs, plutocratic each agent's in
    turn (the first best wins), and egalitarian a free floor z <= u_i'lambda.
    The rows and columns are in the order solve_lp would reduce them to.
    The answer breaks no incentive row by more than FEAS_TOL, or it raises.
    bases is a warm-start list (see _stage_lps) with an entry per LP solved,
    one per agent for plutocratic; correlated-Q keeps one per state."""
    actions = tuple(int(k) for k in actions)
    count = joint_count(actions)
    if count > MAX_JOINT_ACTIONS:
        raise SpecError(f"{count} joint actions exceed the cap {MAX_JOINT_ACTIONS}")
    if objective not in CE_OBJECTIVES:
        raise SpecError(f"unknown objective {objective!r}")
    u = np.asarray(payoffs_flat, dtype=float)
    inc, _ = _incentive_rows(actions, u)
    # standard form: each incentive row at rhs 0 negated into a <= row
    a = np.vstack([-inc, np.ones((1, count))])
    senses = (LESS,) * inc.shape[0] + (EQUAL,)
    b = np.append(np.zeros(inc.shape[0]), 1.0)
    if objective == EGALITARIAN:
        # the floor z = z+ - z- in two columns, -u_i'lambda + z <= 0
        ones = np.ones((u.shape[0], 1))
        a = np.block([[a, np.zeros((a.shape[0], 2))], [-u, ones, -ones]])
        senses += (LESS,) * u.shape[0]
        b = np.append(b, np.zeros(u.shape[0]))
        weights = [np.append(np.zeros(count), (1.0, -1.0))]
    elif objective == UTILITARIAN:
        weights = [np.sum(u, axis=0)]
    else:
        weights = list(u)
    solved = [x for x, _, _ in _stage_lps(a, senses, b, weights, "CE LP", bases)]
    lam = max(zip(weights, solved), key=lambda cx: cx[0] @ cx[1])[1][:count]
    lam = np.where(lam > 0.0, lam, 0.0)
    total = lam.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("CE LP returned a degenerate distribution")
    lam = lam / total
    if (inc @ lam).min(initial=0.0) < -FEAS_TOL:
        raise NumericalError(f"stage CE violates incentives by {-(inc @ lam).min():g}")
    return lam


def correlated_eq_solve(game: MatrixGame, objective: str = UTILITARIAN) -> CorrelatedPolicy:
    """Correlated equilibrium optimizing the requested welfare objective."""
    payoffs = [game.payoff_flat(i) for i in range(game.num_agents)]
    lam = solve_ce_distribution(game.actions, payoffs, objective)
    return CorrelatedPolicy(probs=lam)


def ce_violations(actions, payoffs_flat, lam) -> tuple[float, list]:
    """Worst incentive violation and the per-constraint breakdown."""
    inc, labels = _incentive_rows(actions, np.asarray(payoffs_flat, dtype=float))
    neg = -(inc @ np.asarray(lam, dtype=float))
    gaps = np.where(neg > 0.0, neg, 0.0)
    worst = float(gaps.max()) if gaps.size else 0.0
    return worst, [(*label, gap) for label, gap in zip(labels, gaps.tolist())]


def ce_check(game: MatrixGame, policy, eps: float) -> CeCheckReport:
    """Evaluate every correlated-equilibrium incentive constraint."""
    if not 0.0 <= eps < np.inf:
        raise SpecError(f"eps must be finite and nonnegative, not {eps}")
    lam = policy.probs if isinstance(policy, CorrelatedPolicy) else np.asarray(policy, float)
    if lam.size != game.joint_actions:
        raise SpecError("distribution length does not match the joint action count")
    payoffs = [game.payoff_flat(i) for i in range(game.num_agents)]
    worst, detail = ce_violations(game.actions, payoffs, lam)
    flagged = tuple(v for v in detail if v[3] > eps)
    return CeCheckReport(passed=worst <= eps, max_violation=worst, violations=flagged)


def support_enumeration_nash(game: MatrixGame) -> list[MixedProfile]:
    """All Nash equilibria of a small two-player game found by support
    enumeration (indifference systems filtered by best-response checks).
    Deduplicates at 1e-9 in the sup norm."""
    if game.num_agents != 2:
        raise SpecError("support enumeration covers two-player games only")
    k1, k2 = game.actions
    if max(k1, k2) > MAX_ENUM_ACTIONS:
        raise SpecError(f"support enumeration caps at {MAX_ENUM_ACTIONS} actions")
    a_mat, b_mat = game.payoffs
    found: list[tuple[np.ndarray, np.ndarray]] = []

    def supports(k):
        for size in range(1, k + 1):
            yield from itertools.combinations(range(k), size)

    def solve_indifference(payoff_cols: np.ndarray, own, other) -> np.ndarray | None:
        # unknowns: mixture over `own`, plus the opponent's common payoff
        rows = []
        rhs = []
        for j in other:
            row = np.zeros(len(own) + 1)
            row[: len(own)] = payoff_cols[np.ix_(own, [j])].ravel()
            row[-1] = -1.0
            rows.append(row)
            rhs.append(0.0)
        rows.append(np.concatenate([np.ones(len(own)), [0.0]]))
        rhs.append(1.0)
        m = np.stack(rows)
        r = np.asarray(rhs)
        sol, residual, rank, _ = np.linalg.lstsq(m, r, rcond=None)
        if not np.all(np.isfinite(sol)):
            return None
        if np.max(np.abs(m @ sol - r)) > 1e-9:
            return None
        mix = sol[:-1]
        if mix.min() < -1e-9:
            return None
        return np.where(mix > 0.0, mix, 0.0)

    for s1 in supports(k1):
        for s2 in supports(k2):
            x_part = solve_indifference(b_mat, s1, s2)
            if x_part is None:
                continue
            y_part = solve_indifference(a_mat.T, s2, s1)
            if y_part is None:
                continue
            x = np.zeros(k1)
            x[list(s1)] = x_part
            y = np.zeros(k2)
            y[list(s2)] = y_part
            x /= x.sum()
            y /= y.sum()
            profile = mixed_profile([x, y])
            report = epsilon_nash_check(game, profile, 1e-9)
            if not report.passed:
                continue
            if any(
                np.max(np.abs(x - px)) <= 1e-9 and np.max(np.abs(y - py)) <= 1e-9
                for px, py in found
            ):
                continue
            found.append((x, y))
    return [mixed_profile([x, y]) for x, y in found]
