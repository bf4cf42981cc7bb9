"""Equilibrium computations on matrix games.

minimax_solve handles two-player zero-sum games through the value LP in its
normalized form: after shifting the payoff matrix to be strictly positive,
each player's optimal mixture is the scaled solution of a one-phase LP
(max 1'q subject to Aq <= 1, q >= 0). Correlated equilibria come from one
cached CE LP statement per action shape and welfare objective, its payoffs
written per solve through a cached incentive index, each answer checked
against the incentive rows of its own block; ce_violations reads the same
index. Both LPs are prepared once per shape as linprog Statements and solved by
linprog's simplex core directly, with solve_lp's answer bit for bit.
Vertex enumeration of the two best-response polytopes gives every extreme
Nash equilibrium of a small two-player game, degenerate or not.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SpecError
from .games import MatrixGame, MixedProfile, expected_payoff, joint_count, mixed_profile, strides
from .linprog import EQUAL, FEAS_TOL, LESS, Statement, _read_only, _solve_standard, _statement

UTILITARIAN = "utilitarian_sum"
EGALITARIAN = "egalitarian_min"
PLUTOCRATIC = "plutocratic_max"
CE_OBJECTIVES = (UTILITARIAN, EGALITARIAN, PLUTOCRATIC)

MAX_JOINT_ACTIONS = 4096
MAX_ENUM_ACTIONS = 4
_VERTEX_TOL = 1e-9  # label slack, and the |det| of a system dropped as singular


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


def _stage_lps(statement, columns, weights, what: str, bases) -> list:
    """x, the row multipliers and the final basis of max c @ x over statement
    filled in as columns, per c in weights. bases, a warm-start list its
    caller keeps, holds each LP's start basis once filled (every LP is cold
    while it is empty, or without one) and is left holding the bases the
    answers came from."""
    if bases and len(bases) != len(weights):
        raise SpecError(f"{len(bases)} warm-start bases for {len(weights)} LPs")
    solved = [_solve_standard(statement, columns, c, what, start)
              for c, start in zip(weights, bases or [None] * len(weights))]
    if bases is not None:
        bases[:] = [basis for _, _, basis in solved]
    return solved


@functools.lru_cache(maxsize=32)
def _value_statement(shape: tuple[int, int]) -> Statement:
    """The value LP's read-only Statement for a matrix shape: [0 | I], rhs 1."""
    statement = _statement(shape[1], (LESS,) * shape[0])
    statement.rhs[:] = 1.0
    _read_only(statement.columns, statement.rhs)
    return statement


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
    low = a.min()
    if not -np.inf < low <= a.max() < np.inf:  # NaN fails every comparison
        raise SpecError("stage payoff matrix has non-finite entries")
    shift = 1.0 - low
    statement = _value_statement(a.shape)
    columns = statement.columns.copy()
    np.add(a, shift, out=columns[:, :a.shape[1]])
    ((q, row_duals, _),) = _stage_lps(statement, columns, [1.0], "value LP", bases)
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
    return labels, _read_only(rows, agents, cols, swapped)


@functools.lru_cache(maxsize=32)
def _ce_statement(actions: tuple[int, ...], objective: str) -> Statement:
    """The CE LP's read-only Statement, payoff entries 0: the incentive rows
    negated into <= rows at rhs 0, the mass row == 1 and, for egalitarian,
    -u_i'lambda + z <= 0 per agent, the free floor z = z+ - z- in the two
    columns after the joint actions; the order is solve_lp's."""
    count, incentives = joint_count(actions), sum(k * (k - 1) for k in actions)
    floors = len(actions) if objective == EGALITARIAN else 0
    senses = (LESS,) * incentives + (EQUAL,) + (LESS,) * floors
    statement = _statement(count + 2 * bool(floors), senses)
    statement.columns[incentives, :count] = statement.rhs[incentives] = 1.0
    if floors:
        statement.columns[incentives + 1:, count:count + 2] = (1.0, -1.0)
    _read_only(statement.columns, statement.rhs)
    return statement


def solve_ce_distribution(actions, payoffs_flat, objective: str, bases=None) -> np.ndarray:
    """Optimal correlated distribution over flat joint actions for raw payoff
    vectors. Shared by correlated_eq_solve and the correlated-Q learner.

    One LP over the distribution (_ce_statement): incentive rows >= 0 and
    total mass 1. Utilitarian maximizes the summed payoffs, plutocratic each
    agent's in turn (the first best wins), and egalitarian a free floor
    z <= u_i'lambda. The answer breaks no incentive row by more than
    FEAS_TOL, or it raises.
    bases is a warm-start list (see _stage_lps) with an entry per LP solved,
    one per agent for plutocratic; correlated-Q keeps one per state."""
    actions = tuple(int(k) for k in actions)
    count = joint_count(actions)
    if count > MAX_JOINT_ACTIONS:
        raise SpecError(f"{count} joint actions exceed the cap {MAX_JOINT_ACTIONS}")
    if objective not in CE_OBJECTIVES:
        raise SpecError(f"unknown objective {objective!r}")
    u = np.asarray(payoffs_flat, dtype=float)
    statement = _ce_statement(actions, objective)
    columns = statement.columns.copy()
    _, (rows, agents, cols, swapped) = _incentive_index(actions)
    columns[rows, cols] = u[agents, swapped] - u[agents, cols]  # the negated incentive rows
    if objective == EGALITARIAN:
        np.negative(u, out=columns[-len(actions):, :count])
        weights = [np.append(np.zeros(count), (1.0, -1.0))]
    elif objective == UTILITARIAN:
        weights = [u.sum(axis=0)]
    else:
        weights = list(u)
    solved = [x for x, _, _ in _stage_lps(statement, columns, weights, "CE LP", bases)]
    lam = solved[0] if len(solved) == 1 else max(zip(weights, solved),
                                                  key=lambda cx: cx[0] @ cx[1])[1]
    lam = lam[:count]
    lam = np.where(lam > 0.0, lam, 0.0)
    total = lam.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("CE LP returned a degenerate distribution")
    lam = lam / total
    # the incentive rows of the block are negated: a breach is a positive entry
    breach = (columns[:statement.senses.index(EQUAL), :count] @ lam).max(initial=0.0)
    if breach > FEAS_TOL:
        raise NumericalError(f"stage CE violates incentives by {breach:g}")
    return lam


def correlated_eq_solve(game: MatrixGame, objective: str = UTILITARIAN) -> CorrelatedPolicy:
    """Correlated equilibrium optimizing the requested welfare objective."""
    payoffs = [game.payoff_flat(i) for i in range(game.num_agents)]
    lam = solve_ce_distribution(game.actions, payoffs, objective)
    return CorrelatedPolicy(probs=lam)


def ce_violations(actions, payoffs_flat, lam) -> tuple[float, list]:
    """Worst incentive violation and the per-constraint breakdown."""
    actions = tuple(int(k) for k in actions)
    labels, (rows, agents, cols, swapped) = _incentive_index(actions)
    u = np.asarray(payoffs_flat, dtype=float)
    inc = np.zeros((len(labels), joint_count(actions)))
    inc[rows, cols] = u[agents, cols] - u[agents, swapped]
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


def _vertices(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero vertices of {v >= 0 : m v <= 1} and their label masks, one
    vertex per label set. Label j < d says v_j = 0, label d + i that row i
    of m is tight; each d-subset of tight constraints is one solve."""
    k, d = m.shape
    g = np.vstack([-np.eye(d), m])
    h = np.append(np.zeros(d), np.ones(k))
    subsets = np.array(list(itertools.combinations(range(d + k), d)))
    systems = g[subsets]
    keep = np.abs(np.linalg.det(systems)) > _VERTEX_TOL
    v = np.linalg.solve(systems[keep], h[subsets[keep]][..., None])[..., 0]
    slack = h - v @ g.T
    ok = (slack.min(axis=1) >= -_VERTEX_TOL) & (v.sum(axis=1) > _VERTEX_TOL)
    labels, first = np.unique(np.abs(slack[ok]) <= _VERTEX_TOL, axis=0, return_index=True)
    return np.where(labels[:, :d], 0.0, v[ok][first]), labels


def support_enumeration_nash(game: MatrixGame) -> list[MixedProfile]:
    """Every extreme Nash equilibrium of a small two-player game,
    degenerate games included, by vertex enumeration of the best-response
    polytopes P = {x >= 0 : B'x <= 1} and Q = {y >= 0 : Ay <= 1}
    (von Stengel 2002). Each payoff matrix is first mapped affinely into
    [1, 2], so the 1e-9 label tolerance is the same at any payoff scale. A
    vertex pair whose labels cover every action is an equilibrium. The
    profiles come sorted by row support (size, then indices), then by
    column support; on a nondegenerate game that is support enumeration's
    order."""
    if game.num_agents != 2:
        raise SpecError("support enumeration covers two-player games only")
    k1, k2 = game.actions
    if max(k1, k2) > MAX_ENUM_ACTIONS:
        raise SpecError(f"support enumeration caps at {MAX_ENUM_ACTIONS} actions")
    # halved first, so that a payoff range near 2 * 1e308 does not overflow
    a_mat, b_mat = (1.0 + (h - h.min()) / max(np.ptp(h), np.finfo(float).tiny)
                    for h in (u / 2 for u in game.payoffs))
    xs, x_labels = _vertices(b_mat.T)
    ys, y_labels = _vertices(a_mat)
    y_labels = np.roll(y_labels, k1, axis=1)  # Q's labels: rows of A first
    complete = (x_labels[:, None, :] | y_labels[None, :, :]).all(axis=2)

    def support(v):
        idx = tuple(np.flatnonzero(v))
        return len(idx), idx

    pairs = sorted(zip(*np.nonzero(complete)),
                   key=lambda ij: (support(xs[ij[0]]), support(ys[ij[1]])))
    return [mixed_profile([xs[i] / xs[i].sum(), ys[j] / ys[j].sum()]) for i, j in pairs]
