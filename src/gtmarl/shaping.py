"""Opponent shaping on iterated 2x2 games with memory-one policies.

A policy is five logits for the probability of playing the first action
("cooperate"): one for the opening move and one per previous joint outcome
in the order (CC, CD, DC, DD), where the first letter is always player 1's
move. The discounted value of a policy pair is closed-form: with M the 4x4
outcome transition matrix and p0 the opening outcome distribution,

    V_i = p0' (I - gamma M)^{-1} r_i

as a raw discounted sum. Each logit moves p0 or one row of M by a rank-one
change, so one inverse of I - gamma M gives every per-logit sensitivity:
the exact gradients, and the two value Hessians from which the LOLA cross
term is differentiated exactly, both follow from it in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NumericalError, SpecError, check_recorded
from .games import MatrixGame
from .output import write_csv

THETA_DIM = 5
LOGIT_LIMIT = 50.0
LOLA = "lola"
NAIVE = "naive"

# Over the ten logits (theta1, theta2), d(outcome row)/d(own cooperation
# prob) is _DIR_BASE + (the other player's cooperation prob) * _JOINT_DIR,
# and _JOINT_DIR is d^2(outcome row)/dc1 dc2.
_OPENING = [0, THETA_DIM]
_ROW_SELECT = np.hstack([np.zeros((4, 1)), np.eye(4)] * 2)
_DIR_BASE = np.repeat([[0.0, 1.0, 0.0, -1.0], [0.0, 0.0, 1.0, -1.0]], THETA_DIM, axis=0)
_JOINT_DIR = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass(frozen=True)
class Memory1Policy:
    theta: np.ndarray  # (initial, CC, CD, DC, DD) cooperation logits


@dataclass(frozen=True)
class IteratedGame:
    stage: MatrixGame
    gamma: float


@dataclass(frozen=True)
class LolaConfig:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.96
    steps: int = 500
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise SpecError(f"alpha {self.alpha} must be finite and positive")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise SpecError(f"beta {self.beta} must be finite and nonnegative")
        if not 0.0 < self.gamma < 1.0:
            raise SpecError(f"gamma {self.gamma} outside (0, 1)")
        for name in ("steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise SpecError(f"{name} {value!r} must be an integer >= 0")
        # both logit rows and both values at every step and at the start
        check_recorded((self.steps + 1) * (2 * THETA_DIM + 2), steps=self.steps)


@dataclass(frozen=True)
class ShapingTrajectory:
    thetas1: np.ndarray  # (steps + 1, 5)
    thetas2: np.ndarray
    values: np.ndarray   # (steps + 1, 2)


def memory1_policy(theta) -> Memory1Policy:
    v = np.asarray(theta, dtype=float)
    if v.shape != (THETA_DIM,):
        raise SpecError(f"theta must have {THETA_DIM} entries")
    if not np.all(np.isfinite(v)):
        raise SpecError("theta has non-finite entries")
    v = v.copy()
    v.setflags(write=False)
    return Memory1Policy(v)


def iterated_game(stage: MatrixGame, gamma: float) -> IteratedGame:
    if stage.num_agents != 2 or stage.actions != (2, 2):
        raise SpecError("iterated play is defined over 2x2 stage games")
    if not 0.0 < gamma < 1.0:
        raise SpecError(f"gamma {gamma} outside (0, 1)")
    return IteratedGame(stage=stage, gamma=gamma)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _outcome_chain(theta1: np.ndarray, theta2: np.ndarray):
    """Opening distribution and transition matrix over the four outcomes."""
    p1 = _sigmoid(theta1)
    p2 = _sigmoid(theta2)
    # row j is (c1 c2, c1 (1 - c2), (1 - c1) c2, (1 - c1)(1 - c2)) at index j
    rows = np.array([p1, 1.0 - p1]).T[:, :, None] * np.array([p2, 1.0 - p2]).T[:, None, :]
    rows = rows.reshape(THETA_DIM, 4)
    return rows[0], rows[1:], p1, p2


def _solve_outcome(k: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """K^{-1} rhs for the outcome system K = I - gamma M or its transpose."""
    try:
        return np.linalg.solve(k, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular outcome system: {exc}") from exc


def _stage_vectors(game: IteratedGame) -> tuple[np.ndarray, np.ndarray]:
    return game.stage.payoff_flat(0), game.stage.payoff_flat(1)


def exact_values(game: IteratedGame, p1: Memory1Policy, p2: Memory1Policy) -> tuple[float, float]:
    """Exact discounted values of the policy pair (no 1 - gamma scaling)."""
    p0, m, _, _ = _outcome_chain(p1.theta, p2.theta)
    r1, r2 = _stage_vectors(game)
    z = _solve_outcome(np.eye(4) - game.gamma * m, np.stack([r1, r2], axis=1))
    return float(p0 @ z[:, 0]), float(p0 @ z[:, 1])


def mean_cooperation(game: IteratedGame, p1: Memory1Policy, p2: Memory1Policy) -> tuple[float, float]:
    """Discounted-visitation cooperation rate of each player: the fraction
    of (geometrically weighted) rounds in which the player picks the first
    action."""
    p0, m, _, _ = _outcome_chain(p1.theta, p2.theta)
    k = np.eye(4) - game.gamma * m
    visits = _solve_outcome(k.T, p0) * (1.0 - game.gamma)
    return float(visits[0] + visits[1]), float(visits[0] + visits[2])


def _outcome_terms(game: IteratedGame, theta1: np.ndarray, theta2: np.ndarray):
    """The per-logit terms over the ten logits (theta1, theta2), from one
    solve of K = I - gamma M. Logit x moves one outcome row, p0 or row s of
    M, along q_x = sigma'(theta_x) dirs[x], so dV_i/dx = omega_x (q_x . z_i)
    with z_i = K^{-1} r_i, and omega_x = 1 for an opening logit and gamma w[s]
    (w = K^{-T} p0) for a row logit. Returns (k_inv: K^{-1} e_s in the column
    of each row logit and 0 in an opening logit's, z, omega, the cooperation
    probabilities, dirs, sigma')."""
    p0, m, prob1, prob2 = _outcome_chain(theta1, theta2)
    k_inv = _solve_outcome(np.eye(4) - game.gamma * m, _ROW_SELECT)
    z = k_inv[:, 1:THETA_DIM] @ np.array(_stage_vectors(game)).T
    weight = game.gamma * (p0 @ k_inv)
    weight[_OPENING] = 1.0
    probs = np.concatenate([prob1, prob2])
    dirs = _DIR_BASE + np.concatenate([prob2, prob1])[:, None] * _JOINT_DIR
    slope = probs * (1.0 - probs)
    return k_inv, z, weight, probs, dirs, slope


def value_gradients(game: IteratedGame, p1: Memory1Policy, p2: Memory1Policy):
    """Exact gradients (dV1/dtheta1, dV1/dtheta2, dV2/dtheta1, dV2/dtheta2):
    dV_i/dx = omega_x sigma'(theta_x) (dirs[x] . z_i) of _outcome_terms, for
    all ten logits in one product."""
    _, z, weight, _, dirs, slope = _outcome_terms(game, p1.theta, p2.theta)
    grads = (weight * slope)[:, None] * (dirs @ z)  # [logit, value of agent]
    return tuple(grads.T.reshape(4, THETA_DIM))


def _value_hessians(game: IteratedGame, theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """Exact Hessians of (V1, V2) over the ten logits (theta1, theta2),
    shape (2, 10, 10): dV_i/dx = omega_x (q_x . z_i) of _outcome_terms,
    differentiated once more:
    - omega_y moves with dw/dx = omega_x K^{-T} q_x, and z_i moves by the
      same rank-one change, which gives the transpose of that part;
    - q_y moves with its own logit (sigma'') and with the other player's
      logit at the same index (the c1 c2 cross term of the outcome row).
    """
    k_inv, z, weight, probs, dirs, slope = _outcome_terms(game, theta1, theta2)
    q = slope[:, None] * dirs
    part = (game.gamma * weight[:, None] * (q @ k_inv)) * (q @ z).T[:, None, :]
    hess = part + part.transpose(0, 2, 1)
    n = 2 * THETA_DIM
    flat = hess.reshape(2, n * n)  # entry (x, y) at x * n + y
    flat[:, ::n + 1] += (weight * slope * (1.0 - 2.0 * probs)) * (dirs @ z).T
    cross = (_JOINT_DIR @ z)[:, None] * (weight * slope)[:THETA_DIM] * slope[THETA_DIM:]
    flat[:, THETA_DIM:n * THETA_DIM:n + 1] += cross  # (j, 5 + j)
    flat[:, n * THETA_DIM::n + 1] += cross  # (5 + j, j)
    return hess


def lola_step(
    game: IteratedGame, p1: Memory1Policy, p2: Memory1Policy, config: LolaConfig
) -> tuple[Memory1Policy, Memory1Policy]:
    """Simultaneous update: gradient ascent plus beta times the gradient of
    the inner product of the two agents' first-order gradients, taken over
    both agents' logits from the exact value Hessians. beta = 0 follows
    exactly the naive arithmetic."""
    g11, _, _, g22 = value_gradients(game, p1, p2)
    new1 = p1.theta + config.alpha * g11
    new2 = p2.theta + config.alpha * g22
    if config.beta != 0.0:
        hess = _value_hessians(game, p1.theta, p2.theta)
        shape = hess[0, :THETA_DIM].T @ g22 + hess[1, THETA_DIM:].T @ g11
        new1 = new1 + config.beta * shape[:THETA_DIM]
        new2 = new2 + config.beta * shape[THETA_DIM:]
    return memory1_policy(new1), memory1_policy(new2)


def naive_step(
    game: IteratedGame, p1: Memory1Policy, p2: Memory1Policy, alpha: float
) -> tuple[Memory1Policy, Memory1Policy]:
    """Plain simultaneous gradient ascent on each agent's own value."""
    cfg = LolaConfig(alpha=alpha, beta=0.0, gamma=game.gamma, steps=0, seed=0)
    return lola_step(game, p1, p2, cfg)


def train_shapers(
    game: IteratedGame, config: LolaConfig, learner: str = LOLA
) -> ShapingTrajectory:
    """Train both policies from standard-normal initial logits. Aborts with
    the step index if any logit leaves [-50, 50]."""
    if learner not in (LOLA, NAIVE):
        raise SpecError(f"unknown learner {learner!r}")
    if abs(game.gamma - config.gamma) > 1e-12:
        raise SpecError("config.gamma must match the game's discount")
    rng = np.random.default_rng(config.seed)
    p1 = memory1_policy(rng.standard_normal(THETA_DIM))
    p2 = memory1_policy(rng.standard_normal(THETA_DIM))
    thetas1 = np.empty((config.steps + 1, THETA_DIM))
    thetas2 = np.empty((config.steps + 1, THETA_DIM))
    values = np.empty((config.steps + 1, 2))
    thetas1[0], thetas2[0] = p1.theta, p2.theta
    values[0] = exact_values(game, p1, p2)
    for step in range(1, config.steps + 1):
        if learner == LOLA:
            p1, p2 = lola_step(game, p1, p2, config)
        else:
            p1, p2 = naive_step(game, p1, p2, config.alpha)
        if max(np.max(np.abs(p1.theta)), np.max(np.abs(p2.theta))) > LOGIT_LIMIT:
            raise DivergenceError(step, "policy logits left the trusted range")
        thetas1[step], thetas2[step] = p1.theta, p2.theta
        values[step] = exact_values(game, p1, p2)
    return ShapingTrajectory(thetas1=thetas1, thetas2=thetas2, values=values)


def write_shaping_csv(path, trajectory: ShapingTrajectory) -> None:
    """Columns: step, both values, then both agents' cooperation probabilities."""
    header = (
        ["step", "value_1", "value_2"]
        + [f"p1_coop_{tag}" for tag in ("init", "cc", "cd", "dc", "dd")]
        + [f"p2_coop_{tag}" for tag in ("init", "cc", "cd", "dc", "dd")]
    )
    probs1 = _sigmoid(trajectory.thetas1)
    probs2 = _sigmoid(trajectory.thetas2)
    rows = (
        [t, *trajectory.values[t], *probs1[t], *probs2[t]]
        for t in range(trajectory.values.shape[0])
    )
    write_csv(path, header, rows)
