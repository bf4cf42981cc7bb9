"""Opponent shaping on iterated 2x2 games with memory-one policies.

A policy is five logits for the probability of playing the first action
("cooperate"): one for the opening move and one per previous joint outcome
in the order (CC, CD, DC, DD), where the first letter is always player 1's
move. The discounted value of a policy pair is closed-form: with M the 4x4
outcome transition matrix and p0 the opening outcome distribution,

    V_i = p0' (I - gamma M)^{-1} r_i

as a raw discounted sum. Gradients are exact via forward sensitivities of
the linear solve; the LOLA cross term is differentiated by central finite
differences over the exact first-order gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NumericalError, SpecError
from .games import MatrixGame
from .output import write_csv

THETA_DIM = 5
LOGIT_LIMIT = 50.0
FD_STEP = 1e-6
LOLA = "lola"
NAIVE = "naive"


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
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise SpecError("alpha must be positive")
        if not np.isfinite(self.beta) or self.beta < 0:
            raise SpecError("beta must be nonnegative")
        if not 0.0 < self.gamma < 1.0:
            raise SpecError(f"gamma {self.gamma} outside (0, 1)")
        if self.steps < 0:
            raise SpecError("steps must be nonnegative")


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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _outcome_chain(theta1: np.ndarray, theta2: np.ndarray):
    """Opening distribution and transition matrix over the four outcomes."""
    p1 = _sigmoid(theta1)
    p2 = _sigmoid(theta2)

    def outcome_row(c1: float, c2: float) -> np.ndarray:
        return np.array(
            [c1 * c2, c1 * (1.0 - c2), (1.0 - c1) * c2, (1.0 - c1) * (1.0 - c2)]
        )

    p0 = outcome_row(p1[0], p2[0])
    m = np.stack([outcome_row(p1[s + 1], p2[s + 1]) for s in range(4)])
    return p0, m, p1, p2


def _stage_vectors(game: IteratedGame) -> tuple[np.ndarray, np.ndarray]:
    return game.stage.payoff_flat(0), game.stage.payoff_flat(1)


def exact_values(game: IteratedGame, p1: Memory1Policy, p2: Memory1Policy) -> tuple[float, float]:
    """Exact discounted values of the policy pair (no 1 - gamma scaling)."""
    p0, m, _, _ = _outcome_chain(p1.theta, p2.theta)
    r1, r2 = _stage_vectors(game)
    k = np.eye(4) - game.gamma * m
    try:
        z = np.linalg.solve(k, np.stack([r1, r2], axis=1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular outcome system: {exc}") from exc
    return float(p0 @ z[:, 0]), float(p0 @ z[:, 1])


def mean_cooperation(game: IteratedGame, p1: Memory1Policy, p2: Memory1Policy) -> tuple[float, float]:
    """Discounted-visitation cooperation rate of each player: the fraction
    of (geometrically weighted) rounds in which the player picks the first
    action."""
    p0, m, _, _ = _outcome_chain(p1.theta, p2.theta)
    k = np.eye(4) - game.gamma * m
    try:
        visits = np.linalg.solve(k.T, p0) * (1.0 - game.gamma)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular outcome system: {exc}") from exc
    return float(visits[0] + visits[1]), float(visits[0] + visits[2])


def value_gradients(game: IteratedGame, p1: Memory1Policy, p2: Memory1Policy):
    """Exact gradients (dV1/dtheta1, dV1/dtheta2, dV2/dtheta1, dV2/dtheta2).

    Only the opening logit moves p0 and only logit s+1 moves row s of M, so
    each derivative needs one inner product against the presolved systems
    z_i = K^{-1} r_i and w = K^{-T} p0 with K = I - gamma M.
    """
    theta1, theta2 = p1.theta, p2.theta
    p0, m, prob1, prob2 = _outcome_chain(theta1, theta2)
    r1, r2 = _stage_vectors(game)
    k = np.eye(4) - game.gamma * m
    try:
        z = np.linalg.solve(k, np.stack([r1, r2], axis=1))
        w = np.linalg.solve(k.T, p0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular outcome system: {exc}") from exc
    sig_grad1 = prob1 * (1.0 - prob1)
    sig_grad2 = prob2 * (1.0 - prob2)

    def own_direction(other_coop: float) -> np.ndarray:
        # d(outcome row)/d(own cooperation prob), own move listed first
        return np.array([other_coop, 1.0 - other_coop, -other_coop, -(1.0 - other_coop)])

    grads = np.zeros((2, 2, THETA_DIM))  # [value of agent, theta of agent, coord]
    for agent, (sig_grad, probs_other) in enumerate(
        ((sig_grad1, prob2), (sig_grad2, prob1))
    ):
        direction0 = own_direction(probs_other[0])
        if agent == 1:
            # player 2's move is the second letter: swap the CD/DC slots
            direction0 = direction0[[0, 2, 1, 3]]
        for value_of in range(2):
            grads[value_of, agent, 0] = sig_grad[0] * (direction0 @ z[:, value_of])
        for s in range(4):
            row_dir = own_direction(probs_other[s + 1])
            if agent == 1:
                row_dir = row_dir[[0, 2, 1, 3]]
            for value_of in range(2):
                grads[value_of, agent, s + 1] = (
                    game.gamma * sig_grad[s + 1] * w[s] * (row_dir @ z[:, value_of])
                )
    return grads[0, 0], grads[0, 1], grads[1, 0], grads[1, 1]


def _first_order(game, p1, p2):
    g11, _, _, g22 = value_gradients(game, p1, p2)
    return g11, g22


def lola_step(
    game: IteratedGame, p1: Memory1Policy, p2: Memory1Policy, config: LolaConfig
) -> tuple[Memory1Policy, Memory1Policy]:
    """Simultaneous update: gradient ascent plus beta times the gradient of
    the inner product of the two agents' first-order gradients. beta = 0
    follows exactly the naive arithmetic."""
    g11, g22 = _first_order(game, p1, p2)
    new1 = p1.theta + config.alpha * g11
    new2 = p2.theta + config.alpha * g22
    if config.beta != 0.0:

        def cross(theta1: np.ndarray, theta2: np.ndarray) -> float:
            a, b = _first_order(game, Memory1Policy(theta1), Memory1Policy(theta2))
            return float(a @ b)

        shape1 = np.empty(THETA_DIM)
        shape2 = np.empty(THETA_DIM)
        for idx in range(THETA_DIM):
            bump = np.zeros(THETA_DIM)
            bump[idx] = FD_STEP
            shape1[idx] = (
                cross(p1.theta + bump, p2.theta) - cross(p1.theta - bump, p2.theta)
            ) / (2.0 * FD_STEP)
            shape2[idx] = (
                cross(p1.theta, p2.theta + bump) - cross(p1.theta, p2.theta - bump)
            ) / (2.0 * FD_STEP)
        new1 = new1 + config.beta * shape1
        new2 = new2 + config.beta * shape2
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
