"""Game representations: matrix games, stochastic games, and partially
observable stochastic games with deterministic observation maps.

Joint actions are indexed mixed-radix, row-major, agent 1 most significant,
matching ``np.ravel_multi_index`` with C order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GameFormatError, InconsistentObservationError, SpecError

PROB_TOL = 1e-12
ZERO_SUM_TOL = 1e-12


def _frozen(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise GameFormatError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class MatrixGame:
    """One-shot normal-form game. payoffs[i] has shape == actions."""

    actions: tuple[int, ...]
    payoffs: tuple[np.ndarray, ...]
    zero_sum: bool = False

    @property
    def num_agents(self) -> int:
        return len(self.actions)

    @property
    def joint_actions(self) -> int:
        return int(np.prod(self.actions))

    def payoff_flat(self, agent: int) -> np.ndarray:
        return self.payoffs[agent].reshape(-1)


@dataclass(frozen=True)
class StochasticGame:
    """Discounted stochastic game with tabular transition and reward tensors.

    transition has shape (states, joint_actions, states); rewards[i] has
    shape (states, joint_actions).
    """

    num_states: int
    actions: tuple[int, ...]
    transition: np.ndarray
    rewards: tuple[np.ndarray, ...]
    discount: float
    zero_sum: bool = False

    @property
    def num_agents(self) -> int:
        return len(self.actions)

    @property
    def joint_actions(self) -> int:
        return int(np.prod(self.actions))


@dataclass(frozen=True)
class PosgGame:
    """Stochastic game plus per-agent deterministic observation maps.

    obs_map[i, s] is the observation index agent i receives in state s.
    """

    base: StochasticGame
    observations: tuple[int, ...]
    obs_map: np.ndarray


@dataclass(frozen=True)
class MixedProfile:
    """One independent mixed strategy per agent."""

    mixtures: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class BeliefState:
    """Probability distribution over hidden states."""

    probs: np.ndarray


def _check_distribution(vec: np.ndarray, what: str, tol: float = PROB_TOL) -> None:
    if vec.ndim != 1 or vec.size == 0:
        raise GameFormatError(f"{what} must be a nonempty vector")
    _require_finite(vec, what)
    if vec.min() < -tol:
        raise GameFormatError(f"{what} has negative mass {vec.min():g}")
    if abs(vec.sum() - 1.0) > max(tol, 1e-12):
        raise GameFormatError(f"{what} sums to {vec.sum():.17g}, expected 1")


def mixed_profile(mixtures) -> MixedProfile:
    vecs = []
    for i, m in enumerate(mixtures):
        v = np.asarray(m, dtype=float)
        _check_distribution(v, f"mixture for agent {i}")
        vecs.append(_frozen(v))
    return MixedProfile(tuple(vecs))


def belief_state(probs) -> BeliefState:
    v = np.asarray(probs, dtype=float)
    _check_distribution(v, "belief")
    return BeliefState(_frozen(v))


def joint_index(actions: tuple[int, ...], joint: tuple[int, ...]) -> int:
    """Flat index of a joint action tuple (agent 1 most significant)."""
    if len(joint) != len(actions):
        raise SpecError("joint action arity does not match agent count")
    for i, (a, k) in enumerate(zip(joint, actions)):
        if not 0 <= a < k:
            raise SpecError(f"action {a} out of range for agent {i}")
    return int(np.ravel_multi_index(joint, actions))


def joint_tuple(actions: tuple[int, ...], index: int) -> tuple[int, ...]:
    """Inverse of joint_index."""
    if not 0 <= index < int(np.prod(actions)):
        raise SpecError(f"joint index {index} out of range")
    return tuple(int(v) for v in np.unravel_index(index, actions))


def _is_zero_sum(tensors) -> bool:
    """Two agents whose payoff or reward tensors cancel to ZERO_SUM_TOL."""
    return len(tensors) == 2 and bool(np.max(np.abs(tensors[0] + tensors[1])) <= ZERO_SUM_TOL)


def build_matrix_game(actions, payoff_entries) -> MatrixGame:
    """Assemble a matrix game from per-agent flat payoff vectors.

    payoff_entries[i] is interpreted in joint-action flat order.
    """
    actions = tuple(int(k) for k in actions)
    if len(actions) < 1:
        raise GameFormatError("a game needs at least one agent")
    for i, k in enumerate(actions):
        if k < 1:
            raise GameFormatError(f"agent {i} has {k} actions")
    count = int(np.prod(actions))
    if len(payoff_entries) != len(actions):
        raise GameFormatError(
            f"got payoffs for {len(payoff_entries)} agents, expected {len(actions)}"
        )
    tensors = []
    for i, entries in enumerate(payoff_entries):
        flat = np.asarray(entries, dtype=float).reshape(-1)
        if flat.size != count:
            raise GameFormatError(
                f"payoffs for agent {i} have {flat.size} entries, expected {count}"
            )
        _require_finite(flat, f"payoffs for agent {i}")
        tensors.append(_frozen(flat.reshape(actions)))
    return MatrixGame(actions=actions, payoffs=tuple(tensors), zero_sum=_is_zero_sum(tensors))


def make_stochastic_game(actions, transition, rewards, discount) -> StochasticGame:
    actions = tuple(int(k) for k in actions)
    count = int(np.prod(actions))
    p = np.asarray(transition, dtype=float)
    if p.ndim != 3 or p.shape[1] != count or p.shape[0] != p.shape[2]:
        raise GameFormatError(
            f"transition shape {p.shape} does not match (states, {count}, states)"
        )
    states = p.shape[0]
    _require_finite(p, "transition")
    if p.min() < 0.0:
        raise GameFormatError("transition has negative probabilities")
    sums = p.sum(axis=2)
    bad = np.argwhere(np.abs(sums - 1.0) > PROB_TOL)
    if bad.size:
        s, a = (int(v) for v in bad[0])
        raise GameFormatError(
            f"transition row (state {s}, joint action {a}) sums to {sums[s, a]:.17g}"
        )
    if not 0.0 < discount < 1.0:
        raise GameFormatError(f"discount {discount} outside (0, 1)")
    tensors = []
    for i, r in enumerate(rewards):
        arr = np.asarray(r, dtype=float)
        if arr.shape != (states, count):
            raise GameFormatError(
                f"rewards for agent {i} have shape {arr.shape}, expected {(states, count)}"
            )
        _require_finite(arr, f"rewards for agent {i}")
        tensors.append(_frozen(arr))
    if len(tensors) != len(actions):
        raise GameFormatError(
            f"got rewards for {len(tensors)} agents, expected {len(actions)}"
        )
    return StochasticGame(
        num_states=states,
        actions=actions,
        transition=_frozen(p),
        rewards=tuple(tensors),
        discount=float(discount),
        zero_sum=_is_zero_sum(tensors),
    )


def make_posg(base: StochasticGame, obs_map, observations=None) -> PosgGame:
    m = np.asarray(obs_map, dtype=int)
    if m.shape != (base.num_agents, base.num_states):
        raise GameFormatError(
            f"obs map shape {m.shape}, expected {(base.num_agents, base.num_states)}"
        )
    if m.min() < 0:
        raise GameFormatError("observation indices must be nonnegative")
    if observations is None:
        observations = tuple(int(m[i].max()) + 1 for i in range(base.num_agents))
    observations = tuple(int(v) for v in observations)
    for i, count in enumerate(observations):
        if count < 1 or m[i].max() >= count:
            raise GameFormatError(f"obs map for agent {i} exceeds its observation count")
    return PosgGame(base=base, observations=observations, obs_map=_frozen(m, int))


# --- canonical 2x2 / 3x3 games -------------------------------------------

def classic_game(name: str) -> MatrixGame:
    """Fixed textbook games with pinned payoff conventions."""
    if name == "matching_pennies":
        u1 = [1.0, -1.0, -1.0, 1.0]
        return build_matrix_game((2, 2), [u1, [-v for v in u1]])
    if name == "rps":
        # action order (rock, paper, scissors); winner gets +1
        u1 = [0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0]
        return build_matrix_game((3, 3), [u1, [-v for v in u1]])
    if name == "prisoners_dilemma":
        # action order (cooperate, defect); (R, S, T, P) = (3, 0, 5, 1)
        u1 = [3.0, 0.0, 5.0, 1.0]
        u2 = [3.0, 5.0, 0.0, 1.0]
        return build_matrix_game((2, 2), [u1, u2])
    if name == "chicken":
        u1 = [6.0, 2.0, 7.0, 0.0]
        u2 = [6.0, 7.0, 2.0, 0.0]
        return build_matrix_game((2, 2), [u1, u2])
    raise GameFormatError(f"unknown classic game '{name}'")


CLASSIC_NAMES = ("matching_pennies", "rps", "prisoners_dilemma", "chicken")


def expected_payoff(game: MatrixGame, profile: MixedProfile) -> np.ndarray:
    """Expected payoff of each agent under an independent mixed profile."""
    if len(profile.mixtures) != game.num_agents:
        raise SpecError("profile arity does not match agent count")
    for i, m in enumerate(profile.mixtures):
        if m.size != game.actions[i]:
            raise SpecError(f"mixture for agent {i} has wrong length")
    out = np.empty(game.num_agents)
    for i in range(game.num_agents):
        t = game.payoffs[i]
        for m in profile.mixtures:
            t = np.tensordot(m, t, axes=(0, 0))
        out[i] = float(t)
    return out


def belief_update(
    game: PosgGame,
    prior: BeliefState,
    action,
    observation: int,
    agent: int,
) -> BeliefState:
    """Exact Bayes filter: predict through the transition kernel conditioned
    on the full joint action, then condition on the agent's observation."""
    base = game.base
    if not 0 <= agent < base.num_agents:
        raise SpecError(f"agent {agent} out of range")
    if prior.probs.size != base.num_states:
        raise SpecError("belief length does not match state count")
    if isinstance(action, (tuple, list)):
        a = joint_index(base.actions, tuple(action))
    else:
        a = int(action)
        if not 0 <= a < base.joint_actions:
            raise SpecError(f"joint action {a} out of range")
    if not 0 <= observation < game.observations[agent]:
        raise SpecError(f"observation {observation} out of range for agent {agent}")
    predicted = prior.probs @ base.transition[:, a, :]
    masked = np.where(game.obs_map[agent] == observation, predicted, 0.0)
    total = masked.sum()
    if total <= 0.0:
        raise InconsistentObservationError(
            f"observation {observation} has zero mass under the prior"
        )
    return BeliefState(_frozen(masked / total))


def random_game(
    seed: int,
    actions,
    zero_sum: bool = False,
    num_states: int | None = None,
    discount: float = 0.9,
):
    """Seeded random game. Payoffs are uniform on [-1, 1]; transition rows
    are normalized uniform draws. zero_sum requires exactly two agents."""
    actions = tuple(int(k) for k in actions)
    if zero_sum and len(actions) != 2:
        raise GameFormatError("zero_sum games need exactly two agents")
    rng = np.random.default_rng(seed)
    count = int(np.prod(actions))
    if num_states is None:
        payoffs = [rng.uniform(-1.0, 1.0, size=count) for _ in range(len(actions))]
        if zero_sum:
            payoffs[1] = -payoffs[0]
        return build_matrix_game(actions, payoffs)
    if num_states < 1:
        raise GameFormatError(f"num_states {num_states} must be positive")
    raw = rng.uniform(0.0, 1.0, size=(num_states, count, num_states))
    transition = raw / raw.sum(axis=2, keepdims=True)
    rewards = [
        rng.uniform(-1.0, 1.0, size=(num_states, count)) for _ in range(len(actions))
    ]
    if zero_sum:
        rewards[1] = -rewards[0]
    return make_stochastic_game(actions, transition, rewards, discount)


# --- JSON serialization ----------------------------------------------------

def game_to_dict(game) -> dict:
    if isinstance(game, MatrixGame):
        return {
            "type": "matrix",
            "agents": game.num_agents,
            "actions": list(game.actions),
            "payoffs": [game.payoff_flat(i).tolist() for i in range(game.num_agents)],
        }
    if isinstance(game, PosgGame):
        doc = game_to_dict(game.base)
        doc["type"] = "posg"
        doc["obs"] = game.obs_map.tolist()
        doc["observations"] = list(game.observations)
        return doc
    if isinstance(game, StochasticGame):
        return {
            "type": "stochastic",
            "agents": game.num_agents,
            "actions": list(game.actions),
            "states": game.num_states,
            "payoffs": [r.tolist() for r in game.rewards],
            "transition": game.transition.tolist(),
            "discount": game.discount,
        }
    raise SpecError(f"cannot serialize {type(game).__name__}")


def save_game(game, path) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game), indent=2) + "\n")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_game_dict(doc) -> list[str]:
    """Run every structural invariant over a parsed game document.

    Returns a list of human-readable violations, empty iff the document is a
    valid game. Checks stop early only when later ones would be meaningless.
    """
    out: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    kind = doc.get("type")
    if kind not in ("matrix", "stochastic", "posg"):
        return [f"type {kind!r} is not one of matrix/stochastic/posg"]
    actions = doc.get("actions")
    if not isinstance(actions, list) or not actions:
        return ["actions must be a nonempty list of per-agent action counts"]
    for i, k in enumerate(actions):
        if not isinstance(k, int) or k < 1:
            return [f"actions[{i}] = {k!r} is not a positive integer"]
    n = len(actions)
    if "agents" in doc and doc["agents"] != n:
        out.append(f"agents = {doc['agents']} but actions lists {n} agents")
    count = int(np.prod(actions))
    payoffs = doc.get("payoffs")
    if not isinstance(payoffs, list) or len(payoffs) != n:
        out.append(f"payoffs must list one tensor per agent ({n})")
        return out

    def check_flat(vec, label):
        if not isinstance(vec, list) or len(vec) != count:
            out.append(f"{label} has {len(vec) if isinstance(vec, list) else '??'} "
                       f"entries, expected {count}")
            return False
        for j, v in enumerate(vec):
            if not _is_number(v) or not np.isfinite(v):
                out.append(f"{label}[{j}] = {v!r} is not a finite number")
                return False
        return True

    if kind == "matrix":
        for i in range(n):
            check_flat(payoffs[i], f"payoffs[{i}]")
        return out

    states = doc.get("states")
    if not isinstance(states, int) or states < 1:
        out.append(f"states = {states!r} is not a positive integer")
        return out
    discount = doc.get("discount")
    if not _is_number(discount) or not 0.0 < discount < 1.0:
        out.append(f"discount {discount!r} outside (0, 1)")
    for i in range(n):
        tensor = payoffs[i]
        if not isinstance(tensor, list) or len(tensor) != states:
            out.append(f"payoffs[{i}] must list {states} per-state rows")
            continue
        for s in range(states):
            check_flat(tensor[s], f"payoffs[{i}][{s}]")
    transition = doc.get("transition")
    if not isinstance(transition, list) or len(transition) != states:
        out.append(f"transition must list {states} per-state blocks")
        return out
    for s in range(states):
        block = transition[s]
        if not isinstance(block, list) or len(block) != count:
            out.append(f"transition[{s}] must list {count} joint-action rows")
            continue
        for a in range(count):
            row = block[a]
            if not isinstance(row, list) or len(row) != states:
                out.append(f"transition[{s}][{a}] must list {states} probabilities")
                continue
            bad = False
            for j, v in enumerate(row):
                if not _is_number(v) or not np.isfinite(v) or v < 0:
                    out.append(
                        f"transition[{s}][{a}][{j}] = {v!r} is not a probability"
                    )
                    bad = True
                    break
            if not bad and abs(sum(row) - 1.0) > PROB_TOL:
                out.append(
                    f"transition[{s}][{a}] sums to {sum(row):.17g}, expected 1"
                )
    if kind == "posg":
        obs = doc.get("obs")
        if not isinstance(obs, list) or len(obs) != n:
            out.append(f"obs must list one observation map per agent ({n})")
            return out
        for i in range(n):
            row = obs[i]
            if not isinstance(row, list) or len(row) != states:
                out.append(f"obs[{i}] must list {states} observation indices")
                continue
            for s, v in enumerate(row):
                if not isinstance(v, int) or v < 0:
                    out.append(f"obs[{i}][{s}] = {v!r} is not a valid index")
        counts = doc.get("observations")
        if counts is not None:
            if not isinstance(counts, list) or len(counts) != n:
                out.append(f"observations must list {n} counts")
            else:
                for i, c in enumerate(counts):
                    if not isinstance(c, int) or c < 1:
                        out.append(f"observations[{i}] = {c!r} invalid")
                    elif isinstance(obs[i], list) and obs[i] and max(obs[i]) >= c:
                        out.append(
                            f"obs[{i}] uses index {max(obs[i])} >= observations[{i}]"
                        )
    return out


def game_from_dict(doc):
    violations = check_game_dict(doc)
    if violations:
        raise GameFormatError(violations[0])
    actions = tuple(doc["actions"])
    if doc["type"] == "matrix":
        return build_matrix_game(actions, doc["payoffs"])
    base = make_stochastic_game(
        actions, doc["transition"], doc["payoffs"], doc["discount"]
    )
    if doc["type"] == "stochastic":
        return base
    return make_posg(base, doc["obs"], doc.get("observations"))


def load_game(path):
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"invalid JSON in {path}: {exc}") from exc
    return game_from_dict(doc)
