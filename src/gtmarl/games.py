"""Game representations: matrix games, stochastic games, and partially
observable stochastic games with deterministic observation maps.

Joint actions are indexed mixed-radix, row-major, agent 1 most significant,
matching ``np.ravel_multi_index`` with C order.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GameFormatError, InconsistentObservationError, SpecError

PROB_TOL = 1e-12
ZERO_SUM_TOL = 1e-12
MAX_RANDOM_ENTRIES = 10**7  # payoff and transition entries one random_game may draw


def _frozen(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


class _ActionCounts:
    """Agent and joint-action counts of a game with per-agent ``actions``."""

    @property
    def num_agents(self) -> int:
        return len(self.actions)

    @property
    def joint_actions(self) -> int:
        return joint_count(self.actions)


@dataclass(frozen=True)
class MatrixGame(_ActionCounts):
    """One-shot normal-form game. payoffs[i] has shape == actions."""

    actions: tuple[int, ...]
    payoffs: tuple[np.ndarray, ...]
    zero_sum: bool = False

    def payoff_flat(self, agent: int) -> np.ndarray:
        return self.payoffs[agent].reshape(-1)


@dataclass(frozen=True)
class StochasticGame(_ActionCounts):
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


@dataclass(frozen=True)
class PosgGame:
    """Stochastic game plus per-agent deterministic observation maps.

    obs_map[i, s] is the observation index agent i receives in state s.
    """

    base: StochasticGame
    observations: tuple[int, ...]
    obs_map: np.ndarray


GAME_KINDS = {"matrix": MatrixGame, "stochastic": StochasticGame}


def require_kind(game, kind: str):
    """The game, if it is of the named GAME_KINDS kind."""
    if not isinstance(game, GAME_KINDS[kind]):
        raise SpecError(f"a {kind} game is required")
    return game


@dataclass(frozen=True)
class MixedProfile:
    """One independent mixed strategy per agent."""

    mixtures: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class BeliefState:
    """Probability distribution over hidden states."""

    probs: np.ndarray


def _distribution(values, what: str) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise GameFormatError(f"{what} must be a nonempty vector")
    _raise_first(_nonfinite(what, vec))
    if vec.min() < -PROB_TOL:
        raise GameFormatError(f"{what} has negative mass {vec.min():g}")
    with np.errstate(over="ignore"):  # finite entries may still sum to inf
        total = vec.sum()
    if abs(total - 1.0) > PROB_TOL:
        raise GameFormatError(f"{what} sums to {total:.17g}, expected 1")
    return _frozen(vec)


def mixed_profile(mixtures) -> MixedProfile:
    return MixedProfile(tuple(_distribution(m, f"mixtures[{i}]") for i, m in enumerate(mixtures)))


def belief_state(probs) -> BeliefState:
    return BeliefState(_distribution(probs, "belief"))


def joint_count(actions) -> int:
    """Exact number of joint actions: the product of the action counts."""
    return math.prod(actions)


def strides(actions) -> np.ndarray:
    """Place value of each agent's action in the flat joint index, so that
    joint_index(actions, joint) == joint @ strides(actions)."""
    return np.array([math.prod(actions[i + 1:]) for i in range(len(actions))], dtype=int)


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
    if not 0 <= index < joint_count(actions):
        raise SpecError(f"joint index {index} out of range")
    return tuple(int(v) for v in np.unravel_index(index, actions))


def _is_zero_sum(tensors) -> bool:
    """Two agents whose payoff or reward tensors cancel to ZERO_SUM_TOL; a
    sum that overflows to inf does not cancel."""
    with np.errstate(over="ignore"):
        return len(tensors) == 2 and bool(np.max(np.abs(tensors[0] + tensors[1])) <= ZERO_SUM_TOL)


def _at(path: str, index) -> str:
    return path + "".join(f"[{int(j)}]" for j in index)


def _where(mask: np.ndarray):
    """np.argwhere(mask), skipped when no entry is set (the common case)."""
    return np.argwhere(mask) if mask.any() else ()


def _nonfinite(path: str, arr: np.ndarray) -> list[str]:
    return [
        f"{_at(path, j)} = {float(arr[tuple(j)])!r} is not a finite number"
        for j in _where(~np.isfinite(arr))
    ]


def _raise_first(violations: list[str]) -> None:
    if violations:
        raise GameFormatError(violations[0])


def _game_violations(actions, payoffs=None, states=None, **fields) -> list[str]:
    """Every invariant of a game over its arrays, each naming its field by
    the JSON path of ``game_to_dict``.

    payoffs holds one array per agent: flat over joint actions for a matrix
    game (states None), (states, joint actions) for a stochastic game. The
    fields are transition (states, joint actions, states), discount, obs
    (agents, states) and observations (agents,); a field left out or None
    is not part of the game or was already reported malformed.
    """
    if not actions:
        return ["actions must be a nonempty list of per-agent action counts"]
    out = [f"actions[{i}] = {k} is not a positive integer" for i, k in enumerate(actions) if k < 1]
    if states is not None and states < 1:
        out.append(f"states = {states} is not a positive integer")
    if out:
        return out
    n, count = len(actions), joint_count(actions)
    shapes = {"transition": (states, count, states), "discount": (), "obs": (n, states),
              "observations": (n,)}
    if payoffs is not None and len(payoffs) != n:
        out.append(f"payoffs must list one tensor per agent ({n})")
    elif payoffs is not None:
        for i, tensor in enumerate(payoffs):
            fields[f"payoffs[{i}]"] = tensor
            shapes[f"payoffs[{i}]"] = (count,) if states is None else (states, count)
    ok = {}
    for path, value in fields.items():
        if value is None:
            continue
        arr = np.asarray(value)
        bad = _nonfinite(path, arr) if arr.shape == shapes[path] else [
            f"{path} has shape {arr.shape}, expected {shapes[path]}"]
        out += bad
        if not bad:
            ok[path] = arr
    d, p, m, c = (ok.get(key) for key in ("discount", "transition", "obs", "observations"))
    if d is not None and not 0.0 < d < 1.0:
        out.append(f"discount {float(d)!r} outside (0, 1)")
    if p is not None:
        out += [f"{_at('transition', j)} = {float(p[tuple(j)])!r} is negative"
                for j in _where(p < 0.0)]
        sums = p.sum(axis=2)
        out += [f"transition[{s}][{a}] sums to {sums[s, a]:.17g}, expected 1 "
                f"(state {s}, joint action {a})"
                for s, a in _where(np.abs(sums - 1.0) > PROB_TOL)]
    if c is not None:
        out += [f"observations[{i}] = {c[i]} is not a positive integer"
                for (i,) in _where(c < 1)]
    if m is not None:
        out += [f"{_at('obs', j)} = {m[tuple(j)]} is not a valid index" for j in _where(m < 0)]
    if m is not None and c is not None:
        out += [f"{_at('obs', j)} = {m[tuple(j)]} is not below observations[{j[0]}]"
                for j in _where(m >= c[:, None])]
    return out


def build_matrix_game(actions, payoff_entries) -> MatrixGame:
    """Assemble a matrix game from per-agent flat payoff vectors.

    payoff_entries[i] is interpreted in joint-action flat order.
    """
    actions = tuple(int(k) for k in actions)
    flat = [np.asarray(entries, dtype=float).reshape(-1) for entries in payoff_entries]
    _raise_first(_game_violations(actions, flat))
    tensors = [_frozen(f.reshape(actions)) for f in flat]
    return MatrixGame(actions=actions, payoffs=tuple(tensors), zero_sum=_is_zero_sum(tensors))


def make_stochastic_game(actions, transition, rewards, discount) -> StochasticGame:
    actions = tuple(int(k) for k in actions)
    p = np.asarray(transition, dtype=float)
    tensors = [np.asarray(r, dtype=float) for r in rewards]
    states = p.shape[0] if p.ndim else 1
    _raise_first(_game_violations(actions, tensors, states, transition=p, discount=float(discount)))
    return StochasticGame(
        num_states=states,
        actions=actions,
        transition=_frozen(p),
        rewards=tuple(_frozen(r) for r in tensors),
        discount=float(discount),
        zero_sum=_is_zero_sum(tensors),
    )


def make_posg(base: StochasticGame, obs_map, observations=None) -> PosgGame:
    m = np.asarray(obs_map, dtype=int)
    if observations is not None:
        observations = [int(v) for v in observations]
    _raise_first(
        _game_violations(base.actions, None, base.num_states, obs=m, observations=observations)
    )
    if observations is None:
        observations = m.max(axis=1) + 1
    return PosgGame(base, tuple(int(v) for v in observations), _frozen(m, int))


# --- canonical 2x2 / 3x3 games -------------------------------------------

# name -> (actions, payoffs); a zero-sum game lists agent 1's payoffs only
_CLASSIC = {
    "matching_pennies": ((2, 2), [[1.0, -1.0, -1.0, 1.0]]),
    # action order (rock, paper, scissors); winner gets +1
    "rps": ((3, 3), [[0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0]]),
    # action order (cooperate, defect); (R, S, T, P) = (3, 0, 5, 1)
    "prisoners_dilemma": ((2, 2), [[3.0, 0.0, 5.0, 1.0], [3.0, 5.0, 0.0, 1.0]]),
    "chicken": ((2, 2), [[6.0, 2.0, 7.0, 0.0], [6.0, 7.0, 2.0, 0.0]]),
}


def classic_game(name: str) -> MatrixGame:
    """Fixed textbook games with pinned payoff conventions."""
    if name not in _CLASSIC:
        raise GameFormatError(f"unknown classic game '{name}'")
    actions, payoffs = _CLASSIC[name]
    if len(payoffs) == 1:  # zero-sum: agent 2 gets the negation
        payoffs = [payoffs[0], [-v for v in payoffs[0]]]
    return build_matrix_game(actions, payoffs)


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
    are normalized uniform draws. zero_sum requires exactly two agents. A
    game that would draw more than MAX_RANDOM_ENTRIES numbers is refused
    before any draw."""
    actions = tuple(int(k) for k in actions)
    if zero_sum and len(actions) != 2:
        raise GameFormatError("zero_sum games need exactly two agents")
    _raise_first(_game_violations(actions, states=num_states))
    count = joint_count(actions)
    n = len(actions)
    drawn = n * count if num_states is None else (n + num_states) * num_states * count
    if drawn > MAX_RANDOM_ENTRIES:
        raise GameFormatError(f"{drawn} entries to draw exceed the cap {MAX_RANDOM_ENTRIES}")
    rng = np.random.default_rng(seed)
    if num_states is None:
        payoffs = [rng.uniform(-1.0, 1.0, size=count) for _ in range(n)]
        if zero_sum:
            payoffs[1] = -payoffs[0]
        return build_matrix_game(actions, payoffs)
    raw = rng.uniform(0.0, 1.0, size=(num_states, count, num_states))
    transition = raw / raw.sum(axis=2, keepdims=True)
    rewards = [rng.uniform(-1.0, 1.0, size=(num_states, count)) for _ in range(n)]
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


def _is_int(v) -> bool:
    """An int in RFC 8259's interoperable range, which every JSON parser reads alike."""
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) < 2**53


def _is_number(v) -> bool:
    """A float or an _is_int; being finite is a game invariant, checked with the rest."""
    return isinstance(v, float) or _is_int(v)


def _walk(value, shape: tuple, path: str, leaf) -> str | None:
    """The first place where value is not lists nested to the lengths in
    shape with leaves accepted by leaf (_is_number or _is_int), or None."""
    if not shape:
        what = "an integer" if leaf is _is_int else "a float, or an integer"
        return None if leaf(value) else (
            f"{path} = {reprlib.repr(value)} is not {what} below 2**53 in magnitude")
    if not isinstance(value, list):
        return f"{path} = {reprlib.repr(value)} is not a list"
    if len(value) != shape[0]:
        return f"{path} has {len(value)} entries, expected {shape[0]}"
    for j, item in enumerate(value):
        problem = _walk(item, shape[1:], f"{path}[{j}]", leaf)
        if problem:
            return problem
    return None


def check_game_dict(doc) -> list[str]:
    """Every violation in a parsed game document, empty iff game_from_dict
    accepts it.

    Only the JSON structure is checked here: the type, the integer counts,
    and each field's nesting, lengths and leaf types. The game's invariants
    are checked over the arrays the document holds by the core the
    constructors share. Each message names its field by JSON path.
    """
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    kind = doc.get("type")
    if kind not in ("matrix", "stochastic", "posg"):
        return [f"type {kind!r} is not one of matrix/stochastic/posg"]
    actions = doc.get("actions")
    if not isinstance(actions, list) or not all(_is_int(k) for k in actions):
        return [f"actions = {reprlib.repr(actions)} is not a list of integers"]
    n, count, states = len(actions), joint_count(actions), doc.get("states")
    out = []
    if "agents" in doc and not (_is_int(doc["agents"]) and doc["agents"] == n):
        out.append(f"agents = {reprlib.repr(doc['agents'])} but actions lists {n} agents")
    if kind == "matrix":
        states, spec = None, {"payoffs": (n, count)}
    elif not _is_int(states):
        return out + [f"states = {reprlib.repr(states)} is not a positive integer"]
    else:
        spec = {"payoffs": (n, states, count), "transition": (states, count, states),
                "discount": ()}
    if kind == "posg":
        spec["obs"] = (n, states)
        if doc.get("observations") is not None:
            spec["observations"] = (n,)
    arrays = {}
    for key, shape in spec.items():
        leaf = _is_int if key in ("obs", "observations") else _is_number
        problem = _walk(doc.get(key), shape, key, leaf)
        if problem:
            out.append(problem)
        else:
            arrays[key] = np.array(doc[key], dtype=int if leaf is _is_int else float)
    return _game_violations(tuple(actions), arrays.pop("payoffs", None), states, **arrays) + out


def game_from_dict(doc):
    _raise_first(check_game_dict(doc))
    actions = tuple(doc["actions"])
    if doc["type"] == "matrix":
        return build_matrix_game(actions, doc["payoffs"])
    base = make_stochastic_game(
        actions, doc["transition"], doc["payoffs"], doc["discount"]
    )
    if doc["type"] == "stochastic":
        return base
    return make_posg(base, doc["obs"], doc.get("observations"))


def read_game_doc(path):
    """The JSON document in a game file."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
        raise GameFormatError(f"cannot read game file {str(path)!r}: {exc}") from exc


def load_game(path):
    return game_from_dict(read_game_doc(path))
