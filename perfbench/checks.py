"""Output checks that do not go through gtmarl's own checkers.

Each check reads the files a command wrote, rebuilds the game's payoff
arrays from the command's `--game` source and recomputes what the output
claims (best-response gains, correlated-equilibrium incentive gaps, stage
values) directly with numpy. A check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

# Bound before any tracer is installed, so checks never show up in a trace.
from gtmarl.games import classic_game, random_game

TOL = 1e-9
ORACLE_TOL = 1e-7         # Shapley iteration stops at 1e-10 per sweep, gamma 0.9
REGRET_CE_TOL = 0.05      # acceptance-08 tolerance for internal regret matching


def manifest_outputs(out: Path, stem: str) -> dict:
    return json.loads((out / f"{stem}_manifest.json").read_text())["outputs"]


def _game(spec: str, seed: int):
    """The game a `--game` source names, rebuilt with the same generator."""
    if spec.startswith("classic:"):
        return classic_game(spec[len("classic:"):])
    parts = spec.split(":")[1:]
    zero_sum = parts[0].startswith("zs-")
    dims = tuple(int(k) for k in (parts[1] if len(parts) == 2 else parts[2]).split("x"))
    if len(parts) == 2:
        return random_game(seed, dims, zero_sum=zero_sum)
    return random_game(seed, dims, zero_sum=zero_sum, num_states=int(parts[1]),
                       discount=float(parts[3]))


def _simplex_problems(what: str, p) -> list[str]:
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)) or p.min() < -1e-12 or abs(p.sum() - 1.0) > TOL:
        return [f"{what} is not a probability vector: {p.tolist()}"]
    return []


def nash_gains(payoffs, x, y) -> tuple[float, float]:
    """Best-response gains of both players of a bimatrix game at (x, y)."""
    a, b = payoffs
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.max(a @ y) - x @ a @ y), float(np.max(x @ b) - x @ b @ y)


def ce_gaps(payoffs, lam) -> np.ndarray:
    """Incentive gaps of a joint distribution: for every agent i, recommended
    action a and alternative b, the expected gain from deviating a -> b
    (positive means the constraint is violated)."""
    lam = np.asarray(lam, dtype=float).reshape(payoffs[0].shape)
    gaps = []
    for i, u in enumerate(payoffs):
        lam_i = np.moveaxis(lam, i, 0).reshape(u.shape[i], -1)
        u_i = np.moveaxis(np.asarray(u, dtype=float), i, 0).reshape(u.shape[i], -1)
        for a, b in itertools.permutations(range(u.shape[i]), 2):
            gaps.append(float(lam_i[a] @ (u_i[b] - u_i[a])))
    return np.asarray(gaps)


def zero_sum_value(m: np.ndarray) -> float | None:
    """Value of the zero-sum game m (row player maximizes), by enumerating
    equal-size support pairs; None if no pair certifies (degenerate game)."""
    k1, k2 = m.shape
    scale = TOL * max(1.0, float(np.abs(m).max()))
    for size in range(1, min(k1, k2) + 1):
        for rows in itertools.combinations(range(k1), size):
            for cols in itertools.combinations(range(k2), size):
                sub = m[np.ix_(rows, cols)]
                system = np.zeros((size + 1, size + 1))
                system[size, :size] = 1.0
                system[:size, size] = -1.0
                rhs = np.zeros(size + 1)
                rhs[size] = 1.0
                try:
                    system[:size, :size] = sub
                    y_part = np.linalg.solve(system, rhs)
                    system[:size, :size] = sub.T
                    x_part = np.linalg.solve(system, rhs)
                except np.linalg.LinAlgError:
                    continue
                if y_part[:size].min() < -scale or x_part[:size].min() < -scale:
                    continue
                x = np.zeros(k1)
                y = np.zeros(k2)
                x[list(rows)] = x_part[:size]
                y[list(cols)] = y_part[:size]
                value = float(x @ m @ y)
                if np.max(m @ y) <= value + scale and np.min(x @ m) >= value - scale:
                    return value
    return None


def _check_solve(cmd, out: Path, seed: int) -> list[str]:
    method = cmd.method
    stem = method.replace("-", "_")
    game = _game(cmd.flag("--game"), seed)
    sol = json.loads((out / f"{stem}_solution.json").read_text())
    problems = []
    if method == "minimax":
        x, y = sol["row_strategy"], sol["col_strategy"]
        problems += _simplex_problems("row strategy", x) + _simplex_problems("column strategy", y)
        gains = nash_gains(game.payoffs, x, y)
        if max(gains) > TOL:
            problems.append(f"best-response gains {gains} exceed {TOL}")
        value = float(np.asarray(x) @ game.payoffs[0] @ np.asarray(y))
        if abs(value - sol["value"]) > TOL:
            problems.append(f"value {sol['value']} but x A y = {value}")
    elif method == "nash-enum":
        if sol["count"] < 1 or len(sol["equilibria"]) != sol["count"]:
            problems.append(f"{sol['count']} equilibria reported")
        for x, y in sol["equilibria"]:
            gains = nash_gains(game.payoffs, x, y)
            if max(gains) > TOL:
                problems.append(f"equilibrium {x}, {y} has best-response gains {gains}")
    else:
        lam = sol["distribution"]
        problems += _simplex_problems("CE distribution", lam)
        worst = float(ce_gaps(game.payoffs, lam).max())
        if worst > TOL:
            problems.append(f"CE incentive gap {worst} exceeds {TOL}")
        welfare = [float(np.asarray(lam) @ u.ravel()) for u in game.payoffs]
        if np.max(np.abs(np.subtract(welfare, sol["welfare_per_agent"]))) > TOL:
            problems.append(f"welfare {sol['welfare_per_agent']} but recomputed {welfare}")
    return problems


def _check_minimax_q(cmd, res: dict, seed: int) -> list[str]:
    game = _game(cmd.flag("--game"), seed)
    k1, k2 = game.actions
    problems = []
    q = np.asarray(res["q"])
    values = np.asarray(res["values"])
    for s in range(game.num_states):
        stage = q[s].reshape(k1, k2)
        x = np.asarray(res["policies"][s])
        y = np.asarray(res["opponent_policies"][s])
        scale = TOL * max(1.0, float(np.abs(stage).max()))
        if np.max(stage @ y) > values[s] + scale or np.min(x @ stage) < values[s] - scale:
            problems.append(f"state {s}: reported policies are not a saddle point of Q")
    oracle = np.asarray(res["oracle_values"])
    for s in range(game.num_states):
        stage = (game.rewards[0][s] + game.discount * (game.transition[s] @ oracle)).reshape(k1, k2)
        value = zero_sum_value(stage)
        if value is None or abs(value - oracle[s]) > ORACLE_TOL:
            problems.append(f"state {s}: oracle value {oracle[s]} but stage value {value}")
    err = float(np.max(np.abs(values - oracle)))
    if abs(err - res["sup_value_error"]) > 1e-12:
        problems.append(f"sup_value_error {res['sup_value_error']} but recomputed {err}")
    return problems


def _check_ce_q(cmd, res: dict, seed: int) -> list[str]:
    game = _game(cmd.flag("--game"), seed)
    problems = []
    for s, lam in enumerate(res["stage_policies"]):
        payoffs = [np.asarray(t[s]).reshape(game.actions) for t in res["q"]]
        scale = TOL * max(1.0, max(float(np.abs(u).max()) for u in payoffs))
        problems += _simplex_problems(f"state {s} stage policy", lam)
        worst = float(ce_gaps(payoffs, lam).max())
        if worst > scale:
            problems.append(f"state {s}: stage policy violates CE incentives by {worst}")
    return problems


def _check_regret(cmd, res: dict) -> list[str]:
    game = classic_game(cmd.flag("--game")[len("classic:"):])
    problems = _simplex_problems("empirical distribution", res["empirical"])
    worst = max(0.0, float(ce_gaps(game.payoffs, res["empirical"]).max()))
    if abs(worst - res["ce_max_violation"]) > 1e-12:
        problems.append(f"ce_max_violation {res['ce_max_violation']} but recomputed {worst}")
    if res["mode"] == "internal" and worst > REGRET_CE_TOL:
        problems.append(f"internal regret CE violation {worst} exceeds {REGRET_CE_TOL}")
    return problems


def _check_fp(cmd, res: dict, seed: int) -> list[str]:
    game = _game(cmd.flag("--game"), seed)
    x, y = res["empirical"]
    problems = _simplex_problems("fp row mixture", x) + _simplex_problems("fp column mixture", y)
    gap = max(nash_gains(game.payoffs, x, y))
    if abs(gap - res["final_exploitability"]) > TOL:
        problems.append(f"final_exploitability {res['final_exploitability']} but recomputed {gap}")
    return problems


def _check_replicator(out: Path, res: dict) -> list[str]:
    with open(out / "replicator_curve.csv", newline="") as fh:
        last = list(csv.reader(fh))[-1]
    problems = _simplex_problems("replicator final state", res["final"])
    if [float(v) for v in last[1:]] != res["final"]:
        problems.append("last trajectory row differs from the reported final state")
    return problems


def _finite(what: str, *arrays) -> list[str]:
    if all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays):
        return []
    return [f"{what} holds non-finite numbers"]


def check(cmd, out: Path) -> list[str]:
    """Every problem with the outputs one command wrote into `out`."""
    stem = cmd.method.replace("-", "_")
    seed = int(cmd.flag("--seed"))
    problems = []
    outputs = manifest_outputs(out, stem)
    for name, digest in outputs.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            problems.append(f"manifest digest of {name} does not match the file")
    if cmd.argv[0] == "solve":
        return problems + _check_solve(cmd, out, seed)
    res = json.loads((out / f"{stem}_result.json").read_text())
    method = cmd.method
    if method == "minimax-q":
        problems += _check_minimax_q(cmd, res, seed)
    elif method == "ce-q":
        problems += _check_ce_q(cmd, res, seed)
    elif method == "regret":
        problems += _check_regret(cmd, res)
    elif method == "fp":
        problems += _check_fp(cmd, res, seed)
    elif method == "replicator":
        problems += _check_replicator(out, res)
    elif method == "lola":
        problems += _finite("LOLA result", res["theta1"], res["theta2"], res["values"])
    elif method == "merl":
        problems += _finite("MERL result", res["best_fitness"], res["best_genome"], res["pg_genome"])
        if res["generations"] != cmd.steps:
            problems.append(f"{res['generations']} generations run, {cmd.steps} asked")
    return problems


def accuracy(cmd, out: Path) -> tuple[str, float] | None:
    """The accuracy figure a command reports, if it has one."""
    if cmd.method == "minimax-q":
        res = json.loads((out / "minimax_q_result.json").read_text())
        return "learners.minimax_q.sup_err", float(res["sup_value_error"])
    if cmd.method == "regret" and cmd.flag("--mode") == "internal":
        res = json.loads((out / "regret_result.json").read_text())
        return "learners.regret.ce_violation", float(res["ce_max_violation"])
    return None
