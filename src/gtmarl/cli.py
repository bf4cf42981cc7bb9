"""Batch experiment command line.

Three subcommands: `solve` (one-shot equilibrium computation on a matrix
game), `learn` (iterative algorithms producing a learning-curve CSV and a
final-artifact JSON), and `validate` (game-file invariant checks). Every run
requires an explicit seed, merges an optional JSON config file with command
line flags (flags win), and writes a manifest with sha256 digests of each
output file. Given the same config, outputs are byte-identical across runs.

Exit codes: 0 success, 2 config or parse error, 3 precondition violation,
4 numerical fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dynamics import (
    DynamicsParams,
    fixed_point_check,
    integrate_replicator,
    write_trajectory_csv,
)
from .equilibrium import (
    EGALITARIAN,
    PLUTOCRATIC,
    UTILITARIAN,
    ce_check,
    correlated_eq_solve,
    epsilon_nash_check,
    minimax_solve,
    support_enumeration_nash,
)
from .errors import GameFormatError, NumericalError, SpecError
from .games import (
    MatrixGame,
    StochasticGame,
    check_game_dict,
    classic_game,
    load_game,
    random_game,
)
from .learners import (
    CONSTANT,
    EXTERNAL,
    INTERNAL,
    ONE_OVER_VISITS,
    LearningSchedule,
    correlated_q_train,
    fictitious_play,
    minimax_q_train,
    regret_matching_play,
    shapley_value_iteration,
)
from .merl import MerlConfig, merl_train, write_merl_csv
from .output import RunManifest, write_csv, write_json
from .shaping import LOLA, NAIVE, LolaConfig, iterated_game, train_shapers, write_shaping_csv

OBJECTIVE_ALIASES = {
    "utilitarian": UTILITARIAN,
    "egalitarian": EGALITARIAN,
    "plutocratic": PLUTOCRATIC,
    UTILITARIAN: UTILITARIAN,
    EGALITARIAN: EGALITARIAN,
    PLUTOCRATIC: PLUTOCRATIC,
}
GAME_KINDS = {"matrix": MatrixGame, "stochastic": StochasticGame}

# The dataclass fields each learner reads from the config, in reading order.
SCHEDULE_FIELDS = ("alpha0", "alpha_decay", "epsilon0", "epsilon_decay", "episode_length")
REPLICATOR_FIELDS = ("dt",)
LOLA_FIELDS = ("gamma", "alpha", "beta")
MERL_FIELDS = (
    "num_agents", "population", "elite_count", "generations", "horizon", "epsilon_meet",
    "init_range", "buffer_capacity", "batch_size", "pg_updates", "alpha_q", "alpha_pi",
    "tau", "gamma", "mutation_sigma", "migration_period", "eval_episodes",
)
FIELD_KEYS = {"num_agents": "agents"}   # fields read under another config key
# Casts by annotation; the config modules postpone annotations, so these are strings.
FIELD_CASTS = {"int": int, "int | None": int, "float": float, "str": str}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtmarl",
        description="Seeded game-theoretic experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="one-shot equilibrium computation")
    solve.add_argument("method", choices=SOLVERS)
    _common_flags(solve)
    solve.add_argument("--objective", help="CE objective (utilitarian/egalitarian/plutocratic)")
    solve.add_argument("--eps", type=float, help="verification tolerance (default 1e-9)")

    learn = sub.add_parser("learn", help="iterative algorithms with curve output")
    learn.add_argument("method", choices=LEARNERS)
    _common_flags(learn)
    learn.add_argument("--steps", type=int, help="iteration budget")
    learn.add_argument("--record-every", type=int, help="curve sampling period")
    learn.add_argument("--objective", help="CE objective for ce-q")
    learn.add_argument("--mode", choices=(EXTERNAL, INTERNAL), help="regret mode")
    learn.add_argument("--x0", help="comma-separated initial mixture for replicator")
    learn.add_argument("--dt", type=float, help="replicator step size")
    learn.add_argument("--integrator", choices=("rk4", "euler"), help="replicator method")
    learn.add_argument("--alpha0", type=float, help="initial learning rate")
    learn.add_argument("--alpha-decay", choices=(CONSTANT, ONE_OVER_VISITS))
    learn.add_argument("--epsilon0", type=float, help="initial exploration rate")
    learn.add_argument("--epsilon-decay", choices=(CONSTANT, ONE_OVER_VISITS))
    learn.add_argument("--episode-length", type=int, help="steps between state resets")
    learn.add_argument("--oracle", action="store_true", default=None,
                       help="minimax-q: report sup-norm error vs value iteration")
    learn.add_argument("--alpha", type=float, help="lola step size")
    learn.add_argument("--beta", type=float, help="lola shaping coefficient")
    learn.add_argument("--gamma", type=float, help="discount for lola/merl")
    learn.add_argument("--learner", choices=(LOLA, NAIVE))
    learn.add_argument("--agents", type=int, help="merl team size")
    learn.add_argument("--population", type=int, help="merl population size")
    learn.add_argument("--generations", type=int, help="merl generation budget")
    learn.add_argument("--horizon", type=int, help="merl episode length")

    validate = sub.add_parser("validate", help="check a game file's invariants")
    validate.add_argument("path")
    return parser


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--game", help="game source: classic:NAME, random:SPEC, or a file path")
    sub.add_argument("--config", help="JSON config file; explicit flags override it")
    sub.add_argument("--seed", type=int, help="run seed (mandatory)")
    sub.add_argument("--out", help="output directory (default $GTMARL_OUT or .)")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "validate":
            return _run_validate(args.path)
        if args.command == "solve":
            return _run_solve(args)
        return _run_learn(args)
    except GameFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


# --- config plumbing ---------------------------------------------------------

def _merged_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config is not None:
        path = Path(args.config)
        try:
            cfg = json.loads(path.read_text())
        except OSError as exc:
            raise GameFormatError(f"cannot read config file {args.config!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise GameFormatError(f"config file {args.config!r} is not valid JSON: {exc}")
        if not isinstance(cfg, dict):
            raise GameFormatError("config file must hold a JSON object")
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    cfg.setdefault("method", getattr(args, "method", None))
    return cfg


def _get(cfg: dict, key: str, cast, default):
    if key not in cfg or cfg[key] is None:
        return default
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"config field {key!r}: {exc}")


def _require_seed(cfg: dict) -> int:
    if cfg.get("seed") is None:
        raise GameFormatError("a seed is required: pass --seed or set \"seed\" in the config")
    return _get(cfg, "seed", int, 0)


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out") or os.environ.get("GTMARL_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    cfg["out"] = str(path)
    return path


def _objective(cfg: dict, default: str = UTILITARIAN) -> str:
    name = str(cfg.get("objective") or default)
    if name not in OBJECTIVE_ALIASES:
        raise GameFormatError(
            f"unknown objective {name!r}; choose from {sorted(set(OBJECTIVE_ALIASES))}"
        )
    return OBJECTIVE_ALIASES[name]


def _parse_action_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(part) for part in text.split("x"))
    except ValueError:
        raise GameFormatError(f"bad action shape {text!r}; expected e.g. 2x2")
    if not shape or any(k < 1 for k in shape):
        raise GameFormatError(f"bad action shape {text!r}; entries must be positive")
    return shape


def _game_from_source(source: str, seed: int | None):
    """classic:NAME, random:[zs-]matrix:AxB, random:[zs-]stoch:S:AxB:GAMMA,
    or a JSON game file path."""
    if source.startswith("classic:"):
        return classic_game(source[len("classic:"):])
    if source.startswith("random:"):
        if seed is None:
            raise GameFormatError("random game sources require a seed")
        parts = source.split(":")[1:]
        kind = parts[0] if parts else ""
        zero_sum = kind.startswith("zs-")
        kind = kind[3:] if zero_sum else kind
        if kind == "matrix" and len(parts) == 2:
            return random_game(seed, _parse_action_shape(parts[1]), zero_sum=zero_sum)
        if kind == "stoch" and len(parts) == 4:
            try:
                num_states = int(parts[1])
                discount = float(parts[3])
            except ValueError:
                raise GameFormatError(f"bad random game spec {source!r}")
            return random_game(
                seed,
                _parse_action_shape(parts[2]),
                zero_sum=zero_sum,
                num_states=num_states,
                discount=discount,
            )
        raise GameFormatError(
            f"bad random game spec {source!r}; expected random:[zs-]matrix:AxB "
            "or random:[zs-]stoch:S:AxB:GAMMA"
        )
    path = Path(source)
    if not path.exists():
        raise GameFormatError(f"game file {source!r} not found")
    return load_game(path)


def _load_game(cfg: dict, seed: int | None):
    source = cfg.get("game")
    if not source:
        raise GameFormatError("a game source is required: pass --game or set \"game\" in the config")
    return _game_from_source(str(source), seed)


def _require(game, kind: str):
    if not isinstance(game, GAME_KINDS[kind]):
        raise SpecError(f"this command expects a {kind} game source")
    return game


def _config(cls, cfg: dict, names, **fixed):
    """cls(**fixed) with the fields in names read from cfg, in that order.
    Each field takes its default and its type from the dataclass; a str
    field also takes its default for an empty value."""
    by_name = {f.name: f for f in dataclasses.fields(cls)}
    values = {}
    for name in names:
        f = by_name[name]
        key = FIELD_KEYS.get(name, name)
        cast = FIELD_CASTS[f.type]
        if cast is str:
            values[name] = str(cfg.get(key) or f.default)
        else:
            values[name] = _get(cfg, key, cast, f.default)
    return cls(**values, **fixed)


def _finish(out: Path, stem: str, cfg: dict, files: list, started: float) -> int:
    manifest = RunManifest(
        config=cfg,
        version=__version__,
        wall_time_s=time.perf_counter() - started,
    )
    for path in files:
        manifest.add(path)
    manifest.write(out / f"{stem}_manifest.json")
    for path in files:
        print(path)
    return 0


# --- solve -------------------------------------------------------------------
# Each solver maps (game, config, eps) to the solution and verification docs.

def _solve_minimax(game: MatrixGame, cfg: dict, eps: float) -> tuple[dict, dict]:
    sol = minimax_solve(game)
    report = epsilon_nash_check(game, sol.strategies, eps)
    solution = {
        "value": sol.value,
        "row_strategy": sol.strategies.mixtures[0],
        "col_strategy": sol.strategies.mixtures[1],
    }
    verification = {
        "passed": report.passed,
        "eps": report.eps,
        "best_response_gains": report.gains,
    }
    return solution, verification


def _solve_nash_enum(game: MatrixGame, cfg: dict, eps: float) -> tuple[dict, dict]:
    profiles = support_enumeration_nash(game)
    reports = [epsilon_nash_check(game, p, eps) for p in profiles]
    solution = {
        "count": len(profiles),
        "equilibria": [list(p.mixtures) for p in profiles],
    }
    verification = {
        "passed": all(r.passed for r in reports),
        "eps": eps,
        "best_response_gains": [r.gains for r in reports],
    }
    return solution, verification


def _solve_ce(game: MatrixGame, cfg: dict, eps: float) -> tuple[dict, dict]:
    objective = _objective(cfg)
    policy = correlated_eq_solve(game, objective)
    report = ce_check(game, policy, eps)
    welfare = [float(policy.probs @ game.payoff_flat(i)) for i in range(game.num_agents)]
    solution = {
        "objective": objective,
        "distribution": policy.probs,
        "welfare_per_agent": welfare,
        "welfare_total": float(sum(welfare)),
    }
    verification = {
        "passed": report.passed,
        "eps": eps,
        "max_violation": report.max_violation,
        "violations": report.violations,
    }
    return solution, verification


SOLVERS = {"minimax": _solve_minimax, "nash-enum": _solve_nash_enum, "ce": _solve_ce}


def _run_solve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cfg = _merged_config(args)
    seed = _require_seed(cfg)
    eps = _get(cfg, "eps", float, 1e-9)
    out = _out_dir(cfg)
    game = _require(_load_game(cfg, seed), "matrix")
    stem = args.method.replace("-", "_")
    solution, verification = SOLVERS[args.method](game, cfg, eps)

    solution_path = out / f"{stem}_solution.json"
    report_path = out / f"{stem}_report.json"
    write_json(solution_path, {"method": args.method, **solution})
    write_json(report_path, verification)
    return _finish(out, stem, cfg, [solution_path, report_path], started)


# --- learn -------------------------------------------------------------------
# Each runner writes the curve CSV and returns the result doc. Runners call
# the library by its name in this module at call time, so that a wrapper
# installed on that name (the benchmark's tracer) sees the call.

class _Run(NamedTuple):
    cfg: dict
    seed: int
    game: object        # None for MERL, which builds its own environment
    steps: int | None
    record_every: int
    curve: Path


def _schedule(run: _Run) -> LearningSchedule:
    return _config(LearningSchedule, run.cfg, SCHEDULE_FIELDS, max_steps=run.steps, seed=run.seed)


def _parse_x0(raw, size: int) -> np.ndarray:
    if raw is None:
        return np.full(size, 1.0 / size)
    if isinstance(raw, str):
        try:
            values = [float(part) for part in raw.split(",")]
        except ValueError:
            raise GameFormatError(f"bad x0 {raw!r}; expected comma-separated numbers")
    elif isinstance(raw, (list, tuple)):
        values = [float(v) for v in raw]
    else:
        raise GameFormatError("x0 must be a string or a list of numbers")
    return np.asarray(values)


def _learn_minimax_q(run: _Run) -> dict:
    oracle = shapley_value_iteration(run.game).values if run.cfg.get("oracle") else None
    res = minimax_q_train(run.game, _schedule(run), run.record_every, oracle)
    result = {
        "values": res.values,
        "policies": res.policies,
        "opponent_policies": res.opponent_policies,
        "q": res.q.tables[0],
    }
    if oracle is None:
        write_csv(run.curve, ["step", "mean_reward"], [row[:2] for row in res.curve])
        return result
    write_csv(run.curve, ["step", "mean_reward", "sup_value_error"], res.curve)
    result["oracle_values"] = oracle
    result["sup_value_error"] = float(np.max(np.abs(res.values - oracle)))
    return result


def _learn_ce_q(run: _Run) -> dict:
    objective = _objective(run.cfg)
    res = correlated_q_train(run.game, objective, _schedule(run), run.record_every)
    header = ["step"] + [f"mean_reward_{i + 1}" for i in range(run.game.num_agents)]
    write_csv(run.curve, header, res.curve)
    return {
        "objective": objective,
        "stage_policies": res.stage_policies,
        "q": list(res.q.tables),
    }


def _learn_regret(run: _Run) -> dict:
    mode = str(run.cfg.get("mode") or EXTERNAL)
    res = regret_matching_play(run.game, run.steps, mode, run.seed, run.record_every)
    write_csv(run.curve, ["step", "max_avg_positive_regret"], res.curve)
    report = ce_check(run.game, res.empirical, _get(run.cfg, "eps", float, 0.05))
    return {
        "mode": mode,
        "empirical": res.empirical,
        "ce_check_passed": report.passed,
        "ce_max_violation": report.max_violation,
    }


def _learn_fp(run: _Run) -> dict:
    res = fictitious_play(run.game, run.steps)
    rows = [(t + 1, res.exploitability[t]) for t in range(run.steps)]
    write_csv(run.curve, ["step", "exploitability"], rows)
    return {
        "empirical": list(res.empirical),
        "final_exploitability": float(res.exploitability[-1]),
    }


def _learn_replicator(run: _Run) -> dict:
    matrix = run.game.payoffs[0]
    x0 = _parse_x0(run.cfg.get("x0"), run.game.actions[0])
    params = _config(DynamicsParams, run.cfg, REPLICATOR_FIELDS, steps=run.steps)
    trajectory = integrate_replicator(
        matrix, x0, params, method=str(run.cfg.get("integrator") or "rk4")
    )
    write_trajectory_csv(run.curve, trajectory, params.dt)
    return {
        "final": trajectory[-1],
        "fixed_point": fixed_point_check(matrix, trajectory[-1], 1e-6),
    }


def _learn_lola(run: _Run) -> dict:
    config = _config(LolaConfig, run.cfg, LOLA_FIELDS, steps=run.steps, seed=run.seed)
    trajectory = train_shapers(
        iterated_game(run.game, config.gamma), config, str(run.cfg.get("learner") or LOLA)
    )
    write_shaping_csv(run.curve, trajectory)
    return {
        "theta1": trajectory.thetas1[-1],
        "theta2": trajectory.thetas2[-1],
        "values": trajectory.values[-1],
    }


def _learn_merl(run: _Run) -> dict:
    config = _config(MerlConfig, run.cfg, MERL_FIELDS, seed=run.seed)
    res = merl_train(config)
    echo = {k: v for k, v in run.cfg.items() if k != "out"}
    write_merl_csv(run.curve, res, json.dumps(echo, sort_keys=True))
    return {
        "best_fitness": res.best_fitness,
        "best_genome": res.best_genome,
        "pg_genome": res.pg_genome,
        "generations": config.generations,
    }


class Learner(NamedTuple):
    run: Callable[[_Run], dict]
    game: str | None    # the GAME_KINDS entry the method needs; None: no game
    steps: int | None   # the --steps default; None: the method has no step budget


LEARNERS = {
    "minimax-q": Learner(_learn_minimax_q, "stochastic", LearningSchedule.max_steps),
    "ce-q": Learner(_learn_ce_q, "stochastic", 5000),
    "regret": Learner(_learn_regret, "matrix", 10000),
    "fp": Learner(_learn_fp, "matrix", 1000),
    "replicator": Learner(_learn_replicator, "matrix", DynamicsParams.steps),
    "lola": Learner(_learn_lola, "matrix", LolaConfig.steps),
    "merl": Learner(_learn_merl, None, None),
}


def _run_learn(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cfg = _merged_config(args)
    seed = _require_seed(cfg)
    out = _out_dir(cfg)
    learner = LEARNERS[args.method]
    stem = args.method.replace("-", "_")
    # MERL uses neither steps nor record_every, but a malformed value still exits 2.
    steps = _get(cfg, "steps", int, learner.steps)
    record_every = _get(cfg, "record_every", int, max(1, (steps or 0) // 100))
    game = None if learner.game is None else _require(_load_game(cfg, seed), learner.game)
    curve_path = out / f"{stem}_curve.csv"
    result_path = out / f"{stem}_result.json"
    write_json(result_path, learner.run(_Run(cfg, seed, game, steps, record_every, curve_path)))
    return _finish(out, stem, cfg, [curve_path, result_path], started)


# --- validate ----------------------------------------------------------------

def _run_validate(path: str) -> int:
    target = Path(path)
    try:
        text = target.read_text()
    except OSError as exc:
        raise GameFormatError(f"cannot read game file {path!r}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"game file {path!r} is not valid JSON: {exc}")
    violations = check_game_dict(doc)
    for line in violations:
        print(line)
    return 2 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
