"""Spans around gtmarl's layer boundaries, recorded from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
gtmarl namespace that bound it (so `from .linprog import solve_lp` in
`equilibrium` is traced too), and `uninstall` puts the originals back.
A span is (name index, start, end, parent span index, command index); spans
stay in memory until the benchmark writes them out at the end of a run.

Traced are the functions the per-layer metrics name, plus every function
`cli.main` calls for real work, so that `cli.main`'s self time is the CLI's
own. Per-step helpers such as `merl.agent_features` are not: they run
hundreds of thousands of times per pass and would spend more in the wrapper
than in the function.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "linprog": ("solve_lp", "check_feasible"),
    "games": ("random_game", "classic_game"),
    "equilibrium": (
        "stage_minimax", "minimax_solve", "epsilon_nash_check", "solve_ce_distribution",
        "correlated_eq_solve", "ce_violations", "ce_check", "support_enumeration_nash",
    ),
    "learners": (
        "shapley_value_iteration", "minimax_q_train", "correlated_q_train",
        "regret_matching_play", "fictitious_play",
    ),
    "dynamics": ("integrate_replicator", "fixed_point_check", "write_trajectory_csv"),
    "shaping": ("train_shapers", "lola_step", "value_gradients", "exact_values", "write_shaping_csv"),
    "merl": (
        "merl_train", "rollout_team", "critic_td_update", "dpg_actor_update", "ea_generation",
        "write_merl_csv",
    ),
    "output": ("write_csv", "write_json", "file_digest", "RunManifest.write"),
    "cli": ("main",),
}

# Every writer of CSV, JSON or manifest files: the `output.write` role.
WRITERS = frozenset({
    "output.write_csv", "output.write_json", "output.RunManifest.write",
    "dynamics.write_trajectory_csv", "shaping.write_shaping_csv", "merl.write_merl_csv",
})


# Every per-layer metric and its unit. A layer a workload never calls
# reports 0 there.
PER_LAYER = {
    "linprog.solve_lp.calls": "count",
    "linprog.solve_lp.us_per_call": "us",
    "linprog.solve_lp.self_s": "s",
    "linprog.check_feasible.calls": "count",
    "linprog.check_feasible.us_per_call": "us",
    "equilibrium.stage_minimax.calls": "count",
    "equilibrium.stage_minimax.us_per_call": "us",
    "equilibrium.stage_minimax.self_s": "s",
    "learners.minimax_q.stage_solves_per_step": "solves/step",
    "learners.minimax_q.us_per_step": "us",
    "learners.shapley.stage_solves": "count",
    "equilibrium.solve_ce_distribution.calls": "count",
    "equilibrium.solve_ce_distribution.us_per_call": "us",
    "equilibrium.solve_ce_distribution.self_s": "s",
    "equilibrium.solve_ce_distribution.lp_per_call": "lp/call",
    "equilibrium.ce_violations.calls": "count",
    "equilibrium.ce_violations.us_per_call": "us",
    "learners.ce_q.ce_solves_per_step": "solves/step",
    "learners.ce_q.us_per_step": "us",
    "equilibrium.support_enumeration_nash.calls": "count",
    "equilibrium.support_enumeration_nash.us_per_call": "us",
    "learners.regret.us_per_step_internal": "us",
    "learners.regret.us_per_step_external": "us",
    "shaping.value_gradients.calls": "count",
    "shaping.value_gradients.us_per_call": "us",
    "shaping.value_gradients.calls_per_lola_step": "calls/step",
    "shaping.exact_values.calls": "count",
    "shaping.exact_values.us_per_call": "us",
    "shaping.lola_step.us_per_call": "us",
    "merl.rollout_team.calls": "count",
    "merl.rollout_team.us_per_call": "us",
    "merl.critic_td_update.us_per_call": "us",
    "merl.dpg_actor_update.us_per_call": "us",
    "merl.ea_generation.us_per_call": "us",
    "merl.merl_train.self_s": "s",
    "dynamics.integrate_replicator.us_per_step": "us",
    "learners.fictitious_play.us_per_step": "us",
    "games.random_game.calls": "count",
    "games.random_game.us_per_call": "us",
    "cli.main.self_s_per_cmd": "s/cmd",
    "output.write.s_per_cmd": "s/cmd",
    "output.bytes_per_cmd": "B/cmd",
    "output.file_digest.us_per_call": "us",
    "trace.overhead_frac": "frac",
    "learners.minimax_q.sup_err": "payoff",
    "learners.regret.ce_violation": "payoff",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.command = -1
        self._stack: list[int] = []
        self._patches: list = []   # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.command)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gtmarl" or key.startswith("gtmarl."))]
        for layer, functions in TRACED.items():
            module = sys.modules[f"gtmarl.{layer}"]
            for qualname in functions:
                name = f"{layer}.{qualname}"
                if "." in qualname:
                    owner_name, attr = qualname.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def layer_metrics(names: list[str], spans: list, commands: list, output_bytes: int):
    """Per-layer figures of one traced pass over `commands`, and the call
    count of every traced function.

    Counts are exact; times are in microseconds per call or step, or in
    seconds per pass (`self_s`). A layer the pass never called reports 0.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    under = defaultdict(int)       # (name, parent name) -> calls
    by_command = defaultdict(float)  # (name, command) -> seconds
    writer_s = 0.0
    for idx, (name_id, start, end, parent, cmd) in enumerate(spans):
        name = names[name_id]
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur - child_time[idx]
        by_command[name, cmd] += dur
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        under[name, parent_name] += 1
        if name in WRITERS and parent_name not in WRITERS:
            writer_s += dur

    def per_call(name: str) -> float:
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def per_step(name: str, selected: list[int]) -> float:
        steps = sum(commands[i].steps for i in selected)
        return 1e6 * sum(by_command[name, i] for i in selected) / steps if steps else 0.0

    def ratio(count: int, base: int) -> float:
        return count / base if base else 0.0

    def method_cmds(method: str, mode: str | None = None) -> list[int]:
        return [i for i, c in enumerate(commands)
                if c.method == method and (mode is None or c.flag("--mode") == mode)]

    minimax_q = method_cmds("minimax-q")
    ce_q = method_cmds("ce-q")
    lola = method_cmds("lola")
    n_cmd = len(commands)
    metrics = {
        "linprog.solve_lp.calls": calls["linprog.solve_lp"],
        "linprog.solve_lp.us_per_call": per_call("linprog.solve_lp"),
        "linprog.solve_lp.self_s": self_time["linprog.solve_lp"],
        "linprog.check_feasible.calls": calls["linprog.check_feasible"],
        "linprog.check_feasible.us_per_call": per_call("linprog.check_feasible"),
        "equilibrium.stage_minimax.calls": calls["equilibrium.stage_minimax"],
        "equilibrium.stage_minimax.us_per_call": per_call("equilibrium.stage_minimax"),
        "equilibrium.stage_minimax.self_s": self_time["equilibrium.stage_minimax"],
        "learners.minimax_q.stage_solves_per_step": ratio(
            under["equilibrium.stage_minimax", "learners.minimax_q_train"],
            sum(commands[i].steps for i in minimax_q)),
        "learners.minimax_q.us_per_step": per_step("learners.minimax_q_train", minimax_q),
        "learners.shapley.stage_solves": under[
            "equilibrium.stage_minimax", "learners.shapley_value_iteration"],
        "equilibrium.solve_ce_distribution.calls": calls["equilibrium.solve_ce_distribution"],
        "equilibrium.solve_ce_distribution.us_per_call": per_call("equilibrium.solve_ce_distribution"),
        "equilibrium.solve_ce_distribution.self_s": self_time["equilibrium.solve_ce_distribution"],
        "equilibrium.solve_ce_distribution.lp_per_call": ratio(
            under["linprog.solve_lp", "equilibrium.solve_ce_distribution"],
            calls["equilibrium.solve_ce_distribution"]),
        "equilibrium.ce_violations.calls": calls["equilibrium.ce_violations"],
        "equilibrium.ce_violations.us_per_call": per_call("equilibrium.ce_violations"),
        "learners.ce_q.ce_solves_per_step": ratio(
            under["equilibrium.solve_ce_distribution", "learners.correlated_q_train"],
            sum(commands[i].steps for i in ce_q)),
        "learners.ce_q.us_per_step": per_step("learners.correlated_q_train", ce_q),
        "equilibrium.support_enumeration_nash.calls": calls["equilibrium.support_enumeration_nash"],
        "equilibrium.support_enumeration_nash.us_per_call": per_call(
            "equilibrium.support_enumeration_nash"),
        "learners.regret.us_per_step_internal": per_step(
            "learners.regret_matching_play", method_cmds("regret", "internal")),
        "learners.regret.us_per_step_external": per_step(
            "learners.regret_matching_play", method_cmds("regret", "external")),
        "shaping.value_gradients.calls": calls["shaping.value_gradients"],
        "shaping.value_gradients.us_per_call": per_call("shaping.value_gradients"),
        "shaping.value_gradients.calls_per_lola_step": ratio(
            under["shaping.value_gradients", "shaping.lola_step"],
            sum(commands[i].steps for i in lola)),
        "shaping.exact_values.calls": calls["shaping.exact_values"],
        "shaping.exact_values.us_per_call": per_call("shaping.exact_values"),
        "shaping.lola_step.us_per_call": per_call("shaping.lola_step"),
        "merl.rollout_team.calls": calls["merl.rollout_team"],
        "merl.rollout_team.us_per_call": per_call("merl.rollout_team"),
        "merl.critic_td_update.us_per_call": per_call("merl.critic_td_update"),
        "merl.dpg_actor_update.us_per_call": per_call("merl.dpg_actor_update"),
        "merl.ea_generation.us_per_call": per_call("merl.ea_generation"),
        "merl.merl_train.self_s": self_time["merl.merl_train"],
        "dynamics.integrate_replicator.us_per_step": per_step(
            "dynamics.integrate_replicator", method_cmds("replicator")),
        "learners.fictitious_play.us_per_step": per_step(
            "learners.fictitious_play", method_cmds("fp")),
        "games.random_game.calls": calls["games.random_game"],
        "games.random_game.us_per_call": per_call("games.random_game"),
        "cli.main.self_s_per_cmd": self_time["cli.main"] / n_cmd,
        "output.write.s_per_cmd": writer_s / n_cmd,
        "output.bytes_per_cmd": output_bytes / n_cmd,
        "output.file_digest.us_per_call": per_call("output.file_digest"),
    }
    return metrics, dict(calls)
