"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json

import pytest

from perfbench.env import ROOT, import_gtmarl

import_gtmarl()

import gtmarl.cli as cli  # noqa: E402
from gtmarl.output import file_digest  # noqa: E402

from perfbench import checks, trace, workloads  # noqa: E402
from perfbench.run import END_TO_END, Runner  # noqa: E402

# Layers each workload exists to stress; each must be called there.
STRESSED = {
    "zero-sum-stage": (
        "linprog.solve_lp.calls", "linprog.check_feasible.calls",
        "equilibrium.stage_minimax.calls", "learners.minimax_q.stage_solves_per_step",
        "learners.shapley.stage_solves", "games.random_game.calls",
    ),
    "general-sum-ce": (
        "linprog.solve_lp.calls", "linprog.check_feasible.calls",
        "equilibrium.solve_ce_distribution.calls", "equilibrium.solve_ce_distribution.lp_per_call",
        "equilibrium.ce_violations.calls", "learners.ce_q.ce_solves_per_step",
        "equilibrium.support_enumeration_nash.calls", "games.random_game.calls",
    ),
    "lp-free": (
        "learners.regret.us_per_step_internal", "learners.regret.us_per_step_external",
        "shaping.value_gradients.calls", "shaping.value_gradients.calls_per_lola_step",
        "shaping.exact_values.calls", "shaping.lola_step.us_per_call",
        "merl.rollout_team.calls", "merl.critic_td_update.us_per_call",
        "merl.dpg_actor_update.us_per_call", "merl.ea_generation.us_per_call",
        "dynamics.integrate_replicator.us_per_step", "learners.fictitious_play.us_per_step",
        "games.random_game.calls",
    ),
}
EVERY_WORKLOAD = (
    "cli.main.self_s_per_cmd", "output.write.s_per_cmd", "output.bytes_per_cmd",
    "output.file_digest.us_per_call",
)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def passes(request, tmp_path_factory):
    """One checked untraced pass and two traced passes of a workload."""
    name = request.param
    commands = workloads.generate(name, 7)
    runner = Runner(cli, checks, commands, tmp_path_factory.mktemp(name) / "work")
    plain = runner.run_pass(check=True)
    tracer = trace.Tracer()
    traced = []
    for _ in range(2):
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer=tracer))
        finally:
            tracer.uninstall()
    return name, commands, tracer, plain, traced


def test_generators_are_deterministic_per_seed():
    for generate in workloads.WORKLOADS.values():
        assert generate(3) == generate(3)
        assert generate(3) != generate(4)


def test_tracing_changes_no_output_byte(passes):
    _, _, _, plain, traced = passes
    assert plain.failures == []
    for p in traced:
        assert p.failures == []
        assert p.digest == plain.digest


def test_uninstall_restores_the_program():
    tracer = trace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert cli.main.__module__ == "gtmarl.cli" and not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli.minimax_solve, "__wrapped__")


def test_stressed_layers_are_called_and_counts_repeat(passes):
    name, commands, tracer, _, traced = passes
    results = [trace.layer_metrics(tracer.names, p.spans, commands, 1) for p in traced]
    assert results[0][1] == results[1][1]
    layer = results[0][0]
    assert set(layer) | {"trace.overhead_frac", "learners.minimax_q.sup_err",
                         "learners.regret.ce_violation"} == set(trace.PER_LAYER)
    for metric in STRESSED[name] + EVERY_WORKLOAD:
        assert layer[metric] > 0, metric
    if name == "lp-free":
        assert layer["linprog.solve_lp.calls"] == 0
        assert layer["linprog.check_feasible.calls"] == 0
    if name == "zero-sum-stage":
        assert 1.0 <= layer["learners.minimax_q.stage_solves_per_step"] < 1.1


def _rewrite(out, name, stem, doc):
    """Replace an output file and its manifest digest, as a wrong program would."""
    (out / name).write_text(json.dumps(doc))
    manifest = json.loads((out / f"{stem}_manifest.json").read_text())
    manifest["outputs"][name] = file_digest(out / name)
    (out / f"{stem}_manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("argv, name, field", [
    (("solve", "minimax", "--game", "random:zs-matrix:3x4", "--seed", "5"),
     "minimax_solution.json", "row_strategy"),
    (("solve", "ce", "--game", "random:matrix:2x2x2", "--objective", "egalitarian", "--seed", "5"),
     "ce_solution.json", "distribution"),
    (("solve", "nash-enum", "--game", "classic:chicken", "--seed", "5"),
     "nash_enum_solution.json", "equilibria"),
])
def test_checks_catch_a_wrong_answer(tmp_path, argv, name, field):
    cmd = workloads.Command(argv, workloads.SHORT, 0)
    assert cli.main(list(argv) + ["--out", str(tmp_path)]) == 0
    assert checks.check(cmd, tmp_path) == []
    doc = json.loads((tmp_path / name).read_text())
    if field == "equilibria":
        x, y = doc[field][0]
        doc[field][0] = [y[::-1], x]
    else:
        doc[field] = doc[field][::-1]   # a valid distribution, but the wrong one
    _rewrite(tmp_path, name, argv[1].replace("-", "_"), doc)
    assert checks.check(cmd, tmp_path) != []


def test_zero_sum_value_matches_closed_form():
    import numpy as np

    assert checks.zero_sum_value(np.array([[3.0, 0.0], [1.0, 2.0]])) == pytest.approx(1.5)
    assert checks.zero_sum_value(np.array([[1.0, 2.0], [0.0, 3.0]])) == pytest.approx(1.0)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == trace.PER_LAYER
