"""Command-line interface: exit codes, output files, config merging, and
byte-identical reruns."""

import argparse
import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from gtmarl import cli, errors, games, learners, merl
from gtmarl.cli import main
from gtmarl.errors import NumericalError, SpecError
from gtmarl.games import classic_game, game_to_dict, random_game, save_game
from test_acceptance import pinned_digests
from test_equilibrium import break_ce_incentives


def run(argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


class TestSolve:
    def test_minimax_rps(self, tmp_path, capsys):
        rc = run(["solve", "minimax", "--game", "classic:rps",
                  "--seed", 0, "--out", tmp_path])
        assert rc == 0
        sol = read_json(tmp_path / "minimax_solution.json")
        assert sol["value"] == pytest.approx(0.0, abs=1e-9)
        assert sol["row_strategy"] == pytest.approx([1 / 3] * 3, abs=1e-9)
        report = read_json(tmp_path / "minimax_report.json")
        assert report["passed"] is True
        manifest = read_json(tmp_path / "minimax_manifest.json")
        assert set(manifest["outputs"]) == {"minimax_solution.json", "minimax_report.json"}
        printed = capsys.readouterr().out
        assert "minimax_solution.json" in printed

    def test_ce_chicken_utilitarian(self, tmp_path):
        rc = run(["solve", "ce", "--game", "classic:chicken",
                  "--objective", "utilitarian", "--seed", 0, "--out", tmp_path])
        assert rc == 0
        sol = read_json(tmp_path / "ce_solution.json")
        assert sol["distribution"] == pytest.approx([0.5, 0.25, 0.25, 0.0], abs=1e-9)
        assert sol["welfare_total"] == pytest.approx(10.5, abs=1e-6)
        report = read_json(tmp_path / "ce_report.json")
        assert report["passed"] is True
        assert report["eps"] == 1e-9

    def test_nash_enum_chicken(self, tmp_path):
        rc = run(["solve", "nash-enum", "--game", "classic:chicken",
                  "--seed", 0, "--out", tmp_path])
        assert rc == 0
        sol = read_json(tmp_path / "nash_enum_solution.json")
        assert sol["count"] == 3

    def test_random_zero_sum_source(self, tmp_path):
        rc = run(["solve", "minimax", "--game", "random:zs-matrix:3x3",
                  "--seed", 11, "--out", tmp_path])
        assert rc == 0

    def test_game_file_source(self, tmp_path):
        path = tmp_path / "game.json"
        save_game(classic_game("matching_pennies"), path)
        rc = run(["solve", "minimax", "--game", path, "--seed", 0, "--out", tmp_path])
        assert rc == 0
        sol = read_json(tmp_path / "minimax_solution.json")
        assert sol["value"] == pytest.approx(0.0, abs=1e-9)


def fail_on_call(number, real):
    """real, except that call `number` raises the value LP's status error."""
    calls = [0]

    def solver(*args):
        calls[0] += 1
        if calls[0] == number:
            raise NumericalError("value LP ended with status unbounded")
        return real(*args)

    return solver


class TestStageErrorContext:
    def test_minimax_q_names_state_and_step(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(learners, "stage_minimax", fail_on_call(5, learners.stage_minimax))
        rc = run(["learn", "minimax-q", "--game", "random:zs-stoch:3:2x2:0.9",
                  "--steps", 20, "--seed", 1, "--out", tmp_path])
        assert rc == 4
        err = capsys.readouterr().err
        assert re.search(r"stage solve failed at state \d, step \d+: "
                         r"value LP ended with status unbounded", err)

    @pytest.mark.parametrize("number", [1, 2, 7])
    def test_one_state_names_the_step_the_solve_follows(self, number, tmp_path, capsys,
                                                        monkeypatch):
        # call 1 is the solve before step 1; call k follows the update of step k - 1
        monkeypatch.setattr(learners, "stage_minimax",
                            fail_on_call(number, learners.stage_minimax))
        rc = run(["learn", "minimax-q", "--game", "random:zs-stoch:1:2x2:0.9",
                  "--steps", 20, "--seed", 1, "--out", tmp_path])
        assert rc == 4
        assert (f"stage solve failed at state 0, step {number - 1}: value LP ended with "
                "status unbounded") in capsys.readouterr().err

    def test_shapley_oracle_names_state_and_sweep(self, tmp_path, capsys, monkeypatch):
        # three states per sweep: call 5 is state 1 of sweep 2
        monkeypatch.setattr(learners, "stage_minimax", fail_on_call(5, learners.stage_minimax))
        rc = run(["learn", "minimax-q", "--game", "random:zs-stoch:3:2x2:0.9",
                  "--oracle", "--steps", 20, "--seed", 1, "--out", tmp_path])
        assert rc == 4
        assert ("stage solve failed at state 1, sweep 2: value LP ended with status "
                "unbounded") in capsys.readouterr().err

    def test_ce_q_incentive_error_names_state_and_step(self, tmp_path, capsys, monkeypatch):
        break_ce_incentives(monkeypatch)
        rc = run(["learn", "ce-q", "--game", "random:stoch:2:2x2:0.9",
                  "--steps", 20, "--seed", 1, "--out", tmp_path])
        assert rc == 4
        assert re.search(r"stage solve failed at state \d, step 0: "
                         r"stage CE violates incentives by 0\.5", capsys.readouterr().err)

    def test_solve_ce_incentive_error(self, tmp_path, capsys, monkeypatch):
        break_ce_incentives(monkeypatch)
        out = tmp_path / "od"
        rc = run(["solve", "ce", "--game", "classic:chicken", "--seed", 0, "--out", out])
        assert rc == 4
        assert capsys.readouterr().err == "error: stage CE violates incentives by 0.5\n"
        assert not out.exists()


# Feasible CE LPs on which the simplex fails today (exit 4). Each must pass once
# the CE LP is fixed, and then strict xfail turns red until the mark goes.
KNOWN_CE_FAILURES = [
    ["solve", "ce", "--game", "random:matrix:4x4", "--objective", "utilitarian", "--seed", 8],
    ["solve", "ce", "--game", "random:matrix:3x3", "--objective", "utilitarian", "--seed", 405],
    ["solve", "ce", "--game", "random:matrix:2x2x2", "--objective", "egalitarian",
     "--seed", 3116],
    ["learn", "ce-q", "--game", "random:stoch:2:2x2:0.9", "--objective", "egalitarian",
     "--steps", 500, "--seed", 1905350323],
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CE LP exits 4 on these feasible inputs")
@pytest.mark.parametrize("argv", KNOWN_CE_FAILURES, ids=lambda argv: f"{argv[1]}-{argv[-1]}")
def test_known_ce_lp_failures(argv, tmp_path):
    assert run(argv + ["--out", tmp_path]) == 0


class TestExitCodes:
    def test_missing_seed(self, tmp_path, capsys):
        rc = run(["solve", "minimax", "--game", "classic:rps", "--out", tmp_path])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_classic(self, tmp_path):
        rc = run(["solve", "minimax", "--game", "classic:chess",
                  "--seed", 0, "--out", tmp_path])
        assert rc == 2

    def test_missing_game_file(self, tmp_path):
        rc = run(["solve", "minimax", "--game", tmp_path / "nope.json",
                  "--seed", 0, "--out", tmp_path])
        assert rc == 2

    def test_malformed_game_file_names_field(self, tmp_path, capsys):
        doc = game_to_dict(classic_game("chicken"))
        doc["payoffs"][0] = [1.0, 2.0]  # wrong length
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        rc = run(["solve", "ce", "--game", path, "--seed", 0, "--out", tmp_path])
        assert rc == 2
        assert "payoff" in capsys.readouterr().err.lower()

    def test_bad_random_spec(self, tmp_path):
        rc = run(["solve", "minimax", "--game", "random:matrix:2x2x",
                  "--seed", 0, "--out", tmp_path])
        assert rc == 2

    def test_unknown_objective(self, tmp_path):
        rc = run(["solve", "ce", "--game", "classic:chicken",
                  "--objective", "dictatorial", "--seed", 0, "--out", tmp_path])
        assert rc == 2

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = run(["solve", "minimax", "--game", "classic:rps",
                  "--config", cfg, "--seed", 0, "--out", tmp_path])
        assert rc == 2

    def test_general_sum_into_minimax(self, tmp_path):
        rc = run(["solve", "minimax", "--game", "classic:chicken",
                  "--seed", 0, "--out", tmp_path])
        assert rc == 3

    def test_matrix_source_into_minimax_q(self, tmp_path, capsys):
        rc = run(["learn", "minimax-q", "--game", "classic:rps",
                  "--seed", 0, "--out", tmp_path])
        assert rc == 3
        assert capsys.readouterr().err == "error: a stochastic game is required\n"
        # the library says the same
        for train in (learners.minimax_q_train, learners.correlated_q_train):
            with pytest.raises(SpecError) as info:
                train(classic_game("rps"), schedule=learners.LearningSchedule(max_steps=1))
            assert str(info.value) == "a stochastic game is required"

    def test_stochastic_source_into_solve(self, tmp_path, capsys):
        rc = run(["solve", "ce", "--game", "random:stoch:2:2x2:0.9",
                  "--seed", 0, "--out", tmp_path])
        assert rc == 3
        assert capsys.readouterr().err == "error: a matrix game is required\n"

    @pytest.mark.parametrize("command", [["solve", "ce"], ["learn", "ce-q"]])
    def test_bad_game_file_creates_no_out_dir(self, command, tmp_path):
        out = tmp_path / "od" / "x"
        rc = run(command + ["--game", tmp_path / "nonexistent.json", "--seed", 0,
                            "--out", out])
        assert rc == 2
        assert not (tmp_path / "od").exists()

    @pytest.mark.parametrize("method", ["fp", "replicator", "lola", "merl"])
    def test_record_every_on_a_learner_that_ignores_it(self, method, tmp_path, capsys):
        rc = run(["learn", method, "--game", "classic:prisoners_dilemma",
                  "--record-every", 5, "--seed", 0, "--out", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--record-every" in err and "minimax-q, ce-q, regret" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("method, game", [
        ("minimax-q", "random:zs-stoch:2:2x2:0.9"),
        ("ce-q", "random:stoch:2:2x2:0.9"),
        ("regret", "classic:rps"),
    ])
    def test_record_every_below_one(self, method, game, value, tmp_path, capsys):
        rc = run(["learn", method, "--game", game, "--steps", 10,
                  "--record-every", value, "--seed", 1, "--out", tmp_path])
        assert rc == 3
        assert capsys.readouterr().err == "error: record_every must be at least 1\n"

    @pytest.mark.parametrize("command", [
        ["solve", "minimax", "--game", "classic:rps"],
        ["learn", "minimax-q", "--game", "random:zs-stoch:2:2x2:0.9", "--steps", 10],
    ])
    def test_negative_seed(self, command, tmp_path, capsys):
        rc = run(command + ["--seed", -1, "--out", tmp_path])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be at least 0, not -1\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -4}))
        rc = run(command + ["--config", cfg, "--out", tmp_path])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be at least 0, not -4\n"

    @pytest.mark.parametrize("command", [
        ["learn", "regret", "--game", "classic:rps", "--steps", 0],
        ["learn", "regret", "--game", "classic:rps", "--steps", 10, "--record-every", 0],
        ["learn", "ce-q", "--game", "random:stoch:2:2x2:0.9", "--steps", 10,
         "--episode-length", 0],
        ["learn", "merl", "--generations", 0],
        ["solve", "minimax", "--game", "classic:rps", "--eps", -1],
    ], ids=["regret-steps", "regret-record-every", "ce-q-episode-length", "merl-generations",
            "minimax-eps"])
    def test_failed_run_creates_no_out_dir(self, command, tmp_path):
        out = tmp_path / "od" / "x"
        assert run(command + ["--seed", 1, "--out", out]) == 3
        assert not (tmp_path / "od").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("method, game", [
        ("minimax", "classic:rps"),
        ("ce", "classic:chicken"),
        ("nash-enum", "classic:chicken"),
    ])
    def test_solve_eps_must_be_finite_and_nonnegative(self, method, game, eps, tmp_path,
                                                       capsys):
        out = tmp_path / "od"
        rc = run(["solve", method, "--game", game, "--eps", eps, "--seed", 0, "--out", out])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: eps must be finite and nonnegative, not {float(eps)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
    def test_regret_eps_must_be_finite_and_nonnegative(self, eps, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": eps}))  # NaN and Infinity: Python's JSON extension
        out = tmp_path / "od"
        rc = run(["learn", "regret", "--game", "classic:rps", "--steps", 10,
                  "--config", cfg, "--seed", 0, "--out", out])
        assert rc == 3
        assert capsys.readouterr().err == f"error: eps must be finite and nonnegative, not {eps}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["episode_length", "steps"])
    def test_config_integer_overflow(self, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": 1e400}}')  # JSON reads 1e400 as infinity
        out = tmp_path / "od"
        rc = run(["learn", "minimax-q", "--game", "random:zs-stoch:2:2x2:0.9", "--seed", 1,
                  "--config", cfg, "--out", out])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: config field {key!r}: cannot convert float infinity to integer\n")
        assert not out.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", [
        "epsilon_meet", "init_range", "alpha_q", "alpha_pi", "mutation_sigma"])
    def test_merl_float_fields_must_be_finite(self, field, bad, tmp_path, capsys, monkeypatch):
        rollouts = []
        monkeypatch.setattr(merl, "rollout_team", lambda *args: rollouts.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: bad}))  # NaN and Infinity: Python's JSON extension
        out = tmp_path / "od"
        rc = run(["learn", "merl", "--generations", 2, "--population", 4, "--horizon", 8,
                  "--seed", 7, "--config", cfg, "--out", out])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {field} {bad} must be finite\n"
        assert rollouts == []
        assert not out.exists()

    @pytest.mark.parametrize("alpha_q, generation", [(0.9, 19), (1e300, 1)])
    def test_merl_divergence_names_its_generation(self, alpha_q, generation, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha_q": alpha_q}))
        out = tmp_path / "od"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            rc = run(["learn", "merl", "--generations", 20, "--population", 4, "--horizon", 8,
                      "--seed", 7, "--config", cfg, "--out", out])
        assert rc == 4
        assert capsys.readouterr().err == (
            f"error: divergence detected at step {generation}: actor or critic weights "
            f"not finite in generation {generation} of 20\n")
        assert not out.exists()

    def test_x0_whose_sum_overflows(self, tmp_path, capsys):
        out = tmp_path / "od"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            rc = run(["learn", "replicator", "--game", "classic:rps",
                      "--x0", "1e308,1e308,1e308", "--steps", 3, "--seed", 1, "--out", out])
        assert rc == 3
        assert capsys.readouterr().err == "error: population state sums to inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["inf", "-inf", "nan"])
    def test_dt_must_be_finite_and_positive(self, dt, tmp_path, capsys):
        out = tmp_path / "od"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            rc = run(["learn", "replicator", "--game", "classic:rps", f"--dt={dt}",
                      "--steps", 10, "--seed", 1, "--out", out])
        assert rc == 3
        assert capsys.readouterr().err == f"error: dt {float(dt)} must be finite and positive\n"
        assert not out.exists()

    def test_dt_that_leaves_the_simplex(self, tmp_path, capsys):
        out = tmp_path / "od"
        argv = ["learn", "replicator", "--game", "classic:rps", "--x0", "0.5,0.3,0.2",
                "--steps", 100, "--seed", 1, "--out", out]
        assert run(argv + ["--dt", 5]) == 4
        assert capsys.readouterr().err == "error: negative mass -0.37989 at integration step 2\n"
        assert not out.exists()
        assert run(argv + ["--dt", 2]) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_result_is_not_written(self, bad, tmp_path, capsys, monkeypatch):
        solve = cli.SOLVERS["minimax"]

        def with_bad_value(*args):
            solution, verification = solve(*args)
            return {**solution, "value": bad}, verification

        monkeypatch.setitem(cli.SOLVERS, "minimax", with_bad_value)
        out = tmp_path / "od"
        rc = run(["solve", "minimax", "--game", "classic:rps", "--seed", 0, "--out", out])
        assert rc == 4
        assert capsys.readouterr().err.startswith(
            f"error: refusing to write {out / 'minimax_solution.json'}: ")
        assert not out.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_learn_result_writes_no_curve(self, bad, tmp_path, capsys, monkeypatch):
        learner = cli.LEARNERS["fp"]

        def with_bad_value(run_args):
            result, write_curve = learner.run(run_args)
            return {**result, "final_exploitability": bad}, write_curve

        monkeypatch.setitem(cli.LEARNERS, "fp", learner._replace(run=with_bad_value))
        out = tmp_path / "od"
        rc = run(["learn", "fp", "--game", "classic:rps", "--steps", 5, "--seed", 0, "--out", out])
        assert rc == 4
        assert capsys.readouterr().err.startswith(
            f"error: refusing to write {out / 'fp_result.json'}: ")
        assert not out.exists()

    @pytest.mark.parametrize("x0", [["a", 0.5, 0.5], [None, 0.5, 0.5]])
    def test_bad_x0_in_config(self, x0, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x0": x0}))
        out = tmp_path / "od"
        rc = run(["learn", "replicator", "--game", "classic:rps", "--steps", 3, "--seed", 1,
                  "--config", cfg, "--out", out])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: bad x0 {x0!r}; expected comma-separated numbers or a list of numbers\n")
        assert not out.exists()

    @pytest.mark.parametrize("method, game, per_step", [
        ("fp", "classic:rps", 3),
        ("regret", "classic:rps", 2),
        ("replicator", "classic:rps", 1),
        ("lola", "classic:prisoners_dilemma", 12),
    ])
    def test_steps_over_the_recording_cap(self, method, game, per_step, tmp_path, capsys):
        steps = 10**15
        out = tmp_path / "od"
        rc = run(["learn", method, "--game", game, "--steps", steps, "--seed", 1, "--out", out])
        assert rc == 3
        recorded = per_step * (steps + (method in ("replicator", "lola")))
        assert capsys.readouterr().err == (
            f"error: steps {steps}: {recorded} entries to record exceed the cap "
            f"{errors.MAX_RECORDED_ENTRIES}\n")
        assert not out.exists()

    @pytest.mark.parametrize("method, game, columns", [
        ("minimax-q", "random:zs-stoch:2:2x2:0.9", 3),
        ("ce-q", "random:stoch:2:2x2:0.9", 3),
        ("ce-q", "random:stoch:2:2x2x2:0.9", 4),
    ])
    def test_stage_q_curve_over_the_recording_cap(self, method, game, columns, monkeypatch,
                                                  tmp_path, capsys):
        def no_steps(*args, **kwargs):
            pytest.fail("the learner took a step before bounding its curve")

        monkeypatch.setattr(learners, "_epsilon", no_steps)
        steps, every = 10**11, 1
        out = tmp_path / "od"
        rc = run(["learn", method, "--game", game, "--steps", steps, "--record-every", every,
                  "--seed", 1, "--out", out])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: steps {steps}, record_every {every}: {columns * steps} entries to record "
            f"exceed the cap {errors.MAX_RECORDED_ENTRIES}\n")
        assert not out.exists()
        # at the cap the run goes ahead
        steps, every = 10**7, columns
        with pytest.raises(pytest.fail.Exception, match="took a step"):
            run(["learn", method, "--game", game, "--steps", steps, "--record-every", every,
                 "--seed", 1, "--out", out])

    def test_recording_cap_is_inclusive(self):
        errors.check_recorded(errors.MAX_RECORDED_ENTRIES, steps=1)
        with pytest.raises(SpecError, match="^steps 1: 10000001 entries to record"):
            errors.check_recorded(errors.MAX_RECORDED_ENTRIES + 1, steps=1)

    @pytest.mark.parametrize("flag, value", [("alpha", "inf"), ("beta", "nan"), ("alpha", "0")])
    def test_lola_step_sizes_must_be_finite(self, flag, value, tmp_path, capsys):
        out = tmp_path / "od"
        rc = run(["learn", "lola", "--game", "classic:prisoners_dilemma", f"--{flag}", value,
                  "--steps", 2, "--seed", 0, "--out", out])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {flag} {float(value)} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("spec, drawn", [
        ("random:matrix:100000x100000", 2 * 10**10),
        ("random:zs-stoch:100:100x100:0.9", 102 * 100 * 10**4),
    ])
    def test_random_spec_over_the_draw_cap(self, spec, drawn, monkeypatch, tmp_path, capsys):
        def no_draws(*args, **kwargs):
            pytest.fail("random_game reached its generator before bounding the game's size")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        out = tmp_path / "od"
        rc = run(["learn", "fp", "--game", spec, "--steps", 10, "--seed", 1, "--out", out])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: random game spec {spec!r}: {drawn} entries to draw exceed the cap "
            f"{games.MAX_RANDOM_ENTRIES}\n")
        assert not out.exists()

    def test_wrong_x0_length(self, tmp_path):
        rc = run(["learn", "replicator", "--game", "classic:rps",
                  "--x0", "0.5,0.5", "--seed", 0, "--steps", 10, "--out", tmp_path])
        assert rc == 3

    def test_unparsable_x0(self, tmp_path):
        rc = run(["learn", "replicator", "--game", "classic:rps",
                  "--x0", "a,b,c", "--seed", 0, "--steps", 10, "--out", tmp_path])
        assert rc == 2

    def test_unknown_method_is_usage_error(self, capsys):
        rc = run(["solve", "gradient-descent", "--seed", 0])
        capsys.readouterr()
        assert rc == 2

    def test_help_exits_zero(self, capsys):
        rc = run(["--help"])
        capsys.readouterr()
        assert rc == 0


class TestValidate:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        save_game(random_game(2, (2, 2), num_states=2, discount=0.9), path)
        rc = run(["validate", path])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_broken_transition_row(self, tmp_path, capsys):
        doc = game_to_dict(random_game(2, (2, 2), num_states=2, discount=0.9))
        doc["transition"][0][0] = [0.4, 0.4]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = run(["validate", path])
        assert rc == 2
        assert "transition" in capsys.readouterr().out

    def test_discount_out_of_range(self, tmp_path, capsys):
        doc = game_to_dict(random_game(2, (2, 2), num_states=2, discount=0.9))
        doc["discount"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = run(["validate", path])
        assert rc == 2
        assert "discount" in capsys.readouterr().out

    def test_unreadable_path(self, tmp_path):
        rc = run(["validate", tmp_path / "missing.json"])
        assert rc == 2


class TestLearn:
    def test_replicator_rows_stay_on_simplex(self, tmp_path):
        rc = run(["learn", "replicator", "--game", "classic:rps",
                  "--x0", "0.5,0.3,0.2", "--steps", 200, "--seed", 0,
                  "--out", tmp_path])
        assert rc == 0
        lines = (tmp_path / "replicator_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,x_3"
        assert len(lines) == 202
        for line in lines[1:]:
            parts = [float(v) for v in line.split(",")]
            assert abs(sum(parts[1:]) - 1.0) < 1e-9

    def test_minimax_q_with_oracle_column(self, tmp_path):
        rc = run(["learn", "minimax-q", "--game", "random:zs-stoch:3:2x2:0.9",
                  "--steps", 2000, "--seed", 1, "--oracle", "--out", tmp_path])
        assert rc == 0
        lines = (tmp_path / "minimax_q_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "step,mean_reward,sup_value_error"
        result = read_json(tmp_path / "minimax_q_result.json")
        assert "oracle_values" in result
        assert isinstance(result["oracle_sweeps"], int) and 1 <= result["oracle_sweeps"] <= 10
        final_err = float(lines[-1].split(",")[2])
        assert final_err == pytest.approx(result["sup_value_error"], abs=1e-12)

    def test_minimax_q_without_oracle(self, tmp_path):
        rc = run(["learn", "minimax-q", "--game", "random:zs-stoch:2:2x2:0.9",
                  "--steps", 500, "--seed", 1, "--out", tmp_path])
        assert rc == 0
        lines = (tmp_path / "minimax_q_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "step,mean_reward"

    def test_regret_and_ce_check(self, tmp_path):
        rc = run(["learn", "regret", "--game", "classic:rps", "--steps", 3000,
                  "--mode", "internal", "--seed", 2, "--out", tmp_path])
        assert rc == 0
        result = read_json(tmp_path / "regret_result.json")
        assert result["mode"] == "internal"
        assert result["ce_check_passed"] is True
        assert sum(result["empirical"]) == pytest.approx(1.0, abs=1e-9)

    def test_fp_curve(self, tmp_path):
        rc = run(["learn", "fp", "--game", "classic:matching_pennies",
                  "--steps", 300, "--seed", 0, "--out", tmp_path])
        assert rc == 0
        lines = (tmp_path / "fp_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "step,exploitability"
        assert len(lines) == 301

    def test_ce_q_runs(self, tmp_path):
        rc = run(["learn", "ce-q", "--game", "random:stoch:2:2x2:0.9",
                  "--steps", 500, "--seed", 4, "--out", tmp_path])
        assert rc == 0
        lines = (tmp_path / "ce_q_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "step,mean_reward_1,mean_reward_2"

    def test_lola_outputs(self, tmp_path):
        rc = run(["learn", "lola", "--game", "classic:prisoners_dilemma",
                  "--steps", 20, "--seed", 0, "--learner", "naive",
                  "--out", tmp_path])
        assert rc == 0
        lines = (tmp_path / "lola_curve.csv").read_text().strip().splitlines()
        assert lines[0].startswith("step,value_1,value_2")
        result = read_json(tmp_path / "lola_result.json")
        assert len(result["theta1"]) == 5

    def test_merl_outputs(self, tmp_path):
        rc = run(["learn", "merl", "--generations", 3, "--population", 4,
                  "--horizon", 10, "--seed", 5, "--out", tmp_path])
        assert rc == 0
        lines = (tmp_path / "merl_curve.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# config ")
        assert '"out"' not in lines[0]
        assert lines[1] == "generation,best_fitness,mean_fitness,pg_fitness,best_ever"
        assert len(lines) == 5
        result = read_json(tmp_path / "merl_result.json")
        assert len(result["best_genome"]) == 9


class TestConfigPlumbing:
    def test_config_file_supplies_values_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"game": "classic:rps", "seed": 5, "steps": 100, "mode": "external"}
        ))
        rc = run(["learn", "regret", "--config", cfg, "--steps", 240,
                  "--out", tmp_path])
        assert rc == 0
        manifest = read_json(tmp_path / "regret_manifest.json")
        assert manifest["config"]["steps"] == 240
        assert manifest["config"]["game"] == "classic:rps"
        assert manifest["config"]["seed"] == 5

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("GTMARL_OUT", str(target))
        rc = run(["solve", "minimax", "--game", "classic:rps", "--seed", 0])
        assert rc == 0
        assert (target / "minimax_solution.json").exists()

    def test_config_only_merl_field_changes_curve(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"elite_count": 1}))
        argv = ["learn", "merl", "--generations", 5, "--population", 6,
                "--horizon", 10, "--seed", 7]
        assert run(argv + ["--out", tmp_path / "a"]) == 0
        assert run(argv + ["--config", cfg, "--out", tmp_path / "b"]) == 0
        curves = [(tmp_path / d / "merl_curve.csv").read_text().splitlines() for d in "ab"]
        assert '"elite_count": 1' in curves[1][0]
        assert curves[0][1:] != curves[1][1:]

    def test_schedule_fields_reach_minimax_q(self, tmp_path, monkeypatch):
        schedules = []
        real = cli.minimax_q_train

        def spy(game, schedule, *rest):
            schedules.append(schedule)
            return real(game, schedule, *rest)

        monkeypatch.setattr(cli, "minimax_q_train", spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"episode_length": 5, "alpha_decay": "", "epsilon_decay": ""}
        ))
        argv = ["learn", "minimax-q", "--game", "random:zs-stoch:2:2x2:0.9",
                "--steps", 50, "--seed", 1, "--out", tmp_path]
        assert run(argv) == 0
        assert run(argv + ["--config", cfg]) == 0
        plain, configured = schedules
        assert plain.episode_length is None
        assert configured.episode_length == 5
        # An empty decay tag means the field default.
        assert configured.alpha_decay == plain.alpha_decay == learners.ONE_OVER_VISITS
        assert configured.epsilon_decay == plain.epsilon_decay == learners.CONSTANT
        assert configured.max_steps == 50

    def test_bad_field_type_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": "x"}))
        rc = run(["learn", "merl", "--config", cfg, "--seed", 7, "--out", tmp_path])
        assert rc == 2
        assert "config field 'tau'" in capsys.readouterr().err


class TestFlagSet:
    """The option names of solve and learn are pinned: a new knob must be
    added here on purpose."""

    @pytest.mark.parametrize("command, options", [
        ("solve", "config eps game objective out seed"),
        ("learn", "agents alpha alpha-decay alpha0 beta config dt episode-length "
                  "epsilon-decay epsilon0 game gamma generations horizon integrator "
                  "learner mode objective oracle out population record-every seed "
                  "steps x0"),
    ])
    def test_option_names(self, command, options, capsys):
        assert run([command, "--help"]) == 0
        found = set(re.findall(r"--([\w-]+)", capsys.readouterr().out))
        assert found == set(options.split()) | {"help"}


class TestParserReuse:
    """main builds its parser on its first call in a process and reuses it;
    no option value carries over from one call to the next."""

    def test_parser_built_once(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        path = tmp_path / "rps.json"
        save_game(classic_game("rps"), path)
        commands = [
            ["solve", "minimax", "--game", "classic:rps", "--seed", 0],
            ["solve", "ce", "--game", "classic:chicken", "--seed", 0],
            ["solve", "nash-enum", "--game", "classic:chicken", "--seed", 0],
            ["learn", "regret", "--game", "classic:rps", "--steps", 20, "--seed", 1],
            ["learn", "fp", "--game", "classic:rps", "--steps", 20, "--seed", 1],
            ["learn", "minimax-q", "--game", "random:zs-stoch:2:2x2:0.9", "--steps", 20,
             "--seed", 1],
            ["validate", path],
            ["solve", "minimax", "--game", "classic:rps", "--seed", 1],
            ["learn", "replicator", "--game", "classic:rps", "--steps", 20, "--seed", 1],
            ["solve", "minimax", "--game", "classic:rps", "--seed", 2],
        ]
        counts = []
        for idx, argv in enumerate(commands):
            out = [] if argv[0] == "validate" else ["--out", tmp_path / str(idx)]
            assert run(argv + out) == 0, argv
            counts.append(len(built))
        assert counts[0] > 0
        assert counts == [counts[0]] * len(commands)

    def test_oracle_flag_does_not_carry_over(self, tmp_path):
        argv = ["learn", "minimax-q", "--game", "random:zs-stoch:2:2x2:0.9",
                "--steps", 200, "--seed", 1]
        assert run(argv + ["--oracle", "--out", tmp_path / "a"]) == 0
        assert run(argv + ["--out", tmp_path / "b"]) == 0
        assert "oracle_values" in read_json(tmp_path / "a" / "minimax_q_result.json")
        assert "oracle_values" not in read_json(tmp_path / "b" / "minimax_q_result.json")
        header = (tmp_path / "b" / "minimax_q_curve.csv").read_text().splitlines()[0]
        assert header == "step,mean_reward"

    def test_errors_and_help_leave_no_trace(self, tmp_path, capsys):
        argv = ["solve", "minimax", "--game", "classic:rps", "--seed", "0"]
        assert run(["solve", "minimax", "--no-such-flag", "--seed", 0]) == 2
        assert run(["solve", "--help"]) == 0
        capsys.readouterr()
        assert run(argv + ["--out", tmp_path]) == 0
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())
            if not p.name.endswith("_manifest.json")
        }
        assert written == pinned_digests("outputs")[" ".join(argv)]


class TestByteIdenticalReruns:
    def compare_runs(self, argv, tmp_path, stem):
        """Two runs into --out paths of different length write the same
        bytes; their manifests differ only in the wall time."""
        dirs = [tmp_path / "a", tmp_path / "a_longer_path" / "b"]
        for d in dirs:
            rc = run(argv + ["--out", d])
            assert rc == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            if name.endswith("_manifest.json"):
                a = read_json(dirs[0] / name)
                b = read_json(dirs[1] / name)
                del a["wall_time_s"], b["wall_time_s"]
                assert a == b
            else:
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_solve_rerun(self, tmp_path):
        self.compare_runs(
            ["solve", "ce", "--game", "classic:chicken", "--seed", 0],
            tmp_path, "ce",
        )

    def test_learn_regret_rerun(self, tmp_path):
        self.compare_runs(
            ["learn", "regret", "--game", "classic:rps", "--steps", 500, "--seed", 3],
            tmp_path, "regret",
        )

    def test_learn_merl_rerun(self, tmp_path):
        self.compare_runs(
            ["learn", "merl", "--generations", 2, "--population", 4,
             "--horizon", 8, "--seed", 1],
            tmp_path, "merl",
        )
