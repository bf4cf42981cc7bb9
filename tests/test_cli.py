"""Command-line interface: exit codes, output files, config merging, and
byte-identical reruns."""

import json
import re

import numpy as np
import pytest

from gtmarl import cli, learners
from gtmarl.cli import main
from gtmarl.errors import NumericalError
from gtmarl.games import classic_game, game_to_dict, random_game, save_game


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

    def test_shapley_oracle_names_state_and_sweep(self, tmp_path, capsys, monkeypatch):
        # three states per sweep: call 5 is state 1 of sweep 2
        monkeypatch.setattr(learners, "stage_minimax", fail_on_call(5, learners.stage_minimax))
        rc = run(["learn", "minimax-q", "--game", "random:zs-stoch:3:2x2:0.9",
                  "--oracle", "--steps", 20, "--seed", 1, "--out", tmp_path])
        assert rc == 4
        assert ("stage solve failed at state 1, sweep 2: value LP ended with status "
                "unbounded") in capsys.readouterr().err

    def test_ce_q_incentive_error_names_state_and_step(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(learners, "ce_violations", lambda *args: (0.5, []))
        rc = run(["learn", "ce-q", "--game", "random:stoch:2:2x2:0.9",
                  "--steps", 20, "--seed", 1, "--out", tmp_path])
        assert rc == 4
        assert re.search(r"stage solve failed at state \d, step 1: "
                         r"stage CE violates incentives by 0\.5", capsys.readouterr().err)


# Feasible CE LPs on which solve_lp fails today (exit 4). Each must pass once
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

    def test_matrix_source_into_minimax_q(self, tmp_path):
        rc = run(["learn", "minimax-q", "--game", "classic:rps",
                  "--seed", 0, "--out", tmp_path])
        assert rc == 3

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


class TestByteIdenticalReruns:
    def compare_runs(self, argv, tmp_path, stem):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            rc = run(argv + ["--out", d])
            assert rc == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            if name.endswith("_manifest.json"):
                a = read_json(dirs[0] / name)
                b = read_json(dirs[1] / name)
                assert a["outputs"] == b["outputs"]
                assert a["config"]["seed"] == b["config"]["seed"]
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
