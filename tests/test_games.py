"""Game containers, joint-action indexing, belief filtering, JSON round-trip."""

import copy
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtmarl.cli import main
from gtmarl.errors import GameFormatError, InconsistentObservationError, SpecError
from gtmarl.games import (
    belief_state,
    belief_update,
    build_matrix_game,
    check_game_dict,
    classic_game,
    expected_payoff,
    game_from_dict,
    game_to_dict,
    joint_count,
    joint_index,
    joint_tuple,
    load_game,
    make_posg,
    make_stochastic_game,
    mixed_profile,
    random_game,
    save_game,
    strides,
)


class TestClassicGames:
    def test_matching_pennies_payoffs(self):
        g = classic_game("matching_pennies")
        assert g.zero_sum
        assert g.payoffs[0].tolist() == [[1.0, -1.0], [-1.0, 1.0]]
        assert np.array_equal(g.payoffs[1], -g.payoffs[0])

    def test_rps_rows(self):
        g = classic_game("rps")
        # rows (rock, paper, scissors): rock loses to paper, beats scissors
        assert g.payoffs[0][0].tolist() == [0.0, -1.0, 1.0]
        assert g.payoffs[0][1].tolist() == [1.0, 0.0, -1.0]
        assert g.payoffs[0][2].tolist() == [-1.0, 1.0, 0.0]

    def test_prisoners_dilemma_payoffs(self):
        g = classic_game("prisoners_dilemma")
        assert g.payoffs[0].tolist() == [[3.0, 0.0], [5.0, 1.0]]
        assert g.payoffs[1].tolist() == [[3.0, 5.0], [0.0, 1.0]]
        assert not g.zero_sum

    def test_chicken_payoffs(self):
        g = classic_game("chicken")
        assert g.payoffs[0].tolist() == [[6.0, 2.0], [7.0, 0.0]]
        assert g.payoffs[1].tolist() == [[6.0, 7.0], [2.0, 0.0]]

    def test_unknown_name(self):
        with pytest.raises(GameFormatError):
            classic_game("tic_tac_toe")


class TestJointIndexing:
    def test_roundtrip_all_indices(self):
        actions = (2, 3, 2)
        for flat in range(12):
            assert joint_index(actions, joint_tuple(actions, flat)) == flat

    def test_agent_one_most_significant(self):
        # (a1, a2) with a1 in the leading position: (1, 0) of a 2x3 game
        # comes after every (0, *) profile
        assert joint_index((2, 3), (1, 0)) == 3
        assert joint_tuple((2, 3), 5) == (1, 2)

    def test_strides_give_the_joint_index(self):
        actions = (3, 2, 4)
        for flat in range(joint_count(actions)):
            assert np.array(joint_tuple(actions, flat)) @ strides(actions) == flat

    def test_joint_count_is_exact(self):
        assert joint_count((4294967296, 4294967296)) == 2**64

    def test_matches_ravel_multi_index(self):
        actions = (3, 2, 4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            joint = tuple(int(rng.integers(k)) for k in actions)
            assert joint_index(actions, joint) == int(
                np.ravel_multi_index(joint, actions)
            )


class TestExpectedPayoff:
    def test_pure_profiles_recover_entries(self):
        g = classic_game("chicken")
        for a1 in range(2):
            for a2 in range(2):
                mix = mixed_profile(
                    [np.eye(2)[a1], np.eye(2)[a2]]
                )
                values = expected_payoff(g, mix)
                assert values[0] == pytest.approx(g.payoffs[0][a1, a2])
                assert values[1] == pytest.approx(g.payoffs[1][a1, a2])

    def test_uniform_profile(self):
        g = classic_game("prisoners_dilemma")
        mix = mixed_profile([[0.5, 0.5], [0.5, 0.5]])
        # mean of all four cells
        assert expected_payoff(g, mix)[0] == pytest.approx(9.0 / 4.0)

    def test_multilinearity(self):
        g = random_game(4, (3, 2))
        rng = np.random.default_rng(1)
        other = rng.dirichlet(np.ones(2))
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        for lam in (0.0, 0.3, 1.0):
            blend = lam * p + (1 - lam) * q
            left = expected_payoff(g, mixed_profile([blend, other]))[0]
            right = lam * expected_payoff(g, mixed_profile([p, other]))[0] + (
                1 - lam
            ) * expected_payoff(g, mixed_profile([q, other]))[0]
            assert left == pytest.approx(right, abs=1e-12)

    def test_three_agents(self):
        g = random_game(9, (2, 2, 2))
        mix = mixed_profile([[1, 0], [0, 1], [1, 0]])
        values = expected_payoff(g, mix)
        assert values[2] == pytest.approx(g.payoffs[2][0, 1, 0])


class TestValidation:
    def test_transition_rows_must_normalize(self):
        t = np.full((1, 2, 1), 0.9)
        r = (np.zeros((1, 2)),)
        with pytest.raises(GameFormatError, match="state 0"):
            make_stochastic_game((2,), t, r, 0.9)

    def test_discount_open_interval(self):
        t = np.ones((1, 2, 1))
        r = (np.zeros((1, 2)),)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(GameFormatError):
                make_stochastic_game((2,), t, r, bad)

    def test_zero_sum_autodetected(self):
        zs = build_matrix_game((2, 2), [[1, 2, 3, 4], [-1, -2, -3, -4]])
        assert zs.zero_sum
        gs = build_matrix_game((2, 2), [[1, 2, 3, 4], [1, 2, 3, 4]])
        assert not gs.zero_sum

    def test_mixture_must_normalize(self):
        with pytest.raises(GameFormatError):
            mixed_profile([[0.7, 0.2]])

    @pytest.mark.parametrize("make, what", [
        (lambda: mixed_profile([[1e308, 1e308]]), "mixtures[0]"),
        (lambda: belief_state([1e308, 1e308]), "belief"),
    ], ids=["mixed_profile", "belief_state"])
    def test_overflowing_sum_refused_without_warning(self, make, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GameFormatError, match=rf"^{re.escape(what)} sums to inf, expected 1$"):
                make()

    def test_payoff_entries_shape(self):
        with pytest.raises(GameFormatError):
            build_matrix_game((2, 2), [[1, 2, 3], [1, 2, 3]])


class TestBeliefFilter:
    def _posg(self):
        # 3 hidden states, joint actions of a 2x1 game, deterministic cycle
        # plus a noisy action
        t = np.zeros((3, 2, 3))
        t[:, 0] = np.roll(np.eye(3), 1, axis=1)  # action 0: s -> s+1 mod 3
        t[:, 1] = np.full((3, 3), 1.0 / 3.0)     # action 1: uniform reset
        r = (np.zeros((3, 2)), np.zeros((3, 2)))
        base = make_stochastic_game((2, 1), t, r, 0.9)
        # agent 0 sees state parity; agent 1 sees nothing
        obs = np.array([[0, 1, 0], [0, 0, 0]])
        return make_posg(base, obs)

    def test_posterior_normalized(self):
        game = self._posg()
        prior = belief_state([0.2, 0.5, 0.3])
        post = belief_update(game, prior, (1, 0), 0, agent=0)
        assert post.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(post.probs >= 0.0)

    def test_revealing_observation_gives_point_mass(self):
        game = self._posg()
        prior = belief_state([1.0 / 3.0] * 3)
        post = belief_update(game, prior, (1, 0), 1, agent=0)
        # only state 1 emits observation 1
        assert post.probs == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_impossible_observation_raises(self):
        game = self._posg()
        prior = belief_state([1.0, 0.0, 0.0])
        # action 0 moves state 0 to state 1 deterministically, which emits 1
        with pytest.raises(InconsistentObservationError):
            belief_update(game, prior, (0, 0), 0, agent=0)

    def test_uninformative_observation_keeps_prediction(self):
        game = self._posg()
        prior = belief_state([0.2, 0.5, 0.3])
        post = belief_update(game, prior, (1, 0), 0, agent=1)
        # agent 1's observation map is constant: posterior == prediction
        assert post.probs == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)

    def test_deterministic_cycle_point_mass_moves(self):
        game = self._posg()
        prior = belief_state([0.0, 0.0, 1.0])
        post = belief_update(game, prior, (0, 0), 0, agent=0)
        assert post.probs == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_flat_action_index_accepted(self):
        game = self._posg()
        prior = belief_state([0.2, 0.5, 0.3])
        a = belief_update(game, prior, (1, 0), 0, agent=1)
        b = belief_update(game, prior, 1, 0, agent=1)
        assert a.probs == pytest.approx(b.probs, abs=0)


class TestRandomGame:
    def test_matrix_payoff_range(self):
        g = random_game(0, (3, 3))
        for p in g.payoffs:
            assert p.min() >= -1.0 and p.max() <= 1.0

    def test_zero_sum_random(self):
        g = random_game(1, (2, 2), zero_sum=True)
        assert g.zero_sum
        assert np.array_equal(g.payoffs[1], -g.payoffs[0])

    def test_stochastic_rows_normalized(self):
        g = random_game(2, (2, 2), num_states=4, discount=0.8)
        sums = g.transition.sum(axis=2)
        assert sums == pytest.approx(np.ones_like(sums), abs=1e-12)
        assert g.discount == 0.8

    def test_seed_determinism(self):
        a = random_game(3, (2, 3), num_states=2, discount=0.9)
        b = random_game(3, (2, 3), num_states=2, discount=0.9)
        assert np.array_equal(a.transition, b.transition)
        assert all(np.array_equal(x, y) for x, y in zip(a.rewards, b.rewards))


class TestJsonRoundTrip:
    def test_matrix_game(self, tmp_path):
        g = classic_game("chicken")
        path = tmp_path / "chicken.json"
        save_game(g, path)
        back = load_game(path)
        assert back.actions == g.actions
        assert all(np.array_equal(a, b) for a, b in zip(back.payoffs, g.payoffs))
        assert back.zero_sum == g.zero_sum

    def test_stochastic_game(self, tmp_path):
        g = random_game(7, (2, 2), num_states=3, discount=0.95)
        path = tmp_path / "stoch.json"
        save_game(g, path)
        back = load_game(path)
        assert np.array_equal(back.transition, g.transition)
        assert back.discount == g.discount

    def test_posg(self, tmp_path):
        base = random_game(8, (2, 2), num_states=3, discount=0.9)
        obs = np.array([[0, 1, 2], [0, 0, 1]])
        game = make_posg(base, obs)
        path = tmp_path / "posg.json"
        save_game(game, path)
        back = load_game(path)
        assert np.array_equal(back.obs_map, game.obs_map)
        assert np.array_equal(back.base.transition, game.base.transition)

    def test_check_game_dict_reports_all_violations(self):
        g = random_game(9, (2, 2), num_states=2, discount=0.9)
        doc = game_to_dict(g)
        doc["transition"][0][0][0] = 0.5
        doc["transition"][1][2][1] = 0.2
        doc["discount"] = 1.5
        violations = check_game_dict(doc)
        text = "\n".join(violations)
        assert len(violations) >= 3
        assert "transition[0][0]" in text
        assert "transition[1][2]" in text
        assert "discount" in text

    def test_game_from_dict_rejects_bad_payoff_shape(self):
        g = classic_game("rps")
        doc = game_to_dict(g)
        doc["payoffs"][0] = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(GameFormatError):
            game_from_dict(doc)

    def test_load_game_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GameFormatError):
            load_game(path)


def _posg_doc():
    base = random_game(8, (2, 1), num_states=3, discount=0.9)
    return game_to_dict(make_posg(base, [[0, 1, 2], [0, 0, 1]]))


VALID_DOCS = (
    game_to_dict(random_game(1, (2, 3))),
    game_to_dict(random_game(2, (2, 2), num_states=2, discount=0.9)),
    _posg_doc(),
)


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# A transition row whose Python sum is within PROB_TOL of 1 but whose numpy
# (pairwise) sum is not: rng = np.random.default_rng(0), draw
# rng.dirichlet(np.ones(9)) * (1 + 1e-12 * rng.uniform(0.9, 1.1)) until the
# two disagree (the 5484th draw).
SPLIT_SUM_ROW = [
    0.03502540620640776, 0.009631212231574366, 0.1568539641539938,
    0.19014569489713382, 0.22784119632315167, 0.15264407466603183,
    0.18745546990162615, 0.029872314207263346, 0.01053066741381724,
]
_transition = np.eye(9)[:, None, :].tolist()
_transition[0][0] = SPLIT_SUM_ROW

REPRODUCERS = {
    # 2**64 joint actions: the product wraps to 0 in int64 arithmetic
    "joint-count-overflow": {
        "type": "matrix", "actions": [4294967296, 4294967296], "payoffs": [[], []],
    },
    "int-beyond-int64": _with(VALID_DOCS[0], ["payoffs", 0, 1], 18446744073709551616),
    "int-beyond-double": _with(VALID_DOCS[0], ["payoffs", 0, 1], 10**400),
    "obs-entry-not-an-index": _with(VALID_DOCS[2], ["obs", 0, 1], [1]),
    "row-sum-by-python-sum": {
        "type": "stochastic", "actions": [1], "states": 9, "discount": 0.9,
        "payoffs": [np.zeros((9, 1)).tolist()], "transition": _transition,
    },
}

BAD_VALUES = (None, True, False, "1", float("nan"), float("inf"), -float("inf"),
              2**64, 10**400, 0, -1, 1.5, [], [1], {})


@st.composite
def mutated_docs(draw):
    """A valid document with one field or entry replaced, deleted, or
    lengthened or shortened by one entry."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                  else range(len(node))))
        node = parent[key]
    action = draw(st.sampled_from(("replace", "delete", "resize")))
    if action == "delete":
        del parent[key]
    elif action == "resize" and isinstance(node, list) and node:
        parent[key] = node[:-1] if draw(st.booleans()) else node + node[-1:]
    else:
        parent[key] = draw(st.sampled_from(BAD_VALUES))
    return doc


class TestOneValidator:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_docs())
    @example(REPRODUCERS["joint-count-overflow"])
    @example(REPRODUCERS["int-beyond-int64"])
    @example(REPRODUCERS["obs-entry-not-an-index"])
    @example(REPRODUCERS["row-sum-by-python-sum"])
    def test_check_game_dict_agrees_with_the_constructors(self, doc):
        violations = check_game_dict(doc)
        try:
            game_from_dict(doc)
        except GameFormatError as exc:
            assert violations and str(exc) == violations[0]
        else:
            assert violations == []

    def test_valid_documents_pass(self):
        for doc in VALID_DOCS:
            assert check_game_dict(doc) == []

    def test_joint_count_overflow_is_reported(self):
        violations = check_game_dict(REPRODUCERS["joint-count-overflow"])
        assert violations == ["payoffs[0] has 0 entries, expected 18446744073709551616"]

    @pytest.mark.parametrize("name", sorted(REPRODUCERS))
    def test_validate_exits_2(self, name, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(REPRODUCERS[name]))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize(
        "content", [None, b"\xff{", b"[" + b"9" * 5000 + b"]", b"[" * 100000 + b"]" * 100000],
        ids=["directory", "not-utf8", "overlong-integer", "deep-nesting"])
    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_unreadable_game_file_exits_2(self, command, content, tmp_path, capsys):
        path = tmp_path / "game.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = ["validate", str(path)] if command == "validate" else [
            "solve", "ce", "--game", str(path), "--seed", "0", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot read game file")

    def test_solve_rejects_joint_count_overflow(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(REPRODUCERS["joint-count-overflow"]))
        rc = main(["solve", "ce", "--game", str(path), "--seed", "0", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: payoffs[0]") and "Traceback" not in err
