"""UCT search tests: UCB scoring, growth and conservation invariants,
determinism, checkpoint consistency, and small-scale decision quality."""

import io
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critgames import search_uct
from critgames.heuristics import HeuristicSpec, gaussian, parse_heuristic
from critgames.search_uct import (
    BreadthFirstReport,
    UctConfig,
    breadth_first_check,
    check_conservation,
    ucb_score,
    uct_search,
)
from critgames.tree_model import GameParams, Player, node_meta, node_value, walk

PERFECT = HeuristicSpec("perfect")
LIGHT = parse_heuristic("histogram:chess_p10_light")


def make_params(b=2, gamma=1.0, d_max=4, seed=1):
    return GameParams(branching_factor=b, critical_rate=gamma, max_depth=d_max, seed=seed)


class TestUcbScore:
    def test_direct_substitution(self):
        got = ucb_score(0.5, 1, 4, 1.0, Player.MAX)
        assert got == pytest.approx(1.6774100225154747, abs=1e-12)

    def test_unvisited_is_infinite(self):
        assert ucb_score(0.5, 0, 4, 1.0, Player.MAX) == math.inf
        assert ucb_score(0.9, 0, 1, 0.0, Player.MIN) == math.inf

    def test_min_negamax_no_exploration(self):
        assert ucb_score(0.3, 5, 9, 0.0, Player.MIN) == pytest.approx(0.7)

    def test_min_inverts_ordering(self):
        a = ucb_score(0.2, 3, 10, 0.5, Player.MIN)
        b = ucb_score(0.8, 3, 10, 0.5, Player.MIN)
        assert a > b


class TestUctConfig:
    def test_defaults_checkpoint_to_budget(self):
        cfg = UctConfig(1.0, 50, PERFECT, seed=0)
        assert cfg.checkpoints == (50,)

    def test_validation(self):
        for c in (-0.1, math.nan):
            with pytest.raises(ValueError, match="exploration constant must be >= 0"):
                UctConfig(c, 10, PERFECT, seed=0)
        with pytest.raises(ValueError):
            UctConfig(1.0, 0, PERFECT, seed=0)
        with pytest.raises(ValueError):
            UctConfig(1.0, 10, PERFECT, seed=2**64)
        with pytest.raises(ValueError):
            UctConfig(1.0, 10, PERFECT, seed=0, checkpoints=(5, 5))
        with pytest.raises(ValueError):
            UctConfig(1.0, 10, PERFECT, seed=0, checkpoints=(5, 3))
        with pytest.raises(ValueError):
            UctConfig(1.0, 10, PERFECT, seed=0, checkpoints=(11,))
        with pytest.raises(ValueError):
            UctConfig(1.0, 10, PERFECT, seed=0, checkpoints=(0, 10))


class TestDegenerateBudget:
    def test_single_iteration_tree(self):
        res = uct_search(make_params(), UctConfig(1.0, 1, PERFECT, seed=3))
        assert res.node_count == 1
        assert res.depth_histogram == (1,)
        assert res.breadth_first == BreadthFirstReport(True, 0)
        assert res.checkpoints[0].visits == (0, 0)

    def test_action_uniform_over_children(self):
        params = make_params(b=3)
        counts = [0, 0, 0]
        for seed in range(240):
            res = uct_search(params, UctConfig(1.0, 1, PERFECT, seed=seed))
            counts[res.final_action] += 1
        assert min(counts) > 40


class TestGrowthAndConservation:
    def test_one_node_per_iteration_until_saturation(self):
        params = make_params(d_max=2)  # 7 reachable nodes
        # exploration large enough that no subtree is revisited while
        # untracked nodes remain anywhere
        for n, expected in ((1, 1), (5, 5), (7, 7), (50, 7)):
            res = uct_search(params, UctConfig(100.0, n, PERFECT, seed=2))
            assert res.node_count == expected

    def test_revisits_can_precede_saturation(self):
        # greedy search locks onto the winning subtree and replays its
        # terminals while the losing subtree stays unexpanded
        params = make_params(d_max=2)
        res = uct_search(params, UctConfig(0.8, 7, PERFECT, seed=2))
        assert res.node_count < 7
        assert check_conservation(res.tree)

    def test_deep_tree_never_saturates(self):
        params = make_params(d_max=40)
        res = uct_search(params, UctConfig(1.0, 600, LIGHT, seed=5))
        assert res.node_count == 600
        assert sum(res.depth_histogram) == 600

    def test_depth_histogram_matches_tree(self):
        params = make_params(b=3, gamma=0.7, d_max=5, seed=6)
        res = uct_search(params, UctConfig(0.9, 400, gaussian(0.4), seed=8))
        walked = Counter(len(path) for path, _ in res.tree.nodes())
        assert res.depth_histogram == tuple(walked[d] for d in range(max(walked) + 1))

    @pytest.mark.parametrize("b, gamma", [(2, 1.0), (3, 0.5), (10, 0.7)])
    def test_tracked_nodes_follow_the_growth_rule(self, b, gamma, monkeypatch):
        calls = []

        def counted(params, depth, value, state):
            calls.append(state)
            return designated_child(params, depth, value, state)

        designated_child = search_uct.designated_child
        monkeypatch.setattr(search_uct, "designated_child", counted)
        params = make_params(b=b, gamma=gamma, d_max=6, seed=12)
        res = uct_search(params, UctConfig(1.0, 500, LIGHT, seed=3))
        expanded = []
        for path, node in res.tree.nodes():
            cursor = walk(params, path)
            assert (node.depth, node.value, node.state) == (len(path), cursor.value, cursor.state)
            if node.children is not None:
                expanded.append(node.state)
        # the per-node part of the growth rule runs once per expanded node
        assert sorted(calls) == sorted(expanded)

    def test_conservation_with_terminal_revisits(self):
        params = make_params(d_max=2)
        res = uct_search(params, UctConfig(0.8, 300, gaussian(0.5), seed=4))
        assert check_conservation(res.tree)
        root = res.tree.root
        assert root.n == 300
        assert sum(ch.n for ch in root.children if ch is not None) == 299

    def test_q_bounds(self):
        params = make_params(b=3, gamma=0.6, d_max=5, seed=8)
        res = uct_search(params, UctConfig(1.2, 500, gaussian(0.8), seed=11))
        for _, node in res.tree.nodes():
            assert 0.0 <= node.q <= 1.0
            assert node.n >= 1

    @given(
        st.integers(min_value=2, max_value=3),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_random_configs(self, b, gamma, d_max, budget, seed):
        params = make_params(b=b, gamma=gamma, d_max=d_max, seed=seed)
        cfg = UctConfig(0.7, budget, HeuristicSpec("playout-l1"), seed=seed ^ 99)
        res = uct_search(params, cfg)
        assert check_conservation(res.tree)
        assert res.node_count <= budget
        assert res.tree.root.n == budget
        for _, node in res.tree.nodes():
            assert 0.0 <= node.q <= 1.0
        for record in res.checkpoints:
            assert 0 <= record.action < b
            assert sum(record.visits) == record.iteration - 1


class TestDeterminism:
    def test_replay_byte_identical(self):
        params = make_params(b=3, gamma=0.7, d_max=6, seed=21)
        cfg = UctConfig(1.0, 400, LIGHT, seed=13, checkpoints=(10, 100, 400))
        first = uct_search(params, cfg)
        second = uct_search(params, cfg)
        assert first.to_json() == second.to_json()

    def test_trace_replay_identical(self):
        params = make_params(d_max=3, seed=2)
        cfg = UctConfig(0.6, 25, gaussian(0.4), seed=7)
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            uct_search(params, cfg, trace=buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        lines = outs[0].splitlines()
        assert lines[0] == "iteration,path,reward"
        assert len(lines) == 26
        assert lines[1].startswith("1,r,")
        it, path, reward = lines[5].split(",")
        assert it == "5"
        assert all(part.isdigit() for part in path.split("/"))
        assert 0.0 <= float(reward) <= 1.0

    def test_different_seeds_diverge(self):
        params = make_params(b=3, d_max=6, seed=21)
        a = uct_search(params, UctConfig(1.0, 300, LIGHT, seed=1))
        b = uct_search(params, UctConfig(1.0, 300, LIGHT, seed=2))
        assert a.to_json() != b.to_json()


def assert_checkpoints_match_solo_runs(params, c, heuristic, seed, budgets):
    joint = uct_search(params, UctConfig(c, budgets[-1], heuristic, seed, checkpoints=budgets))
    for budget, joint_rec in zip(budgets, joint.checkpoints):
        solo = uct_search(params, UctConfig(c, budget, heuristic, seed))
        assert joint_rec == solo.checkpoints[-1]


class TestCheckpoints:
    def test_checkpointed_matches_independent_runs(self):
        params = make_params(b=2, gamma=0.9, d_max=8, seed=31)
        assert_checkpoints_match_solo_runs(params, 0.8, LIGHT, 5, (10, 50, 200))

    def test_checkpointed_matches_independent_runs_under_ties(self):
        # exact rewards and no exploration bonus: equal UCB scores are the
        # rule, so the keyed tie-breaks decide most selections
        params = make_params(b=3, gamma=0.9, d_max=8, seed=31)
        assert_checkpoints_match_solo_runs(params, 0.0, PERFECT, 5, (10, 50, 200))

    @given(
        st.integers(min_value=2, max_value=4),
        st.sampled_from((0.0, 0.7)),
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_prefix_run_equals_checkpoint(self, b, c, budget, extra, seed):
        params = make_params(b=b, gamma=0.8, d_max=6, seed=seed)
        assert_checkpoints_match_solo_runs(params, c, PERFECT, seed, (budget, budget + extra))

    def test_action_at_lookup(self):
        params = make_params()
        res = uct_search(params, UctConfig(1.0, 30, PERFECT, seed=1, checkpoints=(5, 30)))
        assert res.action_at(5) == res.checkpoints[0].action
        with pytest.raises(KeyError):
            res.action_at(7)


class TestDecisionQuality:
    def test_depth_two_oracle(self):
        correct = 0
        for seed in range(30):
            params = make_params(d_max=2, seed=seed)
            optimal = node_meta(params, ()).optimal_moves
            res = uct_search(params, UctConfig(0.5, 200, PERFECT, seed=seed + 1000))
            correct += res.final_action in optimal
        assert correct == 30

    def test_bandit_sanity_depth_one(self):
        hits = 0
        for seed in range(100):
            params = make_params(d_max=1, seed=seed)
            optimal = node_meta(params, ()).optimal_moves
            res = uct_search(params, UctConfig(1.0, 100, PERFECT, seed=seed))
            hits += res.final_action in optimal
        assert hits == 100

    def test_convergence_small_scale(self):
        correct = 0
        for seed in range(200):
            params = make_params(d_max=4, seed=seed)
            optimal = node_meta(params, ()).optimal_moves
            res = uct_search(params, UctConfig(1.0, 1_000, PERFECT, seed=seed))
            correct += res.final_action in optimal
        assert correct / 200 >= 0.95


class TestBreadthFirst:
    def test_pure_exploitation_fails_check(self):
        params = make_params(d_max=6, seed=3)
        res = uct_search(params, UctConfig(0.0, 300, PERFECT, seed=9))
        assert not res.breadth_first.holds
        assert res.breadth_first.max_sibling_gap > 1

    def test_theorem_scale_exploration_holds(self):
        # c at the proof's threshold for N=512 forces near-uniform visits
        c = math.sqrt(512**3 / (2 * math.log(512)))
        params = make_params(d_max=12, seed=17)
        res = uct_search(params, UctConfig(c, 512, LIGHT, seed=23))
        assert res.breadth_first.holds
        assert res.node_count == 512

    def test_report_from_tree(self):
        params = make_params(d_max=3, seed=5)
        res = uct_search(params, UctConfig(2.0, 120, gaussian(0.3), seed=2))
        assert breadth_first_check(res.tree) == res.breadth_first


def test_numpy_seeds_equal_int_seeds_without_warnings():
    tree_seed, search_seed = 2**63 + 12345, 2**64 - 3
    ints = GameParams(2, 0.7, 12, tree_seed), UctConfig(0.5, 300, PERFECT, search_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        params = GameParams(2, 0.7, 12, np.uint64(tree_seed))
        cfg = UctConfig(0.5, 300, PERFECT, np.uint64(search_seed))
        assert params == ints[0] and cfg == ints[1]
        for path in [(), (0,), (1, 0, 1), (1, 1, 0, 0, 1)]:
            assert node_value(params, path) == node_value(ints[0], path)
        assert uct_search(params, cfg).to_json() == uct_search(*ints).to_json()
