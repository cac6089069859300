"""Alpha-beta tests: oracle equivalence, pruning benefit, noise replay,
and the full-width pass that decides many depths at once."""

import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critgames import search_minimax
from critgames.bitmix import KeyedDraws, eval_key
from critgames.heuristics import (
    EvalContext, HeuristicSpec, evaluate, gaussian, parse_heuristic, rough_slack
)
from critgames.search_minimax import (
    MinimaxConfig,
    alphabeta,
    minimax_decisions,
    minimax_reference,
)
from critgames.search_uct import UctConfig, uct_search
from critgames.tree_model import ENUM_CAP, MINUS, PLUS, GameParams, node_meta, walk

PERFECT = HeuristicSpec("perfect")


def make_params(b=2, gamma=1.0, d_max=8, seed=1):
    return GameParams(branching_factor=b, critical_rate=gamma, max_depth=d_max, seed=seed)


def frontier_eval(params, path, cfg):
    """Max's reward at the node at path, built from the documented key."""
    node = walk(params, path)
    ctx = EvalContext(node.value, node.player, node.depth, params)
    return evaluate(cfg.heuristic, ctx, KeyedDraws(eval_key(cfg.seed) ^ node.state))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MinimaxConfig(0, PERFECT, seed=1)
        with pytest.raises(ValueError):
            MinimaxConfig(1, PERFECT, seed=-1)

    def test_terminal_root_rejected(self):
        params = make_params(d_max=2)
        with pytest.raises(ValueError):
            alphabeta(params, (0, 0), MinimaxConfig(1, PERFECT, seed=1))

    def test_reference_cap(self):
        params = make_params(b=3, d_max=30)
        with pytest.raises(ValueError):
            minimax_reference(params, (), MinimaxConfig(15, PERFECT, seed=1))


class TestSmallOracles:
    def test_depth_one_perfect_finds_winning_child(self):
        for seed in range(40):
            params = make_params(seed=seed)
            res = alphabeta(params, (), MinimaxConfig(1, PERFECT, seed=5))
            assert res.best_action in node_meta(params, ()).optimal_moves

    def test_gamma_zero_value_one(self):
        params = make_params(gamma=0.0, seed=3)
        for depth in (1, 3, 5):
            res = alphabeta(params, (), MinimaxConfig(depth, PERFECT, seed=2))
            assert res.value == 1.0

    def test_full_depth_perfect_reads_true_value(self):
        params = make_params(d_max=4, seed=11)
        res = alphabeta(params, (), MinimaxConfig(4, PERFECT, seed=0))
        assert res.value == 1.0  # the root is always a win for Max
        # a losing child read to the end scores 0
        losing = [i for i in range(2) if walk(params, (i,)).value == MINUS]
        res_child = alphabeta(params, (losing[0],), MinimaxConfig(3, PERFECT, seed=0))
        assert res_child.value == 0.0

    def test_depth_one_is_extremum_of_frontier(self):
        params = make_params(d_max=6, seed=7)
        cfg = MinimaxConfig(1, gaussian(0.4), seed=9)
        res = minimax_reference(params, (), cfg)
        evals = [frontier_eval(params, (i,), cfg) for i in range(2)]
        assert res.value == max(evals)
        assert res.best_action == evals.index(max(evals))

    def test_hand_built_depth_two(self):
        params = make_params(d_max=10, seed=21)
        cfg = MinimaxConfig(2, gaussian(0.3), seed=4)
        by_hand = [min(frontier_eval(params, (i, j), cfg) for j in range(2)) for i in range(2)]
        expected_value = max(by_hand)
        expected_action = by_hand.index(expected_value)
        for search in (alphabeta, minimax_reference):
            res = search(params, (), cfg)
            assert res.value == expected_value
            assert res.best_action == expected_action


class TestPruningEquivalence:
    @given(
        st.integers(min_value=2, max_value=3),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from(["gaussian:0.4", "histogram:chess_p10_light"]),
        st.lists(st.integers(min_value=0, max_value=1), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_alphabeta_matches_reference(
        self, b, gamma, depth, tree_seed, noise_seed, heuristic, start
    ):
        params = make_params(b=b, gamma=gamma, d_max=8, seed=tree_seed)
        cfg = MinimaxConfig(depth, parse_heuristic(heuristic), seed=noise_seed)
        fast = alphabeta(params, start, cfg)
        slow = minimax_reference(params, start, cfg)
        assert fast.value == slow.value
        assert fast.best_action == slow.best_action
        assert fast.frontier_evals <= slow.frontier_evals

    def test_thousand_instances_exact(self):
        rng = Random(2024)
        mismatches = 0
        for _ in range(1000):
            b = rng.choice([2, 3])
            params = make_params(
                b=b,
                gamma=rng.random(),
                d_max=rng.randrange(6, 10),
                seed=rng.getrandbits(48),
            )
            cfg = MinimaxConfig(rng.randrange(1, 7), gaussian(0.4), seed=rng.getrandbits(48))
            start = (rng.randrange(b),) if rng.random() < 0.3 else ()
            fast = alphabeta(params, start, cfg)
            slow = minimax_reference(params, start, cfg)
            mismatches += fast.value != slow.value or fast.best_action != slow.best_action
        assert mismatches == 0

    def test_deterministic_replay(self):
        params = make_params(b=3, gamma=0.6, d_max=9, seed=5)
        cfg = MinimaxConfig(5, gaussian(0.3), seed=77)
        assert alphabeta(params, (), cfg) == alphabeta(params, (), cfg)


# Exact (value, best_action, frontier_evals) of alphabeta on GameParams(b,
# 1.0, 12, seed) with MinimaxConfig(depth, heuristic, seed + 100), recorded
# when frontier noise moved to KeyedDraws(eval_key(seed) ^ state).
GOLDEN_ALPHABETA = [
    (2, (), "gaussian:0.3", 3, 5, 0.8085066567925039, 0, 30),
    (2, (), "gaussian:0.3", 17, 3, 1.0, 0, 6),
    (2, (), "histogram:chess_p10_light", 3, 5, 0.6281889762713001, 1, 25),
    (2, (), "histogram:chess_p10_light", 17, 3, 0.6243794311918008, 0, 6),
    (2, (1,), "gaussian:0.3", 3, 5, 0.3032227902664086, 1, 23),
    (2, (1,), "gaussian:0.3", 17, 3, 0.0, 0, 6),
    (2, (1,), "histogram:chess_p10_light", 3, 5, 0.42920022368297167, 0, 16),
    (2, (1,), "histogram:chess_p10_light", 17, 3, 0.5264508847399851, 0, 6),
    (3, (), "gaussian:0.3", 3, 5, 0.5376149843632883, 2, 149),
    (3, (), "gaussian:0.3", 17, 3, 0.6442616880355483, 2, 21),
    (3, (), "histogram:chess_p10_light", 3, 5, 0.5449442186074713, 0, 97),
    (3, (), "histogram:chess_p10_light", 17, 3, 0.5436557486427448, 2, 22),
    (3, (1,), "gaussian:0.3", 3, 5, 0.18085248850687843, 0, 89),
    (3, (1,), "gaussian:0.3", 17, 3, 0.055988557764582385, 2, 20),
    (3, (1,), "histogram:chess_p10_light", 3, 5, 0.4151121234870211, 0, 73),
    (3, (1,), "histogram:chess_p10_light", 17, 3, 0.5113380285705934, 2, 18),
]


class TestGoldenValues:
    def test_alphabeta_golden_table(self):
        for b, path, heuristic, seed, depth, value, action, evals in GOLDEN_ALPHABETA:
            params = GameParams(b, 1.0, 12, seed)
            cfg = MinimaxConfig(depth, parse_heuristic(heuristic), seed + 100)
            res = alphabeta(params, path, cfg)
            # hex() tells 0.0 from -0.0, so a stray negamax sign shows
            assert (res.value.hex(), res.best_action, res.frontier_evals) == (
                value.hex(), action, evals
            ), (b, path, heuristic, seed, depth)


class TestPruningBenefit:
    def test_frontier_visits_below_full_width(self):
        rng = Random(11)
        pruned = 0
        trials = 300
        for _ in range(trials):
            b = rng.choice([2, 3])
            depth = rng.randrange(4, 7)
            params = make_params(b=b, gamma=rng.random(), d_max=12, seed=rng.getrandbits(48))
            cfg = MinimaxConfig(depth, gaussian(0.4), seed=rng.getrandbits(48))
            res = alphabeta(params, (), cfg)
            assert res.frontier_evals <= b**depth
            pruned += res.frontier_evals < b**depth
        assert pruned / trials >= 0.99

    def test_reference_counts_full_width(self):
        params = make_params(b=3, d_max=10, seed=2)
        res = minimax_reference(params, (), MinimaxConfig(4, gaussian(0.2), seed=1))
        assert res.frontier_evals == 3**4


class TestFrontierNoise:
    def test_keyed_by_seed_and_state_only(self):
        params = make_params(d_max=6, seed=13)
        node = walk(params, (0, 1))
        a = eval_key(42) ^ node.state
        assert a == eval_key(42) ^ walk(params, (0, 1)).state
        assert a != eval_key(43) ^ node.state
        other = walk(params, (1, 0))
        assert a != eval_key(42) ^ other.state
        # a node scores the same whichever search root reaches it
        cfg = MinimaxConfig(1, gaussian(0.4), seed=42)
        from_parent = alphabeta(params, (0,), cfg).value
        assert from_parent == min(frontier_eval(params, (0, j), cfg) for j in range(2))

    @pytest.mark.parametrize("heuristic", ["gaussian:0.3", "histogram:chess_p10_light"])
    @pytest.mark.parametrize("b", [2, 3])
    def test_uct_and_alphabeta_evaluate_a_node_alike(self, b, heuristic):
        params = make_params(b=b, gamma=0.7, d_max=10, seed=31)
        spec = parse_heuristic(heuristic)
        # iterations 2..b+1 expand each root child once, so its mean is its one reward
        root = uct_search(params, UctConfig(1.0, b + 1, spec, seed=8)).tree.root
        assert [child.n for child in root.children] == [1] * b
        uct_rewards = [child.q for child in root.children]
        cfg = MinimaxConfig(1, spec, seed=8)
        assert uct_rewards == [frontier_eval(params, (i,), cfg) for i in range(b)]
        res = alphabeta(params, (), cfg)
        assert res.value == max(uct_rewards)
        assert res.best_action == uct_rewards.index(res.value)

    @pytest.mark.parametrize("b", [2, 3])
    def test_growth_rule_hashes_each_interior_node_once(self, b, monkeypatch):
        calls = []

        def counted(params, depth, value, state):
            calls.append(state)
            return designated_child(params, depth, value, state)

        designated_child = search_minimax.designated_child
        monkeypatch.setattr(search_minimax, "designated_child", counted)
        params = make_params(b=b, gamma=0.8, d_max=12, seed=4)
        res = alphabeta(params, (), MinimaxConfig(6, gaussian(0.3), seed=2))
        assert res.frontier_evals > 0
        assert 0 < len(calls) == len(set(calls))

    def test_terminal_frontier_is_true_utility(self):
        params = make_params(d_max=3, seed=9)
        # depth 3 search from a depth-1 node crosses the terminal layer
        cfg = MinimaxConfig(5, gaussian(0.5), seed=3)
        res = alphabeta(params, (0,), cfg)
        assert res.value in (0.0, 1.0)
        assert res.value == minimax_reference(params, (0,), cfg).value


ALL_KINDS = ["perfect", "gaussian:0.3", "gaussian:2", "histogram:chess_p10_light",
             "playout-l1", "playout-linf"]


class TestMinimaxDecisions:
    """minimax_decisions(trees, depths, heuristic) takes (params, seed) pairs
    that differ only in their seeds, and returns one {depth: action} per tree."""

    def test_matches_alphabeta_on_random_instances(self):
        rng = Random(2026)
        # the largest depth per b keeps each instance's full width small
        deepest = {2: 10, 3: 6, 4: 5, 5: 4}
        pairs = mismatches = 0
        for instance in range(2000):
            b = rng.choice(sorted(deepest))
            gamma = (0.0, 1.0, rng.random())[instance % 3]
            # max_depth is often below some of the depths searched
            params = make_params(b=b, gamma=gamma, d_max=rng.randrange(1, deepest[b] + 3),
                                 seed=rng.getrandbits(64))
            depths = sorted(rng.sample(range(1, deepest[b] + 1), rng.randrange(1, 4)))
            heuristic = parse_heuristic(rng.choice(ALL_KINDS))
            seed = rng.getrandbits(64)
            [decisions] = minimax_decisions([(params, seed)], depths, heuristic)
            assert list(decisions) == depths
            for depth in depths:
                cfg = MinimaxConfig(depth, heuristic, seed)
                pairs += 1
                mismatches += decisions[depth] != alphabeta(params, (), cfg).best_action
        assert pairs >= 2000
        assert mismatches == 0

    def test_many_trees_in_one_pass_match_alphabeta(self):
        rng = Random(2027)
        deepest = {2: 8, 3: 5, 4: 4}
        pairs = mismatches = 0
        for instance in range(150):
            b = rng.choice(sorted(deepest))
            gamma = (0.0, 1.0, rng.random())[instance % 3]
            d_max = rng.randrange(1, deepest[b] + 3)
            trees = [(make_params(b=b, gamma=gamma, d_max=d_max, seed=rng.getrandbits(64)),
                      rng.getrandbits(64)) for _ in range(rng.randrange(1, 12))]
            depths = sorted(rng.sample(range(1, deepest[b] + 1), rng.randrange(1, 4)))
            heuristic = parse_heuristic(rng.choice(ALL_KINDS))
            decisions = minimax_decisions(trees, depths, heuristic)
            assert len(decisions) == len(trees)
            for (params, seed), actions in zip(trees, decisions):
                assert list(actions) == depths
                for depth in depths:
                    pairs += 1
                    cfg = MinimaxConfig(depth, heuristic, seed)
                    mismatches += actions[depth] != alphabeta(params, (), cfg).best_action
        assert pairs >= 500
        assert mismatches == 0

    def test_rough_values_off_by_their_slack_are_scored_again(self, monkeypatch):
        """A rough scorer that misses every leaf by its whole slack, up or
        down at random, still gives alpha-beta's actions: a root whose top
        two children it brings within twice the slack sends its level to
        the exact scorer, and the others keep the order of the exact values.
        The slack is cut to a power of two, so that each miss is exact and
        two tied children can lie exactly twice the slack apart."""
        scorer, rng = search_minimax.frontier_scorer_np, np.random.default_rng(31)
        calls = {False: 0, True: 0}

        def slack(spec, params, depth):
            rough = rough_slack(spec, params, depth)
            return 2.0 ** math.floor(math.log2(rough)) if rough else 0.0

        def perturbed(spec, params, keys):
            score = scorer(spec, params, keys)

            def rough_or_exact(depth, plus, states, rough=False):
                calls[rough] += 1
                values = score(depth, plus, states)
                if rough:
                    values += rng.choice((-1.0, 1.0), values.size) * slack(spec, params, depth)
                return values

            return rough_or_exact

        monkeypatch.setattr(search_minimax, "rough_slack", slack)
        monkeypatch.setattr(search_minimax, "frontier_scorer_np", perturbed)
        mismatches = 0
        for instance in range(120):
            b, gamma = (2, 3)[instance % 2], (0.5, 0.9, 1.0)[instance % 3]
            trees = [(make_params(b=b, gamma=gamma, d_max=7, seed=6 * instance + t), t)
                     for t in range(6)]
            heuristic = gaussian((0.0, 0.05, 0.3, 1.5)[instance % 4])
            depths = (1, 2, 3, 5, 8)
            for (tree, seed), actions in zip(trees, minimax_decisions(trees, depths, heuristic)):
                for depth in depths:
                    cfg = MinimaxConfig(depth, heuristic, seed)
                    mismatches += actions[depth] != alphabeta(tree, (), cfg).best_action
        assert mismatches == 0
        assert 0 < calls[False] < calls[True]

    def test_ties_go_to_the_lowest_index(self):
        # gamma 0: every node is +1 and the perfect evaluator ties all children
        params = make_params(b=4, gamma=0.0, d_max=6, seed=3)
        assert minimax_decisions([(params, 0), (params, 1)], (1, 2, 3), PERFECT) == [
            {1: 0, 2: 0, 3: 0}, {1: 0, 2: 0, 3: 0}
        ]

    def test_depths_in_any_order(self):
        params = make_params(b=3, gamma=0.7, d_max=4, seed=8)
        spec = gaussian(0.5)
        one = {d: minimax_decisions([(params, 4)], [d], spec)[0][d] for d in (1, 3, 6)}
        [together] = minimax_decisions([(params, 4)], (6, 1, 3), spec)
        assert list(together.items()) == [(6, one[6]), (1, one[1]), (3, one[3])]
        assert minimax_decisions([(params, 4)], (), spec) == [{}]
        assert minimax_decisions([], (1, 3), spec) == []

    def test_validation(self):
        params = make_params(b=10, d_max=50)
        with pytest.raises(ValueError, match="depth must be an integer >= 1"):
            minimax_decisions([(params, 1)], (0, 2), PERFECT)
        with pytest.raises(ValueError, match="seed must be an integer"):
            minimax_decisions([(params, 1), (params, -1)], (1,), PERFECT)
        with pytest.raises(ValueError, match=f"b\\^depth exceeds {ENUM_CAP}"):
            minimax_decisions([(params, 1)], (1, 7), PERFECT)
        for other in (make_params(b=9, d_max=50), make_params(b=10, gamma=0.5, d_max=50),
                      make_params(b=10, d_max=49)):
            with pytest.raises(ValueError, match="must share b, gamma and max_depth"):
                minimax_decisions([(params, 1), (other, 1)], (1,), PERFECT)
        # past max_depth the frontier stops at the terminal level, within the cap
        shallow = make_params(b=10, d_max=2)
        decisions = minimax_decisions([(shallow, 1)], (2, 50), gaussian(0.3))
        best = alphabeta(shallow, (), MinimaxConfig(2, gaussian(0.3), 1)).best_action
        assert decisions == [{2: best, 50: best}]
