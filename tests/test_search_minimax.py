"""Alpha-beta tests: oracle equivalence, pruning benefit, noise replay."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critgames.heuristics import EvalContext, evaluate, gaussian, parse_heuristic, perfect
from critgames.search_minimax import (
    MinimaxConfig,
    alphabeta,
    frontier_seed,
    minimax_reference,
)
from critgames.tree_model import MINUS, PLUS, GameParams, node_meta, walk


def make_params(b=2, gamma=1.0, d_max=8, seed=1):
    return GameParams(branching_factor=b, critical_rate=gamma, max_depth=d_max, seed=seed)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MinimaxConfig(0, perfect(), seed=1)
        with pytest.raises(ValueError):
            MinimaxConfig(1, perfect(), seed=-1)

    def test_terminal_root_rejected(self):
        params = make_params(d_max=2)
        with pytest.raises(ValueError):
            alphabeta(params, (0, 0), MinimaxConfig(1, perfect(), seed=1))

    def test_reference_cap(self):
        params = make_params(b=3, d_max=30)
        with pytest.raises(ValueError):
            minimax_reference(params, (), MinimaxConfig(15, perfect(), seed=1))


class TestSmallOracles:
    def test_depth_one_perfect_finds_winning_child(self):
        for seed in range(40):
            params = make_params(seed=seed)
            res = alphabeta(params, (), MinimaxConfig(1, perfect(), seed=5))
            assert res.best_action in node_meta(params, ()).optimal_moves

    def test_gamma_zero_value_one(self):
        params = make_params(gamma=0.0, seed=3)
        for depth in (1, 3, 5):
            res = alphabeta(params, (), MinimaxConfig(depth, perfect(), seed=2))
            assert res.value == 1.0

    def test_full_depth_perfect_reads_true_value(self):
        params = make_params(d_max=4, seed=11)
        res = alphabeta(params, (), MinimaxConfig(4, perfect(), seed=0))
        assert res.value == 1.0  # the root is always a win for Max
        # a losing child read to the end scores 0
        losing = [i for i in range(2) if walk(params, (i,)).value == MINUS]
        res_child = alphabeta(params, (losing[0],), MinimaxConfig(3, perfect(), seed=0))
        assert res_child.value == 0.0

    def test_depth_one_is_extremum_of_frontier(self):
        params = make_params(d_max=6, seed=7)
        cfg = MinimaxConfig(1, gaussian(0.4), seed=9)
        res = minimax_reference(params, (), cfg)
        evals = []
        for i in range(2):
            child = walk(params, (i,))
            rng = Random(frontier_seed(cfg.seed, child.state))
            ctx = EvalContext(child.value, child.player, child.depth, params)
            evals.append(evaluate(cfg.heuristic, ctx, rng))
        assert res.value == max(evals)
        assert res.best_action == evals.index(max(evals))

    def test_hand_built_depth_two(self):
        params = make_params(d_max=10, seed=21)
        cfg = MinimaxConfig(2, gaussian(0.3), seed=4)

        def frontier(path):
            node = walk(params, path)
            rng = Random(frontier_seed(cfg.seed, node.state))
            ctx = EvalContext(node.value, node.player, node.depth, params)
            return evaluate(cfg.heuristic, ctx, rng)

        by_hand = [min(frontier((i, j)) for j in range(2)) for i in range(2)]
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
    )
    @settings(max_examples=150, deadline=None)
    def test_alphabeta_matches_reference(self, b, gamma, depth, tree_seed, noise_seed):
        params = make_params(b=b, gamma=gamma, d_max=8, seed=tree_seed)
        cfg = MinimaxConfig(depth, gaussian(0.4), seed=noise_seed)
        fast = alphabeta(params, (), cfg)
        slow = minimax_reference(params, (), cfg)
        assert fast.value == slow.value
        assert fast.best_action == slow.best_action

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
# from the separate Max/Min recursion the negamax form replaced.
GOLDEN_ALPHABETA = [
    (2, (), "gaussian:0.3", 3, 5, 0.8087997974743567, 0, 17),
    (2, (), "gaussian:0.3", 17, 3, 0.8246175869591064, 0, 6),
    (2, (), "histogram:chess_p10_light", 3, 5, 0.5489399106354409, 0, 19),
    (2, (), "histogram:chess_p10_light", 17, 3, 0.538143811200787, 0, 5),
    (2, (1,), "gaussian:0.3", 3, 5, 0.2771495155072778, 1, 22),
    (2, (1,), "gaussian:0.3", 17, 3, 0.0, 0, 6),
    (2, (1,), "histogram:chess_p10_light", 3, 5, 0.5335919347603113, 0, 21),
    (2, (1,), "histogram:chess_p10_light", 17, 3, 0.3646221771691159, 0, 8),
    (3, (), "gaussian:0.3", 3, 5, 0.6214574845627263, 0, 93),
    (3, (), "gaussian:0.3", 17, 3, 0.5824230930043128, 2, 21),
    (3, (), "histogram:chess_p10_light", 3, 5, 0.5851524313652036, 0, 89),
    (3, (), "histogram:chess_p10_light", 17, 3, 0.543641310519612, 0, 18),
    (3, (1,), "gaussian:0.3", 3, 5, 0.4905066715577525, 2, 126),
    (3, (1,), "gaussian:0.3", 17, 3, 0.0, 2, 20),
    (3, (1,), "histogram:chess_p10_light", 3, 5, 0.4487773927006266, 1, 129),
    (3, (1,), "histogram:chess_p10_light", 17, 3, 0.4290307310421829, 2, 24),
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
        a = frontier_seed(42, node.state)
        assert a == frontier_seed(42, node.state)
        assert a != frontier_seed(43, node.state)
        other = walk(params, (1, 0))
        assert a != frontier_seed(42, other.state)

    def test_terminal_frontier_is_true_utility(self):
        params = make_params(d_max=3, seed=9)
        # depth 3 search from a depth-1 node crosses the terminal layer
        cfg = MinimaxConfig(5, gaussian(0.5), seed=3)
        res = alphabeta(params, (0,), cfg)
        assert res.value in (0.0, 1.0)
        assert res.value == minimax_reference(params, (0,), cfg).value
