import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critgames import bitmix
from critgames.pv_model import (
    PvCursor,
    PvParams,
    _child_values,
    leaf_sum_difference,
    level_cost,
    pv_leaf_sum,
    pv_naive_plan,
    pv_optimal_root_child,
    pv_value,
)

# largest cost * max_depth for which (1 + cost * max_depth) * 10^6 fits in int64
K_DEPTH_LIMIT = (2**63 - 1) // 10**6 - 1


def params(b=2, depth=12, seed=0, cost=1, max_random_cost=None):
    return PvParams(b, depth, seed, cost, max_random_cost)


def leaf_sum_oracle(p, path, d):
    """Sum of the depth-d descendants' values by scalar recursion: one
    PvCursor per node, Python ints throughout."""

    def rec(cursor, remaining):
        if remaining == 0:
            return cursor.value
        return sum(rec(cursor.child(i), remaining - 1) for i in range(p.branching_factor))

    return rec(PvCursor.walk(p, path), d)


class TestPvValue:
    def test_root_is_one(self):
        for seed in range(30):
            assert pv_value(params(seed=seed), ()) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PvParams(1, 5, 0)
        with pytest.raises(ValueError):
            PvParams(2, 0, 0)
        with pytest.raises(ValueError):
            PvParams(2, 5, 0, cost=0)
        with pytest.raises(ValueError):
            PvParams(2, 5, 0, max_random_cost=0)
        with pytest.raises(ValueError):
            pv_value(params(depth=2), (0, 0, 0))
        with pytest.raises(ValueError):
            pv_value(params(), (2,))

    def test_path_errors_match_tree_model(self):
        from critgames.tree_model import GameParams, node_value

        for path in ((0, 0, 0), (2,), (-1,)):
            with pytest.raises(ValueError) as pv_error:
                pv_value(params(depth=2), path)
            with pytest.raises(ValueError) as tree_error:
                node_value(GameParams(2, 1.0, 2, 0), path)
            assert str(pv_error.value) == str(tree_error.value)

    def test_cursor_children_stay_pv_cursors(self):
        cursor = PvCursor.walk(params(b=3, cost=2), (1, 0, 2))
        assert type(cursor) is PvCursor
        assert cursor.value == pv_value(params(b=3, cost=2), (1, 0, 2))

    def test_exactly_one_optimal_root_child(self):
        for seed in range(100):
            p = params(b=3, seed=seed, cost=2)
            ones = [i for i in range(3) if pv_value(p, (i,)) == 1]
            assert ones == [pv_optimal_root_child(p)]

    def test_max_level_sibling_pays_cost(self):
        for seed in range(50):
            p = params(b=3, seed=seed, cost=4)
            root = PvCursor.root(p)
            for i in range(3):
                if i != root.designated_index:
                    assert pv_value(p, (i,)) == 1 - 4

    def test_min_level_sibling_gains_cost(self):
        for seed in range(50):
            p = params(b=2, seed=seed, cost=3)
            child = PvCursor.root(p).child(0)
            designated = child.designated_index
            other = 1 - designated
            assert child.child_value(designated) == child.value
            assert child.child_value(other) == child.value + 3

    def test_walk_step_changes_by_zero_or_cost(self):
        import random

        rng = random.Random(5)
        for seed in range(50):
            p = params(b=3, depth=10, seed=seed, cost=2)
            cursor = PvCursor.root(p)
            for _ in range(10):
                nxt = cursor.child(rng.randrange(3))
                assert abs(nxt.value - cursor.value) in (0, 2)
                cursor = nxt

    def test_randomized_cost_in_range(self):
        for seed in range(50):
            p = params(b=2, depth=8, seed=seed, max_random_cost=5)
            cursor = PvCursor.root(p)
            for _ in range(8):
                step = abs(cursor.child_value(1 - cursor.designated_index) - cursor.value)
                assert 1 <= step <= 5
                cursor = cursor.child(0)


class TestLeafSum:
    def test_d_zero_is_node_value(self):
        p = params(seed=9)
        assert pv_leaf_sum(p, (0,), 0) == pv_value(p, (0,))

    def test_depth_zero_difference_is_one(self):
        for seed in range(50):
            assert leaf_sum_difference(params(seed=seed), 0) == 1

    def test_proposition_doubling(self):
        for seed in range(30):
            p = params(seed=seed)
            for d in range(8):
                assert leaf_sum_difference(p, d) == 2**d

    def test_general_cost_scales_difference(self):
        # the per-level sibling costs cancel between subtrees, leaving k * 2^d
        for seed in range(10):
            p = params(seed=seed, cost=3, depth=10)
            for d in range(6):
                assert leaf_sum_difference(p, d) == 3 * 2**d

    def test_randomized_cost_keeps_doubling(self):
        for seed in range(10):
            p = params(seed=seed, depth=10, max_random_cost=5)
            root_cost = level_cost(p, 0)
            for d in range(6):
                assert leaf_sum_difference(p, d) == root_cost * 2**d

    def test_caps(self):
        with pytest.raises(ValueError):
            pv_leaf_sum(params(depth=30), (), 21)
        with pytest.raises(ValueError):
            pv_leaf_sum(params(depth=5), (), 6)

    @given(
        b=st.integers(2, 4),
        d=st.integers(0, 5),
        seed=st.integers(0, bitmix.MASK64),
        cost=st.integers(1, 50),
        max_random_cost=st.none() | st.integers(1, 50),
        moves=st.lists(st.integers(0, 3), max_size=2),
        below=st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_oracle(self, b, d, seed, cost, max_random_cost, moves, below):
        path = tuple(m % b for m in moves)
        p = params(b, max(1, len(path) + d + below), seed, cost, max_random_cost)
        assert pv_leaf_sum(p, path, d) == leaf_sum_oracle(p, path, d)

    def test_matches_direct_enumeration(self):
        import itertools

        p = params(b=3, depth=8, seed=4, cost=2)
        for d in range(4):
            total = sum(
                pv_value(p, (1,) + rest) for rest in itertools.product(range(3), repeat=d)
            )
            assert pv_leaf_sum(p, (1,), d) == total


class TestNaivePlan:
    def test_children_are_leaves_always_correct(self):
        # with max_depth 1 the playout leaf values are the true child values
        for seed in range(100):
            p = params(depth=1, seed=seed)
            assert pv_naive_plan(p, 1, rng_seed=seed) == pv_optimal_root_child(p)

    def test_deterministic_given_seed(self):
        p = params(depth=20, seed=3)
        picks = {pv_naive_plan(p, 50, rng_seed=11) for _ in range(5)}
        assert len(picks) == 1

    def test_playouts_validated(self):
        with pytest.raises(ValueError):
            pv_naive_plan(params(), 0, 0)

    def test_high_accuracy_small_sample(self):
        correct = 0
        for seed in range(60):
            p = params(b=2, depth=20, seed=seed)
            correct += pv_naive_plan(p, 1000, rng_seed=seed) == pv_optimal_root_child(p)
        assert correct >= 58

    def test_randomized_cost_accuracy(self):
        correct = 0
        for seed in range(60):
            p = params(b=2, depth=20, seed=seed, max_random_cost=4)
            correct += pv_naive_plan(p, 1000, rng_seed=seed) == pv_optimal_root_child(p)
        assert correct >= 58

    def test_vectorized_walk_matches_cursor(self):
        # one playout with a pinned index stream, stepped as the planner
        # steps it, must follow the scalar walk node by node
        for p in (params(b=3, seed=21, cost=2), params(b=3, seed=21, max_random_cost=5)):
            cursor = PvCursor.root(p).child(1)
            values = np.full(1, cursor.value, dtype=np.int64)
            states = np.full(1, cursor.state, dtype=np.uint64)
            for index in np.random.default_rng(77).integers(0, 3, size=(11, 1)):
                values = _child_values(p, cursor.depth, values, states, index)
                states = bitmix.child_state_np(states, index)
                cursor = cursor.child(int(index[0]))
                assert (int(values[0]), int(states[0])) == (cursor.value, cursor.state)

    def test_column_expands_every_child(self):
        p = params(b=3, depth=6, seed=8, cost=2)
        nodes = [PvCursor.walk(p, path) for path in ((0, 1), (2, 2), (1, 0))]
        values = np.asarray([n.value for n in nodes], dtype=np.int64)
        states = np.asarray([n.state for n in nodes], dtype=np.uint64)
        column = np.arange(3)[:, None]
        children = _child_values(p, 2, values, states, column)
        assert children.tolist() == [[n.child_value(j) for n in nodes] for j in range(3)]

    # pv_naive_plan(PvParams(b, 7, seed, 2, max_random_cost), 3, rng_seed=100 + seed)
    # for seeds 0..15; three playouts per child leave wrong picks and tied means
    GOLDEN_PICKS = {
        (2, None): "1000101101101101",
        (2, 4): "1001101100011001",
        (3, None): "1200000011212100",
        (3, 4): "1000000011202100",
    }

    @pytest.mark.parametrize("b, max_random_cost", list(GOLDEN_PICKS))
    def test_golden_picks(self, b, max_random_cost):
        picks = "".join(
            str(pv_naive_plan(params(b, 7, seed, 2, max_random_cost), 3, rng_seed=100 + seed))
            for seed in range(16)
        )
        assert picks == self.GOLDEN_PICKS[b, max_random_cost]


class TestInt64Bound:
    @pytest.mark.parametrize("name", ["cost", "max_random_cost"])
    def test_just_past_the_bound_is_rejected(self, name):
        for depth, k in ((1, K_DEPTH_LIMIT + 1), (20, K_DEPTH_LIMIT // 20 + 1)):
            with pytest.raises(ValueError, match=rf"^{name} \* max_depth must be at most"):
                PvParams(2, depth, 0, **{name: k})

    @pytest.mark.parametrize("name", ["cost", "max_random_cost"])
    def test_at_the_bound_matches_the_oracle(self, name):
        edge = PvParams(3, 1, 5, **{name: K_DEPTH_LIMIT})
        assert pv_leaf_sum(edge, (), 1) == leaf_sum_oracle(edge, (), 1)
        for seed in range(5):
            p = PvParams(2, 20, seed, **{name: K_DEPTH_LIMIT // 20})
            assert pv_leaf_sum(p, (0, 1) * 7, 6) == leaf_sum_oracle(p, (0, 1) * 7, 6)
            assert leaf_sum_difference(p, 8) == level_cost(p, 0) * 2**8

    def test_planner_is_scale_invariant_at_the_bound(self):
        for seed in range(10):
            big = pv_naive_plan(params(depth=20, seed=seed, cost=K_DEPTH_LIMIT // 20), 50, seed)
            assert big == pv_naive_plan(params(depth=20, seed=seed), 50, seed)
