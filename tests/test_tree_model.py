import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from critgames import bitmix
from critgames.tree_model import (
    MINUS,
    PLUS,
    DensityLimits,
    GameParams,
    Kind,
    NodeCursor,
    Player,
    density_limits,
    designated_child,
    export_tree,
    grown_value,
    mean_plus_fractions,
    node_meta,
    node_value,
    plus_density,
    plus_fractions,
    subtree_plus_density,
    walk,
)


def params(b=2, gamma=1.0, depth=10, seed=0):
    return GameParams(b, gamma, depth, seed)


class TestGameParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GameParams(1, 0.5, 10, 0)
        with pytest.raises(ValueError):
            GameParams(2, 1.5, 10, 0)
        with pytest.raises(ValueError):
            GameParams(2, -0.1, 10, 0)
        with pytest.raises(ValueError):
            GameParams(2, 0.5, 0, 0)
        with pytest.raises(ValueError):
            GameParams(2, 0.5, 10, -1)
        with pytest.raises(ValueError):
            GameParams(2, 0.5, 10, 1 << 64)

    def test_equal_params_equal_trees(self):
        a, b = params(seed=99), params(seed=99)
        for path in itertools.product(range(2), repeat=4):
            assert node_value(a, path) == node_value(b, path)


class TestNodeValue:
    def test_root_is_plus(self):
        for seed in range(50):
            assert node_value(params(seed=seed), ()) == PLUS

    def test_gamma_zero_all_plus(self):
        p = params(b=3, gamma=0.0, depth=6, seed=4)
        for n in range(4):
            for path in itertools.product(range(3), repeat=n):
                assert node_value(p, path) == PLUS

    def test_gamma_one_root_children_split(self):
        # at the root choice node exactly one child keeps +1, the sibling flips
        for seed in range(200):
            p = params(gamma=1.0, seed=seed)
            values = {node_value(p, (0,)), node_value(p, (1,))}
            assert values == {PLUS, MINUS}

    def test_invalid_paths_rejected(self):
        p = params(depth=3)
        with pytest.raises(ValueError):
            node_value(p, (2,))
        with pytest.raises(ValueError):
            node_value(p, (-1,))
        with pytest.raises(ValueError):
            node_value(p, (0, 0, 0, 0))

    def test_pure_across_query_orders(self):
        p = params(b=3, gamma=0.7, depth=6, seed=11)
        paths = list(itertools.product(range(3), repeat=3))
        first = [node_value(p, path) for path in paths]
        second = [node_value(p, path) for path in reversed(paths)]
        assert first == list(reversed(second))


class TestNodeMeta:
    def test_root_meta(self):
        info = node_meta(params(seed=3), ())
        assert info.value == PLUS
        assert info.kind is Kind.CHOICE
        assert info.player is Player.MAX
        assert not info.terminal
        assert info.optimal_moves

    def test_forced_max_node_full_optimal_set(self):
        # a Max node holding -1 is forced: every child copies -1
        found = False
        for seed in range(100):
            p = params(b=3, gamma=1.0, depth=6, seed=seed)
            for path in itertools.product(range(3), repeat=2):
                info = node_meta(p, path)
                if info.player is Player.MAX and info.value == MINUS:
                    found = True
                    assert info.kind is Kind.FORCED
                    assert info.optimal_moves == frozenset(range(3))
                    assert all(v == MINUS for v in walk(p, path).child_values())
        assert found

    def test_gamma_one_choice_node_single_optimal(self):
        for seed in range(50):
            info = node_meta(GameParams(3, 1.0, 6, seed), ())
            assert len(info.optimal_moves) == 1

    def test_choice_node_keeps_value_somewhere(self):
        for seed in range(50):
            p = params(b=4, gamma=0.9, depth=6, seed=seed)
            for n in range(3):
                for path in itertools.product(range(4), repeat=n):
                    cursor = walk(p, path)
                    if cursor.is_choice:
                        assert cursor.value in cursor.child_values()

    def test_terminal_meta(self):
        p = params(depth=2, seed=5)
        info = node_meta(p, (0, 1))
        assert info.terminal
        assert info.optimal_moves == frozenset()

    def test_consistent_with_child_node_value(self):
        p = params(b=3, gamma=0.8, depth=5, seed=21)
        for path in itertools.product(range(3), repeat=2):
            cursor = walk(p, path)
            for i in range(3):
                assert cursor.child_value(i) == node_value(p, path + (i,))


class TestDesignatedAndFlipStatistics:
    def test_designated_uniform_chi_square(self):
        b = 5
        counts = [0] * b
        for seed in range(10_000):
            counts[NodeCursor.root(GameParams(b, 1.0, 4, seed)).designated_index] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_flip_rate_matches_gamma(self):
        gamma = 0.3
        flips = total = 0
        for seed in range(40_000):
            root = NodeCursor.root(GameParams(4, gamma, 4, seed))
            designated = root.designated_index
            for i in range(4):
                if i == designated:
                    continue
                total += 1
                flips += root.child_value(i) == MINUS
        se = math.sqrt(gamma * (1 - gamma) / total)
        assert total >= 100_000
        assert abs(flips / total - gamma) < 3 * se


class TestGrowthSplit:
    @staticmethod
    def on_move_wins(cursor):
        return PLUS if cursor.depth % 2 == 0 else MINUS

    def by_hand(self, p, cursor, i):
        """The growth rule as the module docstring states it."""
        if cursor.value != self.on_move_wins(cursor):
            return cursor.value
        if i == bitmix.stream_u64(cursor.state, bitmix.DESIGNATED_TAG) % p.branching_factor:
            return cursor.value
        u = bitmix.unit(bitmix.indexed_u64(cursor.state, bitmix.FLIP_TAG, i))
        return -cursor.value if u < p.critical_rate else cursor.value

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("b, levels", [(2, 7), (3, 5), (10, 2)])
    def test_parts_compose_to_child_value(self, b, levels, gamma):
        for seed in range(4):
            p = GameParams(b, gamma, levels + 1, seed)
            level = [NodeCursor.root(p)]
            for _ in range(levels):
                for cursor in level:
                    designated = designated_child(p, cursor.depth, cursor.value, cursor.state)
                    assert (designated >= 0) == (cursor.value == self.on_move_wins(cursor))
                    for i in range(b):
                        value = grown_value(p, cursor.value, cursor.state, designated, i)
                        assert value == cursor.child_value(i) == self.by_hand(p, cursor, i)
                level = [cursor.child(i) for cursor in level for i in range(b)]


class TestPlusDensity:
    def test_depth_zero_is_one(self):
        assert plus_density(params(), 0) == 1.0

    def test_gamma_one_b_two_first_levels(self):
        p = params(gamma=1.0, b=2)
        assert plus_density(p, 1) == pytest.approx(0.5, abs=1e-12)
        assert plus_density(p, 2) == pytest.approx(0.75, abs=1e-12)

    def test_gamma_zero_all_one(self):
        p = params(gamma=0.0, depth=30)
        assert all(plus_density(p, n) == 1.0 for n in range(31))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            plus_density(params(depth=5), 6)
        with pytest.raises(ValueError):
            plus_density(params(depth=5), -1)

    def test_equals_former_level_loop_exactly(self):
        # plus_density now delegates to subtree_plus_density; this is the
        # loop it ran before, so every float operation must match
        def level_loop(p, n):
            k = 1.0 - p.critical_rate + p.critical_rate / p.branching_factor
            f = 1.0
            for level in range(n):
                f = f * k if level % 2 == 0 else f * k + 1.0 - k
            return f

        for b in (2, 3, 10):
            for gamma in (0.0, 0.5, 0.9, 1.0):
                p = params(b=b, gamma=gamma, depth=30)
                for n in range(31):
                    assert plus_density(p, n) == level_loop(p, n), (b, gamma, n)

    def test_matches_enumeration_small(self):
        for gamma, b in [(0.5, 2), (0.9, 3), (1.0, 2)]:
            profile = mean_plus_fractions(b, gamma, 8, range(400))
            p = GameParams(b, gamma, 8, 0)
            for n in range(9):
                assert abs(profile[n] - plus_density(p, n)) < 0.03


class TestDensityLimits:
    def test_gamma_one_b_two(self):
        limits = density_limits(params(gamma=1.0, b=2))
        assert limits == DensityLimits(pytest.approx(2 / 3), pytest.approx(1 / 3), False)

    def test_limits_sum_to_one(self):
        for gamma in (0.2, 0.5, 0.9, 1.0):
            for b in (2, 3, 10):
                limits = density_limits(GameParams(b, gamma, 4, 0))
                assert limits.even_limit + limits.odd_limit == pytest.approx(1.0)

    def test_large_b_approaches_one_zero(self):
        limits = density_limits(GameParams(10**6, 1.0, 4, 0))
        assert limits.even_limit == pytest.approx(1.0, abs=1e-5)
        assert limits.odd_limit == pytest.approx(0.0, abs=1e-5)

    def test_gamma_zero_degenerate(self):
        limits = density_limits(params(gamma=0.0))
        assert limits == DensityLimits(1.0, 1.0, True)

    def test_even_density_converges_monotonically(self):
        p = params(gamma=1.0, b=2, depth=50)
        limit = density_limits(p).even_limit
        gaps = [abs(plus_density(p, 2 * d) - limit) for d in range(26)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestSubtreePlusDensity:
    def test_remaining_zero(self):
        p = params()
        assert subtree_plus_density(p, PLUS, Player.MIN, 0) == 1.0
        assert subtree_plus_density(p, MINUS, Player.MAX, 0) == 0.0

    def test_forced_max_minus_one_level(self):
        assert subtree_plus_density(params(gamma=1.0, b=2), MINUS, Player.MAX, 1) == 0.0

    def test_generalizes_plus_density(self):
        p = GameParams(3, 0.8, 12, 0)
        for n in range(13):
            assert subtree_plus_density(p, PLUS, Player.MAX, n) == pytest.approx(
                plus_density(p, n), abs=1e-15
            )

    def test_min_minus_grandchildren_monte_carlo(self):
        # frequency of +1 grandchildren under Min choice nodes
        p_template = GameParams(2, 1.0, 6, 0)
        expected = subtree_plus_density(p_template, MINUS, Player.MIN, 2)
        plus = total = 0
        for seed in range(30_000):
            p = GameParams(2, 1.0, 6, seed)
            root = NodeCursor.root(p)
            for i in range(2):
                child = root.child(i)
                if child.value != MINUS:
                    continue  # want Min nodes holding -1 (choice nodes)
                for j in range(2):
                    for l in range(2):
                        total += 1
                        plus += child.child(j).child_value(l) == PLUS
        assert total >= 100_000
        assert abs(plus / total - expected) < 0.02

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            subtree_plus_density(params(), 0, Player.MAX, 1)


class TestExportTree:
    def test_depth_cap_zero(self):
        text = export_tree(params(seed=8), 0)
        assert text == 'digraph {\n  "r" [label="+1"]\n}\n'

    def test_depth_one_counts(self):
        text = export_tree(params(seed=8), 1)
        lines = text.strip().splitlines()
        assert sum("label=" in line for line in lines) == 3
        assert sum("->" in line for line in lines) == 2

    def test_gamma_zero_all_plus_labels(self):
        text = export_tree(params(gamma=0.0, seed=3), 2)
        assert text.count('label="+1"') == 7
        assert 'label="-1"' not in text

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            export_tree(GameParams(10, 1.0, 50, 0), 7)

    def test_labels_match_node_value(self):
        p = params(b=2, gamma=1.0, seed=17)
        text = export_tree(p, 2)
        for line in text.splitlines():
            if "label=" not in line or '"r"' in line:
                continue
            name = line.strip().split('"')[1]
            path = tuple(int(x) for x in name.split("/"))
            want = "+1" if node_value(p, path) == PLUS else "-1"
            assert f'label="{want}"' in line


class TestEnumerationOracle:
    def test_vectorized_matches_scalar_walk(self):
        for gamma, b, seed in [(0.5, 2, 1), (0.9, 3, 7), (1.0, 2, 123), (0.3, 4, 999)]:
            p = GameParams(b, gamma, 8, seed)
            profile = plus_fractions(p, 5)
            for n in range(6):
                plus = sum(
                    node_value(p, path) == PLUS
                    for path in itertools.product(range(b), repeat=n)
                )
                assert profile[n] == plus / b**n

    def test_mean_profile_shape_and_root(self):
        profile = mean_plus_fractions(2, 0.5, 4, range(10))
        assert profile.shape == (5,)
        assert profile[0] == 1.0

    def test_chunking_does_not_change_result(self):
        full = mean_plus_fractions(2, 0.7, 6, range(64))
        chunked = mean_plus_fractions(2, 0.7, 6, range(64), chunk_elements=256)
        assert np.array_equal(full, chunked)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            mean_plus_fractions(2, 0.5, 4, [])


@given(
    gamma=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    b=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_parent_child_constraint_property(gamma, b, seed, data):
    p = GameParams(b, gamma, 8, seed)
    depth = data.draw(st.integers(min_value=0, max_value=5))
    path = tuple(data.draw(st.integers(0, b - 1)) for _ in range(depth))
    cursor = walk(p, path)
    children = cursor.child_values()
    if cursor.is_choice:
        assert cursor.value in children
    else:
        assert children == [cursor.value] * b
