import itertools
import math
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from critgames import bitmix, experiments, tree_model
from critgames.experiments import GridSpec, run_grid
from critgames.heuristics import parse_heuristic
from critgames.pv_model import PvParams, pv_leaf_sum
from critgames.search_minimax import MinimaxConfig, minimax_reference
from critgames.tree_model import (
    ENUM_CAP,
    MINUS,
    PLUS,
    DensityLimits,
    GameParams,
    Kind,
    NodeCursor,
    Player,
    checked_span,
    density_limits,
    designated_child,
    designated_indices,
    export_tree,
    flip_threshold,
    grown_value,
    mean_plus_fractions,
    node_meta,
    node_value,
    plus_densities,
    plus_density,
    plus_fractions,
    subtree_plus_densities,
    subtree_plus_density,
    walk,
)
from fork_helpers import assert_no_children, count_forks, fail, in_a_child


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
        for index in (0.5, -1, 2):
            with pytest.raises(ValueError, match=rf"child index .* in path \({index},\)"):
                node_value(p, (index,))
        with pytest.raises(ValueError, match="exceeds max_depth"):
            node_value(p, (0, 0, 0, 0))
        assert node_value(p, (np.int64(1),)) == node_value(p, (1,))

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

    def test_levels_are_the_values_level_by_level(self):
        # one run of the recurrence gives every level, bit for bit
        for b, gamma in ((2, 1.0), (3, 0.5), (10, 0.9)):
            p = params(b=b, gamma=gamma, depth=40)
            assert list(plus_densities(p, 40)) == [plus_density(p, n) for n in range(41)]
        assert list(plus_densities(params(), 0)) == [1.0]
        with pytest.raises(ValueError, match="^n must"):
            plus_densities(params(depth=5), 6)

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

    def test_levels_end_at_the_density(self):
        p = GameParams(3, 0.7, 12, 0)
        for value, player in itertools.product((PLUS, MINUS), Player):
            levels = list(subtree_plus_densities(p, value, player, 12))
            assert len(levels) == 13
            for n, f in enumerate(levels):
                assert f == subtree_plus_density(p, value, player, n)


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


# float.hex of mean_plus_fractions(b, gamma, 12, range(20)), recorded with the
# path-ordered enumeration that preceded the index-major one
GOLDEN_PROFILES = {
    (2, 0.5): (
        "0x1.0000000000000p+0",
        "0x1.999999999999ap-1",
        "0x1.c000000000000p-1",
        "0x1.4cccccccccccdp-1",
        "0x1.7cccccccccccdp-1",
        "0x1.2266666666666p-1",
        "0x1.5a66666666666p-1",
        "0x1.07ccccccccccdp-1",
        "0x1.46e6666666666p-1",
        "0x1.e79999999999ap-2",
        "0x1.3666666666666p-1",
        "0x1.d07999999999ap-2",
        "0x1.2ebe666666666p-1",
    ),
    (2, 0.9): (
        "0x1.0000000000000p+0",
        "0x1.199999999999ap-1",
        "0x1.8cccccccccccdp-1",
        "0x1.b99999999999ap-2",
        "0x1.5666666666666p-1",
        "0x1.7666666666666p-2",
        "0x1.4b33333333333p-1",
        "0x1.6c66666666666p-2",
        "0x1.4b80000000000p-1",
        "0x1.6b4cccccccccdp-2",
        "0x1.4a73333333333p-1",
        "0x1.6c40000000000p-2",
        "0x1.4a64ccccccccdp-1",
    ),
    (2, 1.0): (
        "0x1.0000000000000p+0",
        "0x1.0000000000000p-1",
        "0x1.8000000000000p-1",
        "0x1.8000000000000p-2",
        "0x1.6000000000000p-1",
        "0x1.6000000000000p-2",
        "0x1.5800000000000p-1",
        "0x1.5800000000000p-2",
        "0x1.5600000000000p-1",
        "0x1.5600000000000p-2",
        "0x1.5580000000000p-1",
        "0x1.5580000000000p-2",
        "0x1.5560000000000p-1",
    ),
    (3, 0.5): (
        "0x1.0000000000000p+0",
        "0x1.7ffffffffffffp-1",
        "0x1.b05b05b05b05dp-1",
        "0x1.1d6480f2b9d65p-1",
        "0x1.6a82365c4952ep-1",
        "0x1.e172d4ce7c503p-2",
        "0x1.4bb61d5b838bep-1",
        "0x1.b9d049caab6a6p-2",
        "0x1.3e49fe9c66ca4p-1",
        "0x1.a90b22c7f2340p-2",
        "0x1.387a90208f7a1p-1",
        "0x1.a0c701bbde825p-2",
        "0x1.359a423322bfep-1",
    ),
    (3, 0.9): (
        "0x1.0000000000000p+0",
        "0x1.9999999999999p-2",
        "0x1.85b05b05b05b2p-1",
        "0x1.3e93e93e93e93p-2",
        "0x1.73ac901e573adp-1",
        "0x1.27669c56cee84p-2",
        "0x1.6e44204ea9432p-1",
        "0x1.255734cabd654p-2",
        "0x1.6dda3ee9d069cp-1",
        "0x1.24b00fc61b66bp-2",
        "0x1.6d9851f84e395p-1",
        "0x1.248783ca6c3a6p-2",
        "0x1.6dc30cbac3ca8p-1",
    ),
    (3, 1.0): (
        "0x1.0000000000000p+0",
        "0x1.5555555555553p-2",
        "0x1.8e38e38e38e3cp-1",
        "0x1.097b425ed097bp-2",
        "0x1.81948b0fcd6ecp-1",
        "0x1.010db20a88f46p-2",
        "0x1.802cf301c17e1p-1",
        "0x1.001df75680febp-2",
        "0x1.8004fe8e6ad51p-1",
        "0x1.0003545ef1e36p-2",
        "0x1.80008e0fd2fb2p-1",
        "0x1.00005eb537522p-2",
        "0x1.80000fc8de8ddp-1",
    ),
}


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

    @pytest.mark.parametrize(
        "b, gamma, depth, message",
        [
            (1, 0.5, 4, r"^b must"),
            (2, -0.1, 4, r"^gamma must"),
            (2, 1.5, 4, r"^gamma must"),
            (2, math.nan, 4, r"^gamma must"),
            (2, 0.5, -1, r"^depth must"),
            (2, 0.5, 20, r"^b\^depth exceeds 1000000$"),
        ],
    )
    def test_bad_arguments_rejected(self, b, gamma, depth, message):
        with pytest.raises(ValueError, match=message):
            mean_plus_fractions(b, gamma, depth, range(3))

    @pytest.mark.parametrize("b, gamma", sorted(GOLDEN_PROFILES))
    def test_golden_profiles(self, b, gamma):
        # levels past 2^15 children run in several tiles, partial ones included
        profile = mean_plus_fractions(b, gamma, 12, range(20))
        assert [x.hex() for x in profile.tolist()] == list(GOLDEN_PROFILES[b, gamma])


def unmix64(h):
    """The inverse of `bitmix.mix64`: undo each xor-shift and multiply in turn."""
    h ^= (h >> 31) ^ (h >> 62)
    h = h * pow(0x94D049BB133111EB, -1, 1 << 64) & bitmix.MASK64
    h ^= (h >> 27) ^ (h >> 54)
    h = h * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & bitmix.MASK64
    return h ^ (h >> 30) ^ (h >> 60)


class TestDesignatedIndices:
    @pytest.mark.parametrize("b", [2, 3, 5, 10])
    def test_floor_divide_remainder_matches_modulo_on_edge_words(self, b):
        """States chosen so that the mixed word h is 0, 2^64 - 1 or a multiple
        of b plus or minus one, at the bottom, middle and top of the range."""
        top = bitmix.MASK64 // b * b
        multiples = [b, b * 12345, (bitmix.MASK64 // 2) // b * b, top - b, top]
        words = [0, 1, bitmix.MASK64] + [m + e for m in multiples for e in (-1, 0, 1)]
        words = sorted({w for w in words if 0 <= w <= bitmix.MASK64})
        assert all(bitmix.mix64(unmix64(w)) == w for w in words)
        states = np.array([unmix64(w) ^ bitmix.DESIGNATED_TAG for w in words], dtype=np.uint64)
        want = np.array(words, dtype=np.uint64) % np.uint64(b)
        got = designated_indices(states, b)
        assert got.dtype == np.uint64 and np.array_equal(got, want)
        out, scratch = np.empty_like(states), np.empty_like(states)
        assert designated_indices(states, b, out, scratch) is out
        assert np.array_equal(out, want)
        p = params(b=b)
        assert got.tolist() == [NodeCursor(p, 0, PLUS, int(s)).designated_index for s in states]


def on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(tree_model, "usable_cpus", lambda: cpus)


class TestForkedEnumeration:
    """mean_plus_fractions on several workers: the caller and forked
    children enumerate slices of the seeds, with the same bits as one."""

    @pytest.mark.parametrize("b, n", [(2, 300), (3, 9)])
    @pytest.mark.parametrize("chunk", [3**8, 3**14])
    def test_profiles_do_not_depend_on_the_worker_count(self, monkeypatch, b, n, chunk):
        """At 3^8 every seed is a block and a task. At 3^14 all n seeds are
        one block, summed row by row, but tasks hold ceil(n / workers)."""
        forked = count_forks(monkeypatch)
        profiles = []
        for workers in (1, 2, 3):
            on_cpus(monkeypatch, workers)
            profile = mean_plus_fractions(b, 0.9, 12, range(n), chunk)
            profiles.append([x.hex() for x in profile.tolist()])
        assert profiles[1] == profiles[0] and profiles[2] == profiles[0]
        assert len(forked) == 3

    @pytest.mark.parametrize(
        "cpus, n, forks", [(1, 40, 0), (4, 1, 0), (4, 2, 1), (3, 40, 2), (8, 3, 2)]
    )
    def test_one_child_per_task_and_cpu_but_the_callers(self, monkeypatch, cpus, n, forks):
        """A call forks whenever it has two tasks and two CPUs, however
        few leaves it enumerates."""
        on_cpus(monkeypatch, cpus)
        forked = count_forks(monkeypatch)
        profile = mean_plus_fractions(2, 0.5, 4, range(n))
        assert len(forked) == forks
        on_cpus(monkeypatch, 1)
        assert np.array_equal(profile, mean_plus_fractions(2, 0.5, 4, range(n)))

    def test_a_child_exception_is_raised_in_the_caller(self, monkeypatch, tmp_path):
        on_cpus(monkeypatch, 2)
        stub = in_a_child(fail, tmp_path / "flag", tree_model._profile_for_seeds)
        monkeypatch.setattr(tree_model, "_profile_for_seeds", stub)
        with pytest.raises(ValueError, match="^stub failed in a child$") as raised:
            mean_plus_fractions(3, 0.5, 12, range(4))
        assert isinstance(raised.value.__cause__, ChildProcessError)
        assert "in enumeration worker" in str(raised.value.__cause__)
        assert_no_children()

    def test_a_child_that_dies_raises_and_does_not_hang(self, monkeypatch, tmp_path):
        on_cpus(monkeypatch, 3)
        stub = in_a_child(lambda: os._exit(3), tmp_path / "flag", tree_model._profile_for_seeds)
        monkeypatch.setattr(tree_model, "_profile_for_seeds", stub)
        with pytest.raises(RuntimeError, match=r"^enumeration worker \d+ died with exit code 3$"):
            mean_plus_fractions(3, 0.5, 12, range(4))
        assert_no_children()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
    def test_no_child_or_descriptor_outlives_a_call(self, monkeypatch, tmp_path):
        """Forked grid and enumeration calls, passing and failing, leave no
        child to reap and no file descriptor open."""
        spec = GridSpec(gammas=(0.5, 1.0), branchings=(2,), explorations=(0.5,), budgets=(10,),
                        max_depth=8, trees=4)
        on_cpus(monkeypatch, 2)
        before = len(os.listdir("/proc/self/fd"))
        run_grid(spec, workers=2)
        mean_plus_fractions(3, 0.5, 12, range(4))
        for i, (module, name, child_does) in enumerate([
            (experiments, "run_cell", fail),
            (experiments, "run_cell", lambda: os._exit(3)),
            (tree_model, "_profile_for_seeds", fail),
            (tree_model, "_profile_for_seeds", lambda: os._exit(3)),
        ]):
            flag = tmp_path / f"flag{i}"
            with monkeypatch.context() as patch:
                patch.setattr(module, name, in_a_child(child_does, flag, getattr(module, name)))
                with pytest.raises((ValueError, RuntimeError)):
                    if module is experiments:
                        run_grid(spec, workers=2)
                    else:
                        mean_plus_fractions(3, 0.5, 12, range(4))
        assert_no_children()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("chunk", [-5, 0, 1.5, math.nan, "2", None])
    def test_bad_chunk_rejected(self, chunk):
        with pytest.raises(ValueError, match=r"^chunk_elements must be an integer >= 1, got "):
            mean_plus_fractions(2, 0.5, 4, range(3), chunk)

    def test_huge_chunk_is_one_block(self):
        assert np.array_equal(
            mean_plus_fractions(2, 0.5, 4, range(3), chunk_elements=10**30),
            mean_plus_fractions(2, 0.5, 4, range(3)),
        )


class TestCheckedSpan:
    @pytest.mark.parametrize(
        "b, d",
        [(2, 0), (2, 19), (10, 6), (1000, 2), (ENUM_CAP, 1), (ENUM_CAP + 1, 0), (3, np.int64(12))],
    )
    def test_within_cap(self, b, d):
        assert checked_span(b, d, "d") == d
        assert type(checked_span(b, d, "d")) is int

    @pytest.mark.parametrize(
        "b, d", [(2, 20), (10, 7), (1001, 2), (ENUM_CAP + 1, 1), (3, 13), (2, 10**7)]
    )
    def test_over_cap(self, b, d):
        with pytest.raises(ValueError, match=r"^b\^span exceeds 1000000$"):
            checked_span(b, d, "span")

    @pytest.mark.parametrize("d", [-1, 2.5, "3", None])
    def test_not_a_count(self, d):
        with pytest.raises(ValueError, match="^span must be an integer >= 0"):
            checked_span(2, d, "span")


# b = 3, d = 10^7: b^d has millions of digits, so a check that computed it
# first would take seconds, or fail on the digit limit of int-to-str
SPAN = 10**7


@pytest.mark.parametrize(
    "name, run",
    [
        pytest.param(
            "depth_cap", lambda: export_tree(GameParams(3, 0.5, SPAN, 0), SPAN), id="export_tree"
        ),
        pytest.param(
            "depth", lambda: mean_plus_fractions(3, 0.5, SPAN, [0]), id="mean_plus_fractions"
        ),
        pytest.param("d", lambda: pv_leaf_sum(PvParams(3, SPAN, 0), (), SPAN), id="pv_leaf_sum"),
        pytest.param(
            "depth",
            lambda: minimax_reference(
                GameParams(3, 0.5, SPAN, 0), (), MinimaxConfig(SPAN, parse_heuristic("perfect"), 0)
            ),
            id="minimax_reference",
        ),
    ],
)
def test_full_expansions_share_the_cap(name, run):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^b\^{name} exceeds 1000000$"):
        run()
    assert time.perf_counter() - start < 1.0  # b^d is never computed


# gamma values at which the flip test's rounding shows: none flips, the
# least and the greatest rate below 1, and every draw flips
EDGE_GAMMAS = (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)
GAMMAS = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from(EDGE_GAMMAS)


def _unmix64(x):
    """The inverse of bitmix.mix64."""
    for shift, mult in ((31, bitmix._MULT_B), (27, bitmix._MULT_A), (30, None)):
        y = x
        for _ in range(64 // shift + 1):  # invert x ^ (x >> shift)
            x = y ^ (x >> shift)
        if mult is not None:
            x = (x * pow(mult, -1, 1 << 64)) & bitmix.MASK64
    return x


def _seed_drawing(word, index):
    """A seed whose root draws `word` as the flip draw of child `index`."""
    state = _unmix64(word) ^ int(bitmix.indexed_word(bitmix.FLIP_TAG, index)[0])
    return _unmix64(state) ^ bitmix.GOLDEN


@given(gamma=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
@example(gamma=0.0)
@example(gamma=2.0**-53)
@example(gamma=0.3)
@example(gamma=0.5)
@example(gamma=0.7)
@example(gamma=1.0 - 2.0**-53)
@example(gamma=1.0)
def test_flip_threshold_matches_unit(gamma):
    bound = flip_threshold(gamma)
    assert (bound == 0) == (gamma == 0.0)
    assert (bound > bitmix.MASK64) == (gamma == 1.0)
    for word in (bound + delta for delta in (-2049, -2048, -1, 0, 1, 2047, 2048)):
        if 0 <= word <= bitmix.MASK64:
            assert (word < bound) == (bitmix.unit(word) < gamma)


@pytest.mark.parametrize("gamma", EDGE_GAMMAS + (0.3, 0.7))
def test_enumeration_at_flip_draws_next_to_the_threshold(gamma):
    # roots built to draw the words either side of the bound, so the
    # enumeration's integer test meets scalar grown_value's float test
    # exactly where rounding or a shortcut would part them
    top = math.ceil(gamma * 2.0**53) << 11
    open_draws = 0
    for word in (top - 2048, top - 1, top, top + 1):
        if not 0 <= word <= bitmix.MASK64:
            continue
        for index in range(3):
            p = GameParams(3, gamma, 1, _seed_drawing(word, index))
            root = NodeCursor.root(p)
            assert bitmix.indexed_u64(root.state, bitmix.FLIP_TAG, index) == word
            open_draws += root.designated_index != index
            expected = sum(v == PLUS for v in root.child_values()) / 3
            assert plus_fractions(p, 1)[1] == expected
    assert open_draws > 0


@given(gamma=GAMMAS, b=st.integers(2, 5), n=st.integers(0, 5), seed=st.integers(0, bitmix.MASK64))
@settings(max_examples=100, deadline=None)
def test_enumeration_equals_cursor_count(gamma, b, n, seed):
    p = GameParams(b, gamma, 5, seed)
    level = [NodeCursor.root(p)]
    expected = [1.0]
    for _ in range(n):
        level = [cursor.child(i) for cursor in level for i in range(b)]
        expected.append(sum(cursor.value == PLUS for cursor in level) / len(level))
    assert plus_fractions(p, n).tolist() == expected


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
