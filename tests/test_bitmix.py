import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critgames import bitmix
from critgames.engine import ProbeConfig
from critgames.experiments import GridSpec
from critgames.heuristics import perfect
from critgames.pv_model import PvParams
from critgames.search_minimax import MinimaxConfig
from critgames.search_uct import UctConfig
from critgames.tree_model import GameParams, export_tree, mean_plus_fractions, plus_density


def test_mix64_masks_and_round_trips():
    assert bitmix.mix64(0) == bitmix.mix64(1 << 64)
    for x in (0, 1, 2**63, bitmix.MASK64):
        h = bitmix.mix64(x)
        assert 0 <= h <= bitmix.MASK64


def test_mix64_is_injective_on_sample():
    rng = random.Random(0)
    xs = [rng.getrandbits(64) for _ in range(5000)]
    assert len({bitmix.mix64(x) for x in xs}) == len(xs)


def test_unit_range_and_mean():
    rng = random.Random(1)
    us = [bitmix.unit(bitmix.mix64(rng.getrandbits(64))) for _ in range(20000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert abs(sum(us) / len(us) - 0.5) < 0.01


@given(st.integers(min_value=0, max_value=bitmix.MASK64))
@settings(max_examples=200)
def test_scalar_numpy_mix_parity(x):
    arr = np.asarray([x], dtype=np.uint64)
    assert int(bitmix.mix64_np(arr)[0]) == bitmix.mix64(x)


def test_scalar_numpy_stream_parity():
    rng = random.Random(7)
    states = [rng.getrandbits(64) for _ in range(300)]
    arr = np.asarray(states, dtype=np.uint64)
    for index in (0, 1, 2, 9, 63):
        expected_child = [bitmix.child_state(s, index) for s in states]
        assert bitmix.child_state_np(arr, index).tolist() == expected_child
        for tag in (bitmix.DESIGNATED_TAG, bitmix.FLIP_TAG, bitmix.COST_TAG):
            expected = [bitmix.indexed_u64(s, tag, index) for s in states]
            mixed = bitmix.mix64_np(arr ^ bitmix.indexed_word(tag, index))
            assert mixed.tolist() == expected
    indices = [rng.randrange(64) for _ in states]
    expected_children = [bitmix.child_state(s, i) for s, i in zip(states, indices)]
    assert bitmix.child_state_np(arr, np.asarray(indices)).tolist() == expected_children
    expected_root = [bitmix.root_state(s) for s in states]
    assert bitmix.root_state_np(arr).tolist() == expected_root
    expected_stream = [bitmix.stream_u64(s, bitmix.EVAL_TAG) for s in states]
    assert bitmix.stream_u64_np(arr, bitmix.EVAL_TAG).tolist() == expected_stream


def test_stream_tags_are_distinct():
    tags = [
        bitmix.DESIGNATED_TAG,
        bitmix.FLIP_TAG,
        bitmix.COST_TAG,
        bitmix.EVAL_TAG,
        bitmix.SELECT_TAG,
        bitmix.DECIDE_TAG,
    ]
    assert len(set(tags)) == len(tags)
    # no tag collides with a small child-index step, so child streams and
    # tagged streams stay separate
    steps = {((i + 1) * bitmix.GOLDEN) & bitmix.MASK64 for i in range(64)}
    assert not steps.intersection(tags)


@pytest.mark.parametrize("tag", [bitmix.DESIGNATED_TAG, bitmix.FLIP_TAG])
def test_indexed_draws_differ_by_index(tag):
    state = bitmix.root_state(12345)
    draws = {bitmix.indexed_u64(state, tag, i) for i in range(100)}
    assert len(draws) == 100


@given(st.integers(min_value=0, max_value=bitmix.MASK64), st.integers(min_value=0, max_value=50))
@settings(max_examples=100)
def test_keyed_draws_are_pure_in_key_and_index(key, index):
    draws = bitmix.KeyedDraws(key)
    sequence = [draws.random() for _ in range(index + 1)]
    assert sequence[index] == bitmix.unit(bitmix.indexed_u64(key, bitmix.EVAL_TAG, index))
    assert all(0.0 <= u < 1.0 for u in sequence)
    replay = bitmix.KeyedDraws(key)
    assert [replay.random() for _ in range(index + 1)] == sequence


def test_keyed_gauss_is_standard_normal():
    scipy_stats = pytest.importorskip("scipy.stats")
    draws = bitmix.KeyedDraws(bitmix.root_state(2024))
    xs = np.array([draws.gauss(0.0, 1.0) for _ in range(100_000)])
    assert draws.index == 200_000  # two draws per variate
    assert abs(xs.mean()) < 0.01
    assert abs(xs.std() - 1.0) < 0.01
    assert scipy_stats.kstest(xs, "norm").pvalue > 0.01
    shifted = bitmix.KeyedDraws(bitmix.root_state(2024))
    assert shifted.gauss(2.0, 0.5) == pytest.approx(2.0 + 0.5 * xs[0], abs=1e-12)


_SPEC = dict(gammas=(1.0,), branchings=(2,), explorations=(0.5,), budgets=(10,), trees=1)


def _config_cases():
    """(name, build, value): `build(value)` hands `value` to the argument `name`."""
    h = perfect()
    seeds = [
        ("seed", lambda s: GameParams(2, 0.5, 4, s)),
        ("seed", lambda s: PvParams(2, 4, s)),
        ("seed", lambda s: UctConfig(1.0, 10, h, s)),
        ("seed", lambda s: MinimaxConfig(2, h, s)),
        ("master_seed", lambda s: GridSpec(**_SPEC, master_seed=s)),
        ("seeds", lambda s: mean_plus_fractions(2, 0.5, 4, [0, s])),
    ]
    counts = [
        ("branching_factor", lambda n: GameParams(n, 0.5, 4, 0)),
        ("max_depth", lambda n: GameParams(2, 0.5, n, 0)),
        ("branching_factor", lambda n: PvParams(n, 4, 0)),
        ("budget", lambda n: UctConfig(1.0, n, h, 0)),
        ("depth", lambda n: MinimaxConfig(n, h, 0)),
        ("branching_factor", lambda n: GridSpec(**{**_SPEC, "branchings": (n,)})),
        ("budget", lambda n: GridSpec(**{**_SPEC, "budgets": (n,)})),
        ("depth", lambda n: GridSpec(**{**_SPEC, "budgets": (n,)}, algorithm="alphabeta")),
        ("deep_depth", lambda n: ProbeConfig(deep_depth=n)),
        ("b", lambda n: mean_plus_fractions(n, 0.5, 4, [0])),
        ("depth", lambda n: mean_plus_fractions(2, 0.5, n, [0])),
        ("n", lambda n: plus_density(GameParams(2, 0.5, 4, 0), n)),
        ("depth_cap", lambda n: export_tree(GameParams(2, 0.5, 4, 0), n)),
    ]
    return [
        pytest.param(name, build, value, id=f"{name}={value!r}-{i}")
        for i, (name, build) in enumerate(seeds)
        for value in (1.5, -1, 2**64)
    ] + [
        pytest.param(name, build, 2.5, id=f"{name}=2.5-{i}")
        for i, (name, build) in enumerate(counts)
    ]


@pytest.mark.parametrize("name, build, value", _config_cases())
def test_config_types_name_a_bad_count_or_seed(name, build, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        build(value)
