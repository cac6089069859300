"""Prefix value trees: integer-valued games that reward deeper search.

The root has minimax value 1 with Max to move. Each node designates one
child uniformly at random to keep its value m; every sibling pays the
mover's cost: m - k below a Max node, m + k below a Min node. With k >= 1
exactly one root child has value 1, and for b = 2 the sums of depth-d
descendant values under the optimal and sub-optimal root children differ
by exactly k * 2^d: each level doubles the gap because the per-level
costs cancel between the two subtrees.

The cost may instead be drawn from {1..max_random_cost}, once per tree
level: every sibling group at a depth shares the draw, so the per-level
costs still cancel between subtrees and the sum identity generalizes to
cost-at-level-0 * 2^d.

`PvCursor` is the `tree_model` cursor with this growth rule in place of
the win-loss one, so paths are checked and child states derived exactly
as for the win-loss trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bitmix
from .bitmix import COST_TAG, DESIGNATED_TAG, MASK64, checked_int
from .tree_model import NodeCursor

_ENUM_CAP = 10**6


@dataclass(frozen=True)
class PvParams:
    branching_factor: int
    max_depth: int
    seed: int
    cost: int = 1
    max_random_cost: int | None = None

    def __post_init__(self) -> None:
        for name, low, high in (
            ("branching_factor", 2, None), ("max_depth", 1, None), ("seed", 0, MASK64),
            ("cost", 1, None), ("max_random_cost", 1, None),
        ):
            value = getattr(self, name)
            if value is not None:  # only max_random_cost may be None
                object.__setattr__(self, name, checked_int(name, value, low, high))


def level_cost(params: PvParams, depth: int) -> int:
    """Sibling cost below depth; one draw per level in the randomized variant."""
    if params.max_random_cost is None:
        return params.cost
    draw = bitmix.indexed_u64(bitmix.root_state(params.seed), COST_TAG, depth)
    return 1 + draw % params.max_random_cost


class PvCursor(NodeCursor):
    """NodeCursor under the prefix-value growth rule; `params` is a PvParams."""

    @property
    def level_cost(self) -> int:
        return level_cost(self.params, self.depth)

    def child_value(self, index: int) -> int:
        if self.terminal:
            raise ValueError("terminal node has no children")
        if index == self.designated_index:
            return self.value
        k = self.level_cost
        return self.value - k if self.depth % 2 == 0 else self.value + k


def pv_value(params: PvParams, path: Sequence[int]) -> int:
    return PvCursor.walk(params, path).value


def pv_optimal_root_child(params: PvParams) -> int:
    """Index of the unique root child keeping value 1."""
    return PvCursor.root(params).designated_index


def pv_leaf_sum(params: PvParams, path: Sequence[int], d: int) -> int:
    """Exact sum of values over all depth-d descendants of the node at path."""
    d = checked_int("d", d, 0)
    if params.branching_factor**d > _ENUM_CAP:
        raise ValueError(f"b^d exceeds {_ENUM_CAP}")
    start = PvCursor.walk(params, path)
    if start.depth + d > params.max_depth:
        raise ValueError("descendants at depth d do not exist")

    b = params.branching_factor

    def rec(cursor: PvCursor, remaining: int) -> int:
        if remaining == 0:
            return cursor.value
        return sum(rec(cursor.child(i), remaining - 1) for i in range(b))

    return rec(start, d)


def leaf_sum_difference(params: PvParams, d: int) -> int:
    """S_d(optimal root child) - S_d(other root child); b = 2 only."""
    if params.branching_factor != 2:
        raise ValueError("defined for branching_factor 2")
    optimal = pv_optimal_root_child(params)
    return pv_leaf_sum(params, (optimal,), d) - pv_leaf_sum(params, (1 - optimal,), d)


def pv_naive_plan(params: PvParams, playouts_per_child: int, rng_seed: int) -> int:
    """1-ply planner: argmax over root children of mean leaf value from
    uniformly random walks to the bottom of the game; ties uniform."""
    playouts_per_child = checked_int("playouts_per_child", playouts_per_child, 1)
    rng = np.random.default_rng(rng_seed)
    b = params.branching_factor
    root = PvCursor.root(params)
    steps = params.max_depth - 1
    means = []
    for action in range(b):
        child = root.child(action)
        values = np.full(playouts_per_child, child.value, dtype=np.int64)
        states = np.full(playouts_per_child, child.state, dtype=np.uint64)
        for depth in range(1, 1 + steps):
            indices = rng.integers(0, b, size=playouts_per_child)
            designated = bitmix.stream_u64_np(states, DESIGNATED_TAG) % np.uint64(b)
            cost = np.int64(level_cost(params, depth))
            sign = -1 if depth % 2 == 0 else 1
            off_designated = indices != designated.astype(np.int64)
            values = values + np.where(off_designated, sign * cost, 0)
            states = bitmix.child_state_np(states, indices)
        means.append(float(values.mean()))
    best = max(means)
    ties = [i for i, m in enumerate(means) if m == best]
    return int(ties[0] if len(ties) == 1 else rng.choice(ties))
