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
as for the win-loss trees. `_child_values` is the rule's one numpy copy:
the leaf sums expand whole levels through it and the playout planner
steps its walks through it. Both hold values in int64, so `PvParams`
bounds k * max_depth such that every node value, and every sum of up to
`tree_model.ENUM_CAP` of them, the most `pv_leaf_sum` will expand, fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bitmix
from .bitmix import COST_TAG, DESIGNATED_TAG, MASK64, checked_int
from .tree_model import ENUM_CAP, NodeCursor, checked_span

_INT64_MAX = 2**63 - 1


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
        name = "cost" if self.max_random_cost is None else "max_random_cost"
        k = getattr(self, name)
        # a node's value lies within 1 +- k * depth; a leaf sum adds up to ENUM_CAP of them
        if (1 + k * self.max_depth) * ENUM_CAP > _INT64_MAX:
            raise ValueError(
                f"{name} * max_depth must be at most {_INT64_MAX // ENUM_CAP - 1} "
                f"for values to fit in int64, got {k} * {self.max_depth}"
            )


def level_cost(params: PvParams, depth: int) -> int:
    """Sibling cost below depth; one draw per level in the randomized variant."""
    if params.max_random_cost is None:
        return params.cost
    draw = bitmix.indexed_u64(bitmix.root_state(params.seed), COST_TAG, depth)
    return 1 + draw % params.max_random_cost


class PvCursor(NodeCursor):
    """NodeCursor under the prefix-value growth rule; `params` is a PvParams."""

    def child_value(self, index: int) -> int:
        if self.terminal:
            raise ValueError("terminal node has no children")
        if index == self.designated_index:
            return self.value
        k = level_cost(self.params, self.depth)
        return self.value - k if self.depth % 2 == 0 else self.value + k


def _child_values(
    params: PvParams, depth: int, values: np.ndarray, states: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """Child values of the nodes (values, states) at `depth`, in int64.

    `index` holds one child index per node, or is the column
    ``arange(b)[:, None]``, which gives every child of every node as a
    (b, n) array, child j in row j. The children's states are
    ``bitmix.child_state_np(states, index)``, in the same shape.
    """
    b = params.branching_factor
    designated = bitmix.stream_u64_np(states, DESIGNATED_TAG) % np.uint64(b)
    k = level_cost(params, depth)
    return np.where(index == designated.astype(np.int64), values, values + (k if depth % 2 else -k))


def pv_value(params: PvParams, path: Sequence[int]) -> int:
    return PvCursor.walk(params, path).value


def pv_optimal_root_child(params: PvParams) -> int:
    """Index of the unique root child keeping value 1."""
    return PvCursor.root(params).designated_index


def pv_leaf_sum(params: PvParams, path: Sequence[int], d: int) -> int:
    """Exact sum of values over all depth-d descendants of the node at path,
    expanding each level whole, index-major as in `tree_model`."""
    d = checked_span(params.branching_factor, d, "d")
    start = PvCursor.walk(params, path)
    if start.depth + d > params.max_depth:
        raise ValueError("descendants at depth d do not exist")
    column = np.arange(params.branching_factor, dtype=np.int64)[:, None]
    values = np.full(1, start.value, dtype=np.int64)
    states = np.full(1, start.state, dtype=np.uint64)
    last = start.depth + d - 1
    for depth in range(start.depth, last + 1):
        values = _child_values(params, depth, values, states, column).reshape(-1)
        if depth < last:  # the leaves' own states are never read
            states = bitmix.child_state_np(states, column).reshape(-1)
    return int(values.sum())


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
    rng = np.random.default_rng(checked_int("rng_seed", rng_seed, 0, MASK64))
    b = params.branching_factor
    root = PvCursor.root(params)
    means = []
    for action in range(b):
        child = root.child(action)
        values = np.full(playouts_per_child, child.value, dtype=np.int64)
        states = np.full(playouts_per_child, child.state, dtype=np.uint64)
        for depth in range(1, params.max_depth):
            indices = rng.integers(0, b, size=playouts_per_child)
            values = _child_values(params, depth, values, states, indices)
            states = bitmix.child_state_np(states, indices)
        means.append(float(values.mean()))
    best = max(means)
    ties = [i for i, m in enumerate(means) if m == best]
    return int(ties[0] if len(ties) == 1 else rng.choice(ties))
