"""Critical win-loss game trees.

A game instance is a pure function of its parameters: node values are
derived lazily by walking from the root, so no tree is ever materialized
and any node can be queried independently of every other node.

Growth rule. The root has value +1, Max to move, and is a choice node.
A choice node (the player on move can win: Max holding +1, Min holding
-1) designates one child uniformly at random to keep the parent value;
every other child flips to the opposite value independently with
probability ``critical_rate``. A forced node (the player on move loses)
passes its value to all children. Terminality is purely depth-based.

The density of +1 nodes per level follows, with k = 1 - gamma + gamma/b,

    f_0 = 1,  f_{n+1} = f_n * k            (Max on move at level n)
              f_{n+1} = f_n * k + 1 - k    (Min on move at level n)

which converges to 1/(1+k) on even levels and k/(1+k) on odd ones.
``plus_fractions`` enumerates a full instance level by level with the
vectorized mixer so the recurrence can be checked against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import bitmix
from .bitmix import DESIGNATED_TAG, FLIP_TAG, MASK64

PLUS = 1
MINUS = -1

_ENUM_CAP = 10**6


class Player(Enum):
    MAX = "max"
    MIN = "min"


class Kind(Enum):
    CHOICE = "choice"
    FORCED = "forced"


def player_at(depth: int) -> Player:
    return Player.MAX if depth % 2 == 0 else Player.MIN


@dataclass(frozen=True)
class GameParams:
    branching_factor: int
    critical_rate: float
    max_depth: int
    seed: int

    def __post_init__(self) -> None:
        if self.branching_factor < 2:
            raise ValueError("branching_factor must be >= 2")
        if not 0.0 <= self.critical_rate <= 1.0:
            raise ValueError("critical_rate must lie in [0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class NodeInfo:
    value: int
    kind: Kind
    player: Player
    terminal: bool
    optimal_moves: frozenset[int]


def check_path(params: GameParams, path: Sequence[int]) -> tuple[int, ...]:
    path = tuple(path)
    if len(path) > params.max_depth:
        raise ValueError(f"path depth {len(path)} exceeds max_depth {params.max_depth}")
    for index in path:
        if not 0 <= index < params.branching_factor:
            raise ValueError(f"child index {index} out of range [0, {params.branching_factor})")
    return path


@dataclass(frozen=True)
class NodeCursor:
    """Lazy handle on one node: its value plus the state seeding its child draws.

    A subclass replaces only the growth rule, `child_value`.
    """

    params: GameParams
    depth: int
    value: int
    state: int

    @classmethod
    def root(cls, params: GameParams) -> "NodeCursor":
        return cls(params, 0, PLUS, bitmix.root_state(params.seed))

    @property
    def player(self) -> Player:
        return player_at(self.depth)

    @property
    def terminal(self) -> bool:
        return self.depth >= self.params.max_depth

    @property
    def is_choice(self) -> bool:
        # the player on move holds a winning value
        favorable = PLUS if self.depth % 2 == 0 else MINUS
        return self.value == favorable

    @property
    def kind(self) -> Kind:
        return Kind.CHOICE if self.is_choice else Kind.FORCED

    @property
    def designated_index(self) -> int:
        return bitmix.stream_u64(self.state, DESIGNATED_TAG) % self.params.branching_factor

    def child_value(self, index: int) -> int:
        if self.terminal:
            raise ValueError("terminal node has no children")
        if not self.is_choice or index == self.designated_index:
            return self.value
        u = bitmix.unit(bitmix.indexed_u64(self.state, FLIP_TAG, index))
        return -self.value if u < self.params.critical_rate else self.value

    def child(self, index: int) -> "NodeCursor":
        value = self.child_value(index)
        return type(self)(self.params, self.depth + 1, value, bitmix.child_state(self.state, index))

    def child_values(self) -> list[int]:
        return [self.child_value(i) for i in range(self.params.branching_factor)]

    @classmethod
    def walk(cls, params: GameParams, path: Sequence[int]) -> "NodeCursor":
        """The node at `path` below the root; the path is validated first."""
        cursor = cls.root(params)
        for index in check_path(params, path):
            cursor = cursor.child(index)
        return cursor


walk = NodeCursor.walk


def node_value(params: GameParams, path: Sequence[int]) -> int:
    return walk(params, path).value


def node_meta(params: GameParams, path: Sequence[int]) -> NodeInfo:
    cursor = walk(params, path)
    if cursor.terminal:
        optimal: frozenset[int] = frozenset()
    else:
        # moves preserving the node's value; at a choice node that is the
        # mover-favorable value, at a forced node it is every move
        optimal = frozenset(
            i for i, v in enumerate(cursor.child_values()) if v == cursor.value
        )
    return NodeInfo(cursor.value, cursor.kind, cursor.player, cursor.terminal, optimal)


def density_coefficient(params: GameParams) -> float:
    g = params.critical_rate
    return 1.0 - g + g / params.branching_factor


def plus_density(params: GameParams, n: int) -> float:
    """Density of +1 nodes at depth n, by the level recurrence."""
    if not 0 <= n <= params.max_depth:
        raise ValueError(f"depth {n} out of range [0, {params.max_depth}]")
    k = density_coefficient(params)
    f = 1.0
    for level in range(n):
        f = f * k if level % 2 == 0 else f * k + 1.0 - k
    return f


class DensityLimits(NamedTuple):
    even_limit: float
    odd_limit: float
    degenerate: bool = False


def density_limits(params: GameParams) -> DensityLimits:
    if params.critical_rate == 0.0:
        # every node is +1; the even/odd split never separates
        return DensityLimits(1.0, 1.0, True)
    k = density_coefficient(params)
    return DensityLimits(1.0 / (1.0 + k), k / (1.0 + k), False)


def subtree_plus_density(
    params: GameParams, value: int, player: Player, remaining: int
) -> float:
    """Density of +1 nodes `remaining` plies below a node of the given value/player."""
    if value not in (PLUS, MINUS):
        raise ValueError("value must be +1 or -1")
    if not 0 <= remaining <= params.max_depth:
        raise ValueError(f"remaining {remaining} out of range [0, {params.max_depth}]")
    k = density_coefficient(params)
    f = 1.0 if value == PLUS else 0.0
    on_move = player
    for _ in range(remaining):
        f = f * k if on_move is Player.MAX else f * k + 1.0 - k
        on_move = Player.MIN if on_move is Player.MAX else Player.MAX
    return f


def export_tree(params: GameParams, depth_cap: int) -> str:
    """Graph description of the instance down to depth_cap, digraph text."""
    if depth_cap < 0:
        raise ValueError("depth_cap must be >= 0")
    depth_cap = min(depth_cap, params.max_depth)
    if params.branching_factor**depth_cap > _ENUM_CAP:
        raise ValueError(f"b^depth_cap exceeds {_ENUM_CAP}")
    lines = ["digraph {"]

    def label(value: int) -> str:
        return "+1" if value == PLUS else "-1"

    def emit(cursor: NodeCursor, name: str) -> None:
        lines.append(f'  "{name}" [label="{label(cursor.value)}"]')
        if cursor.depth >= depth_cap or cursor.terminal:
            return
        for i in range(params.branching_factor):
            child_name = str(i) if name == "r" else f"{name}/{i}"
            lines.append(f'  "{name}" -> "{child_name}"')
            emit(cursor.child(i), child_name)

    emit(NodeCursor.root(params), "r")
    lines.append("}")
    return "\n".join(lines) + "\n"


def plus_fractions(params: GameParams, depth: int) -> np.ndarray:
    """Exact per-level fractions of +1 nodes for one instance, levels 0..depth."""
    if not 0 <= depth <= params.max_depth:
        raise ValueError(f"depth {depth} out of range [0, {params.max_depth}]")
    if params.branching_factor**depth > _ENUM_CAP:
        raise ValueError(f"b^depth exceeds {_ENUM_CAP}")
    seeds = np.asarray([params.seed], dtype=np.uint64)
    return _profile_for_seeds(params.branching_factor, params.critical_rate, depth, seeds)[0]


def mean_plus_fractions(
    b: int, gamma: float, depth: int, seeds: Iterable[int], chunk_elements: int = 2**20
) -> np.ndarray:
    """Per-level +1 fractions averaged over instances, by full enumeration.

    Enumerates every node of every instance level by level with the
    vectorized mixer; identical, path by path, to scalar node_value.
    Seeds go in blocks of at most ``chunk_elements`` leaves (but at least one
    instance per block). The default bounds each block's uint64 state
    arrays to a few MB; blocks of hundreds of MB thrash the cache.
    """
    seed_array = np.asarray(list(seeds), dtype=np.uint64)
    if seed_array.size == 0:
        raise ValueError("at least one seed required")
    per_chunk = max(1, chunk_elements // max(1, b**depth))
    totals = np.zeros(depth + 1, dtype=np.float64)
    for start in range(0, seed_array.size, per_chunk):
        block = seed_array[start : start + per_chunk]
        totals += _profile_for_seeds(b, gamma, depth, block).sum(axis=0)
    return totals / seed_array.size


def _profile_for_seeds(b: int, gamma: float, depth: int, seeds: np.ndarray) -> np.ndarray:
    """(len(seeds), depth+1) array of exact +1 fractions per level."""
    n_seeds = seeds.size
    out = np.empty((n_seeds, depth + 1), dtype=np.float64)
    out[:, 0] = 1.0
    states = bitmix.root_state_np(seeds).reshape(n_seeds, 1)
    values = np.full((n_seeds, 1), PLUS, dtype=np.int8)
    for level in range(depth):
        width = values.shape[1]
        choice_value = PLUS if level % 2 == 0 else MINUS
        choice = values == choice_value
        designated = bitmix.stream_u64_np(states, DESIGNATED_TAG) % np.uint64(b)
        child_values = np.empty((n_seeds, width * b), dtype=np.int8)
        last = level == depth - 1
        child_states = None if last else np.empty((n_seeds, width * b), dtype=np.uint64)
        for j in range(b):
            u = bitmix.unit_np(bitmix.indexed_u64_np(states, FLIP_TAG, j))
            flips = choice & (designated != np.uint64(j)) & (u < gamma)
            child_values[:, j::b] = np.where(flips, -values, values)
            if child_states is not None:
                child_states[:, j::b] = bitmix.child_state_np(states, j)
        out[:, level + 1] = (child_values == PLUS).sum(axis=1) / float(width * b)
        values = child_values
        if child_states is not None:
            states = child_states
    return out
