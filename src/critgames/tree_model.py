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
The rule comes in two parts, so a search that visits every child of a
node hashes the node once: `designated_child` per node and `grown_value`
per child. `NodeCursor.child_value` composes them.

The density of +1 nodes per level follows, with k = 1 - gamma + gamma/b,

    f_0 = 1,  f_{n+1} = f_n * k            (Max on move at level n)
              f_{n+1} = f_n * k + 1 - k    (Min on move at level n)

which converges to 1/(1+k) on even levels and k/(1+k) on odd ones.
``plus_fractions`` enumerates a full instance level by level with the
vectorized mixer so the recurrence can be checked against brute force.
The enumeration lays each level out index-major, child j of every node
in one contiguous block, and tests flip draws on the raw 64-bit words
against one integer threshold (`flip_threshold`), which is exact, so its
per-level counts are those of `node_value` node by node. One class,
`LevelStep`, grows a level this way, for the enumeration and for the
full-width minimax pass alike.

Every exact oracle that expands all b^d nodes d plies below a node (the
export, enumeration, PV leaf sums, both exhaustive minimax searches)
first passes d to `checked_span`, which refuses b^d > `ENUM_CAP` without
computing b^d; `within_cap` is the same test as a predicate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import bitmix
from .bitmix import DESIGNATED_TAG, FLIP_TAG, MASK64, indexed_u64, stream_u64, unit
from .forked import forked_map, usable_cpus
from .inputs import checked_int

PLUS = 1
MINUS = -1

ENUM_CAP = 10**6  # the largest b^d that any full expansion may enumerate
_TILE = 2**15  # children per enumeration tile: 256 KB per uint64 buffer
_DESIGNATED = np.uint64(DESIGNATED_TAG)


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
        for name, low, high in (
            ("branching_factor", 2, None), ("max_depth", 1, None), ("seed", 0, MASK64)
        ):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), low, high))
        if not 0.0 <= self.critical_rate <= 1.0:
            raise ValueError("critical_rate must lie in [0, 1]")


@dataclass(frozen=True)
class NodeInfo:
    value: int
    kind: Kind
    player: Player
    terminal: bool
    optimal_moves: frozenset[int]


def within_cap(b: int, d: int) -> bool:
    """b^d <= `ENUM_CAP`, for b >= 2 and d >= 0, without computing a huge power."""
    # b >= 2, so every d past the cap's bit length is over the cap
    return b ** min(d, ENUM_CAP.bit_length()) <= ENUM_CAP


def checked_span(b: int, d: object, name: str) -> int:
    """`d` as an int >= 0 with b^d <= `ENUM_CAP` (b >= 2), else a ValueError naming `name`."""
    d = checked_int(name, d, 0)
    if not within_cap(b, d):
        raise ValueError(f"b^{name} exceeds {ENUM_CAP}")
    return d


def check_path(params: GameParams, path: Sequence[int]) -> tuple[int, ...]:
    path = tuple(path)
    if len(path) > params.max_depth:
        raise ValueError(f"path depth {len(path)} exceeds max_depth {params.max_depth}")
    try:
        return tuple(checked_int("child index", i, 0, params.branching_factor - 1) for i in path)
    except ValueError as exc:
        raise ValueError(f"{exc} in path {path!r}") from None


def designated_child(params: GameParams, depth: int, value: int, state: int) -> int:
    """Per-node part of the growth rule.

    At a choice node (the player on move holds a winning value), the
    child that keeps the value, by one hash of the node's state; -1 at a
    forced node, whose children all keep it.
    """
    if value != (MINUS if depth & 1 else PLUS):
        return -1
    return stream_u64(state, DESIGNATED_TAG) % params.branching_factor


def grown_value(params: GameParams, value: int, state: int, designated: int, index: int) -> int:
    """Per-child part of the growth rule: the value of child `index`.

    `designated` is the parent's `designated_child`. Any other child of a
    choice node flips with probability critical_rate, by one flip draw.
    The child's state is ``bitmix.child_state(state, index)``.
    """
    if designated < 0 or index == designated:
        return value
    return -value if unit(indexed_u64(state, FLIP_TAG, index)) < params.critical_rate else value


class NodeCursor:
    """Lazy handle on one node: its value plus the state seeding its child draws.

    A subclass replaces only the growth rule, `child_value`. One is built
    per visited node, hence the slots; cursors are never hashed or compared.
    """

    __slots__ = ("params", "depth", "value", "state")

    def __init__(self, params: GameParams, depth: int, value: int, state: int) -> None:
        self.params = params
        self.depth = depth
        self.value = value
        self.state = state

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
        return designated_child(self.params, self.depth, self.value, self.state) >= 0

    @property
    def kind(self) -> Kind:
        return Kind.CHOICE if self.is_choice else Kind.FORCED

    @property
    def designated_index(self) -> int:
        """The designated child's index at any node, choice or not; the
        prefix-value rule reads it at every node, `designated_child` only
        at choice nodes."""
        return stream_u64(self.state, DESIGNATED_TAG) % self.params.branching_factor

    def child_value(self, index: int) -> int:
        params, value, state = self.params, self.value, self.state
        if self.depth >= params.max_depth:
            raise ValueError("terminal node has no children")
        designated = designated_child(params, self.depth, value, state)
        return grown_value(params, value, state, designated, index)

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
        optimal = frozenset(i for i, v in enumerate(cursor.child_values()) if v == cursor.value)
    return NodeInfo(cursor.value, cursor.kind, cursor.player, cursor.terminal, optimal)


def density_coefficient(params: GameParams) -> float:
    g = params.critical_rate
    return 1.0 - g + g / params.branching_factor


def plus_densities(params: GameParams, n: int) -> Iterator[float]:
    """Densities of +1 nodes at depths 0..n, by the level recurrence."""
    n = checked_int("n", n, 0, params.max_depth)
    return subtree_plus_densities(params, PLUS, Player.MAX, n)


def plus_density(params: GameParams, n: int) -> float:
    """Density of +1 nodes at depth n, by the level recurrence."""
    return deque(plus_densities(params, n), maxlen=1).pop()


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


def subtree_plus_densities(
    params: GameParams, value: int, player: Player, remaining: int
) -> Iterator[float]:
    """Densities of +1 nodes 0..`remaining` plies below a node of the given value/player."""
    if value not in (PLUS, MINUS):
        raise ValueError("value must be +1 or -1")
    remaining = checked_int("remaining", remaining, 0, params.max_depth)
    k = density_coefficient(params)
    f = 1.0 if value == PLUS else 0.0
    yield f
    on_move = player
    for _ in range(remaining):
        f = f * k if on_move is Player.MAX else f * k + 1.0 - k
        on_move = Player.MIN if on_move is Player.MAX else Player.MAX
        yield f


def subtree_plus_density(params: GameParams, value: int, player: Player, remaining: int) -> float:
    """Density of +1 nodes `remaining` plies below a node of the given value/player."""
    return deque(subtree_plus_densities(params, value, player, remaining), maxlen=1).pop()


def export_tree(params: GameParams, depth_cap: int) -> str:
    """Graph description of the instance down to depth_cap, digraph text."""
    depth_cap = min(checked_int("depth_cap", depth_cap, 0), params.max_depth)
    checked_span(params.branching_factor, depth_cap, "depth_cap")
    lines = ["digraph {"]

    def emit(cursor: NodeCursor, name: str) -> None:
        lines.append(f'  "{name}" [label="{cursor.value:+d}"]')
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
    depth = checked_int("depth", depth, 0, params.max_depth)
    return mean_plus_fractions(params.branching_factor, params.critical_rate, depth, [params.seed])


def mean_plus_fractions(
    b: int,
    gamma: float,
    depth: int,
    seeds: Iterable[int],
    chunk_elements: int = 2**20,
) -> np.ndarray:
    """Per-level +1 fractions averaged over instances, by full enumeration.

    Enumerates every node of every instance level by level with the
    vectorized mixer; each level's count of +1 nodes equals the count by
    scalar `node_value`. A level is laid out index-major: child j of every
    node sits in one contiguous block, so nodes within a level are not in
    path order, which a count cannot see. Flip draws are compared as
    integers: ``unit(h) < gamma`` exactly when ``h < flip_threshold(gamma)``,
    and at gamma 1, where every draw flips, none is mixed.

    Seeds go in blocks of at most ``chunk_elements`` leaves (but at least
    one instance per block). The default bounds each block's uint64 state
    arrays to a few MB; blocks of hundreds of MB thrash the cache.

    The enumeration runs on one process per usable CPU
    (`forked.usable_cpus`): the caller and forked children
    (`forked.forked_map`, POSIX only) pull tasks of at most one block's
    seeds, about one task per worker when that is fewer. A call with one
    task, or on one CPU, runs inline. Each task returns one row of
    fractions per seed, which does not depend on the seeds it shares a
    task with, and the rows are summed block by block in seed order, so
    the result has the same bits for every worker count.
    """
    b = checked_int("b", b, 2)
    depth = checked_span(b, depth, "depth")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    chunk_elements = checked_int("chunk_elements", chunk_elements, 1)
    seed_array = np.asarray([checked_int("seeds", s, 0, MASK64) for s in seeds], dtype=np.uint64)
    n = seed_array.size
    if n == 0:
        raise ValueError("at least one seed required")
    per_chunk = max(1, chunk_elements // b**depth)
    workers = usable_cpus()
    size = min(per_chunk, -(-n // workers))
    tasks = [seed_array[lo : lo + size] for lo in range(0, n, size)]
    # one LevelStep per process: the children inherit the caller's
    grow = LevelStep(b, gamma, size * b ** max(depth - 1, 0))
    profile = partial(_profile_for_seeds, grow, depth)
    if workers > 1 and len(tasks) > 1:
        parts = forked_map(profile, tasks, workers, range(len(tasks)), "enumeration worker")
    else:
        parts = list(map(profile, tasks))
    rows = np.concatenate(parts)
    totals = np.zeros(depth + 1, dtype=np.float64)
    for start in range(0, n, per_chunk):
        totals += rows[start : start + per_chunk].sum(axis=0)
    return totals / n


def flip_threshold(gamma: float) -> int:
    """The flip draw h flips a child exactly when ``h < flip_threshold(gamma)``.

    ``unit(h) = (h >> 11) * 2^-53`` is exact and so is ``gamma * 2^53``,
    so ``unit(h) < gamma`` holds exactly when ``h >> 11`` is below
    ``ceil(gamma * 2^53)``. The result is 0 at gamma = 0 (no draw flips)
    and 2^64 at gamma = 1 (every draw flips), and a uint64 in between.
    """
    return math.ceil(gamma * 2.0**53) << 11


def designated_indices(
    states: np.ndarray, b: int, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """`NodeCursor.designated_index` of every node state in the uint64
    array `states`, as a uint64 array: the growth rule's one numpy copy
    of ``stream_u64(state, DESIGNATED_TAG) % b``.

    The remainder is taken as ``h - (h // b) * b``, which has the bits of
    ``h % b``; numpy's uint64 remainder by a scalar is several times
    slower than its floor division. `out` and `scratch` are uint64
    arrays of the states' shape, allocated when not given.
    """
    if out is None:
        out = np.empty_like(states)
    if scratch is None:
        scratch = np.empty_like(out)
    modulus = np.uint64(b)
    np.bitwise_xor(states, _DESIGNATED, out=out)
    bitmix.mix64_inplace(out, scratch)
    np.floor_divide(out, modulus, out=scratch)
    scratch *= modulus
    out -= scratch
    return out


class LevelStep:
    """The growth rule over whole levels of nodes, in numpy.

    A level of width w is one flat uint64 array of node states and one
    bool array of +1 flags. Its children form a (b, w) array whose row j
    holds child j of every node, so child j of node k is node j * w + k
    of the next level. Parents go in tiles of about `_TILE` children,
    which keeps the mixer's passes over a tile's buffers in cache; the
    buffers are sized once, for levels of at most `widest` parents, so
    one LevelStep serves every level and every block of a call. A tile's
    designated children come from `designated_indices`, which writes its
    floor-divide remainder into those buffers.
    """

    def __init__(self, b: int, gamma: float, widest: int) -> None:
        self.b = b
        threshold = flip_threshold(gamma)
        self.draw = threshold <= MASK64  # else (gamma 1) every draw flips, and none is mixed
        self.bound = np.uint64(threshold if self.draw else 0)
        self.index = np.arange(b, dtype=np.uint64)[:, None]
        self.flip_words = bitmix.indexed_word(FLIP_TAG, self.index)
        self.child_words = bitmix.child_word(self.index)
        self.step = max(1, _TILE // b)  # parents per tile
        size = b * min(self.step, widest)  # children of the widest tile
        self.words, self.scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
        self.designated = np.empty(size // b, dtype=np.uint64)

    def __call__(
        self, level: int, states: np.ndarray, plus: np.ndarray, with_states: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """(child +1 flags, child states or None) of the nodes at depth `level`,
        flat, in the layout above."""
        b, step, index = self.b, self.step, self.index
        width = plus.size
        child_plus = np.empty((b, width), dtype=bool)
        child_states = np.empty((b, width), dtype=np.uint64) if with_states else None
        for lo in range(0, width, step):
            hi = min(lo + step, width)
            m = hi - lo
            tile_states, tile_plus = states[lo:hi], plus[lo:hi]
            w, s = self.words[: b * m].reshape(b, m), self.scratch[: b * m].reshape(b, m)
            choice = tile_plus if level % 2 == 0 else ~tile_plus
            d = designated_indices(tile_states, b, self.designated[:m], s[0])
            flips = (d != index) & choice
            if self.draw:
                np.bitwise_xor(tile_states, self.flip_words, out=w)
                flips &= bitmix.mix64_inplace(w, s) < self.bound
            np.not_equal(tile_plus, flips, out=child_plus[:, lo:hi])
            if child_states is not None:
                block = child_states[:, lo:hi]
                np.bitwise_xor(tile_states, self.child_words, out=block)
                bitmix.mix64_inplace(block, s)
        return child_plus.reshape(-1), None if child_states is None else child_states.reshape(-1)


def _profile_for_seeds(grow: LevelStep, depth: int, seeds: np.ndarray) -> np.ndarray:
    """(len(seeds), depth+1) array of exact +1 fractions per level, grown
    by `grow`, a `LevelStep` sized for at least len(seeds) * b^(depth-1)
    parents.

    The levels hold every seed's nodes side by side, seed-minor: with n
    seeds, node k of a level belongs to seed k % n, which `LevelStep`'s
    layout keeps from level to level.
    """
    b, n_seeds = grow.b, seeds.size
    out = np.empty((n_seeds, depth + 1), dtype=np.float64)
    out[:, 0] = 1.0
    states = bitmix.root_state_np(seeds)
    plus = np.ones(n_seeds, dtype=bool)
    for level in range(depth):
        plus, states = grow(level, states, plus, with_states=level < depth - 1)
        counts = plus.reshape(-1, n_seeds).sum(axis=0, dtype=np.int32)  # at most b^depth
        out[:, level + 1] = counts / float(b ** (level + 1))
    return out
