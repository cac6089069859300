"""UCT search over the synthetic game trees.

Selection walks the tracked tree by UCB1 with a negamax value term
(Min reads 1 - Q̄), unvisited children have infinite priority, and each
iteration grows the tree by one node unless it ends on a terminal,
which is re-evaluated in place. Rewards live in [0, 1] from Max's
perspective and are backed up as running means.

Determinism: every random draw is a pure function of the config seed
and a counter, through three keyed streams. Heuristic noise is keyed by
(seed, node state, draw index); the choice among unexpanded children
and among tied UCB scores by (seed, iteration, depth); decision
tie-breaks by (seed, checkpoint). No draw depends on how many draws came
before it, so a checkpointed run agrees with independent shorter runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from math import log, sqrt
from random import Random
from typing import Iterator, NamedTuple, TextIO

from . import bitmix
from .heuristics import evaluate  # unused here, kept: the benchmark's traced run wraps this name
from .heuristics import HeuristicSpec, frontier_scorer
from .tree_model import GameParams, NodeCursor, Player, designated_child, grown_value


def checked_exploration(c: float) -> float:
    """`c` if it is an exploration constant >= 0, else a ValueError; NaN fails too."""
    if not c >= 0:
        raise ValueError(f"exploration constant must be >= 0, got {c!r}")
    return c


@dataclass(frozen=True)
class UctConfig:
    exploration: float
    budget: int
    heuristic: HeuristicSpec
    seed: int
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        checked_exploration(self.exploration)
        for name, low, high in (("budget", 1, None), ("seed", 0, bitmix.MASK64)):
            object.__setattr__(self, name, bitmix.checked_int(name, getattr(self, name), low, high))
        cps = tuple(bitmix.checked_int("checkpoints", j, 1, self.budget) for j in self.checkpoints)
        if list(cps) != sorted(set(cps)):
            raise ValueError("checkpoints must be strictly ascending")
        object.__setattr__(self, "checkpoints", cps or (self.budget,))


class _Node:
    __slots__ = ("state", "depth", "value", "terminal", "n", "q", "children", "free", "designated")

    def __init__(self, state: int, depth: int, value: int, terminal: bool) -> None:
        self.state = state
        self.depth = depth
        self.value = value
        self.terminal = terminal
        self.n = 0
        self.q = 0.0
        self.children: list["_Node | None"] | None = None
        self.free: list[int] = []  # unexpanded child indices, set with children
        self.designated = -1  # `designated_child`, set with children


class SearchTree:
    """Tracked nodes of one completed search, addressable by path."""

    def __init__(self, root: _Node) -> None:
        self.root = root

    def nodes(self) -> Iterator[tuple[tuple[int, ...], _Node]]:
        stack: list[tuple[tuple[int, ...], _Node]] = [((), self.root)]
        while stack:
            path, node = stack.pop()
            yield path, node
            if node.children:
                for i, child in enumerate(node.children):
                    if child is not None:
                        stack.append((path + (i,), child))


class BreadthFirstReport(NamedTuple):
    holds: bool
    max_sibling_gap: int


def breadth_first_check(tree: SearchTree) -> BreadthFirstReport:
    """Largest max-min spread of sibling visit counts over expanded nodes."""
    worst = 0
    for _, node in tree.nodes():
        kids = node.children
        if not kids or all(child is None for child in kids):
            continue
        visits = [0 if child is None else child.n for child in kids]
        worst = max(worst, max(visits) - min(visits))
    return BreadthFirstReport(worst <= 1, worst)


def check_conservation(tree: SearchTree) -> bool:
    """n(s) = 1 + sum of child visits, for every expanded node."""
    for _, node in tree.nodes():
        kids = node.children
        if not kids:
            continue
        total = sum(child.n for child in kids if child is not None)
        if any(child is not None for child in kids) and node.n != 1 + total:
            return False
    return True


@dataclass(frozen=True)
class CheckpointRecord:
    iteration: int
    action: int
    visits: tuple[int, ...]
    means: tuple[float, ...]


@dataclass(frozen=True)
class SearchResult:
    checkpoints: tuple[CheckpointRecord, ...]
    node_count: int
    depth_histogram: tuple[int, ...]
    tree: SearchTree

    @cached_property
    def breadth_first(self) -> BreadthFirstReport:
        """Computed on first read; grid sweeps never read it."""
        return breadth_first_check(self.tree)

    @property
    def final_action(self) -> int:
        return self.checkpoints[-1].action

    def action_at(self, iteration: int) -> int:
        for record in self.checkpoints:
            if record.iteration == iteration:
                return record.action
        raise KeyError(f"no checkpoint at iteration {iteration}")

    def to_json(self) -> str:
        payload = {
            "checkpoints": [
                {
                    "iteration": r.iteration,
                    "action": r.action,
                    "visits": list(r.visits),
                    "means": [round(q, 12) for q in r.means],
                }
                for r in self.checkpoints
            ],
            "node_count": self.node_count,
            "depth_histogram": list(self.depth_histogram),
            "breadth_first": {
                "holds": self.breadth_first.holds,
                "max_sibling_gap": self.breadth_first.max_sibling_gap,
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _ucb(q_child: float, n_child: int, log_n_parent: float, c: float, min_to_move: int) -> float:
    """The UCB1 expression selection runs on a visited child."""
    return (1.0 - q_child if min_to_move else q_child) + c * sqrt(log_n_parent / n_child)


def ucb_score(q_child: float, n_child: int, n_parent: int, c: float, perspective: Player) -> float:
    """UCB1 with the negamax value term; unvisited children rank first."""
    if n_child == 0:
        return math.inf
    return _ucb(q_child, n_child, log(n_parent), c, perspective == Player.MIN)


def _decide(root: _Node, b: int, rng: Random) -> tuple[int, tuple[int, ...], tuple[float, ...]]:
    kids = root.children
    visits = tuple(0 if (not kids or kids[i] is None) else kids[i].n for i in range(b))
    means = tuple(0.0 if (not kids or kids[i] is None) else kids[i].q for i in range(b))
    tracked = [i for i in range(b) if visits[i] > 0]
    if not tracked:
        return rng.randrange(b), visits, means
    best = max(means[i] for i in tracked)
    ties = [i for i in tracked if means[i] == best]
    action = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
    return action, visits, means


def uct_search(params: GameParams, cfg: UctConfig, trace: TextIO | None = None) -> SearchResult:
    b = params.branching_factor
    c = cfg.exploration
    indexed_u64, select_tag = bitmix.indexed_u64, bitmix.SELECT_TAG

    select_base = bitmix.mix64(cfg.seed ^ select_tag)
    score = frontier_scorer(cfg.heuristic, params, bitmix.eval_key(cfg.seed))
    decide_base = bitmix.mix64(cfg.seed ^ bitmix.DECIDE_TAG)

    root_cursor = NodeCursor.root(params)
    root = _Node(root_cursor.state, 0, root_cursor.value, root_cursor.terminal)
    node_count = 1
    depth_counts = [1]

    def decide(it: int) -> None:
        rng = Random(indexed_u64(decide_base, bitmix.DECIDE_TAG, it))
        records.append(CheckpointRecord(it, *_decide(root, b, rng)))

    if trace is not None:
        trace.write("iteration,path,reward\n")

    records: list[CheckpointRecord] = []
    pending = list(cfg.checkpoints)

    # iteration 1: the root itself is created and evaluated
    r = score(0, root.value, root.state)
    root.n = 1
    root.q = r
    if trace is not None:
        trace.write(f"1,r,{r:.6f}\n")
    if pending and pending[0] == 1:
        pending.pop(0)
        decide(1)

    for it in range(2, cfg.budget + 1):
        # draws for this iteration: indexed_u64(it_key, select_tag, depth)
        it_key = indexed_u64(select_base, select_tag, it)
        node = root
        path = [root]
        steps: list[int] = []
        while True:
            if node.terminal:
                r = score(node.depth, node.value, node.state)
                break
            kids = node.children
            if kids is None:
                kids = node.children = [None] * b
                node.free = list(range(b))
                node.designated = designated_child(params, node.depth, node.value, node.state)
            free = node.free
            if free:
                k = len(free)
                idx = free.pop(0 if k == 1 else indexed_u64(it_key, select_tag, node.depth) % k)
                value = grown_value(params, node.value, node.state, node.designated, idx)
                depth = node.depth + 1
                child = _Node(
                    bitmix.child_state(node.state, idx), depth, value, depth >= params.max_depth
                )
                kids[idx] = child
                node_count += 1
                if depth == len(depth_counts):
                    depth_counts.append(0)
                depth_counts[depth] += 1
                path.append(child)
                if trace is not None:
                    steps.append(idx)
                r = score(depth, value, child.state)
                break
            log_n = log(node.n)
            min_to_move = node.depth & 1
            best = None
            best_score = -math.inf
            ties = 0
            for ch in kids:
                s = _ucb(ch.q, ch.n, log_n, c, min_to_move)
                if s > best_score:
                    best_score, best, ties = s, ch, 1
                elif s == best_score:
                    ties += 1
            if ties > 1:
                tied = [ch for ch in kids if _ucb(ch.q, ch.n, log_n, c, min_to_move) == best_score]
                best = tied[indexed_u64(it_key, select_tag, node.depth) % ties]
            node = best
            path.append(node)
            if trace is not None:
                steps.append(kids.index(node))
        for nd in path:
            nd.n += 1
            nd.q += (r - nd.q) / nd.n
        if trace is not None:
            label = "/".join(map(str, steps)) if steps else "r"
            trace.write(f"{it},{label},{r:.6f}\n")
        if pending and pending[0] == it:
            pending.pop(0)
            decide(it)

    return SearchResult(
        checkpoints=tuple(records),
        node_count=node_count,
        depth_histogram=tuple(depth_counts),
        tree=SearchTree(root),
    )
