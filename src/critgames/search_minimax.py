"""Depth-limited minimax with fail-soft alpha-beta pruning, plus an
exhaustive unpruned oracle.

Frontier nodes (relative depth d_s, or terminal) are scored by
`heuristics.frontier_scorer`; terminals return their true utility.
Heuristic noise is ``KeyedDraws(eval_key(seed) ^ node.state)``, keyed by
(search seed, node state) alone, so pruning cannot change the value any
frontier node would report and the pruned and unpruned searches are
exactly comparable. UCT scores nodes with the same scorer, so both
searches give a node the same evaluation under the same seed.

Both searches are in negamax form (Knuth & Moore, AI 1975): one
recursion scores each node for the player on move, with frontier values
negated on Min levels. Float negation is exact, so values match a
separate Max/Min recursion bit for bit. The searches share one root
loop, where ties go to the lowest index. Below the root, `alphabeta`
recurses on (depth, value, state) integers and applies the growth rule's
two parts directly; `minimax_reference` walks `NodeCursor` objects, so
comparing the two checks one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from random import Random  # unused here, kept: the benchmark's traced run wraps this name
from typing import Callable, Sequence

from .bitmix import MASK64, checked_int, child_state, eval_key
from .heuristics import evaluate  # unused here, kept: the benchmark's traced run wraps this name
from .heuristics import HeuristicSpec, frontier_scorer
from .tree_model import GameParams, NodeCursor, designated_child, grown_value

REFERENCE_CAP = 10**6


@dataclass(frozen=True)
class MinimaxConfig:
    depth: int
    heuristic: HeuristicSpec
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "depth", checked_int("depth", self.depth, 1))
        object.__setattr__(self, "seed", checked_int("seed", self.seed, 0, MASK64))


@dataclass(frozen=True)
class MinimaxResult:
    value: float
    best_action: int
    frontier_evals: int


def _root_search(
    params: GameParams, path: Sequence[int], child_score: Callable[[NodeCursor, float], float]
) -> tuple[float, int]:
    """(Max's value, best action) at the node at `path`; ties go to the lowest index.

    child_score(child, alpha) is a root child's score for the player on
    move at the root, given the best score so far as the alpha bound.
    """
    root = NodeCursor.walk(params, path)
    if root.terminal:
        raise ValueError("search root is terminal")
    best, best_action = -inf, 0
    for i in range(params.branching_factor):
        v = child_score(root.child(i), best)
        if v > best:
            best, best_action = v, i
    return (-best if root.depth % 2 else best), best_action


def alphabeta(params: GameParams, path: Sequence[int], cfg: MinimaxConfig) -> MinimaxResult:
    """Below the root, nodes are plain (depth, value, state) integers."""
    b = params.branching_factor
    score = frontier_scorer(cfg.heuristic, params, eval_key(cfg.seed))
    frontier = min(len(path) + cfg.depth, params.max_depth)
    evals = 0

    def rec(depth: int, value: int, state: int, alpha: float, beta: float) -> float:
        nonlocal evals
        if depth >= frontier:
            evals += 1
            v = score(depth, value, state)
            return -v if depth & 1 else v
        designated = designated_child(params, depth, value, state)
        depth += 1
        best = -inf
        for i in range(b):
            child = grown_value(params, value, state, designated, i)
            v = -rec(depth, child, child_state(state, i), -beta, -alpha)
            if v > best:
                best = v
                if best > alpha:
                    alpha = best
                if alpha >= beta:
                    break
        return best

    value, action = _root_search(
        params, path, lambda node, alpha: -rec(node.depth, node.value, node.state, -inf, -alpha)
    )
    return MinimaxResult(value, action, evals)


def minimax_reference(params: GameParams, path: Sequence[int], cfg: MinimaxConfig) -> MinimaxResult:
    b = params.branching_factor
    if b**cfg.depth > REFERENCE_CAP:
        raise ValueError(f"reference search of {b}^{cfg.depth} frontier nodes exceeds cap")
    score = frontier_scorer(cfg.heuristic, params, eval_key(cfg.seed))
    evals = 0

    def rec(cursor: NodeCursor, remaining: int) -> float:
        nonlocal evals
        if cursor.terminal or remaining == 0:
            evals += 1
            v = score(cursor.depth, cursor.value, cursor.state)
            return -v if cursor.depth & 1 else v
        return max(-rec(cursor.child(i), remaining - 1) for i in range(b))

    value, action = _root_search(params, path, lambda child, _: -rec(child, cfg.depth - 1))
    return MinimaxResult(value, action, evals)
