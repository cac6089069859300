"""Depth-limited minimax with fail-soft alpha-beta pruning, plus an
exhaustive unpruned oracle.

Frontier nodes (relative depth d_s, or terminal) are scored by the
heuristic; terminals return their true utility. Heuristic noise is
keyed by (search seed, node state) alone, so pruning cannot change the
value any frontier node would report and the pruned and unpruned
searches are exactly comparable.

Both searches are in negamax form (Knuth & Moore, AI 1975): one
recursion scores each node for the player on move, with frontier values
negated on Min levels. Float negation is exact, so values match a
separate Max/Min recursion bit for bit. The searches share one root
loop, where ties go to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from random import Random
from typing import Callable, Sequence

from . import bitmix
from .heuristics import EvalContext, HeuristicSpec, evaluate
from .tree_model import PLUS, GameParams, NodeCursor

REFERENCE_CAP = 10**6


@dataclass(frozen=True)
class MinimaxConfig:
    depth: int
    heuristic: HeuristicSpec
    seed: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("search depth must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class MinimaxResult:
    value: float
    best_action: int
    frontier_evals: int


def frontier_seed(seed: int, state: int) -> int:
    """Stream seed for one frontier node; a function of (seed, state) only."""
    return bitmix.mix64(bitmix.mix64(seed ^ bitmix.EVAL_TAG) ^ state)


def _frontier_score(cursor: NodeCursor, cfg: MinimaxConfig) -> float:
    """Frontier value for the player on move: Max's value, negated on Min levels."""
    if cursor.terminal:
        value = 1.0 if cursor.value == PLUS else 0.0
    else:
        ctx = EvalContext(cursor.value, cursor.player, cursor.depth, cursor.params)
        value = evaluate(cfg.heuristic, ctx, Random(frontier_seed(cfg.seed, cursor.state)))
    return -value if cursor.depth % 2 else value


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
    b = params.branching_factor
    evals = 0

    def rec(cursor: NodeCursor, remaining: int, alpha: float, beta: float) -> float:
        nonlocal evals
        if cursor.terminal or remaining == 0:
            evals += 1
            return _frontier_score(cursor, cfg)
        best = -inf
        for i in range(b):
            v = -rec(cursor.child(i), remaining - 1, -beta, -alpha)
            if v > best:
                best = v
                if best > alpha:
                    alpha = best
                if alpha >= beta:
                    break
        return best

    value, action = _root_search(
        params, path, lambda child, alpha: -rec(child, cfg.depth - 1, -inf, -alpha)
    )
    return MinimaxResult(value, action, evals)


def minimax_reference(params: GameParams, path: Sequence[int], cfg: MinimaxConfig) -> MinimaxResult:
    b = params.branching_factor
    if b**cfg.depth > REFERENCE_CAP:
        raise ValueError(f"reference search of {b}^{cfg.depth} frontier nodes exceeds cap")
    evals = 0

    def rec(cursor: NodeCursor, remaining: int) -> float:
        nonlocal evals
        if cursor.terminal or remaining == 0:
            evals += 1
            return _frontier_score(cursor, cfg)
        return max(-rec(cursor.child(i), remaining - 1) for i in range(b))

    value, action = _root_search(params, path, lambda child, _: -rec(child, cfg.depth - 1))
    return MinimaxResult(value, action, evals)
