"""Depth-limited minimax with fail-soft alpha-beta pruning, plus an
exhaustive unpruned oracle.

Frontier nodes (relative depth d_s, or terminal) are scored by the
heuristic; terminals return their true utility. Heuristic noise is
``KeyedDraws(eval_key(seed) ^ node.state)``, keyed by (search seed,
node state) alone, so pruning cannot change the value any frontier node
would report and the pruned and unpruned searches are exactly
comparable. UCT keys its noise the same way, so both searches give a
node the same evaluation under the same seed.

Both searches are in negamax form (Knuth & Moore, AI 1975): one
recursion scores each node for the player on move, with frontier values
negated on Min levels. Float negation is exact, so values match a
separate Max/Min recursion bit for bit. The searches share one root
loop, where ties go to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from random import Random  # unused here, kept: the benchmark's traced run wraps this name
from typing import Callable, Sequence

from .bitmix import KeyedDraws, eval_key
from .heuristics import EvalContext, HeuristicSpec, evaluate
from .tree_model import PLUS, GameParams, NodeCursor, player_at

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


def _frontier_scorer(params: GameParams, cfg: MinimaxConfig) -> Callable[[NodeCursor], float]:
    """Scores a frontier node for the player on move: Max's value, negated
    on Min levels. The noise key is computed once per search."""
    key = eval_key(cfg.seed)
    heuristic = cfg.heuristic
    max_depth = params.max_depth

    def score(cursor: NodeCursor) -> float:
        depth = cursor.depth
        if depth >= max_depth:
            value = 1.0 if cursor.value == PLUS else 0.0
        else:
            ctx = EvalContext(cursor.value, player_at(depth), depth, params)
            value = evaluate(heuristic, ctx, KeyedDraws(key ^ cursor.state))
        return -value if depth & 1 else value

    return score


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
    b, max_depth = params.branching_factor, params.max_depth
    frontier = _frontier_scorer(params, cfg)
    evals = 0

    def rec(cursor: NodeCursor, remaining: int, alpha: float, beta: float) -> float:
        nonlocal evals
        if remaining == 0 or cursor.depth >= max_depth:
            evals += 1
            return frontier(cursor)
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
    frontier = _frontier_scorer(params, cfg)
    evals = 0

    def rec(cursor: NodeCursor, remaining: int) -> float:
        nonlocal evals
        if cursor.terminal or remaining == 0:
            evals += 1
            return frontier(cursor)
        return max(-rec(cursor.child(i), remaining - 1) for i in range(b))

    value, action = _root_search(params, path, lambda child, _: -rec(child, cfg.depth - 1))
    return MinimaxResult(value, action, evals)
