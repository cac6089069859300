"""Depth-limited minimax with fail-soft alpha-beta pruning, plus two
exhaustive unpruned searches: a scalar oracle and a numpy full-width pass
that decides many depths at once.

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
comparing the two checks one against the other. `minimax_decisions`
grows whole levels of many trees with `tree_model.LevelStep`, scores
them with `heuristics.frontier_scorer_np` and backs up with numpy max
and min; it returns only the root decisions, which equal alpha-beta's.
It scores each level in the scorer's rough mode first, which misses the
exact leaf values by at most `heuristics.rough_slack` (nonzero only for
Gaussian levels short of `max_depth`). Max and min are 1-Lipschitz, so
every backed-up root child lies within that slack of its exact value: a
root whose best child leads the next by more than twice the slack takes
the exact argmax, and a level where some root does not is scored again
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from random import Random  # unused here, kept: the benchmark's traced run wraps this name
from typing import Callable, Iterable, Sequence

import numpy as np

from .bitmix import MASK64, checked_int, child_state, eval_key, root_state_np
from .heuristics import evaluate  # unused here, kept: the benchmark's traced run wraps this name
from .heuristics import HeuristicSpec, frontier_scorer, frontier_scorer_np, rough_slack
from .tree_model import (
    GameParams, LevelStep, NodeCursor, checked_span, designated_child, grown_value
)


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
    checked_span(b, cfg.depth, "depth")
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


def minimax_decisions(
    trees: Sequence[tuple[GameParams, int]], depths: Iterable[int], heuristic: HeuristicSpec
) -> list[dict[int, int]]:
    """For each (params, seed) in `trees`, {d: alphabeta(params, (),
    MinimaxConfig(d, heuristic, seed)).best_action} for each d in `depths`,
    from one full-width expansion of all the trees together.

    The trees must differ only in their seeds. They grow from their roots
    level by level in numpy (`LevelStep`), seed-minor as in
    `tree_model._profile_for_seeds`: node k of a level belongs to tree
    k % n. Each depth's frontier level is scored as it is reached and
    backed up at once, by max on Max levels and min on Min levels; each
    root takes the first child of highest value, as `_root_search` does.
    Backed-up minimax values equal alpha-beta's exactly, so the actions do
    too. A level is scored roughly first and kept if every root's best
    child leads by more than twice the level's `rough_slack`, which makes
    it the exact argmax; otherwise it is scored again exactly. The
    deepest frontier must pass `checked_span`; the caller bounds the
    number of trees, since the widest level holds n * b^d nodes.
    """
    depths = [MinimaxConfig(d, heuristic, 0).depth for d in depths]
    seeds = [checked_int("seed", seed, 0, MASK64) for _, seed in trees]
    if len({(p.branching_factor, p.critical_rate, p.max_depth) for p, _ in trees}) > 1:
        raise ValueError("the trees of one pass must share b, gamma and max_depth")
    if not trees:
        return []
    params = trees[0][0]
    n, b = len(trees), params.branching_factor
    frontiers = {d: min(d, params.max_depth) for d in depths}
    scored = set(frontiers.values())
    last = checked_span(b, max(scored, default=0), "depth")
    score = frontier_scorer_np(heuristic, params, [eval_key(seed) for seed in seeds])
    grow = LevelStep(b, params.critical_rate, n * b ** max(last - 1, 0))
    states = root_state_np(np.array([p.seed for p, _ in trees], dtype=np.uint64))
    plus = np.ones(n, dtype=bool)

    def root_children(values: np.ndarray, level: int) -> np.ndarray:
        """The (b, n) root-child values that a scored level backs up to."""
        for depth in range(level - 1, 0, -1):  # the parents' depth
            values = values.reshape(b, -1)
            values = values.max(axis=0) if depth % 2 == 0 else values.min(axis=0)
        return values.reshape(b, n)

    actions = {}
    for level in range(1, last + 1):
        plus, states = grow(level - 1, states, plus)
        if level not in scored:
            continue
        values = root_children(score(level, plus, states, rough=True), level)
        slack = rough_slack(heuristic, params, level)
        if slack:
            top_two = np.partition(values, b - 2, axis=0)[b - 2 :]
            # rounding is monotone and 2 * slack is a double, so a rounded
            # lead above it is a real lead above it
            if not np.all(top_two[1] - top_two[0] > 2.0 * slack):
                values = root_children(score(level, plus, states), level)
        actions[level] = np.argmax(values, axis=0).tolist()
    return [{d: actions[frontiers[d]][t] for d in depths} for t in range(n)]
