"""Grid sweeps measuring decision accuracy against search effort.

A grid cell fixes (gamma, b, exploration, heuristic); each of its M
trees gets seeds derived from (master seed, cell identity, tree index),
so results do not depend on execution order and a cell's trees are
stable under changes to the budget list or M. Accuracy delta_j is the
fraction of trees whose decision at budget j keeps the root's winning
value; the pathology index P_j = delta_j / delta_baseline flags cells
where extra effort hurt (P < 1). For the UCT algorithm budgets are
iteration checkpoints of one search; for alpha-beta they are search
depths.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from hashlib import blake2b
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import bitmix
from .heuristics import HeuristicSpec, heuristic_key, parse_heuristic
from .search_minimax import MinimaxConfig, alphabeta, minimax_decisions
from .search_uct import SearchResult, UctConfig, checked_exploration, uct_search
from .tree_model import GameParams, node_meta, within_cap

_TREE_TAG = 0xB5297A4D3F84D5A9
_SEARCH_TAG = 0x68E31DA4DBB3C2B1

CSV_HEADER = "gamma,b,c,heuristic,algo,budget,delta,se,pathology_index"


_BLOCK_LEAVES = 2**13  # frontier leaves per full-width block: its arrays stay in cache


def _build_uct(c: float, budgets: tuple[int, ...], heuristic: HeuristicSpec):
    UctConfig(c, budgets[-1], heuristic, 0, checkpoints=budgets)

    def decide(trees: Sequence[tuple[GameParams, int]]) -> list[dict[int, int]]:
        return [
            {r.iteration: r.action for r in uct_search(
                params, UctConfig(c, budgets[-1], heuristic, search_seed, checkpoints=budgets)
            ).checkpoints}
            for params, search_seed in trees
        ]

    return decide


def _build_alphabeta(c: float, budgets: tuple[int, ...], heuristic: HeuristicSpec):
    """Alpha-beta decisions per tree and depth; c is only a label.

    Depths d with b^d within `tree_model.ENUM_CAP` are decided together,
    for a block of trees at a time, by one full-width pass over the
    block; a block holds at most `_BLOCK_LEAVES` frontier leaves, or one
    tree. Each deeper depth runs one alpha-beta search per tree. Both
    give alpha-beta's action.
    """
    checked_exploration(c)
    for depth in budgets:
        MinimaxConfig(depth, heuristic, 0)

    def decide(trees: Sequence[tuple[GameParams, int]]) -> list[dict[int, int]]:
        if not trees:
            return []
        params = trees[0][0]  # a cell's trees share b and max_depth
        b = params.branching_factor
        wide = [depth for depth in budgets if within_cap(b, depth)]
        per_block = max(1, _BLOCK_LEAVES // b ** min(max(wide, default=0), params.max_depth))
        actions: list[dict[int, int]] = []
        for lo in range(0, len(trees), per_block):
            block = trees[lo : lo + per_block]
            actions += minimax_decisions(block, wide, heuristic) if wide else [{} for _ in block]
        for (tree, search_seed), tree_actions in zip(trees, actions):
            for depth in budgets[len(wide):]:  # budgets ascend, so the wide ones come first
                cfg = MinimaxConfig(depth, heuristic, search_seed)
                tree_actions[depth] = alphabeta(tree, (), cfg).best_action
        return actions

    return decide


#: algorithm name -> builder(c, budgets, heuristic), which checks a cell's
#: settings and returns decide(trees) -> [{budget: action}, ...], one dict
#: per (params, search_seed) pair of a cell's tree slice; decide reads the
#: searches as module attributes each time it runs
DECIDERS: dict[str, Callable] = {"uct": _build_uct, "alphabeta": _build_alphabeta}


@dataclass(frozen=True)
class GridSpec:
    gammas: tuple[float, ...] = (0.9, 1.0)
    branchings: tuple[int, ...] = (2, 5, 10)
    explorations: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 5.0)
    heuristics: tuple[str, ...] = ("histogram:chess_p10_light",)
    budgets: tuple[int, ...] = (10, 100, 1000, 10_000)
    max_depth: int = 50
    trees: int = 500
    master_seed: int = 0
    algorithm: str = "uct"

    def __post_init__(self) -> None:
        for name in ("gammas", "branchings", "explorations", "heuristics", "budgets"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)
        if list(self.budgets) != sorted(set(self.budgets)):
            raise ValueError("budgets must be strictly ascending")
        for name, low, high in (("trees", 1, None), ("master_seed", 0, bitmix.MASK64)):
            object.__setattr__(self, name, bitmix.checked_int(name, getattr(self, name), low, high))
        if self.algorithm not in DECIDERS:
            raise ValueError(f"algorithm must be one of {tuple(DECIDERS)}")
        # every cell's values, checked by the types that own their rules
        for g, b in product(self.gammas, self.branchings):
            GameParams(b, g, self.max_depth, 0)
        specs = tuple(map(parse_heuristic, self.heuristics))  # fail fast on typos
        for h, c in product(specs, self.explorations):
            DECIDERS[self.algorithm](c, self.budgets, h)
        # then each value in one form, so equal settings key equal cells
        forms = {
            "gammas": map(float, self.gammas), "explorations": map(float, self.explorations),
            "branchings": map(int, self.branchings), "budgets": map(int, self.budgets),
            "heuristics": (f"gaussian:{h.sigma!r}" if h.kind == "gaussian" else text
                           for text, h in zip(self.heuristics, specs)),
        }
        for name, values in forms.items():
            values = tuple(values)
            for i, value in enumerate(values):
                if value in values[:i]:  # one cell would run more than once
                    raise ValueError(f"{name} lists {value!r} more than once")
            object.__setattr__(self, name, values)
        object.__setattr__(self, "max_depth", int(self.max_depth))


@dataclass(frozen=True)
class Cell:
    gamma: float
    branching: int
    exploration: float
    heuristic: str
    budgets: tuple[int, ...]
    max_depth: int
    trees: int
    algorithm: str


def cells(spec: GridSpec) -> list[Cell]:
    return [
        Cell(g, b, c, h, spec.budgets, spec.max_depth, spec.trees, spec.algorithm)
        for g, b, c, h in product(
            spec.gammas, spec.branchings, spec.explorations, spec.heuristics
        )
    ]


def cell_key(cell: Cell) -> int:
    """64-bit cell identity; budgets and M excluded so trees stay
    comparable when the budget list is truncated or M grows. A histogram
    file enters by its weights (`heuristics.heuristic_key`), not its path."""
    text = (
        f"{cell.gamma!r}|{cell.branching}|{cell.exploration!r}"
        f"|{heuristic_key(cell.heuristic)}|{cell.algorithm}|{cell.max_depth}"
    )
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


def _seed_pairs(
    cell: Cell, master_seed: int, trees: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """(tree seed, search seed) for each listed tree, from one cell key."""
    base = bitmix.mix64(master_seed ^ cell_key(cell))
    for index in trees:
        yield (
            bitmix.indexed_u64(base, _TREE_TAG, index),
            bitmix.indexed_u64(base, _SEARCH_TAG, index),
        )


def tree_seeds(cell: Cell, master_seed: int, index: int) -> tuple[int, int]:
    [pair] = _seed_pairs(cell, master_seed, [index])
    return pair


def cell_trees(
    cell: Cell, master_seed: int, trees: Iterable[int]
) -> Iterator[tuple[GameParams, frozenset[int], int]]:
    """(params, optimal root moves, search seed) for each listed tree."""
    for tree_seed, search_seed in _seed_pairs(cell, master_seed, trees):
        params = GameParams(cell.branching, cell.gamma, cell.max_depth, tree_seed)
        yield params, node_meta(params, ()).optimal_moves, search_seed


def run_cell(
    cell: Cell, master_seed: int, tree_range: range | None = None
) -> list[dict[int, bool]]:
    """Per-tree correctness records: one {budget: correct} dict per tree,
    from one call of the cell's decider on the whole slice."""
    decide = DECIDERS[cell.algorithm](
        cell.exploration, cell.budgets, parse_heuristic(cell.heuristic)
    )
    tree_range = tree_range if tree_range is not None else range(cell.trees)
    trees = list(cell_trees(cell, master_seed, tree_range))
    actions = decide([(params, search_seed) for params, _, search_seed in trees])
    return [
        {j: tree_actions[j] in optimal for j in cell.budgets}
        for (_, optimal, _), tree_actions in zip(trees, actions)
    ]


@dataclass(frozen=True)
class CellReport:
    cell: Cell
    deltas: tuple[float, ...]
    standard_errors: tuple[float, ...]
    pathology: tuple[float, ...]
    trees: int
    wall_time: float

    @property
    def baseline_defined(self) -> bool:
        return not math.isnan(self.pathology[0])


def pathology_report(cell: Cell, records: list[dict[int, bool]], wall_time: float = 0.0) -> CellReport:
    m = len(records)
    deltas = []
    ses = []
    for j in cell.budgets:
        delta = sum(rec[j] for rec in records) / m
        deltas.append(delta)
        ses.append(math.sqrt(delta * (1.0 - delta) / m))
    base = deltas[0]
    if base > 0:
        pathology = tuple(d / base for d in deltas)
    else:
        pathology = tuple(math.nan for _ in deltas)
    return CellReport(cell, tuple(deltas), tuple(ses), pathology, m, wall_time)


def _run_task(task: tuple[Cell, int, range]) -> tuple[list, float]:
    """One (cell, tree-slice) task: its records and its measured seconds."""
    t0 = time.perf_counter()
    records = run_cell(*task)
    return records, time.perf_counter() - t0


def grid_tasks(spec: GridSpec, workers: int) -> list[tuple[Cell, int, range]]:
    """The grid's (cell, master seed, tree slice) tasks, in cell order.

    Slices are cut from the whole grid, about four tasks per worker, and
    a slice never spans two cells; every cell is cut at the same trees.
    """
    grid = cells(spec)
    chunk = min(spec.trees, math.ceil(len(grid) * spec.trees / (4 * workers)))
    return [
        (cell, spec.master_seed, range(a, min(a + chunk, spec.trees)))
        for cell in grid
        for a in range(0, spec.trees, chunk)
    ]


def run_grid(spec: GridSpec, workers: int = 1) -> list[CellReport]:
    """All cells of the grid, run as `grid_tasks`: inline when workers ==
    1, else over a process pool. Results return in task order, so reports
    do not depend on the worker count; a cell's wall_time is the measured
    sum of its slices' times."""
    workers = bitmix.checked_int("workers", workers, 1)
    tasks = grid_tasks(spec, workers)
    if workers == 1:
        results = list(map(_run_task, tasks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks))
    grid = cells(spec)
    per_cell = len(tasks) // len(grid)
    reports = []
    for ci, cell in enumerate(grid):
        part = results[ci * per_cell : (ci + 1) * per_cell]
        records = [rec for batch, _ in part for rec in batch]
        reports.append(pathology_report(cell, records, sum(seconds for _, seconds in part)))
    return reports


def theorem_c_bound(iterations: int) -> float:
    """Exploration constant forcing breadth-first behavior at budget N."""
    iterations = bitmix.checked_int("iterations", iterations, 2)
    try:
        return math.sqrt(iterations**3 / (2.0 * math.log(iterations)))
    except OverflowError:
        raise ValueError("iterations is too large: the bound overflows a float") from None


@dataclass(frozen=True)
class TheoremReport:
    branching: int
    exploration: float
    iterations: int
    breadth_first_fraction: float
    accuracy: float
    standard_error: float


def theorem_runs(
    iterations: int, b: int, trees: int, max_depth: int, master_seed: int
) -> Iterator[tuple[GameParams, frozenset[int], SearchResult]]:
    """(params, optimal root moves, search result) for each tree of the
    theorem cell: gamma = 1, the perfect evaluator, c at the bound for N."""
    c = theorem_c_bound(iterations)
    trees = bitmix.checked_int("trees", trees, 1)
    cell = Cell(1.0, b, c, "perfect", (iterations,), max_depth, trees, "uct")
    heuristic = parse_heuristic("perfect")
    for params, optimal, search_seed in cell_trees(cell, master_seed, range(trees)):
        yield params, optimal, uct_search(params, UctConfig(c, iterations, heuristic, search_seed))


def run_theorem_experiment(
    iterations: int = 512,
    branchings: Sequence[int] = (2, 3),
    trees: int = 500,
    max_depth: int = 50,
    master_seed: int = 0,
) -> list[TheoremReport]:
    c = theorem_c_bound(iterations)
    trees = bitmix.checked_int("trees", trees, 1)
    for b in branchings:  # each value checked before any search runs
        GameParams(b, 1.0, max_depth, master_seed)
    reports = []
    for b in branchings:
        uniform = correct = 0
        for _, optimal, result in theorem_runs(iterations, b, trees, max_depth, master_seed):
            uniform += result.breadth_first.holds
            correct += result.final_action in optimal
        accuracy = correct / trees
        se = math.sqrt(accuracy * (1.0 - accuracy) / trees)
        reports.append(TheoremReport(b, c, iterations, uniform / trees, accuracy, se))
    return reports


def csv_lines(reports: Iterable[CellReport]) -> list[str]:
    lines = [CSV_HEADER]
    for report in reports:
        cell = report.cell
        label = parse_heuristic(cell.heuristic).label
        for budget, delta, se, p in zip(
            cell.budgets, report.deltas, report.standard_errors, report.pathology
        ):
            p_text = "nan" if math.isnan(p) else f"{p:.6f}"
            lines.append(
                f"{cell.gamma:g},{cell.branching},{cell.exploration:g},{label},"
                f"{cell.algorithm},{budget},{delta:.6f},{se:.6f},{p_text}"
            )
    return lines


def _svg_panels(reports: list[CellReport]) -> str:
    panels: dict[tuple, list[CellReport]] = {}
    for report in reports:
        key = (report.cell.gamma, report.cell.branching, report.cell.heuristic)
        panels.setdefault(key, []).append(report)

    width, height, margin = 320, 240, 42
    rows = []
    colors = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    for p_index, (key, group) in enumerate(sorted(panels.items(), key=lambda kv: repr(kv[0]))):
        gamma, b, heuristic = key
        x0 = margin
        y0 = p_index * height + margin
        plot_w, plot_h = width - 2 * margin, height - 2 * margin
        budgets = group[0].cell.budgets
        xs = [math.log10(j) for j in budgets]
        x_lo, x_hi = min(xs), max(xs)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        values = [p for g in group for p in g.pathology if not math.isnan(p)]
        y_lo = min([0.0] + values)
        y_hi = max([1.05] + values)

        def sx(x):
            return x0 + (x - x_lo) / (x_hi - x_lo) * plot_w

        def sy(y):
            return y0 + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

        rows.append(
            f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="#444"/>'
        )
        rows.append(
            f'<text x="{x0}" y="{y0 - 8}" font-size="12">'
            f"gamma={gamma:g} b={b} {heuristic}</text>"
        )
        baseline_y = sy(1.0)
        rows.append(
            f'<line x1="{x0}" y1="{baseline_y:.2f}" x2="{x0 + plot_w}" '
            f'y2="{baseline_y:.2f}" stroke="#bbb" stroke-dasharray="4 3"/>'
        )
        for j, x in zip(budgets, xs):
            rows.append(
                f'<text x="{sx(x):.2f}" y="{y0 + plot_h + 16}" font-size="10" '
                f'text-anchor="middle">{j}</text>'
            )
        for tick in (y_lo, 1.0, y_hi):
            rows.append(
                f'<text x="{x0 - 6}" y="{sy(tick) + 4:.2f}" font-size="10" '
                f'text-anchor="end">{tick:.2f}</text>'
            )
        for g_index, report in enumerate(sorted(group, key=lambda r: r.cell.exploration)):
            color = colors[g_index % len(colors)]
            points = " ".join(
                f"{sx(x):.2f},{sy(p):.2f}"
                for x, p in zip(xs, report.pathology)
                if not math.isnan(p)
            )
            if points:
                rows.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" '
                    'stroke-width="1.5"/>'
                )
            rows.append(
                f'<text x="{x0 + plot_w + 6}" y="{y0 + 14 + 14 * g_index}" '
                f'font-size="10" fill="{color}">c={report.cell.exploration:g}</text>'
            )
    total_h = len(panels) * height + margin
    body = "\n".join(rows)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width + 90}" '
        f'height="{total_h}" viewBox="0 0 {width + 90} {total_h}">\n'
        f"{body}\n</svg>\n"
    )


def manifest_lines(spec: GridSpec) -> list[str]:
    from . import __version__

    return [f"critgames {__version__}", "grid:"] + [
        f"  {f.name} = {getattr(spec, f.name)!r}" for f in fields(spec)
    ]


def emit_results(spec: GridSpec, reports: list[CellReport], out_dir: str | Path) -> list[Path]:
    if not reports:
        raise ValueError("nothing to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    csv_path.write_text("\n".join(csv_lines(reports)) + "\n")
    svg_path = out / "pathology.svg"
    svg_path.write_text(_svg_panels(reports))
    manifest_path = out / "manifest.txt"
    manifest_path.write_text("\n".join(manifest_lines(spec)) + "\n")
    return [csv_path, svg_path, manifest_path]
