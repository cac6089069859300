"""Stage timings on fixed inputs, reported by every traced run.

These are the layer throughputs that per-call spans would swamp (the
scalar and numpy mixers) and the rows of the ROADMAP's re-anchor
baseline table, so the first recorded trajectory point lines up with
it. Inputs never depend on the workload seed. Each timing is the median
of a few repetitions.
"""

from __future__ import annotations

import inspect
from statistics import median
from time import perf_counter

import numpy as np

from critgames import bitmix
from critgames.engine import EngineSession, ProbeConfig, ReplayTransport, load_transcript, run_probe
from critgames.experiments import Cell, run_cell
from critgames.heuristics import parse_heuristic
from critgames.search_uct import UctConfig, uct_search
from critgames.tree_model import GameParams, mean_plus_fractions

from workloads import PROBE_CONFIG, data_file, probe_fens

HIST = "histogram:chess_p10_light"
CHECKPOINTS = (10, 100, 1000, 10_000)
ENUM_B3_SEEDS = 60  # one full block at the 32M-element default, as in the baseline row


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times)


def replay_pass(cfg: ProbeConfig, entries: list, fens: list[str]) -> float:
    """One probe pass over the golden transcript, no IPC; seconds."""
    replay = ReplayTransport(entries)
    t0 = perf_counter()
    run_probe(EngineSession(replay, cfg), fens)
    elapsed = perf_counter() - t0
    if not replay.exhausted:
        raise RuntimeError("replayed pass stopped short of the golden transcript")
    return elapsed


def default_block_elements(b: int = 3, depth: int = 12) -> int:
    """Widest state array one mean_plus_fractions block holds at its default chunk size."""
    chunk = inspect.signature(mean_plus_fractions).parameters["chunk_elements"].default
    return max(1, chunk // b**depth) * b ** (depth - 1)


def run_stages(small: bool = False) -> dict[str, float]:
    scale = 10 if small else 1
    out: dict[str, float] = {}

    calls = 200_000 // scale
    words = [(i * bitmix.GOLDEN) & bitmix.MASK64 for i in range(calls)]

    def scalar():
        mix = bitmix.mix64
        for w in words:
            mix(w)

    out["bitmix.mix64.calls_per_s"] = calls / _timed(scalar, 3)

    elems = default_block_elements() // scale
    block = np.arange(elems, dtype=np.uint64) * np.uint64(bitmix.GOLDEN)
    out["bitmix.mix64_np.elems_per_s"] = elems / _timed(lambda: bitmix.mix64_np(block), 3)
    del block

    cfg = ProbeConfig(**PROBE_CONFIG, seed=7)
    entries, fens = load_transcript(data_file("golden_transcript.txt")), probe_fens()
    out["engine.session.replay_pass_s"] = median(replay_pass(cfg, entries, fens) for _ in range(21))

    budget = 10_000 // scale
    heuristic = parse_heuristic(HIST)
    for b in (2, 10):
        params = GameParams(b, 1.0, 50, seed=0)
        seconds = _timed(lambda: uct_search(params, UctConfig(0.5, budget, heuristic, seed=0)), 1)
        out[f"stage.uct_b{b}.it_per_s"] = budget / seconds

    checkpoints = tuple(j for j in CHECKPOINTS if j <= budget)
    cell = Cell(1.0, 2, 0.5, HIST, checkpoints, 50, 1, "uct")
    out["stage.grid_tree_s"] = _timed(lambda: run_cell(cell, 0, range(1)), 1)

    seeds = range(ENUM_B3_SEEDS // scale)
    out["stage.enum_b3.s_per_seed"] = _timed(
        lambda: mean_plus_fractions(3, 1.0, 12, seeds), 1
    ) / len(seeds)
    return out
