"""The four benchmark workloads.

Each workload is a closed loop with a single client: request k is
generated from (workload seed, k), run, and checked before request k+1
is generated. Only the generated inputs reach the package: a grid's
`master_seed`, the instance seeds of the oracles, and `ProbeConfig.seed`.
Each workload counts a fixed number of instances per request, and an
instance that fails its output check counts as failed without stopping
the run.

Module-level names that the benchmark itself calls (`run_grid`,
`mean_plus_fractions`, `run_probe`, ...) are looked up here at call
time, so the traced run can wrap them in place.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from importlib import resources
from pathlib import Path
from time import perf_counter

import numpy as np

from critgames import experiments, search_minimax, search_uct, tree_model
from critgames.engine import (
    EngineSession,
    EngineTimeout,
    LiveTransport,
    ProbeConfig,
    run_probe,
    save_transcript,
)
from critgames.experiments import CSV_HEADER, GridSpec, cells, emit_results, run_grid, tree_seeds
from critgames.heuristics import parse_heuristic
from critgames.pv_model import PvParams, leaf_sum_difference, pv_naive_plan, pv_optimal_root_child
from critgames.search_minimax import MinimaxConfig, alphabeta, minimax_reference
from critgames.search_uct import check_conservation
from critgames.tree_model import GameParams, mean_plus_fractions, plus_fractions

from spans import Tracer

ENUM_DEPTH = 12
PV_SEPARATION_DEPTH = 11  # leaf sums for d = 0..10, as in criterion 6
PV_PLAN_DEPTH = 12
PV_PLAYOUTS = 1000
PLANNER_ACCURACY = 0.99

# Criterion 10's probe configuration; only the seed comes from the workload seed.
PROBE_CONFIG = dict(plies=1, mode="light", samples=2, hist_bins=8, multipv=3)
# Criterion 10's rate table: fen index -> (b, gamma, excluded); the rest are skipped.
PROBE_RATES = {0: (3, 1.0, 0), 1: (4, 0.5, 1), 2: (3, 0.5, 0), 5: (2, 1.0, 0)}

# Per-run sizes. "full" is what BENCHMARK.json measures; "smoke" keeps
# every code path at a tiny size for the benchmark's own tests.
SIZES = {
    "full": {
        "uct_sweep": {"trees": 1, "budgets": (10, 100, 1000, 10_000)},
        "alphabeta_sweep": {"trees": 10, "budgets": (2, 4, 6, 8), "workers": 2},
        "verify": {"seeds_b2": 200, "seeds_b3": 20, "pv_instances": 8},
        "probe": {},
    },
    "smoke": {
        "uct_sweep": {"trees": 1, "budgets": (10, 100)},
        "alphabeta_sweep": {"trees": 1, "budgets": (2, 4), "workers": 2},
        "verify": {"seeds_b2": 2, "seeds_b3": 1, "pv_instances": 1},
        "probe": {},
    },
}


def derive(*parts: object) -> int:
    """A 64-bit generated input, a pure function of its labels."""
    text = "|".join(map(str, parts)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def data_file(name: str) -> Path:
    return Path(str(resources.files("critgames.data") / name))


def src_digest(src: Path) -> str:
    """Identity of the package source, so stored digests never cross commits."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Workload:
    name = ""
    per_request = 1  # instances per request

    def __init__(self, seed: int, size: str, out_dir: Path, traced: bool = False) -> None:
        self.seed = seed
        self.size = size
        self.sizes = SIZES[size][self.name]
        self.out_dir = out_dir / self.name
        self.traced = traced
        self.problems: list[str] = []

    def setup(self) -> None:
        """Everything before the first timed request."""

    def inputs(self, k: int) -> object:
        return k

    def run(self, inputs: object) -> object:
        raise NotImplementedError

    def check(self, inputs: object, output: object) -> int:
        """Number of this request's instances that failed their checks."""
        return 0

    def untimed_s(self) -> float:
        """Seconds of the last request spent on checks inside the package's calls."""
        return 0.0

    def recover(self) -> None:
        """Called after a request raised."""

    def finish(self) -> list[str]:
        return self.problems

    def close(self) -> None:
        pass

    def trace_targets(self, tracer: Tracer) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for the traced run."""
        return []

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


# -- sweeps -----------------------------------------------------------------


class ConservationCheck:
    """Stands in for experiments.uct_search: runs the search, then checks
    visit conservation on the returned tree outside the timed total."""

    def __init__(self) -> None:
        self.search = search_uct.uct_search
        self.failures = 0
        self.check_s = 0.0
        self.tracer: Tracer | None = None

    def __call__(self, params, cfg, trace=None):
        result = self.search(params, cfg, trace)
        t0 = perf_counter()
        if self.tracer is not None:
            with self.tracer.span("bench.check"):
                ok = self._ok(params, cfg, result)
        else:
            ok = self._ok(params, cfg, result)
        self.check_s += perf_counter() - t0
        self.failures += not ok
        return result

    @staticmethod
    def _ok(params, cfg, result) -> bool:
        return (
            check_conservation(result.tree)
            and result.tree.root.n == cfg.budget
            and 1 <= result.node_count <= cfg.budget
            and tuple(r.iteration for r in result.checkpoints) == cfg.checkpoints
            and all(0 <= r.action < params.branching_factor for r in result.checkpoints)
        )


def csv_problems(text: str, spec: GridSpec) -> list[str]:
    """Independent reading of results.csv against the grid that produced it."""
    lines = text.splitlines()
    grid = cells(spec)
    if not lines or lines[0] != CSV_HEADER:
        return ["results.csv header differs"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(grid) * len(spec.budgets):
        return [f"results.csv has {len(rows)} rows, expected {len(grid) * len(spec.budgets)}"]
    m = spec.trees
    out = []
    for index, row in enumerate(rows):
        cell = grid[index // len(spec.budgets)]
        budget = spec.budgets[index % len(spec.budgets)]
        if len(row) != 9:
            out.append(f"row {index + 1} has {len(row)} fields")
            continue
        gamma, b, c, _, algo, j, delta, se, p = row
        if (float(gamma), int(b), float(c), algo, int(j)) != (
            cell.gamma, cell.branching, cell.exploration, cell.algorithm, budget
        ):
            out.append(f"row {index + 1} labels a different cell")
        d = float(delta)
        if not (0.0 <= d <= 1.0 and abs(d * m - round(d * m)) < 1e-4):
            out.append(f"row {index + 1} delta {delta} is not a fraction of {m} trees")
        if abs(float(se) - math.sqrt(d * (1 - d) / m)) > 2e-6:
            out.append(f"row {index + 1} standard error {se} inconsistent")
        base = float(rows[index - index % len(spec.budgets)][6])
        if (p == "nan") != (base == 0) or (base > 0 and abs(float(p) - d / base) > 2e-5):
            out.append(f"row {index + 1} pathology index {p} inconsistent")
    return out


class Sweep(Workload):
    grid: dict = {}

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.workers = 1 if self.traced else self.sizes.get("workers", 1)
        self.per_request = len(cells(self.inputs(0))) * self.sizes["trees"]
        self.digest_path = self.out_dir.parent / "digests.json"
        self.src = src_digest(Path(experiments.__file__).resolve().parent)
        try:
            self.digests = json.loads(self.digest_path.read_text())
        except (OSError, ValueError):
            self.digests = {}
        self.stored = False
        self.conservation = ConservationCheck()
        self._restore = experiments.uct_search
        experiments.uct_search = self.conservation

    def inputs(self, k: int) -> GridSpec:
        return GridSpec(
            **self.grid,
            budgets=self.sizes["budgets"],
            trees=self.sizes["trees"],
            master_seed=derive(self.name, self.seed, k),
        )

    def run(self, spec: GridSpec):
        self.failures_before = self.conservation.failures
        self.conservation.check_s = 0.0
        reports = run_grid(spec, workers=self.workers)
        emit_results(spec, reports, self.out_dir)
        return reports

    def untimed_s(self) -> float:
        return self.conservation.check_s

    def check(self, spec: GridSpec, reports) -> int:
        failed = self.conservation.failures - self.failures_before
        if failed:
            self.fail(f"{failed} UCT searches broke visit conservation")
        csv = (self.out_dir / "results.csv").read_bytes()
        problems = csv_problems(csv.decode(), spec)
        key = f"{self.src}|{self.name}|{self.size}|{self.seed}|{spec.master_seed}"
        digest = hashlib.sha256(csv).hexdigest()
        self.stored = self.stored or key not in self.digests
        if self.digests.setdefault(key, digest) != digest:
            problems.append("results.csv digest differs from an earlier run of this source and seed")
        problems += self.extra_checks(spec, csv)
        for message in problems:
            self.fail(message)
        return self.per_request if problems else failed

    def extra_checks(self, spec: GridSpec, csv: bytes) -> list[str]:
        return []

    def close(self) -> None:
        experiments.uct_search = self._restore
        if self.stored:
            self.digest_path.write_text(json.dumps(self.digests, indent=0, sort_keys=True))

    def trace_targets(self, tracer: Tracer):
        def count_search(result, params, cfg, *rest):
            tracer.add("search_uct.iterations", cfg.budget)
            tracer.add("search_uct.nodes", result.node_count)

        def count_minimax(result, params, path, cfg):
            tracer.add("search_minimax.frontier_evals", result.frontier_evals)
            tracer.add("search_minimax.full_frontier", params.branching_factor**cfg.depth)

        self.conservation.tracer = tracer
        module = sys.modules[__name__]
        return [
            (module, "run_grid", tracer.wrap("experiments.run_grid", run_grid)),
            (module, "emit_results", tracer.wrap("experiments.emit_results", emit_results)),
            (self.conservation, "search",
             tracer.wrap("search_uct.uct_search", self.conservation.search, count_search)),
            (experiments, "alphabeta",
             tracer.wrap("search_minimax.alphabeta", experiments.alphabeta, count_minimax)),
            (experiments, "parse_heuristic",
             tracer.wrap("heuristics.parse_heuristic", experiments.parse_heuristic)),
            (experiments, "node_meta", tracer.wrap("tree_model.node_meta", experiments.node_meta)),
            (tree_model.NodeCursor, "child_value",
             tracer.wrap("tree_model.child_value", tree_model.NodeCursor.child_value)),
            (search_uct, "Random", tracer.wrap("search_uct.Random", search_uct.Random)),
            (search_minimax, "Random", tracer.wrap("search_minimax.Random", search_minimax.Random)),
            (search_uct, "evaluate", traced_evaluate(tracer, search_uct.evaluate)),
            (search_minimax, "evaluate", traced_evaluate(tracer, search_minimax.evaluate)),
        ]


def traced_evaluate(tracer: Tracer, evaluate):
    """One span name per heuristic kind: heuristics.evaluate.<kind>."""
    ids: dict[str, int] = {}

    def traced(spec, ctx, rng):
        nid = ids.get(spec.kind)
        if nid is None:
            nid = ids[spec.kind] = tracer.name_id(f"heuristics.evaluate.{spec.kind}")
        idx = tracer.open(nid)
        try:
            return evaluate(spec, ctx, rng)
        finally:
            tracer.close(idx)

    return traced


class UctSweep(Sweep):
    name = "uct_sweep"
    grid = dict(
        algorithm="uct",
        gammas=(0.5, 1.0),
        branchings=(2, 10),
        explorations=(0.5, 2.0),
        heuristics=("histogram:chess_p10_light",),
        max_depth=50,
    )


class AlphabetaSweep(Sweep):
    name = "alphabeta_sweep"
    serial_checked = False
    grid = dict(
        algorithm="alphabeta",
        gammas=(1.0,),
        branchings=(2, 3),
        heuristics=("histogram:chess_p10_light", "gaussian:0.3"),
        max_depth=50,
    )

    def extra_checks(self, spec: GridSpec, csv: bytes) -> list[str]:
        out = []
        if self.workers > 1 and not self.serial_checked:
            # CSV output must not depend on the worker count.
            self.serial_checked = True
            serial = "\n".join(experiments.csv_lines(run_grid(spec, workers=1))) + "\n"
            if serial.encode() != csv:
                out.append("results.csv differs between the pool and a serial run")
        # Pruned search equals the exhaustive one on one tree of each request.
        grid = cells(spec)
        cell = grid[spec.master_seed % len(grid)]
        tree_seed, search_seed = tree_seeds(cell, spec.master_seed, 0)
        params = GameParams(cell.branching, cell.gamma, cell.max_depth, tree_seed)
        heuristic = parse_heuristic(cell.heuristic)
        for depth in spec.budgets:
            cfg = MinimaxConfig(depth, heuristic, search_seed)
            fast, ref = alphabeta(params, (), cfg), minimax_reference(params, (), cfg)
            if (fast.value, fast.best_action) != (ref.value, ref.best_action):
                out.append(f"alphabeta differs from the exhaustive search at depth {depth}")
        return out


# -- exact oracles ------------------------------------------------------------


class Verify(Workload):
    name = "verify"
    combos = tuple((b, g) for b in (2, 3) for g in (0.5, 0.9, 1.0))

    def setup(self) -> None:
        s = self.sizes
        self.per_request = 3 * s["seeds_b2"] + 3 * s["seeds_b3"] + s["pv_instances"]
        self.plans = 0
        self.plan_hits = 0
        self.inputs(0)

    def inputs(self, k: int):
        enum = [
            (b, g, [derive(self.name, self.seed, k, b, g, i)
                    for i in range(self.sizes[f"seeds_b{b}"])])
            for b, g in self.combos
        ]
        pv = [derive(self.name, self.seed, k, "pv", i) for i in range(self.sizes["pv_instances"])]
        return enum, pv

    def run(self, inputs):
        enum, pv = inputs
        # the package's default chunk_elements, on purpose
        profiles = [mean_plus_fractions(b, g, ENUM_DEPTH, seeds) for b, g, seeds in enum]
        separations = []
        for s in pv:
            params = PvParams(2, PV_SEPARATION_DEPTH, s)
            diffs = [leaf_sum_difference(params, d) for d in range(PV_SEPARATION_DEPTH)]
            plan = pv_naive_plan(PvParams(2, PV_PLAN_DEPTH, s), PV_PLAYOUTS, s)
            separations.append((diffs, plan))
        return profiles, separations

    def check(self, inputs, output) -> int:
        enum, pv = inputs
        profiles, separations = output
        failed = 0
        for (b, g, seeds), mean in zip(enum, profiles):
            # Per-seed enumeration, independent of how the call chunked its seeds.
            oracle = np.mean(
                [plus_fractions(GameParams(b, g, ENUM_DEPTH, s), ENUM_DEPTH) for s in seeds], axis=0
            )
            if mean.shape != oracle.shape or not np.allclose(mean, oracle, rtol=0, atol=1e-12):
                failed += len(seeds)
                self.fail(f"mean_plus_fractions({b}, {g}) differs from per-seed enumeration")
        for s, (diffs, plan) in zip(pv, separations):
            self.plans += 1
            self.plan_hits += plan == pv_optimal_root_child(PvParams(2, PV_PLAN_DEPTH, s))
            if diffs != [2**d for d in range(PV_SEPARATION_DEPTH)]:
                failed += 1
                self.fail(f"leaf-sum separation is not 2^d for pv seed {s}")
        return failed

    def finish(self) -> list[str]:
        if self.plans and self.plan_hits / self.plans < PLANNER_ACCURACY:
            self.fail(f"planner accuracy {self.plan_hits}/{self.plans} below {PLANNER_ACCURACY}")
        return self.problems

    def trace_targets(self, tracer: Tracer):
        def count_enum(result, b, gamma, depth, seeds):
            nodes = sum(b**level for level in range(depth + 1))
            tracer.add("tree_model.enum.nodes", nodes * len(seeds))
            # uint64 state plus int8 value per interior node, int8 value per leaf
            tracer.add("tree_model.enum.bytes", (9 * (nodes - b**depth) + b**depth) * len(seeds))

        def count_leaf_sum(result, params, d):
            tracer.add("pv_model.leaf_sum.nodes", 2 * (2 ** (d + 1) - 1))

        def count_plan(result, params, playouts, rng_seed):
            tracer.add("pv_model.plan.steps", params.branching_factor * playouts * (params.max_depth - 1))

        module = sys.modules[__name__]
        return [
            (module, "mean_plus_fractions",
             tracer.wrap("tree_model.mean_plus_fractions", mean_plus_fractions, count_enum)),
            (module, "leaf_sum_difference",
             tracer.wrap("pv_model.leaf_sum_difference", leaf_sum_difference, count_leaf_sum)),
            (module, "pv_naive_plan", tracer.wrap("pv_model.pv_naive_plan", pv_naive_plan, count_plan)),
        ]


# -- engine probe -------------------------------------------------------------

SESSION_METHODS = (
    "handshake",
    "probe_eval",
    "legal_moves",
    "sample_positions",
    "empirical_gamma",
    "build_eval_histograms",
)


def probe_fens() -> list[str]:
    return [
        line.strip()
        for line in data_file("probe_fens.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


class Probe(Workload):
    name = "probe"

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.fens = probe_fens()
        self.cfg = ProbeConfig(**PROBE_CONFIG, seed=derive(self.name, self.seed))
        self.golden = data_file("golden_transcript.txt").read_bytes()
        scenario = json.loads(data_file("mock_scenario.json").read_text())
        self.start_moves = set(scenario["positions"]["position startpos"]["perft"])
        self.first: list | None = None
        self.transport = None
        self._spawn()

    def _spawn(self) -> None:
        argv = [sys.executable, "-m", "critgames.engine.mock_engine", str(data_file("mock_scenario.json"))]
        self.transport = LiveTransport(argv, timeout=self.cfg.timeout)
        EngineSession(self.transport, self.cfg).handshake()

    def run(self, k):
        session = EngineSession(self.transport, self.cfg)
        return session, run_probe(session, self.fens)

    def recover(self) -> None:
        self.transport.close()
        self._spawn()

    def check(self, k, output) -> int:
        session, outputs = output
        problems = []
        if self.first is None:
            self.first = list(session.transcript)
            path = self.out_dir / "transcript.txt"
            save_transcript(session.transcript, path)
            if path.read_bytes() != self.golden:
                problems.append("transcript is not byte-identical to golden_transcript.txt")
            self.samples = [p.moves for p in outputs.samples]
            if len(self.samples) != self.cfg.samples or any(
                len(m) != 1 or m[0] not in self.start_moves for m in self.samples
            ):
                problems.append(f"sampled positions {self.samples} are not one legal ply")
        elif session.transcript != self.first:
            problems.append("transcript differs from the first pass")
        elif [p.moves for p in outputs.samples] != self.samples:
            problems.append("sampled positions differ from the first pass")
        for index, rec in enumerate(outputs.records):
            want = PROBE_RATES.get(index)
            got = None if rec.gamma is None else (rec.b, rec.gamma, rec.excluded)
            if got != want:
                problems.append(f"rate table row {index}: {got} != {want}")
        for message in problems:
            self.fail(message)
        return 1 if problems else 0

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    def trace_targets(self, tracer: Tracer):
        def count_pass(outputs, session, fens):
            tracer.add("engine.session.go_sent",
                       sum(1 for d, line in session.transcript if d == ">" and line.startswith("go ")))
            tracer.add("engine.session.warnings", len(session.warnings))

        recv = LiveTransport.recv

        def counting_recv(transport, timeout=None):
            try:
                return recv(transport, timeout)
            except EngineTimeout:
                tracer.add("engine.transport.timeouts")
                raise

        module = sys.modules[__name__]
        targets = [
            (module, "run_probe", tracer.wrap("engine.run_probe", run_probe, count_pass)),
            (LiveTransport, "send", tracer.wrap("engine.transport.send", LiveTransport.send)),
            (LiveTransport, "recv", tracer.wrap("engine.transport.recv", counting_recv)),
        ]
        for method in SESSION_METHODS:
            fn = getattr(EngineSession, method)
            targets.append((EngineSession, method, tracer.wrap(f"engine.session.{method}", fn)))
        return targets


WORKLOADS = {cls.name: cls for cls in (UctSweep, AlphabetaSweep, Verify, Probe)}
