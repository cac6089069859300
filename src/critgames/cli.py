"""Command-line front end.

One dispatcher over the library: tree export, density tables, single
searches, grid experiments, principal-variation checks, the
concentration-bound verification run, and the engine probe. Every run
resolves its configuration from built-in defaults, an optional flat
key=value file, then explicit flags; a run that succeeds echoes the
result to a manifest file so outputs are attributable.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shlex
import sys
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .bitmix import checked_int, read_text
from .engine import (
    EngineSession,
    LiveTransport,
    ProbeConfig,
    critical_rate_csv,
    run_probe,
    save_transcript,
)
from .engine.mock_engine import load_scenario
from .experiments import (
    GridSpec,
    emit_results,
    run_grid,
    run_theorem_experiment,
    theorem_c_bound,
)
from .forked import usable_cpus
from .heuristics import parse_heuristic, save_histogram
from .pv_model import PvParams, leaf_sum_difference, pv_naive_plan, pv_optimal_root_child
from .search_minimax import MinimaxConfig, alphabeta
from .search_uct import UctConfig, uct_search
from .tree_model import GameParams, checked_span, density_limits, export_tree, plus_densities


class UsageError(Exception):
    """Bad flags, bad configuration keys, or bad values."""


class _Parser(argparse.ArgumentParser):
    # no prefix matching: every flag has one spelling, and a flag that a
    # subcommand lacks is an error, never a prefix of another flag
    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits with 2 on usage problems; the contract here is 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@contextlib.contextmanager
def _as_usage():
    """Rewraps constructor validation errors as usage errors."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# -- value converters ----------------------------------------------------


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _strs(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _pairs(text: str) -> tuple[tuple[str, str], ...]:
    # "Name=Value;Other Name=V2" for engine option overrides
    out = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        name, sep, value = chunk.partition("=")
        if not sep or not name.strip():
            raise ValueError(f"expected name=value, got {chunk!r}")
        out.append((name.strip(), value.strip()))
    return tuple(out)


@dataclass(frozen=True)
class Opt:
    convert: Callable[[str], object]
    default: object
    help: str
    switch: bool = False  # presence-only boolean flag


GLOBAL_OPTS: dict[str, Opt] = {
    "out_dir": Opt(str, ".", "directory for output files"),
}

# shared by the subcommands whose handlers read a seed
SEED = Opt(int, 0, "master seed for this run")

SUB_OPTS: dict[str, dict[str, Opt]] = {
    "gen-tree": {
        "gamma": Opt(float, 1.0, "critical rate"),
        "b": Opt(int, 2, "branching factor"),
        "max_depth": Opt(int, 6, "tree depth"),
        "depth_cap": Opt(int, 6, "deepest level exported"),
        "seed": SEED,
    },
    "density": {
        "gamma": Opt(float, 1.0, "critical rate"),
        "b": Opt(int, 2, "branching factor"),
        "n": Opt(int, 2, "level whose density is printed"),
        "table": Opt(_bool, False, "print every level up to n", switch=True),
        "limits": Opt(_bool, False, "print the alternating limits", switch=True),
    },
    "search": {
        "algo": Opt(str, "uct", "uct or alphabeta"),
        "gamma": Opt(float, 1.0, "critical rate"),
        "b": Opt(int, 2, "branching factor"),
        "max_depth": Opt(int, 12, "tree depth"),
        "heuristic": Opt(str, "perfect", "leaf evaluator"),
        "c": Opt(float, 1.0, "exploration constant (uct)"),
        "budget": Opt(int, 1000, "iteration budget (uct)"),
        "checkpoints": Opt(_ints, (), "comma-separated decision checkpoints (uct)"),
        "depth": Opt(int, 4, "lookahead depth (alphabeta)"),
        "path": Opt(_ints, (), "start node as comma-separated child indices (alphabeta)"),
        "trace": Opt(str, "", "file for the per-iteration path and reward (uct)"),
        "seed": SEED,
    },
    "experiment": {
        "gammas": Opt(_floats, GridSpec.gammas, "critical rates"),
        "branchings": Opt(_ints, GridSpec.branchings, "branching factors"),
        "explorations": Opt(_floats, GridSpec.explorations, "exploration constants"),
        "heuristics": Opt(_strs, GridSpec.heuristics, "leaf evaluators"),
        "budgets": Opt(_ints, GridSpec.budgets, "iteration budgets or depths"),
        "max_depth": Opt(int, GridSpec.max_depth, "tree depth"),
        "trees": Opt(int, GridSpec.trees, "instances per cell"),
        "algo": Opt(str, GridSpec.algorithm, "uct or alphabeta"),
        "seed": SEED,
        "workers": Opt(int, usable_cpus(), "process count for experiment sweeps"),
    },
    "pv-check": {
        "depth_max": Opt(int, 10, "largest distance checked"),
        "seeds": Opt(int, 100, "instances for the exact check"),
        "cost": Opt(int, 1, "sibling step cost"),
        "pv_depth": Opt(int, 12, "game depth for planner instances"),
        "playouts": Opt(int, 1000, "random playouts per root child"),
        "instances": Opt(int, 200, "planner instances"),
    },
    "theorem": {
        "N": Opt(int, 512, "iteration count the bound is evaluated at"),
        "table": Opt(_ints, (), "print the bound at these iteration counts"),
        "verify": Opt(_bool, False, "run the breadth-first verification", switch=True),
        "branchings": Opt(_ints, (2, 3), "branching factors for --verify"),
        "trees": Opt(int, 100, "instances per branching for --verify"),
        "max_depth": Opt(int, 50, "tree depth for --verify"),
        "seed": SEED,
    },
    "probe": {
        "engine": Opt(str, "", "engine command line; empty runs the bundled mock"),
        "scenario": Opt(str, "", "scenario file for the bundled mock"),
        "fens": Opt(str, "", "file of positions to probe, one FEN per line"),
        "plies": Opt(int, ProbeConfig.plies, "random-walk length for sampled positions"),
        "mode": Opt(str, ProbeConfig.mode, "light or heavy sampling"),
        "samples": Opt(int, ProbeConfig.samples, "number of sampled positions"),
        "multipv": Opt(int, ProbeConfig.multipv, "lines requested from the engine"),
        "deep_depth": Opt(int, ProbeConfig.deep_depth, "deep search depth"),
        "child_depth": Opt(int, ProbeConfig.child_depth, "reply search depth"),
        "heavy_depth": Opt(int, ProbeConfig.heavy_depth, "heavy-mode walk search depth"),
        "bins": Opt(int, ProbeConfig.hist_bins, "histogram bin count"),
        "timeout": Opt(float, ProbeConfig.timeout, "seconds to wait for each engine reply"),
        "no_perft": Opt(_bool, not ProbeConfig.use_perft, "list moves by wide search, not perft",
                        switch=True),
        "options": Opt(_pairs, ProbeConfig.options,
                       "engine option overrides, name=value;name=value"),
        "seed": SEED,
    },
}


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    for key, opt in GLOBAL_OPTS.items():
        shared.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                            metavar="V", help=opt.help)
    shared.add_argument("--config", default=None, metavar="FILE",
                        help="flat key=value configuration file")

    parser = _Parser(prog="critgames", description=__doc__)
    parser.add_argument("--version", action="version", version=f"critgames {__version__}")
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, table in SUB_OPTS.items():
        sub = subs.add_parser(name, parents=[shared], help=_HANDLERS[name].__doc__)
        for key, opt in table.items():
            flag = f"--{key.replace('_', '-')}"
            if opt.switch:
                sub.add_argument(flag, dest=key, action="store_true", default=None,
                                 help=opt.help)
            else:
                sub.add_argument(flag, dest=key, default=None, metavar="V", help=opt.help)
    return parser


def load_config(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    with _as_usage():
        text = read_text(path, "configuration file")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        values[key.strip()] = value.strip()
    return values


def _resolve(subcommand: str, ns: argparse.Namespace) -> dict[str, object]:
    """Defaults, then configuration file values, then explicit flags."""
    table = {**GLOBAL_OPTS, **SUB_OPTS[subcommand]}
    resolved = {key: opt.default for key, opt in table.items()}

    if ns.config is not None:
        for raw_key, raw_value in load_config(ns.config).items():
            key = raw_key.replace("-", "_")
            if "." in key:
                prefix, _, key = key.partition(".")
                if prefix != subcommand.replace("-", "_"):
                    if prefix.replace("_", "-") in SUB_OPTS:
                        continue  # another subcommand's section
                    raise UsageError(f"unknown configuration section {prefix!r}")
            if key not in table:
                raise UsageError(f"unknown configuration key {raw_key!r}")
            try:
                resolved[key] = table[key].convert(raw_value)
            except ValueError as exc:
                raise UsageError(f"bad value for {raw_key!r}: {exc}") from exc

    for key, opt in table.items():
        given = getattr(ns, key, None)
        if given is None:
            continue
        if opt.switch:
            resolved[key] = True
        else:
            try:
                resolved[key] = opt.convert(given)
            except ValueError as exc:
                flag = f"--{key.replace('_', '-')}"
                raise UsageError(f"bad value for {flag}: {exc}") from exc
    return resolved


def _write_manifest(subcommand: str, cfg: dict[str, object]) -> Path:
    lines = [f"critgames {__version__}", f"command = {subcommand}"]
    for key in sorted(cfg):
        lines.append(f"{key} = {cfg[key]!r}")
    path = _out_dir(cfg) / "run_manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def _out_dir(cfg: dict[str, object]) -> Path:
    return Path(str(cfg["out_dir"]))


def _data_file(name: str) -> str:
    return str(resources.files("critgames.data") / name)


def _game_params(cfg: dict[str, object], max_depth: int, seed: int) -> GameParams:
    return GameParams(
        branching_factor=cfg["b"], critical_rate=cfg["gamma"], max_depth=max_depth, seed=seed,
    )


# -- subcommand handlers -------------------------------------------------


def _cmd_gen_tree(cfg: dict[str, object]) -> int:
    """Export one synthetic game instance as digraph text."""
    with _as_usage():
        params = _game_params(cfg, cfg["max_depth"], cfg["seed"])
        text = export_tree(params, cfg["depth_cap"])
    path = _out_dir(cfg) / "tree.txt"
    path.write_text(text)
    print(f"wrote {path} ({len(text.splitlines())} lines)")
    return 0


def _cmd_density(cfg: dict[str, object]) -> int:
    """Print win-node densities and their alternating limits."""
    with _as_usage():
        n = checked_int("n", cfg["n"], 0)
        params = _game_params(cfg, max(n, 1), 0)
        levels = plus_densities(params, n)
    for level, value in enumerate(levels):
        if cfg["table"]:
            print(f"{level} {value:g}")
        elif level == n:
            print(f"{value:g}")
    if cfg["limits"]:
        limits = density_limits(params)
        tail = " degenerate" if limits.degenerate else ""
        print(f"limits {limits.even_limit:g} {limits.odd_limit:g}{tail}")
    return 0


def _refuse_unread(subcommand: str, cfg: dict[str, object], keys: Sequence[str],
                   reason: str) -> None:
    """Settings this run does not read must stay at their defaults, so no
    flag is silently ignored and no manifest records one."""
    for key in keys:
        if cfg[key] != SUB_OPTS[subcommand][key].default:
            raise UsageError(f"--{key.replace('_', '-')} {reason}")


# the search settings that one algorithm reads
_ALGO_ONLY = {"uct": ("c", "budget", "checkpoints", "trace"), "alphabeta": ("depth", "path")}


def _cmd_search(cfg: dict[str, object]) -> int:
    """Run one search on one instance and record the result."""
    with _as_usage():
        params = _game_params(cfg, cfg["max_depth"], cfg["seed"])
        heuristic = parse_heuristic(cfg["heuristic"])
        algo = cfg["algo"]
        if algo not in _ALGO_ONLY:
            raise ValueError(f"unknown algorithm {algo!r}")
        for owner, keys in _ALGO_ONLY.items():
            if owner != algo:
                _refuse_unread("search", cfg, keys, f"is for --algo {owner} only")
    path = _out_dir(cfg) / "search.json"
    if algo == "uct":
        with _as_usage():
            search_cfg = UctConfig(
                exploration=cfg["c"], budget=cfg["budget"], heuristic=heuristic,
                seed=cfg["seed"], checkpoints=tuple(cfg["checkpoints"]),
            )
        trace_path = str(cfg["trace"])
        with open(trace_path, "w") if trace_path else contextlib.nullcontext() as trace:
            result = uct_search(params, search_cfg, trace)
        path.write_text(result.to_json() + "\n")
        print(
            f"uct: final action {result.final_action}, {result.node_count} nodes, "
            f"{len(result.checkpoints)} checkpoints"
        )
    else:
        with _as_usage():
            mini_cfg = MinimaxConfig(
                depth=cfg["depth"], heuristic=heuristic, seed=cfg["seed"],
            )
            outcome = alphabeta(params, tuple(cfg["path"]), mini_cfg)
        payload = {
            "algorithm": "alphabeta",
            "value": outcome.value,
            "best_action": outcome.best_action,
            "frontier_evals": outcome.frontier_evals,
        }
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        print(f"alphabeta: value {outcome.value:.6f}, best action {outcome.best_action}")
    print(f"wrote {path}")
    return 0


def _cmd_experiment(cfg: dict[str, object]) -> int:
    """Sweep a parameter grid and emit CSV, SVG, and a manifest."""
    with _as_usage():
        spec = GridSpec(
            gammas=cfg["gammas"], branchings=cfg["branchings"],
            explorations=cfg["explorations"], heuristics=cfg["heuristics"],
            budgets=cfg["budgets"], max_depth=cfg["max_depth"],
            trees=cfg["trees"], master_seed=cfg["seed"], algorithm=cfg["algo"],
        )
        workers = checked_int("workers", cfg["workers"], 1)
    reports = run_grid(spec, workers=workers)
    written = emit_results(spec, reports, _out_dir(cfg))
    print(f"{len(reports)} cells, {spec.trees} trees each")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_pv_check(cfg: dict[str, object]) -> int:
    """Check the binary leaf-sum separation exactly and score the naive planner."""
    with _as_usage():
        depth_max = checked_span(2, cfg["depth_max"], "depth_max")
        seeds, cost = checked_int("seeds", cfg["seeds"], 1), cfg["cost"]
        pv_params = partial(PvParams, branching_factor=2, cost=cost)
        pv_params(max_depth=depth_max + 1, seed=0)
        pv_params(max_depth=cfg["pv_depth"], seed=0)
        instances = checked_int("instances", cfg["instances"], 1)
        playouts = checked_int("playouts", cfg["playouts"], 1)
    checked = failures = 0
    for seed in range(seeds):
        params = pv_params(max_depth=depth_max + 1, seed=seed)
        for d in range(depth_max + 1):
            checked += 1
            if leaf_sum_difference(params, d) != cost * 2**d:
                failures += 1
    status = "exact" if failures == 0 else f"{failures} FAILED"
    print(f"separation: {checked - failures}/{checked} {status} (d <= {depth_max})")

    hits = 0
    for seed in range(instances):
        params = pv_params(max_depth=cfg["pv_depth"], seed=seed)
        if pv_naive_plan(params, playouts, rng_seed=seed) == pv_optimal_root_child(params):
            hits += 1
    print(f"planner accuracy: {hits / instances:.3f} ({hits}/{instances})")
    return 2 if failures else 0


def _cmd_theorem(cfg: dict[str, object]) -> int:
    """Print the exploration bound; optionally verify breadth-first growth."""
    if not cfg["verify"]:
        _refuse_unread("theorem", cfg, ("branchings", "trees", "max_depth", "seed"),
                       "is for --verify only")
        if cfg["table"]:
            _refuse_unread("theorem", cfg, ("N",), "is not read with --table unless --verify")
    # every setting is checked, and the verification run, before anything prints
    with _as_usage():
        counts = cfg["table"] or (cfg["N"],)
        bounds = [theorem_c_bound(count) for count in counts]
        if cfg["verify"]:
            reports = run_theorem_experiment(
                iterations=cfg["N"], branchings=cfg["branchings"], trees=cfg["trees"],
                max_depth=cfg["max_depth"], master_seed=cfg["seed"],
            )
    for count, bound in zip(counts, bounds):
        print(f"{count} {bound:.6f}" if cfg["table"] else f"{bound:.6f}")
    if not cfg["verify"]:
        return 0
    lines = ["b,exploration,iterations,breadth_first_fraction,accuracy,se"]
    for report in reports:
        print(
            f"b={report.branching}: breadth_first={report.breadth_first_fraction:.3f} "
            f"accuracy={report.accuracy:.3f} se={report.standard_error:.3f}"
        )
        lines.append(
            f"{report.branching},{report.exploration:.6f},{report.iterations},"
            f"{report.breadth_first_fraction:.6f},{report.accuracy:.6f},"
            f"{report.standard_error:.6f}"
        )
    path = _out_dir(cfg) / "theorem.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_probe(cfg: dict[str, object]) -> int:
    """Probe an engine (or the bundled mock) and write the measurements."""
    with _as_usage():
        probe_cfg = ProbeConfig(
            plies=cfg["plies"], mode=cfg["mode"], samples=cfg["samples"],
            seed=cfg["seed"], deep_depth=cfg["deep_depth"],
            child_depth=cfg["child_depth"], heavy_depth=cfg["heavy_depth"],
            multipv=cfg["multipv"], hist_bins=cfg["bins"],
            use_perft=not cfg["no_perft"], timeout=cfg["timeout"],
            options=tuple(cfg["options"]),
        )
        if probe_cfg.mode != "heavy":
            _refuse_unread("probe", cfg, ("heavy_depth",), "is for --mode heavy only")
        if cfg["engine"]:
            _refuse_unread("probe", cfg, ("scenario",), "is for the bundled mock, not --engine")
            argv = shlex.split(str(cfg["engine"]))
        else:
            scenario = str(cfg["scenario"]) or _data_file("mock_scenario.json")
            load_scenario(scenario)  # else the mock just closes its pipe
            argv = [sys.executable, "-m", "critgames.engine.mock_engine", scenario]
        fens_text = read_text(str(cfg["fens"]) or _data_file("probe_fens.txt"), "FEN file")
    fens = [
        line.strip() for line in fens_text.splitlines()
        if line.strip() and not line.startswith("#")
    ]

    out = _out_dir(cfg)
    transport = LiveTransport(argv, timeout=probe_cfg.timeout)
    with EngineSession(transport, probe_cfg) as session:
        outputs = run_probe(session, fens)
        transcript = list(session.transcript)

    save_transcript(transcript, out / "transcript.txt")
    (out / "gamma.csv").write_text("\n".join(critical_rate_csv(outputs.records)) + "\n")
    save_histogram(outputs.histograms.pdf, out / "probe.hist",
                   comment="engine shallow-eval histogram by deep-sign class")
    (out / "samples.txt").write_text(
        "".join(pos.identifier() + "\n" for pos in outputs.samples)
    )
    estimable = [rec for rec in outputs.records if rec.gamma is not None]
    mean = sum(rec.gamma for rec in estimable) / len(estimable) if estimable else float("nan")
    print(
        f"probed {len(outputs.records)} positions: {len(estimable)} estimable, "
        f"mean critical rate {mean:.3f}"
    )
    print(
        f"histograms: {outputs.histograms.plus_count} winning, "
        f"{outputs.histograms.minus_count} losing, {outputs.histograms.dropped} dropped"
    )
    for name in ("transcript.txt", "gamma.csv", "probe.hist", "samples.txt"):
        print(f"wrote {out / name}")
    return 0


_HANDLERS: dict[str, Callable[[dict[str, object]], int]] = {
    "gen-tree": _cmd_gen_tree,
    "density": _cmd_density,
    "search": _cmd_search,
    "experiment": _cmd_experiment,
    "pv-check": _cmd_pv_check,
    "theorem": _cmd_theorem,
    "probe": _cmd_probe,
}


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse --help (0) or usage error (1)
        return int(exc.code or 0)
    if ns.subcommand is None:
        parser.print_usage(sys.stderr)
        print("critgames: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        cfg = _resolve(ns.subcommand, ns)
        out = _out_dir(cfg)
        out.mkdir(parents=True, exist_ok=True)
        # a failed run leaves no manifest that reads like a finished one,
        # neither its own nor an earlier run's in the same directory
        (out / "run_manifest.txt").unlink(missing_ok=True)
        code = _HANDLERS[ns.subcommand](cfg)
        if code == 0:
            _write_manifest(ns.subcommand, cfg)
        return code
    except UsageError as exc:
        print(f"critgames {ns.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"critgames {ns.subcommand}: failed: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))
