"""critgames benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload uct_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Workloads: uct_sweep, alphabeta_sweep, verify, probe (see
README.md for what each exercises and why). Each invocation is one
fresh process and one closed loop with a single client.

--trace 0 prints the end-to-end metrics. `setup_s` is the median, over
fresh processes, of the time from process start to the point where the
first request could be timed. --trace 1 runs the same loop untraced for
half the time and traced for the other half, then the fixed-input stage
timings, and prints the per-layer metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Earlier lines give the same numbers by name with units, the machine
description and the run's sizes. A non-zero exit code means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("uct_sweep", "alphabeta_sweep", "verify", "probe")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "request_s_p50": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# What one unit of work is, per workload, for the human-readable lines.
UNIT_NAMES = {
    "uct_sweep": ("trees_per_s", "tree"),
    "alphabeta_sweep": ("trees_per_s", "tree"),
    "verify": ("trees_per_s", "instance"),
    "probe": ("passes_per_s", "pass"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="per-run input sizes; smoke is for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def bootstrap() -> None:
    """Import the package from this checkout's src/, and let children do the same."""
    if not (SRC / "critgames" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'critgames'}; "
                         "run from a full checkout")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")


@dataclass
class LoopStats:
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    completed: int = 0  # instances in requests that returned
    latencies: list[float] = field(default_factory=list)
    per_request: int = 1

    @property
    def rate(self) -> float:
        """Instances per second at the median request; stalls of the
        shared host move it less than a mean over the run."""
        return self.per_request / statistics.median(self.latencies) if self.latencies else 0.0


def closed_loop(wl, seconds: float, first_k: int = 0, tracer=None, targets=(),
                between=None) -> LoopStats:
    """Requests back to back until `seconds` have passed; always at least one.

    `between(elapsed)`, if given, runs before each request, untimed.
    """
    from spans import Patches

    stats = LoopStats(per_request=wl.per_request)
    request_id = tracer.name_id("bench.request") if tracer is not None else 0
    start = time.perf_counter()
    k = first_k
    while stats.requests == 0 or time.perf_counter() < start + seconds:
        if between is not None:
            between(time.perf_counter() - start)
        inputs = wl.inputs(k)
        k += 1
        stats.requests += 1
        stats.attempted += wl.per_request
        try:
            with Patches() as patches:
                for owner, attr, value in targets:
                    patches.set(owner, attr, value)
                t0 = time.perf_counter()
                span = tracer.open(request_id) if tracer is not None else None
                try:
                    output = wl.run(inputs)
                finally:
                    if span is not None:
                        tracer.close(span)
                elapsed = time.perf_counter() - t0 - wl.untimed_s()
        except Exception as exc:  # a failed request is counted, and the loop goes on
            stats.failed += wl.per_request
            wl.fail(f"request {k - 1} raised {exc!r}")
            wl.recover()
            continue
        stats.latencies.append(elapsed)
        stats.completed += wl.per_request
        try:
            stats.failed += wl.check(inputs, output)
        except Exception as exc:  # a check that cannot read the output fails the request
            stats.failed += wl.per_request
            wl.fail(f"checking request {k - 1} raised {exc!r}")
    return stats


class SetupSampler:
    """Set-up time in fresh processes: process start to ready.

    One warm-up process runs first; the timed ones are spread evenly
    over the measured loop, so their median sees the same machine as
    the requests do rather than one moment of it.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload",
                    args.workload, "--seed", str(args.seed), "--seconds", "1", "--size", args.size]
        self.due = [i * args.seconds / SETUP_REPEATS for i in range(SETUP_REPEATS)]
        self.times: list[float] = []
        self.sample()  # warm-up, not kept

    def sample(self) -> float:
        t0 = time.monotonic()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        words = out.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"setup process failed with exit code {proc.returncode}")
        return float(words[1]) - t0

    def __call__(self, elapsed: float) -> None:
        """Takes the samples that are due `elapsed` seconds into the loop."""
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.times.append(self.sample())


def percentile_line(latencies: list[float], unit: str) -> str:
    """The p99 of the request latencies when at least ten samples lie beyond it."""
    n = len(latencies)
    if n < 1010:
        return f"request_s_p99 n/a ({n} samples; p99 needs >= 10 beyond it)"
    p99 = statistics.quantiles(latencies, n=100)[98]
    beyond = sum(x > p99 for x in latencies)
    name = "pass_s_p99" if unit == "pass" else "request_s_p99"
    return f"{name} {p99:.6g} s (n={n}, {beyond} beyond)"


def emit(correct: bool, stats: LoopStats, metrics: dict[str, float], units: dict[str, str],
         info: dict) -> None:
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def measured_run(args, wl, info: dict) -> int:
    sampler = SetupSampler(args)
    wl.setup()
    try:
        stats = closed_loop(wl, args.seconds, between=sampler)
    finally:
        wl.close()
    sampler(float("inf"))
    setups = sampler.times
    problems = wl.finish()
    rate_name, unit = UNIT_NAMES[args.workload]
    metrics = {
        "setup_s": statistics.median(setups),
        "units_per_s": stats.rate,
        "request_s_p50": statistics.median(stats.latencies) if stats.latencies else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - stats.failed / stats.attempted,
    }
    print(f"workload {args.workload}: closed loop, 1 client, {stats.requests} requests "
          f"of {wl.per_request} {unit}(s), setup over {len(setups)} fresh processes")
    print(f"{rate_name} {stats.rate:.6g} 1/s")
    if unit == "pass":
        print(f"pass_s_p50 {metrics['request_s_p50']:.6g} s (n={len(stats.latencies)})")
    print(percentile_line(stats.latencies, unit))
    print(f"failed_frac {stats.failed / stats.attempted:.6g} ({stats.failed}/{stats.attempted})")
    for message in problems:
        print(f"problem: {message}")
    info["setup_samples_s"] = setups
    if stats.latencies:
        lat = stats.latencies
        info["request_s"] = {"n": len(lat), "min": min(lat), "p50": statistics.median(lat),
                             "mean": statistics.fmean(lat), "max": max(lat)}
    emit(not problems and stats.failed == 0, stats, metrics, END_TO_END, info)
    return 0


def traced_run(args, wl, info: dict) -> int:
    from layers import PER_LAYER, layer_metrics
    from spans import Tracer
    from stages import run_stages

    wl.setup()
    tracer = Tracer()
    try:
        plain = closed_loop(wl, args.seconds / 2)
        traced = closed_loop(wl, args.seconds / 2, plain.requests, tracer, wl.trace_targets(tracer))
    finally:
        wl.close()
    problems = wl.finish()
    stages = run_stages(small=args.size == "smoke")
    overhead = plain.rate / traced.rate - 1.0 if traced.rate else 0.0
    metrics = layer_metrics(tracer, max(1, traced.completed), overhead, stages)
    total = LoopStats(
        requests=plain.requests + traced.requests,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
    )
    print(f"workload {args.workload} traced: {plain.requests} untraced then {traced.requests} "
          f"traced requests, {len(tracer)} spans, overhead {overhead:+.3f}")
    for message in problems:
        print(f"problem: {message}")
    emit(not problems and total.failed == 0, total, metrics, PER_LAYER, info)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bootstrap()
    import hostinfo
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, OUT, traced=bool(args.trace))
    if args.setup_only:
        wl.setup()
        print("ready", time.monotonic(), flush=True)
        wl.close()
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": workloads.SIZES[args.size][args.workload],
        "host": hostinfo.describe(ROOT, workloads.src_digest(SRC / "critgames")),
    }
    if args.trace:
        return traced_run(args, wl, info)
    return measured_run(args, wl, info)


if __name__ == "__main__":
    sys.exit(main())
