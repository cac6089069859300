"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()  # src/ on sys.path and PYTHONPATH, for the mock engine child too

import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import Patches, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_declared_metrics_match_the_code():
    assert tuple(NAMES) == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", NAMES)
def test_workload_reports_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for line in lines[:-1]:
        if line.startswith("info "):
            info = json.loads(line[5:])
            assert info["seed"] == 3 and info["sizes"] == json.loads(
                json.dumps(workloads.SIZES["smoke"][workload]))
            assert info["host"]["nproc"] >= 1
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert f"failed_frac 0 (0/{result['attempted']})" in lines
        rate, _ = run.UNIT_NAMES[workload]
        assert any(line.startswith(f"{rate} ") for line in lines)
    else:
        assert all(m["value"] >= 0 or n == "trace.overhead_frac"
                   for n, m in result["metrics"].items())


@pytest.mark.parametrize("workload", NAMES)
def test_self_times_fit_inside_their_parents(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](5, "smoke", tmp_path, traced=True)
    wl.setup()
    tracer = Tracer()
    try:
        stats = run.closed_loop(wl, 0.01, tracer=tracer, targets=wl.trace_targets(tracer))
    finally:
        wl.close()
    assert stats.failed == 0 and not wl.finish()
    assert len(tracer) > 1
    covered = tracer.child_time()
    for i in range(len(tracer)):
        duration = tracer.end[i] - tracer.start[i]
        assert duration >= 0
        assert covered[i] <= duration + 1e-9
    for stats in tracer.summary().values():
        assert stats.self_s >= -1e-9 and stats.self_s <= stats.total_s + 1e-9


def test_failed_checks_are_counted_and_the_loop_goes_on(tmp_path):
    wl = workloads.WORKLOADS["verify"](5, "smoke", tmp_path)
    wl.setup()
    with Patches() as patches:
        patches.set(workloads, "leaf_sum_difference", lambda params, d: 0)
        stats = run.closed_loop(wl, 0.01)
    assert stats.requests >= 1
    assert stats.failed == stats.requests * wl.sizes["pv_instances"]
    assert wl.finish()


def test_raising_request_counts_all_its_instances(tmp_path):
    wl = workloads.WORKLOADS["verify"](5, "smoke", tmp_path)
    wl.setup()
    real = workloads.mean_plus_fractions
    calls = []

    def flaky(*args):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return real(*args)

    with Patches() as patches:
        patches.set(workloads, "mean_plus_fractions", flaky)
        stats = run.closed_loop(wl, 0.3)
    assert stats.requests >= 2
    assert stats.failed == wl.per_request
    assert any("boom" in p for p in wl.finish())


def test_no_result_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("probe", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_are_a_function_of_the_seed():
    a = workloads.WORKLOADS["verify"](9, "smoke", ROOT / "unused")
    b = workloads.WORKLOADS["verify"](9, "smoke", ROOT / "unused")
    c = workloads.WORKLOADS["verify"](10, "smoke", ROOT / "unused")
    assert a.inputs(2) == b.inputs(2) != c.inputs(2)
