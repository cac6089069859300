"""Machine and environment description recorded with every result.

Everything here is read-only: `/proc/cpuinfo`, the cache entries under
`/sys/devices/system/cpu`, the cgroup's `cpu.max`, and the source tree.
Missing entries are reported as null rather than guessed.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

import numpy as np


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or None


def caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind or "", "")
            out[f"L{level}{suffix}"] = size
    return out


def cgroup_cpu_max() -> str | None:
    for line in (_read("/proc/self/cgroup") or "").splitlines():
        _, _, rel = line.partition("::")
        if rel:
            found = _read(f"/sys/fs/cgroup{rel.rstrip('/')}/cpu.max")
            if found:
                return found
    return _read("/sys/fs/cgroup/cpu.max")


def git_commit(root: Path) -> str | None:
    """HEAD of a checkout that has its own .git; None elsewhere."""
    head = _read(str(root / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    return _read(str(root / ".git" / head[5:]))


def describe(root: Path, src_hash: str) -> dict:
    return {
        "commit": git_commit(root),
        "src_sha256_16": src_hash,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "cgroup_cpu_max": cgroup_cpu_max(),
        "platform": platform.platform(),
    }
