"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent). Spans are opened and closed by
wrappers that the benchmark installs at the places where callers look
up the package's public callables, so nothing inside the package is
edited. Spans stay in compact arrays until the run ends; only then are
calls, total time and self time (duration minus the time covered by
direct children) summed per name.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """fn timed as span `name`; after(result, *args) may record counts."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return covered

    def summary(self) -> dict[str, NameStats]:
        covered = self.child_time()
        stats = {name: NameStats() for name in self.names}
        for i, nid in enumerate(self.name_of):
            entry = stats[self.names[nid]]
            dur = self.end[i] - self.start[i]
            entry.calls += 1
            entry.total_s += dur
            entry.self_s += dur - covered[i]
        return stats


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()
