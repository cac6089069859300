"""Line transports for talking to a UCI engine.

LiveTransport drives a real engine subprocess through its standard
streams, with a reader thread so receives can time out. ReplayTransport
walks a recorded transcript instead and fails loudly on the first
deviation, which is what pins the protocol tests to the golden file.
"""

from __future__ import annotations

import queue
import subprocess
import threading
from itertools import chain
from pathlib import Path
from typing import Sequence

# Lines the reader thread holds for the session; past this it waits, so an
# engine that prints faster than the session reads fills its pipe, not memory.
MAX_QUEUED_LINES = 10_000


class EngineTimeout(Exception):
    """The engine produced no line within the allowed time, or never
    finished a reply."""


class ReplayMismatch(Exception):
    """A replayed exchange deviated from the recorded transcript."""


class LiveTransport:
    def __init__(self, argv: Sequence[str], timeout: float = 10.0) -> None:
        self.timeout = timeout
        try:
            self._proc = subprocess.Popen(
                list(argv),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise OSError(f"cannot start engine {argv[0]!r}: {exc}") from exc
        self._lines: queue.Queue[str | None] = queue.Queue(MAX_QUEUED_LINES)
        self._closed = threading.Event()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self._proc.stdout is not None
        lines = (line.rstrip("\n") for line in self._proc.stdout)
        for item in chain(lines, [None]):  # None marks EOF
            while True:
                try:
                    self._lines.put(item, timeout=0.05)
                    break
                except queue.Full:
                    if self._closed.is_set():  # nobody will read it
                        return

    def send(self, line: str) -> None:
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise ReplayMismatch(f"engine pipe closed while sending {line!r}") from exc

    def recv(self, timeout: float | None = None) -> str:
        try:
            line = self._lines.get(timeout=self.timeout if timeout is None else timeout)
        except queue.Empty:
            raise EngineTimeout("engine silent past the timeout") from None
        if line is None:
            raise EngineTimeout("engine closed its output stream")
        return line

    def close(self) -> None:
        self._closed.set()
        if self._proc.poll() is None:
            try:
                self.send("quit")
            except ReplayMismatch:
                pass
            try:
                self._proc.wait(timeout=0.5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._proc.stdin:
            self._proc.stdin.close()
        self._reader.join(timeout=1.0)


class ReplayTransport:
    """Replays a transcript: sends must match recorded commands exactly,
    receives return the recorded replies in order."""

    def __init__(self, transcript: Sequence[tuple[str, str]]) -> None:
        for direction, _ in transcript:
            if direction not in (">", "<"):
                raise ValueError(f"bad transcript direction {direction!r}")
        self._entries = list(transcript)
        self._cursor = 0

    def _next(self) -> tuple[str, str]:
        if self._cursor >= len(self._entries):
            raise ReplayMismatch("ran past the end of the transcript")
        entry = self._entries[self._cursor]
        self._cursor += 1
        return entry

    def send(self, line: str) -> None:
        direction, recorded = self._next()
        if direction != ">":
            raise ReplayMismatch(
                f"sent {line!r} where the transcript expects the reply {recorded!r}"
            )
        if recorded != line:
            raise ReplayMismatch(f"sent {line!r} but the transcript recorded {recorded!r}")

    def recv(self, timeout: float | None = None) -> str:
        direction, recorded = self._next()
        if direction != "<":
            raise ReplayMismatch(
                f"expected a reply but the transcript records the command {recorded!r}"
            )
        return recorded

    def close(self) -> None:
        pass

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._entries)


def save_transcript(entries: Sequence[tuple[str, str]], path: str | Path) -> None:
    lines = [f"{direction} {line}".rstrip() for direction, line in entries]
    Path(path).write_text("\n".join(lines) + "\n")


def load_transcript(path: str | Path) -> list[tuple[str, str]]:
    entries = []
    for raw in Path(path).read_text().splitlines():
        if not raw.strip():
            continue
        direction, _, line = raw.partition(" ")
        if direction not in (">", "<"):
            raise ValueError(f"malformed transcript line: {raw!r}")
        entries.append((direction, line))
    return entries
