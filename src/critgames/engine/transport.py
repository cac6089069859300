"""Line transports for talking to a UCI engine.

LiveTransport drives a real engine subprocess through its standard
streams, UTF-8 both ways whatever the host's locale. A receive waits on
the engine's stdout with `select`, so each line has a deadline without a
second thread; `select` on pipes makes this transport POSIX only.
ReplayTransport walks a recorded transcript instead and fails loudly on
the first deviation, which is what pins the protocol tests to the golden
file.
"""

from __future__ import annotations

import os
import select
import subprocess
import time
from pathlib import Path
from typing import Sequence

# Bytes taken from the engine's pipe per read, and the longest line the
# transport accepts. Unread output waits in the pipe, so the transport
# holds at most two chunks: a line and the chunk that ends it.
READ_CHUNK = 65_536


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
            )
        except OSError as exc:
            raise OSError(f"cannot start engine {argv[0]!r}: {exc}") from exc
        self._fd = self._proc.stdout.fileno()
        self._buffer = bytearray()
        self._eof = False

    def send(self, line: str) -> None:
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.write((line + "\n").encode())
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise ReplayMismatch(f"engine pipe closed while sending {line!r}") from exc

    def recv(self, timeout: float | None = None) -> str:
        deadline = time.monotonic() + (self.timeout if timeout is None else timeout)
        buffer = self._buffer
        while (end := buffer.find(b"\n")) < 0 and not self._eof and len(buffer) <= READ_CHUNK:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self._fd], [], [], left)[0]:
                raise EngineTimeout("engine silent past the timeout")
            chunk = os.read(self._fd, READ_CHUNK)
            buffer += chunk
            self._eof = not chunk
        if end < 0:  # a last line without a newline still counts
            if not buffer:
                raise EngineTimeout("engine closed its output stream")
            end = len(buffer)
        if end > READ_CHUNK:
            raise ValueError(f"engine sent a line longer than {READ_CHUNK} bytes")
        raw = bytes(buffer[:end])
        del buffer[: end + 1]
        try:
            return raw.removesuffix(b"\r").decode()
        except UnicodeDecodeError:
            raise ValueError(f"engine sent a line that is not UTF-8: {raw[:40]!r}") from None

    def close(self) -> None:
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
        for stream in (self._proc.stdin, self._proc.stdout):
            if stream:
                stream.close()


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
