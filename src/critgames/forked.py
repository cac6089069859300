"""Forked workers pulling one shared task queue (POSIX only).

`forked_map` runs a function over a list of tasks in the caller and in
forked children. The grid sweeps (`experiments.run_grid`) and the exact
enumeration (`tree_model.mean_plus_fractions`) both use it. The caller
works too, every process takes the next task whenever it is free, and
results come back in task order, so they never depend on the number of
workers or on which process ran which task. `usable_cpus` is the
default worker count of both.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
import traceback
from typing import Callable, Iterable, Iterator, Sequence

_INDEX_BYTES = 8  # one task index in the shared queue


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask
    where the OS has one, else the CPU count. A CPU quota (a cgroup's
    cpu.max) is not counted."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS
        return os.cpu_count() or 1


def _pull(queue: int) -> Iterator[int]:
    """Task indices read from the shared queue until it runs dry.

    The queue is a regular file that every process reads through one
    shared file offset. Each read moves the offset atomically, so each
    index goes to exactly one process, and a read never blocks.
    """
    while entry := os.read(queue, _INDEX_BYTES):
        yield int.from_bytes(entry, "little")


def _serve(run: Callable, tasks: Sequence, queue: int, pipe: int, what: str) -> None:
    """A forked child's whole life: it runs the tasks it pulls, sends the
    pickled ([(index, result), ...], error or None, traceback text) over
    its pipe and exits, never returning into the caller's code."""
    code = 1
    try:
        done, error, trace = [], None, ""
        try:
            for index in _pull(queue):
                done.append((index, run(tasks[index])))
        except BaseException as exc:  # the caller raises it again
            error, trace = exc, traceback.format_exc()
        try:
            payload = pickle.dumps((done, error, trace))
            if error is not None:
                pickle.loads(payload)  # the caller must be able to rebuild it
        except Exception:  # so an exception that does not round-trip goes as its text
            payload = pickle.dumps((done, RuntimeError(f"{what} failed: {error!r}"), trace))
        with open(pipe, "wb") as out:
            out.write(payload)
        code = 0
    finally:
        os._exit(code)


def forked_map(
    run: Callable, tasks: Sequence, workers: int, order: Iterable[int], what: str
) -> list:
    """``[run(task) for task in tasks]``, from the caller and
    ``min(workers, len(tasks)) - 1`` forked children.

    Every process takes the next index of one shared queue, which holds
    `order`, a permutation of the task indices, whenever it is free.
    `what` names a child in error text ("grid worker 4242 died ...").
    A child's exception is raised again here, with its traceback text as
    the cause, and a child that dies raises a RuntimeError. No child
    outlives the call: each is reaped, and killed first if the call fails.
    """
    results: list = [None] * len(tasks)
    pids: list[int] = []
    readers: list[int] = []  # the read end of each child's pipe
    reaped: set[int] = set()
    with tempfile.TemporaryFile() as queue:
        queue.write(b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in order))
        queue.seek(0)
        try:
            for _ in range(min(workers, len(tasks)) - 1):
                reader, writer = os.pipe()
                readers.append(reader)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve(run, tasks, queue.fileno(), writer, what)
                finally:
                    os.close(writer)
                pids.append(pid)
            for index in _pull(queue.fileno()):
                results[index] = run(tasks[index])
            for pid, reader in zip(pids, readers):
                with open(reader, "rb", closefd=False) as pipe:
                    payload = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                reaped.add(pid)
                if code != 0:
                    raise RuntimeError(f"{what} {pid} died with exit code {code}")
                done, error, trace = pickle.loads(payload)
                if error is not None:
                    raise error from ChildProcessError(f"in {what} {pid}:\n{trace}")
                for index, result in done:
                    results[index] = result
        finally:
            for pid in pids:
                if pid not in reaped:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            for reader in readers:
                os.close(reader)
    return results
