"""Helpers for the tests of forked workers: `run_grid` and
`mean_plus_fractions` through `forked.forked_map`."""

import os
import time

import pytest


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch):
    """A list that gains one entry per `os.fork` from now on."""
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    return forked


def fail():
    raise ValueError("stub failed in a child")


def unpicklable():
    raise ValueError(lambda: None)


def in_a_child(child_does, flag, real):
    """A stand-in for the task function `real` that runs `child_does` in a
    forked child. In the caller it first waits until some child has
    touched `flag`, so that a child surely takes a task, then calls `real`."""
    caller = os.getpid()

    def task(*args):
        if os.getpid() != caller:
            flag.touch()
            child_does()
        deadline = time.monotonic() + 60
        while not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return real(*args)

    return task
