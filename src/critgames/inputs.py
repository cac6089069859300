"""Input checks every layer shares: integer ranges and file reads.

Stdlib only, so the UCI engine layer and its mock engine import without
numpy.
"""

from __future__ import annotations

import operator
from pathlib import Path


def checked_int(name: str, value: object, low: int, high: int | None = None) -> int:
    """`value` as an `int` in [low, high], else a ValueError naming `name`.

    Counts pass ``low`` alone; seeds pass ``0, MASK64``. numpy integers
    come back as `int`, so uint64 arithmetic never reaches the mixer;
    booleans are refused, as floats are.
    """
    try:
        number = operator.index(value)
        if not isinstance(value, bool) and low <= number and (high is None or number <= high):
            return number
    except TypeError:  # not an integer
        pass
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def read_text(path: str | Path, what: str) -> str:
    """The text of an input file, else a ValueError naming `what` and the path."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValueError(f"cannot read {what} {path}: {reason}") from exc
