"""Deterministic 64-bit mixing behind all procedural randomness.

Every random decision in the generative models is a pure function of
(seed, path, stream tag), realized with a splitmix64-style finalizer.
The scalar and numpy implementations are kept in lockstep and are
cross-checked bit for bit by the test suite.
"""

from __future__ import annotations

import math
import operator

import numpy as np

MASK64 = (1 << 64) - 1


def checked_int(name: str, value: object, low: int, high: int | None = None) -> int:
    """`value` as an `int` in [low, high], else a ValueError naming `name`.

    Counts pass ``low`` alone; seeds pass ``0, MASK64``. numpy integers
    come back as `int`, so uint64 arithmetic never reaches the mixer.
    """
    try:
        number = operator.index(value)
        if low <= number and (high is None or number <= high):
            return number
    except TypeError:  # not an integer
        pass
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, odd
_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB

# Stream tags, xor'd into a node state to open independent substreams.
DESIGNATED_TAG = 0x2545F4914F6CDD1D
FLIP_TAG = 0xFF51AFD7ED558CCD
COST_TAG = 0xD6E8FEB86659FD93
EVAL_TAG = 0xC4CEB9FE1A85EC53
SELECT_TAG = 0x9FB21C651E98DF25
DECIDE_TAG = 0xE7037ED1A0B428DB

_INV53 = 2.0**-53


def mix64(x: int) -> int:
    """splitmix64 finalizer; a bijection on [0, 2^64)."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MULT_A) & MASK64
    x = ((x ^ (x >> 27)) * _MULT_B) & MASK64
    return x ^ (x >> 31)


def unit(h: int) -> float:
    """Map a 64-bit word to a double in [0, 1)."""
    return (h >> 11) * _INV53


def root_state(seed: int) -> int:
    return mix64(seed ^ GOLDEN)


def child_state(state: int, index: int) -> int:
    # index offset by 1 so child streams never reuse the node's own state
    return mix64(state ^ (((index + 1) * GOLDEN) & MASK64))


def stream_u64(state: int, tag: int) -> int:
    return mix64(state ^ tag)


def indexed_u64(state: int, tag: int, index: int) -> int:
    return mix64(state ^ tag ^ (((index + 1) * _MULT_B) & MASK64))


def eval_key(seed: int) -> int:
    """Base key of a search's evaluation noise; node s draws from
    ``KeyedDraws(eval_key(seed) ^ s.state)`` in every search."""
    return mix64(seed ^ EVAL_TAG)


def draw_word(key: int, index: int) -> int:
    """Draw `index` of ``KeyedDraws(key ^ state)`` is
    ``unit(mix64(state ^ draw_word(key, index)))``, so a search folds its
    key into one word per draw index and mixes each state once per draw."""
    return key ^ EVAL_TAG ^ (((index + 1) * _MULT_B) & MASK64)


class KeyedDraws:
    """Counter-based stand-in for `random.Random` in evaluators.

    Draw i is ``unit(indexed_u64(key, EVAL_TAG, i))``, so every draw is a
    pure function of (key, i) and needs no generator state to seed.
    """

    __slots__ = ("key", "index")

    def __init__(self, key: int) -> None:
        self.key = key
        self.index = 0

    def random(self) -> float:
        """The next draw, in [0, 1)."""
        i = self.index
        self.index = i + 1
        return unit(indexed_u64(self.key, EVAL_TAG, i))

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Normal variate by Box-Muller on the next two draws."""
        u = 1.0 - self.random()  # in (0, 1], so the log is finite
        v = self.random()
        return mu + sigma * math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * v)


# numpy twins; arguments and results are uint64 arrays

_NP_GOLDEN = np.uint64(GOLDEN)
_NP_MULT_A = np.uint64(_MULT_A)
_NP_MULT_B = np.uint64(_MULT_B)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def mix64_inplace(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """`mix64` on the uint64 array `x`, in place; returns `x`.

    `scratch` is a uint64 array of x's shape that the shifts overwrite,
    so a caller mixing block after block allocates nothing per block.
    """
    if scratch is None:
        scratch = np.empty_like(x)
    np.right_shift(x, _S30, out=scratch)
    x ^= scratch
    x *= _NP_MULT_A
    np.right_shift(x, _S27, out=scratch)
    x ^= scratch
    x *= _NP_MULT_B
    np.right_shift(x, _S31, out=scratch)
    x ^= scratch
    return x


def mix64_np(x: np.ndarray) -> np.ndarray:
    return mix64_inplace(x.astype(np.uint64, copy=True))


def root_state_np(seeds: np.ndarray) -> np.ndarray:
    return mix64_inplace(seeds.astype(np.uint64) ^ _NP_GOLDEN)


def child_state_np(states: np.ndarray, index: int | np.ndarray) -> np.ndarray:
    """Child states; `index` is one child index or an array of them, one per state."""
    return mix64_inplace(states ^ child_word(index))


def stream_u64_np(states: np.ndarray, tag: int) -> np.ndarray:
    return mix64_inplace(states ^ np.uint64(tag))


def child_word(index: int | np.ndarray) -> np.ndarray:
    """What `child_state_np` xors into a state before mixing, per index.

    Like `indexed_word`, a 1-d array at least, because numpy warns when
    uint64 scalar arithmetic wraps.
    """
    return (np.atleast_1d(index).astype(np.uint64) + np.uint64(1)) * _NP_GOLDEN


def indexed_word(tag: int, index: int | np.ndarray) -> np.ndarray:
    """What `indexed_u64` xors into a state before mixing, per index, as uint64s."""
    return np.uint64(tag) ^ (np.atleast_1d(index).astype(np.uint64) + np.uint64(1)) * _NP_MULT_B
