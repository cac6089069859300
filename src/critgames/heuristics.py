"""Leaf evaluators: perfect, additive-Gaussian, histogram-PDF, and the
analytic random-playout pair.

Every evaluation returns a reward in [0, 1] from Max's perspective
(win = 1, loss = 0). Randomness always comes from the caller-provided
stream, so evaluation is safe to run concurrently and can be replayed by
keying the stream off the node's identity.

Both searches score nodes through `frontier_scorer`, which keys the
stream by (search seed, node state) and returns exactly what `evaluate`
returns on ``KeyedDraws(eval_key(seed) ^ state)``; `evaluate` is the
reference it is tested against. `frontier_scorer_np` scores a whole
level of one or many trees at once, bit for bit as `frontier_scorer`
does. Its rough mode may miss that by `rough_slack` per leaf: the
Gaussian then takes numpy's `log` and `cos`, which need not round as
libm's do, and the other kinds stay exact with slack 0.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate
from math import ceil, cos, inf, log, pi, sqrt
from pathlib import Path
from random import Random
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .bitmix import draw_word, mix64, mix64_inplace, unit, unit_np
from .inputs import read_text
from .tree_model import MINUS, PLUS, GameParams, Player, player_at, subtree_plus_density

KINDS = ("perfect", "gaussian", "histogram", "playout-l1", "playout-linf")

DEFAULT_SIGMA = 0.3

_CELL_SHIFT = np.uint64(41)  # a merged draw key has 54 bits; its top 13 pick a bin-table cell
_CLASS_SHIFT = np.uint64(53)
_MANTISSA_SHIFT = np.uint64(11)


@dataclass(frozen=True)
class HistogramPdf:
    """Two weight vectors over uniform bins of [0, 1], one per node class."""

    plus_weights: tuple[float, ...]
    minus_weights: tuple[float, ...]
    label: str = "hist"
    _plus_cum: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _minus_cum: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.plus_weights) != len(self.minus_weights):
            raise ValueError("class weight vectors must have equal length")
        if len(self.plus_weights) < 2:
            raise ValueError("need at least 2 bins")
        for name, weights in (("plus", self.plus_weights), ("minus", self.minus_weights)):
            if abs(_checked_total(weights, f" in class {name}") - 1.0) > 1e-9:
                raise ValueError(f"class {name} weights must sum to 1")
        object.__setattr__(self, "_plus_cum", _cumulative(self.plus_weights))
        object.__setattr__(self, "_minus_cum", _cumulative(self.minus_weights))

    @property
    def bin_count(self) -> int:
        return len(self.plus_weights)

    def weights(self, value_class: int) -> tuple[float, ...]:
        return self.plus_weights if value_class == PLUS else self.minus_weights

    def quantile(self, value_class: int, u: float) -> float:
        """Inverse CDF of the class distribution at u in [0, 1), uniform within a bin."""
        if value_class == PLUS:
            weights, cum = self.plus_weights, self._plus_cum
        else:
            weights, cum = self.minus_weights, self._minus_cum
        # the first bin whose running sum exceeds u; it has positive weight,
        # because a zero bin repeats its predecessor's sum and the sums are
        # 1.0 from the last positive bin on
        i = bisect_right(cum, u)
        low = cum[i - 1] if i else 0.0
        return (i + (u - low) / weights[i]) / len(weights)

    @functools.cached_property
    def _bin_table(self) -> tuple[np.ndarray, ...]:
        """What `quantile_np` reads: thresholds, the cell table and per-bin terms.

        Draw word h maps to the merged key ``(h >> 11) | plus << 53``. The
        draw ``u = (h >> 11) * 2^-53`` reaches the running sum c exactly
        when ``h >> 11 >= ceil(c * 2^53)``, so bin j of the merged classes
        (-1 bins, then +1 bins) is the count of merged thresholds at or
        below the key. The table holds that count for every 2^41-key cell
        that no threshold splits, and -1 for the others.
        """
        scale = 2.0**53
        thresholds = np.array(
            [ceil(c * scale) for c in self._minus_cum]
            + [ceil(c * scale) + 2**53 for c in self._plus_cum],
            dtype=np.uint64,
        )
        lows = np.arange(2**13, dtype=np.uint64) << _CELL_SHIFT
        first = np.searchsorted(thresholds, lows, side="right")
        last = np.searchsorted(thresholds, lows + np.uint64(2**41 - 1), side="right")
        table = np.where(first == last, first, -1)
        bins = np.arange(self.bin_count, dtype=np.float64)
        below = [np.asarray((0.0,) + cum[:-1]) for cum in (self._minus_cum, self._plus_cum)]
        return (
            thresholds, table, np.concatenate((bins, bins)), np.concatenate(below),
            np.asarray(self.minus_weights + self.plus_weights),
        )

    def quantile_np(self, plus: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``quantile(PLUS if plus else MINUS, unit(h))`` for each +1 flag and
        uint64 draw word, bit for bit: the bin comes from one table lookup,
        or a search in the few table cells that a bin edge splits, and the
        arithmetic repeats `quantile`'s in its order."""
        thresholds, table, bins, below, weights = self._bin_table
        m = h >> _MANTISSA_SHIFT
        key = m | (plus.astype(np.uint64) << _CLASS_SHIFT)
        j = table[key >> _CELL_SHIFT]
        split = np.flatnonzero(j < 0)
        j[split] = np.searchsorted(thresholds, key[split], side="right")
        u = m.astype(np.float64) * 2.0**-53  # unit(h), exactly
        return (bins[j] + (u - below[j]) / weights[j]) / self.bin_count

    def sample(self, value_class: int, rng: Random) -> float:
        """Inverse-CDF draw from the class distribution."""
        return self.quantile(value_class, rng.random())

    def mean(self, value_class: int) -> float:
        weights = self.weights(value_class)
        b = len(weights)
        return sum(w * (i + 0.5) / b for i, w in enumerate(weights))


def _cumulative(weights: Sequence[float]) -> tuple[float, ...]:
    """Running sums, set to 1.0 from the last positive-weight bin on.

    Sums that round below 1 would otherwise leave draws in [sum, 1) to
    trailing zero-weight bins.
    """
    out = list(accumulate(weights))
    last = max(i for i, w in enumerate(weights) if w > 0)
    out[last:] = [1.0] * (len(out) - last)
    return tuple(out)


def _checked_total(weights: Sequence[float], where: str = "") -> float:
    """Sum of `weights`, which must be finite, non-negative and not all zero;
    `where` ends the error message."""
    if not all(0.0 <= w < inf for w in weights):  # NaN fails too
        raise ValueError(f"negative or non-finite weight{where}")
    total = sum(weights)
    if total <= 0:
        raise ValueError(f"zero total weight{where}")
    return total


def normalized(weights: Iterable[float]) -> tuple[float, ...]:
    ws = tuple(float(w) for w in weights)
    total = _checked_total(ws)
    return tuple(w / total for w in ws)


@dataclass(frozen=True)
class HeuristicSpec:
    kind: str
    sigma: float = DEFAULT_SIGMA
    histogram: HistogramPdf | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown heuristic kind {self.kind!r}")
        if not 0 <= self.sigma < inf:  # NaN fails too
            raise ValueError(f"sigma must be >= 0 and finite, got {self.sigma!r}")
        if (self.histogram is None) == (self.kind == "histogram"):
            raise ValueError("histogram data required exactly for the histogram kind")

    @property
    def label(self) -> str:
        if self.kind == "gaussian":
            return f"gaussian({self.sigma:g})"
        if self.kind == "histogram":
            assert self.histogram is not None
            return f"hist:{self.histogram.label}"
        return self.kind


def gaussian(sigma: float = DEFAULT_SIGMA) -> HeuristicSpec:
    return HeuristicSpec("gaussian", sigma=sigma)


def histogram(pdf: HistogramPdf) -> HeuristicSpec:
    return HeuristicSpec("histogram", histogram=pdf)


class EvalContext(NamedTuple):
    """What an evaluator may know of a node; built once per evaluation."""

    value: int
    player: Player
    depth: int
    params: GameParams


def evaluate(spec: HeuristicSpec, ctx: EvalContext, rng: Random) -> float:
    """Reward estimate in [0, 1] for the node described by ctx."""
    if spec.kind == "perfect":
        return 1.0 if ctx.value == PLUS else 0.0
    if spec.kind == "gaussian":
        base = 1.0 if ctx.value == PLUS else 0.0
        return min(1.0, max(0.0, base + rng.gauss(0.0, spec.sigma)))
    if spec.kind == "histogram":
        assert spec.histogram is not None
        return spec.histogram.sample(ctx.value, rng)
    remaining = ctx.params.max_depth - ctx.depth
    density = subtree_plus_density(ctx.params, ctx.value, ctx.player, remaining)
    if spec.kind == "playout-linf":
        return density
    return 1.0 if rng.random() < density else 0.0  # playout-l1


def frontier_scorer(
    spec: HeuristicSpec, params: GameParams, key: int
) -> Callable[[int, int, int], float]:
    """score(depth, value, state): Max's reward at a node of `params`.

    Bit for bit ``evaluate(spec, EvalContext(value, player_at(depth),
    depth, params), KeyedDraws(key ^ state))``, except that a terminal
    node scores its true utility. The kind dispatch and the draw words
    are fixed here, once per search, so a call costs at most two mixes;
    the playout kinds tabulate their density per (depth, value) as they go.
    """
    max_depth = params.max_depth
    word0, word1 = draw_word(key, 0), draw_word(key, 1)
    kind = spec.kind

    if kind == "perfect":
        # terminal or not, the true utility
        def score(depth: int, value: int, state: int) -> float:
            return 1.0 if value == PLUS else 0.0

    elif kind == "gaussian":
        sigma = spec.sigma

        def score(depth: int, value: int, state: int) -> float:
            base = 1.0 if value == PLUS else 0.0
            if depth >= max_depth:
                return base
            # KeyedDraws.gauss(0.0, sigma): 0.0 + x only turns -0.0 into
            # 0.0, which base + x does anyway
            u = 1.0 - unit(mix64(state ^ word0))
            v = unit(mix64(state ^ word1))
            return min(1.0, max(0.0, base + sigma * sqrt(-2.0 * log(u)) * cos(2.0 * pi * v)))

    elif kind == "histogram":
        assert spec.histogram is not None
        quantile = spec.histogram.quantile

        def score(depth: int, value: int, state: int) -> float:
            if depth >= max_depth:
                return 1.0 if value == PLUS else 0.0
            return quantile(value, unit(mix64(state ^ word0)))

    else:
        # `subtree_plus_density` costs O(remaining), so it is tabulated per
        # (depth, value), for this search only. At a terminal it is 1.0 or
        # 0.0, the true utility, and every draw in [0, 1) keeps it.
        @functools.cache
        def density(depth: int, value: int) -> float:
            return subtree_plus_density(params, value, player_at(depth), max_depth - depth)

        if kind == "playout-linf":

            def score(depth: int, value: int, state: int) -> float:
                return density(depth, value)

        else:  # playout-l1

            def score(depth: int, value: int, state: int) -> float:
                return 1.0 if unit(mix64(state ^ word0)) < density(depth, value) else 0.0

    return score


def cosine_negative(angles: np.ndarray) -> np.ndarray:
    """``math.cos(x) < 0`` for each double x in [0, 2*pi), exactly.

    The doubles pi/2 and 3*pi/2 lie just below the real zeros of the
    cosine, and no double is a zero, so the sign flips between each of
    them and the next double up.
    """
    return (angles > pi / 2) & (angles <= 3 * pi / 2)


def rough_slack(spec: HeuristicSpec, params: GameParams, depth: int) -> float:
    """Bound on |rough - exact| for any leaf that `frontier_scorer_np`'s
    rough mode scores at `depth`.

    Only a Gaussian level short of `max_depth` is rough, with slack
    (1 + sigma) * 2^-40. There the two modes differ only in the last
    ulps of log and cos, so the noise, whose radius sqrt(-2 log u) is at
    most 8.6, moves by a few sigma * 1e-16, and base + noise rounds once
    more; clipping to [0, 1] is 1-Lipschitz. The largest gap measured
    over 10^6 draws per sigma was 3.3e-16 (sigma = 40), and the tests
    fail at slack / 256.
    """
    if spec.kind == "gaussian" and depth < params.max_depth:
        return (1.0 + spec.sigma) * 2.0**-40
    return 0.0


def frontier_scorer_np(
    spec: HeuristicSpec, params: GameParams, keys: Sequence[int]
) -> Callable[..., np.ndarray]:
    """score(depth, plus, states, rough=False): `frontier_scorer` over a
    level of n trees.

    `keys` holds one key per tree, and the level is seed-minor: node k
    belongs to tree k % n, whose draw words are xored in as
    ``states.reshape(-1, n) ^ words``. `plus` flags the +1 nodes at `depth`
    and `states` holds their states; the result is a float64 array, bit
    for bit the scalar scorer's value at each node under its tree's key.
    The trees share `params` but for their seeds, which no score reads.
    The histogram reads its bins through `HistogramPdf.quantile_np`. The
    Gaussian takes the cosine's sign from `cosine_negative` and maps
    `math.cos` and `math.log` over only the nodes whose clip that sign
    leaves open, because numpy's log and cos may round differently; sqrt
    and the products are exactly rounded either way. With rough=True it
    takes numpy's log and cos over the same leaves instead, so each value
    lies within `rough_slack` of the exact one.
    """
    max_depth = params.max_depth
    n = len(keys)
    words = [np.array([draw_word(key, i) for key in keys], dtype=np.uint64) for i in (0, 1)]
    kind = spec.kind

    def utility(
        depth: int, plus: np.ndarray, states: np.ndarray, rough: bool = False
    ) -> np.ndarray:
        return plus.astype(np.float64)

    def keyed(states: np.ndarray, index: int) -> np.ndarray:
        """Each state xored with its tree's word for draw `index`, flat."""
        return (states.reshape(-1, n) ^ words[index]).reshape(-1)

    def draws(states: np.ndarray, index: int) -> np.ndarray:
        return unit_np(mix64_inplace(keyed(states, index)))

    if kind == "perfect":  # terminal or not, the true utility
        return utility
    if kind == "gaussian":
        sigma = spec.sigma

        def noisy(depth: int, plus: np.ndarray, states: np.ndarray, rough: bool) -> np.ndarray:
            angles = 2.0 * pi * draws(states, 1)
            # the noise has the cosine's sign; noise >= 0 clips a +1 node to 1 and
            # noise <= 0 a -1 node to 0, so only the other nodes need cos and log
            live = np.flatnonzero(cosine_negative(angles) == plus)
            u = unit_np(mix64_inplace(keyed(states, 0)[live]))
            if rough:
                cosines, logs = np.cos(angles[live]), np.log(1.0 - u)
            else:
                cosines = np.fromiter(map(cos, angles[live].tolist()), np.float64, live.size)
                logs = np.fromiter(map(log, (1.0 - u).tolist()), np.float64, live.size)
            out = plus.astype(np.float64)
            noise = sigma * np.sqrt(-2.0 * logs) * cosines
            out[live] = np.minimum(1.0, np.maximum(0.0, out[live] + noise))
            return out

    elif kind == "histogram":
        assert spec.histogram is not None
        quantile_np = spec.histogram.quantile_np

        def noisy(depth: int, plus: np.ndarray, states: np.ndarray, rough: bool) -> np.ndarray:
            return quantile_np(plus, mix64_inplace(keyed(states, 0)))

    else:  # the playout kinds

        def noisy(depth: int, plus: np.ndarray, states: np.ndarray, rough: bool) -> np.ndarray:
            minus_density, plus_density = (
                subtree_plus_density(params, value, player_at(depth), max_depth - depth)
                for value in (MINUS, PLUS)
            )
            density = np.where(plus, plus_density, minus_density)
            if kind == "playout-linf":
                return density
            return (draws(states, 0) < density).astype(np.float64)

    def score(
        depth: int, plus: np.ndarray, states: np.ndarray, rough: bool = False
    ) -> np.ndarray:
        return (utility if depth >= max_depth else noisy)(depth, plus, states, rough)

    return score


def load_histogram(path: str | Path, label: str | None = None) -> HistogramPdf:
    """Parse a histogram file: bins=<B>, plus=<B reals>, minus=<B reals>."""
    path = Path(path)
    fields: dict[str, str] = {}
    for raw in read_text(path, "histogram file").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed histogram line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise ValueError(f"duplicate histogram key: {key}")
        fields[key] = value.strip()
    unknown = set(fields) - {"bins", "plus", "minus"}
    if unknown:
        raise ValueError(f"unknown histogram keys: {sorted(unknown)}")
    missing = {"bins", "plus", "minus"} - set(fields)
    if missing:
        raise ValueError(f"missing histogram keys: {sorted(missing)}")
    try:
        bins = int(fields["bins"])
        plus = tuple(float(x) for x in fields["plus"].split())
        minus = tuple(float(x) for x in fields["minus"].split())
    except ValueError as exc:
        raise ValueError(f"malformed histogram value: {exc}") from exc
    if len(plus) != bins or len(minus) != bins:
        raise ValueError(f"expected {bins} weights per class, got {len(plus)}/{len(minus)}")
    return HistogramPdf(normalized(plus), normalized(minus), label or path.stem)


def save_histogram(pdf: HistogramPdf, path: str | Path, comment: str | None = None) -> None:
    lines = []
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    lines.append(f"bins={pdf.bin_count}")
    lines.append("plus=" + " ".join(f"{w:.9g}" for w in pdf.plus_weights))
    lines.append("minus=" + " ".join(f"{w:.9g}" for w in pdf.minus_weights))
    Path(path).write_text("\n".join(lines) + "\n")


@functools.cache
def bundled_histogram(name: str) -> HistogramPdf:
    """Load a histogram shipped with the package, e.g. 'chess_p10_light'.

    Package data never changes and a HistogramPdf is immutable, so each
    name is read once per process; file-path histograms are not cached.
    """
    ref = resources.files("critgames.data") / f"{name}.hist"
    with resources.as_file(ref) as path:
        return load_histogram(path, label=name)


@functools.cache
def _bundled_names() -> frozenset[str]:
    """Names of the histograms shipped with the package, listed once per process."""
    return frozenset(
        entry.name.removesuffix(".hist")
        for entry in resources.files("critgames.data").iterdir()
        if entry.name.endswith(".hist")
    )


def parse_heuristic(text: str) -> HeuristicSpec:
    """Parse a heuristic's one spelling: perfect | gaussian[:SIGMA] | histogram:NAME|PATH
    | playout-l1 | playout-linf. Other names or letter cases, whitespace around the kind
    or SIGMA, and arguments on the kinds that take none are refused."""
    kind, sep, arg = text.partition(":")
    if kind in KINDS and kind != "histogram" and not sep:
        return HeuristicSpec(kind)
    if kind == "gaussian" and arg and arg == arg.strip():
        return gaussian(float(arg))
    if kind == "histogram":
        if not arg:
            raise ValueError("histogram heuristic needs a name or path")
        if arg in _bundled_names():
            return histogram(bundled_histogram(arg))
        if Path(arg).is_file():
            return histogram(load_histogram(arg))
        raise ValueError(f"histogram {arg!r} is neither bundled nor a file")
    raise ValueError(f"unknown heuristic {text!r}")


def heuristic_key(text: str) -> str:
    """What identifies the heuristic that `text` parses to: the text itself,
    but a histogram file's weights, so every path to a file, and every file
    with equal weights, names one heuristic. Bundled names keep their text."""
    kind, _, arg = text.partition(":")
    if kind != "histogram" or arg in _bundled_names():
        return text
    pdf = parse_heuristic(text).histogram
    assert pdf is not None
    return f"histogram={pdf.plus_weights!r};{pdf.minus_weights!r}"
