"""Leaf evaluators: perfect, additive-Gaussian, histogram-PDF, and the
analytic random-playout pair.

Every evaluation returns a reward in [0, 1] from Max's perspective
(win = 1, loss = 0). Randomness always comes from the caller-provided
stream, so evaluation is safe to run concurrently and can be replayed by
keying the stream off the node's identity.

Both searches score nodes through `frontier_scorer`, which keys the
stream by (search seed, node state) and returns exactly what `evaluate`
returns on ``KeyedDraws(eval_key(seed) ^ state)``; `evaluate` is the
reference it is tested against.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate
from math import cos, inf, log, pi, sqrt
from pathlib import Path
from random import Random
from typing import Callable, Iterable, NamedTuple, Sequence

from .bitmix import draw_word, mix64, unit
from .tree_model import PLUS, GameParams, Player, player_at, subtree_plus_density

KINDS = ("perfect", "gaussian", "histogram", "playout-l1", "playout-linf")

DEFAULT_SIGMA = 0.3


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
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
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


def perfect() -> HeuristicSpec:
    return HeuristicSpec("perfect")


def gaussian(sigma: float = DEFAULT_SIGMA) -> HeuristicSpec:
    return HeuristicSpec("gaussian", sigma=sigma)


def histogram(pdf: HistogramPdf) -> HeuristicSpec:
    return HeuristicSpec("histogram", histogram=pdf)


def playout_l1() -> HeuristicSpec:
    return HeuristicSpec("playout-l1")


def playout_linf() -> HeuristicSpec:
    return HeuristicSpec("playout-linf")


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


def load_histogram(path: str | Path, label: str | None = None) -> HistogramPdf:
    """Parse a histogram file: bins=<B>, plus=<B reals>, minus=<B reals>."""
    path = Path(path)
    fields: dict[str, str] = {}
    for raw in path.read_text().splitlines():
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
    """Parse a heuristic spec string: perfect | gaussian[:sigma] |
    histogram:<bundled name or file path> | playout-l1 | playout-linf."""
    kind, _, arg = text.strip().partition(":")
    kind = kind.strip().lower()
    if kind == "perfect":
        return perfect()
    if kind == "gaussian":
        return gaussian(float(arg)) if arg else gaussian()
    if kind in ("histogram", "hist"):
        if not arg:
            raise ValueError("histogram heuristic needs a name or path")
        if arg in _bundled_names():
            return histogram(bundled_histogram(arg))
        if Path(arg).is_file():
            return histogram(load_histogram(arg))
        raise ValueError(f"histogram {arg!r} is neither bundled nor a file")
    if kind in ("playout-l1", "playout_l1"):
        return playout_l1()
    if kind in ("playout-linf", "playout_linf"):
        return playout_linf()
    raise ValueError(f"unknown heuristic {text!r}")
