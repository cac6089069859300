"""Leaf evaluators: perfect, additive-Gaussian, histogram-PDF, and the
analytic random-playout pair.

Every evaluation returns a reward in [0, 1] from Max's perspective
(win = 1, loss = 0). Randomness always comes from the caller-provided
stream, so evaluation is safe to run concurrently and can be replayed by
keying the stream off the node's identity.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .tree_model import PLUS, GameParams, Player, subtree_plus_density

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
            if any(w < 0 for w in weights):
                raise ValueError(f"negative weight in class {name}")
            total = sum(weights)
            if total <= 0:
                raise ValueError(f"class {name} has zero total weight")
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"class {name} weights must sum to 1")
        object.__setattr__(self, "_plus_cum", _cumulative(self.plus_weights))
        object.__setattr__(self, "_minus_cum", _cumulative(self.minus_weights))

    @property
    def bin_count(self) -> int:
        return len(self.plus_weights)

    def weights(self, value_class: int) -> tuple[float, ...]:
        return self.plus_weights if value_class == PLUS else self.minus_weights

    def sample(self, value_class: int, rng: Random) -> float:
        """Inverse-CDF draw from the class distribution, uniform within a bin."""
        weights = self.weights(value_class)
        cum = self._plus_cum if value_class == PLUS else self._minus_cum
        u = rng.random()
        i = min(bisect.bisect_right(cum, u), len(weights) - 1)
        while weights[i] == 0.0:  # float-boundary edge; never lands mid-bin
            i += 1
        low = cum[i - 1] if i else 0.0
        return (i + (u - low) / weights[i]) / len(weights)

    def mean(self, value_class: int) -> float:
        weights = self.weights(value_class)
        b = len(weights)
        return sum(w * (i + 0.5) / b for i, w in enumerate(weights))


def _cumulative(weights: Sequence[float]) -> tuple[float, ...]:
    out, total = [], 0.0
    for w in weights:
        total += w
        out.append(total)
    out[-1] = 1.0
    return tuple(out)


def normalized(weights: Iterable[float]) -> tuple[float, ...]:
    ws = tuple(float(w) for w in weights)
    if any(w < 0 for w in ws):
        raise ValueError("negative weight")
    total = sum(ws)
    if total <= 0:
        raise ValueError("zero total weight")
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
