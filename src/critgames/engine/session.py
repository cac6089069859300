"""Conversation layer over a UCI engine for critical-rate probing.

The session performs the handshake with a fixed, ordered option block,
then exposes the probe primitives: position evaluation at a given
depth, legal-move listing, random position sampling, the empirical
critical-rate estimate, and shallow-eval histogram construction. Every
byte exchanged is recorded so a run can be replayed and diffed.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from typing import Literal, Sequence

from ..bitmix import checked_int
from ..heuristics import HistogramPdf, normalized
from .transport import EngineTimeout

log = logging.getLogger("critgames.engine")

# Ordered option block applied on every handshake. MultiPV is filled in
# from the probe configuration; overrides replace entries by name.
DEFAULT_OPTIONS: tuple[tuple[str, str], ...] = (
    ("Contempt", "24"),
    ("Threads", "1"),
    ("Hash", "16"),
    ("Ponder", "false"),
    ("MultiPV", "1"),
    ("Skill Level", "20"),
    ("Move Overhead", "10"),
    ("Slow Mover", "100"),
    ("nodestime", "0"),
    ("UCI_Chess960", "false"),
    ("UCI_AnalyseMode", "false"),
    ("UCI_LimitStrength", "false"),
    ("UCI_Elo", "1350"),
    ("UCI_ShowWDL", "false"),
    ("SyzygyProbeDepth", "1"),
    ("Syzygy50MoveRule", "true"),
    ("SyzygyProbeLimit", "7"),
    ("Use NNUE", "false"),
    ("EvalFile", "nn-62ef826d1a6d.nnue"),
)

CRITICAL_RATE_HEADER = "fen,b,parent_sign,gamma_tilde"

# MultiPV ceiling used for the move-list fallback; no legal chess
# position has more moves than this.
_FALLBACK_MULTIPV = 500

# Most lines read for one reply before the engine is given up on. Far
# above what the handshake, a fixed-depth search or a perft listing
# prints, so only an engine that streams without ever finishing its
# reply reaches it.
MAX_REPLY_LINES = 100_000


def _field(tokens: list[str], name: str, offset: int = 1) -> str:
    """The token `offset` places after `name`; ValueError if the line ends first."""
    at = tokens.index(name) + offset
    if at >= len(tokens):
        raise ValueError(f"line ends before the value of {name!r}")
    return tokens[at]


@dataclass(frozen=True)
class Position:
    """A position addressed the UCI way: a start anchor plus moves."""

    fen: str | None = None
    moves: tuple[str, ...] = ()

    def command(self) -> str:
        anchor = "startpos" if self.fen is None else f"fen {self.fen}"
        if self.moves:
            return f"position {anchor} moves {' '.join(self.moves)}"
        return f"position {anchor}"

    def identifier(self) -> str:
        # The stable id used in CSV output; no move generation happens
        # client side, so move-list positions keep the move-list form.
        return self.command()[len("position "):]

    def child(self, move: str) -> "Position":
        return replace(self, moves=self.moves + (move,))


@dataclass(frozen=True)
class ProbeConfig:
    plies: int = 1
    mode: Literal["light", "heavy"] = "light"
    samples: int = 10
    seed: int = 0
    deep_depth: int = 20
    child_depth: int = 19
    heavy_depth: int = 10
    multipv: int = 3
    hist_bins: int = 64
    use_perft: bool = True
    timeout: float = 10.0
    options: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        for name, low in (("plies", 0), ("samples", 1), ("deep_depth", 1), ("child_depth", 1),
                          ("heavy_depth", 1), ("multipv", 1), ("hist_bins", 1)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), low))
        if self.mode not in ("light", "heavy"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def resolved_options(self) -> tuple[tuple[str, str], ...]:
        base = [
            (name, str(self.multipv) if name == "MultiPV" else value)
            for name, value in DEFAULT_OPTIONS
        ]
        index = {name: i for i, (name, _) in enumerate(base)}
        for name, value in self.options:
            if name in index:
                base[index[name]] = (name, value)
            else:
                base.append((name, value))
        return tuple(base)


@dataclass(frozen=True)
class EvalRecord:
    """One scored line from an engine search reply."""

    move: str | None
    kind: Literal["cp", "mate"]
    score: int

    @property
    def sign(self) -> int:
        if self.kind == "mate":
            # mate 0 means the side to move is mated right now
            return 1 if self.score > 0 else -1
        return (self.score > 0) - (self.score < 0)

    @property
    def unit_value(self) -> float:
        """Win probability proxy on [0, 1] from the side to move."""
        if self.kind == "mate":
            return 1.0 if self.score > 0 else 0.0
        return 1.0 / (1.0 + 10.0 ** (-self.score / 400.0))


def _ranked_moves(slots: dict[int, EvalRecord]) -> tuple[str, ...]:
    """The moves of the scored slots in rank order; moveless slots are left out."""
    return tuple(rec.move for _, rec in sorted(slots.items()) if rec.move is not None)


@dataclass(frozen=True)
class CriticalRateRecord:
    position: str
    b: int
    parent_sign: int
    child_signs: tuple[int, ...]
    gamma: float | None
    excluded: int = 0
    clamped: bool = False
    skip_reason: str | None = None


@dataclass
class HistogramReport:
    pdf: HistogramPdf
    plus_count: int
    minus_count: int
    dropped: int


class EngineSession:
    """One probed engine process (or its replayed transcript)."""

    def __init__(self, transport, cfg: ProbeConfig) -> None:
        self.transport = transport
        self.cfg = cfg
        self.transcript: list[tuple[str, str]] = []
        self.warnings: list[str] = []
        self._multipv = cfg.multipv
        self._legal_cache: dict[str, tuple[str, ...]] = {}
        self._eval_cache: dict[tuple[str, int, int], dict[int, EvalRecord]] = {}

    # -- raw line IO, recorded -------------------------------------------

    def _send(self, line: str) -> None:
        self.transcript.append((">", line))
        self.transport.send(line)

    def _recv(self) -> str:
        line = self.transport.recv(timeout=self.cfg.timeout)
        self.transcript.append(("<", line))
        return line

    def _exchange(self, command: str, terminator: str) -> list[str]:
        """Sends `command` and returns its reply lines up to and including
        the first that starts with `terminator`; EngineTimeout if none does
        within MAX_REPLY_LINES. Options the engine rejects go to `warnings`."""
        self._send(command)
        lines = []
        for _ in range(MAX_REPLY_LINES):
            line = self._recv()
            if line.startswith("info string No such option"):
                self.warnings.append(line)
                log.warning("engine rejected an option: %s", line)
            lines.append(line)
            if line.startswith(terminator):
                return lines
        raise EngineTimeout(f"no end to the reply to {command!r} within {MAX_REPLY_LINES} lines")

    # -- protocol steps --------------------------------------------------

    def handshake(self) -> None:
        self._exchange("uci", "uciok")
        for name, value in self.cfg.resolved_options():
            self._send(f"setoption name {name} value {value}")
        self._multipv = self.cfg.multipv
        self._send("ucinewgame")
        self._exchange("isready", "readyok")

    def _set_multipv(self, value: int) -> None:
        if value != self._multipv:
            self._send(f"setoption name MultiPV value {value}")
            self._multipv = value

    def probe_eval(self, position: Position, depth: int) -> dict[int, EvalRecord]:
        """Searches the position to a fixed depth; returns the final
        scored line per multipv slot, keyed by slot rank.

        Bound results (lowerbound/upperbound) are transient and skipped;
        within a slot the last full line wins. Scores follow the UCI
        convention: from the side to move in the probed position.
        Info lines with a field cut short or a number that does not
        parse are skipped and recorded in `warnings`.
        """
        key = (position.command(), depth, self._multipv)
        cached = self._eval_cache.get(key)
        if cached is not None:
            return cached
        self._send(position.command())
        slots: dict[int, EvalRecord] = {}
        for line in self._exchange(f"go depth {depth}", "bestmove"):
            tokens = line.split()
            if not tokens or tokens[0] != "info" or "score" not in tokens:
                continue
            if "lowerbound" in tokens or "upperbound" in tokens:
                continue
            try:
                slot = int(_field(tokens, "multipv")) if "multipv" in tokens else 1
                kind = _field(tokens, "score")
                if kind not in ("cp", "mate"):
                    continue
                score = int(_field(tokens, "score", 2))
                move = _field(tokens, "pv") if "pv" in tokens else None
            except ValueError as exc:
                self.warnings.append(line)
                log.warning("skipped malformed engine line (%s): %s", exc, line)
                continue
            slots[slot] = EvalRecord(move=move, kind=kind, score=score)
        self._eval_cache[key] = slots
        return slots

    def legal_moves(self, position: Position) -> tuple[str, ...]:
        """Lists legal moves via `go perft 1` when the engine supports
        it, otherwise through a wide multipv depth-1 search."""
        cached = self._legal_cache.get(position.command())
        if cached is not None:
            return cached
        if self.cfg.use_perft:
            moves = self._perft_moves(position)
        else:
            moves = self._multipv_moves(position)
        self._legal_cache[position.command()] = moves
        return moves

    def _perft_moves(self, position: Position) -> tuple[str, ...]:
        self._send(position.command())
        moves = []
        for line in self._exchange("go perft 1", "Nodes searched"):
            head, sep, tail = line.partition(":")
            if sep and head and " " not in head and tail.strip().isdigit():
                moves.append(head)
        return tuple(moves)

    def _multipv_moves(self, position: Position) -> tuple[str, ...]:
        restore = self._multipv
        self._set_multipv(_FALLBACK_MULTIPV)
        slots = self.probe_eval(position, 1)
        self._set_multipv(restore)
        return _ranked_moves(slots)

    # -- probe operations ------------------------------------------------

    def sample_positions(self, count: int, plies: int) -> list[Position]:
        """Draws positions by random walks of the given length from the
        initial position. Light mode walks uniformly over all legal
        moves; heavy mode walks uniformly over the top engine lines at
        the heavy search depth. Walks that reach a finished game before
        the target ply are discarded and redrawn."""
        rng = random.Random(self.cfg.seed)
        out: list[Position] = []
        attempts = 0
        while len(out) < count:
            attempts += 1
            if attempts > 20 * count + 100:
                raise RuntimeError("too many aborted sampling walks")
            pos = Position()
            ok = True
            for _ in range(plies):
                candidates = self._walk_candidates(pos)
                if not candidates:
                    ok = False
                    break
                pos = pos.child(candidates[rng.randrange(len(candidates))])
            if ok:
                out.append(pos)
        return out

    def _walk_candidates(self, position: Position) -> tuple[str, ...]:
        if self.cfg.mode == "light":
            return self.legal_moves(position)
        return _ranked_moves(self.probe_eval(position, self.cfg.heavy_depth))

    def empirical_gamma(self, position: Position) -> CriticalRateRecord:
        """Estimates the critical rate at one position: the fraction of
        non-best children whose sign at the shallower depth disagrees
        with the parent's deep sign.

        Signs are taken from the mover's perspective, so each child
        score (reported for the opponent to move) is negated. Children
        with sign zero are excluded and the divisor shrinks; the
        estimate is clamped into [0, 1]."""
        ident = position.identifier()
        parent = self.probe_eval(position, self.cfg.deep_depth).get(1)
        parent_sign = parent.sign if parent is not None else 0
        if parent_sign == 0:
            return CriticalRateRecord(
                ident, 0, 0, (), None, skip_reason="parent sign indeterminate"
            )
        if parent_sign < 0:
            return CriticalRateRecord(
                ident, 0, parent_sign, (), None,
                skip_reason="mover not winning, not a choice position",
            )
        moves = self.legal_moves(position)
        b = len(moves)
        child_signs = []
        for move in moves:
            reply = self.probe_eval(position.child(move), self.cfg.child_depth).get(1)
            reply_sign = reply.sign if reply is not None else 0
            child_signs.append(-reply_sign)
        included = [s for s in child_signs if s != 0]
        excluded = b - len(included)
        if len(included) < 2:
            return CriticalRateRecord(
                ident, b, parent_sign, tuple(child_signs), None,
                excluded=excluded, skip_reason="fewer than two usable children",
            )
        disagreements = sum(1 for s in included if s != parent_sign)
        raw = disagreements / (len(included) - 1)
        gamma = min(1.0, raw)
        return CriticalRateRecord(
            ident, b, parent_sign, tuple(child_signs), gamma,
            excluded=excluded, clamped=raw > 1.0,
        )

    def build_eval_histograms(self, positions: Sequence[Position]) -> HistogramReport:
        """Bins shallow depth-1 evaluations by the deep-sign class of
        each position. Centipawn scores map through the standard
        logistic 1 / (1 + 10^(-cp/400)); mates saturate to 0 or 1.
        Positions whose deep sign is zero carry no class and are
        dropped (counted). The bin count is `cfg.hist_bins`."""
        bins = self.cfg.hist_bins
        counts = {1: [0] * bins, -1: [0] * bins}
        tallies = {1: 0, -1: 0}
        dropped = 0
        for position in positions:
            deep = self.probe_eval(position, self.cfg.deep_depth).get(1)
            klass = deep.sign if deep is not None else 0
            if klass == 0:
                dropped += 1
                continue
            shallow = self.probe_eval(position, 1).get(1)
            if shallow is None:
                dropped += 1
                continue
            index = min(int(shallow.unit_value * bins), bins - 1)
            counts[klass][index] += 1
            tallies[klass] += 1
        for klass, label in ((1, "winning"), (-1, "losing")):
            if tallies[klass] == 0:
                raise ValueError(f"no probed positions fell in the {label} class")
        pdf = HistogramPdf(
            plus_weights=normalized(counts[1]),
            minus_weights=normalized(counts[-1]),
            label="probe",
        )
        return HistogramReport(
            pdf=pdf, plus_count=tallies[1], minus_count=tallies[-1], dropped=dropped,
        )

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def critical_rate_csv(records: Sequence[CriticalRateRecord]) -> list[str]:
    """CSV lines for the estimable records; skipped ones are omitted."""
    lines = [CRITICAL_RATE_HEADER]
    for rec in records:
        if rec.gamma is None:
            continue
        lines.append(f"{rec.position},{rec.b},{rec.parent_sign},{rec.gamma:.6f}")
    return lines


@dataclass
class ProbeOutputs:
    samples: list[Position]
    records: list[CriticalRateRecord]
    histograms: HistogramReport


def run_probe(session: EngineSession, fens: Sequence[str]) -> ProbeOutputs:
    """The canonical probe pass: handshake, sample random positions,
    estimate the critical rate at each listed position, then bin the
    shallow evaluations of those same positions by deep-sign class."""
    cfg = session.cfg
    session.handshake()
    samples = session.sample_positions(cfg.samples, cfg.plies)
    targets = [Position(fen=fen) for fen in fens]
    records = [session.empirical_gamma(pos) for pos in targets]
    histograms = session.build_eval_histograms(targets)
    return ProbeOutputs(samples=samples, records=records, histograms=histograms)
