"""Scripted stand-in for a UCI chess engine.

Runs as a subprocess speaking a small slice of the UCI protocol from a
JSON scenario file, so probe code can be exercised hermetically. Every
reply is scripted per position command; nothing is computed. Usage:

    python3 -m critgames.engine.mock_engine scenario.json
"""

from __future__ import annotations

import json
import sys
import time

from ..inputs import read_text
from .session import DEFAULT_OPTIONS

# the options a probe session sets on every handshake
KNOWN_OPTIONS = frozenset(name for name, _ in DEFAULT_OPTIONS)


def _say(line: str) -> None:
    print(line, flush=True)


class MockEngine:
    def __init__(self, scenario: dict) -> None:
        self.positions = scenario["positions"]
        self.hang_depths = set(scenario.get("hang_depths", []))
        self.multipv = 1
        self.position = "position startpos"

    def handle(self, line: str) -> bool:
        """Processes one command; returns False when the engine should exit."""
        line = line.strip()
        if line == "quit":
            return False
        if line == "uci":
            self._identify()
        elif line == "isready":
            _say("readyok")
        elif line == "ucinewgame" or line == "stop" or not line:
            pass
        elif line.startswith("setoption "):
            self._setoption(line)
        elif line.startswith("position "):
            self.position = line
        elif line.startswith("go "):
            self._go(line)
        else:
            _say(f"info string unknown command: {line}")
        return True

    def _identify(self) -> None:
        _say("id name ScriptFish 1")
        _say("id author nobody")
        _say("option name Threads type spin default 1 min 1 max 512")
        _say("option name Hash type spin default 16 min 1 max 33554432")
        _say("option name MultiPV type spin default 1 min 1 max 500")
        _say("option name Ponder type check default false")
        _say("uciok")

    def _setoption(self, line: str) -> None:
        # setoption name <name with spaces> value <value>
        body = line[len("setoption "):]
        if not body.startswith("name "):
            _say("info string malformed setoption")
            return
        body = body[len("name "):]
        name, _, value = body.partition(" value ")
        name = name.strip()
        if name not in KNOWN_OPTIONS:
            _say(f"info string No such option: {name}")
            return
        if name == "MultiPV":
            self.multipv = max(1, int(value.strip() or "1"))

    def _entry(self) -> dict:
        entry = self.positions.get(self.position)
        if entry is None:
            _say(f"info string unscripted position: {self.position}")
            return {}
        return entry

    def _go(self, line: str) -> None:
        tokens = line.split()
        if tokens[1:3] == ["perft", "1"]:
            self._perft()
            return
        if tokens[1] != "depth":
            _say(f"info string unsupported go form: {line}")
            _say("bestmove 0000")
            return
        depth = int(tokens[2])
        if depth in self.hang_depths:
            time.sleep(30.0)
            _say("bestmove 0000")
            return
        table = self._entry().get("evals", {}).get(str(depth))
        if table is None:
            _say("info string unscripted depth")
            _say("bestmove 0000")
            return
        slots = table[: self.multipv]
        for rank, slot in enumerate(slots, start=1):
            for spoken in slot.get("interim", []):
                _say(spoken)
            tag = f" multipv {rank}" if self.multipv > 1 else ""
            _say(
                f"info depth {depth} seldepth {depth}{tag} score {slot['score']}"
                f" nodes 4096 nps 100000 pv {slot['move']}"
            )
        _say(f"bestmove {slots[0]['move']}" if slots else "bestmove 0000")

    def _perft(self) -> None:
        moves = self._entry().get("perft")
        if moves is None:
            _say("info string perft unscripted")
            _say("Nodes searched: 0")
            return
        for move in moves:
            _say(f"{move}: 1")
        _say("")
        _say(f"Nodes searched: {len(moves)}")


def load_scenario(path: str) -> dict:
    """A scenario file's JSON object, else a ValueError naming the file."""
    text = read_text(path, "scenario file")
    try:
        scenario = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario file {path} is not JSON: {exc}") from exc
    if not isinstance(scenario, dict) or not isinstance(scenario.get("positions"), dict):
        raise ValueError(f"scenario file {path} has no positions object")
    return scenario


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: mock_engine scenario.json", file=sys.stderr)
        return 2
    engine = MockEngine(load_scenario(args[0]))
    for raw in sys.stdin:
        if not engine.handle(raw):
            break
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
