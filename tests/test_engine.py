"""Tests for the UCI probe stack against the scripted mock engine."""

import sys
import time
from importlib import resources

import pytest
from scipy import stats

from critgames.engine import (
    CRITICAL_RATE_HEADER,
    DEFAULT_OPTIONS,
    EngineSession,
    EngineTimeout,
    EvalRecord,
    LiveTransport,
    Position,
    ProbeConfig,
    ReplayMismatch,
    ReplayTransport,
    critical_rate_csv,
    load_transcript,
    run_probe,
    save_transcript,
)
from critgames.engine import session as session_module
from critgames.engine import transport as transport_module
from critgames.engine.mock_engine import main as mock_main
from critgames.heuristics import load_histogram, save_histogram

FEN_A = "4k3/8/8/8/8/8/8/R3K3 w Q - 0 1"
FEN_B = "4k3/8/8/8/8/8/8/Q3K3 w - - 0 1"
FEN_C = "6k1/5ppp/8/8/8/8/5PPP/3R2K1 w - - 0 1"
FEN_D = "6k1/5ppp/8/8/8/8/5PPP/6K1 w - - 0 1"
FEN_E = "8/8/4k3/8/8/4K3/8/8 w - - 0 1"
FEN_F = "8/8/8/8/8/2k5/8/2K1R3 w - - 0 1"
PROBE_FENS = [FEN_A, FEN_B, FEN_C, FEN_D, FEN_E, FEN_F]

# the canonical probe pass frozen into the golden transcript
GOLDEN_CFG = ProbeConfig(plies=1, mode="light", samples=2, seed=7, hist_bins=8, multipv=3)

START_MOVES = {
    "a2a3", "a2a4", "b2b3", "b2b4", "c2c3", "c2c4", "d2d3", "d2d4",
    "e2e3", "e2e4", "f2f3", "f2f4", "g2g3", "g2g4", "h2h3", "h2h4",
    "b1a3", "b1c3", "g1f3", "g1h3",
}


def data_path(name):
    return str(resources.files("critgames.data") / name)


def live_transport(timeout=10.0):
    argv = [sys.executable, "-m", "critgames.engine.mock_engine", data_path("mock_scenario.json")]
    return LiveTransport(argv, timeout=timeout)


def live_session(cfg):
    return EngineSession(live_transport(), cfg)


class TestTransports:
    def test_replay_send_mismatch(self):
        replay = ReplayTransport([(">", "uci")])
        with pytest.raises(ReplayMismatch):
            replay.send("isready")

    def test_replay_recv_where_command_expected(self):
        replay = ReplayTransport([(">", "uci")])
        with pytest.raises(ReplayMismatch):
            replay.recv()

    def test_replay_past_end(self):
        replay = ReplayTransport([])
        with pytest.raises(ReplayMismatch):
            replay.recv()

    def test_replay_in_order(self):
        replay = ReplayTransport([(">", "uci"), ("<", "uciok")])
        replay.send("uci")
        assert replay.recv() == "uciok"
        assert replay.exhausted

    def test_replay_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            ReplayTransport([("?", "uci")])

    def test_transcript_round_trip(self, tmp_path):
        entries = [(">", "uci"), ("<", "uciok"), ("<", ""), (">", "quit")]
        path = tmp_path / "t.txt"
        save_transcript(entries, path)
        assert load_transcript(path) == entries

    def test_transcript_malformed_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("uciok without direction\n")
        with pytest.raises(ValueError):
            load_transcript(path)

    def test_live_round_trip(self):
        transport = live_transport()
        try:
            transport.send("isready")
            assert transport.recv(timeout=5.0) == "readyok"
        finally:
            transport.close()

    def test_live_timeout_on_silent_engine(self):
        # depth 99 is scripted to hang far past the deadline
        cfg = ProbeConfig(timeout=0.4)
        with EngineSession(live_transport(timeout=0.4), cfg) as session:
            with pytest.raises(EngineTimeout):
                session.probe_eval(Position(), 99)

    def test_live_eof_after_quit(self):
        transport = live_transport()
        transport.send("quit")
        with pytest.raises(EngineTimeout):
            while True:
                transport.recv(timeout=2.0)

    def test_missing_binary(self):
        with pytest.raises(OSError):
            LiveTransport(["/nonexistent/engine/binary"])

    def test_queue_bounded_against_endless_printer(self):
        transport = LiveTransport([sys.executable, "-c", "while True: print('y')"])
        try:
            deadline = time.monotonic() + 1.0
            peak = 0
            while time.monotonic() < deadline:
                peak = max(peak, transport._lines.qsize())
                time.sleep(0.01)
            assert 0 < peak <= transport_module.MAX_QUEUED_LINES
        finally:
            start = time.monotonic()
            transport.close()
            elapsed = time.monotonic() - start
        assert elapsed < 1.5
        assert not transport._reader.is_alive()


class TestMockEngineScript:
    def test_usage_error(self, capsys):
        assert mock_main([]) == 2
        assert "usage" in capsys.readouterr().err


class TestConfigAndPosition:
    def test_defaults_valid(self):
        cfg = ProbeConfig()
        assert cfg.mode == "light" and cfg.deep_depth == 20 and cfg.child_depth == 19

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"plies": -1},
            {"mode": "medium"},
            {"samples": 0},
            {"deep_depth": 0},
            {"child_depth": 0},
            {"heavy_depth": 0},
            {"multipv": 0},
            {"hist_bins": 0},
            {"timeout": 0.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ProbeConfig(**kwargs)

    def test_resolved_options_fill_multipv(self):
        cfg = ProbeConfig(multipv=3)
        resolved = dict(cfg.resolved_options())
        assert resolved["MultiPV"] == "3"
        assert resolved["Threads"] == "1"
        assert resolved["EvalFile"] == "nn-62ef826d1a6d.nnue"

    def test_resolved_options_keep_order_and_override(self):
        cfg = ProbeConfig(options=(("Threads", "4"), ("Custom Knob", "on")))
        resolved = cfg.resolved_options()
        names = [name for name, _ in resolved]
        assert names[: len(DEFAULT_OPTIONS)] == [name for name, _ in DEFAULT_OPTIONS]
        assert dict(resolved)["Threads"] == "4"
        assert resolved[-1] == ("Custom Knob", "on")

    def test_position_commands(self):
        assert Position().command() == "position startpos"
        assert Position(moves=("e2e4",)).command() == "position startpos moves e2e4"
        pos = Position(fen=FEN_A)
        assert pos.command() == f"position fen {FEN_A}"
        assert pos.child("a1a8").command() == f"position fen {FEN_A} moves a1a8"
        assert pos.identifier() == f"fen {FEN_A}"
        assert Position(moves=("e2e4", "e7e5")).identifier() == "startpos moves e2e4 e7e5"


class TestEvalRecord:
    def test_cp_sign_and_value(self):
        rec = EvalRecord(move="a1a8", kind="cp", score=130)
        assert rec.sign == 1
        assert rec.unit_value == pytest.approx(1.0 / (1.0 + 10.0 ** (-130 / 400)))

    def test_cp_zero_is_indeterminate(self):
        rec = EvalRecord(move=None, kind="cp", score=0)
        assert rec.sign == 0
        assert rec.unit_value == pytest.approx(0.5)

    def test_mate_signs_saturate(self):
        assert EvalRecord(None, "mate", 3).sign == 1
        assert EvalRecord(None, "mate", 3).unit_value == 1.0
        assert EvalRecord(None, "mate", -2).sign == -1
        assert EvalRecord(None, "mate", -2).unit_value == 0.0
        # mate 0: the probed side is already mated
        assert EvalRecord(None, "mate", 0).sign == -1

    def test_negative_cp(self):
        rec = EvalRecord(None, "cp", -400)
        assert rec.sign == -1
        assert rec.unit_value == pytest.approx(1.0 / 11.0)


class TestEvalParsing:
    def probe_session(self, replies, depth=20, multipv=1):
        pos = Position(fen=FEN_A)
        entries = [(">", pos.command()), (">", f"go depth {depth}")]
        entries += [("<", line) for line in replies]
        cfg = ProbeConfig(multipv=multipv)
        session = EngineSession(ReplayTransport(entries), cfg)
        session._multipv = multipv
        return session, session.probe_eval(pos, depth)

    def run_probe_eval(self, replies, depth=20, multipv=1):
        return self.probe_session(replies, depth, multipv)[1]

    def test_last_full_line_wins(self):
        slots = self.run_probe_eval(
            [
                "info depth 18 score cp 140 pv a1a8",
                "info depth 20 score cp 160 lowerbound pv a1a8",
                "info depth 20 score cp 150 pv a1a8",
                "bestmove a1a8",
            ]
        )
        assert slots[1] == EvalRecord(move="a1a8", kind="cp", score=150)

    def test_upperbound_skipped(self):
        slots = self.run_probe_eval(
            [
                "info depth 20 score mate 3 upperbound pv d1d8",
                "info depth 20 score mate 3 pv d1d8",
                "bestmove d1d8",
            ]
        )
        assert slots[1].kind == "mate" and slots[1].score == 3

    def test_multipv_slots_collected(self):
        slots = self.run_probe_eval(
            [
                "info depth 10 multipv 1 score cp 35 pv e2e4 e7e5",
                "info depth 10 multipv 2 score cp 30 pv d2d4",
                "info depth 10 multipv 3 score cp 25 pv g1f3",
                "bestmove e2e4",
            ],
            depth=10,
            multipv=3,
        )
        assert [slots[i].move for i in (1, 2, 3)] == ["e2e4", "d2d4", "g1f3"]

    def test_chatter_ignored(self):
        slots = self.run_probe_eval(
            [
                "info string starting search",
                "info depth 5 nodes 100 nps 1000",
                "info depth 20 score cp 42 pv a1a8",
                "bestmove a1a8",
            ]
        )
        assert slots[1].score == 42

    @pytest.mark.parametrize(
        "bad",
        [
            "info depth 20 score cp 12 multipv",  # multipv without its value
            "info depth 20 score cp abc pv a1a8",  # score that is not an integer
            "info depth 20 score cp 12 pv",  # pv without a move
        ],
    )
    def test_malformed_line_skipped_and_recorded(self, bad):
        session, slots = self.probe_session(
            ["info depth 18 score cp 140 pv a1a8", bad, "bestmove a1a8"]
        )
        assert slots == {1: EvalRecord(move="a1a8", kind="cp", score=140)}
        assert session.warnings == [bad]


    def test_endless_info_stream_is_cut_off(self, monkeypatch):
        # without the bound the replay would run past its end instead
        monkeypatch.setattr(session_module, "MAX_REPLY_LINES", 5)
        with pytest.raises(EngineTimeout, match="'go depth 20' within 5 lines"):
            self.run_probe_eval(["info depth 20 score cp 10 pv a1a8"] * 8)

    def test_endless_perft_listing_is_cut_off(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_REPLY_LINES", 5)
        pos = Position(fen=FEN_A)
        entries = [(">", pos.command()), (">", "go perft 1")] + [("<", "a1a2: 1")] * 8
        session = EngineSession(ReplayTransport(entries), ProbeConfig())
        with pytest.raises(EngineTimeout, match="'go perft 1' within 5 lines"):
            session.legal_moves(pos)


class TestLegalMoves:
    def test_perft_moves_from_mock(self):
        with live_session(GOLDEN_CFG) as session:
            moves = session.legal_moves(Position())
            assert set(moves) == START_MOVES
            # second listing must come from the cache, not new traffic
            before = len(session.transcript)
            assert session.legal_moves(Position()) == moves
            assert len(session.transcript) == before

    def test_multipv_fallback_lists_all_moves(self):
        cfg = ProbeConfig(multipv=3, use_perft=False)
        with live_session(cfg) as session:
            session.handshake()
            moves = session.legal_moves(Position())
            assert set(moves) == START_MOVES
            sent = [line for d, line in session.transcript if d == ">"]
            assert "setoption name MultiPV value 500" in sent
            # the probing width is restored afterwards
            assert sent[-1] == "setoption name MultiPV value 3"
            assert "go perft 1" not in sent


class TestSampling:
    def test_light_walks_are_uniform(self):
        cfg = ProbeConfig(plies=1, mode="light", samples=10_000, seed=11)
        with live_session(cfg) as session:
            session.handshake()
            samples = session.sample_positions(cfg.samples, cfg.plies)
        counts = {}
        for pos in samples:
            assert pos.fen is None and len(pos.moves) == 1
            counts[pos.moves[0]] = counts.get(pos.moves[0], 0) + 1
        assert set(counts) == START_MOVES
        result = stats.chisquare(list(counts.values()))
        assert result.pvalue > 1e-3

    def test_zero_plies_returns_initial_position(self):
        cfg = ProbeConfig(plies=1, samples=3)
        with live_session(cfg) as session:
            samples = session.sample_positions(3, 0)
        assert all(pos == Position() for pos in samples)

    def test_heavy_walk_stays_on_top_lines(self):
        cfg = ProbeConfig(plies=2, mode="heavy", samples=40, seed=3, multipv=3)
        allowed = {
            "e2e4": {"e7e5", "c7c5", "e7e6"},
            "d2d4": {"d7d5", "g8f6", "e7e6"},
            "g1f3": {"d7d5", "g8f6", "c7c5"},
        }
        with live_session(cfg) as session:
            session.handshake()
            samples = session.sample_positions(cfg.samples, cfg.plies)
        firsts = set()
        for pos in samples:
            first, second = pos.moves
            assert second in allowed[first]
            firsts.add(first)
        assert firsts == set(allowed)  # 40 draws hit all three top lines

    def test_heavy_single_line_walk_is_deterministic(self):
        cfg = ProbeConfig(plies=2, mode="heavy", samples=5, seed=99, multipv=1)
        with live_session(cfg) as session:
            session.handshake()
            samples = session.sample_positions(cfg.samples, cfg.plies)
        assert all(pos.moves == ("e2e4", "e7e5") for pos in samples)

    def test_sampling_determinism_across_sessions(self):
        cfg = ProbeConfig(plies=1, mode="light", samples=6, seed=21)
        runs = []
        for _ in range(2):
            with live_session(cfg) as session:
                session.handshake()
                runs.append(session.sample_positions(cfg.samples, cfg.plies))
        assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def records():
    with live_session(GOLDEN_CFG) as session:
        session.handshake()
        recs = [session.empirical_gamma(Position(fen=fen)) for fen in PROBE_FENS]
    return {rec.position: rec for rec in recs}


class TestEmpiricalGamma:

    def test_all_children_flip(self, records):
        rec = records[f"fen {FEN_A}"]
        assert (rec.b, rec.parent_sign, rec.gamma) == (3, 1, 1.0)
        assert rec.child_signs == (1, -1, -1)
        assert rec.excluded == 0 and not rec.clamped

    def test_indeterminate_child_shrinks_divisor(self, records):
        rec = records[f"fen {FEN_B}"]
        assert (rec.b, rec.gamma, rec.excluded) == (4, 0.5, 1)
        assert rec.child_signs == (1, 0, -1, 1)

    def test_mate_scores_carry_signs(self, records):
        rec = records[f"fen {FEN_C}"]
        assert (rec.b, rec.parent_sign, rec.gamma) == (3, 1, 0.5)

    def test_losing_parent_skipped(self, records):
        rec = records[f"fen {FEN_D}"]
        assert rec.gamma is None and rec.parent_sign == -1
        assert "not a choice" in rec.skip_reason

    def test_level_parent_skipped(self, records):
        rec = records[f"fen {FEN_E}"]
        assert rec.gamma is None and rec.parent_sign == 0
        assert "indeterminate" in rec.skip_reason

    def test_overfull_disagreement_clamps(self, records):
        rec = records[f"fen {FEN_F}"]
        assert rec.gamma == 1.0 and rec.clamped

    def test_csv_shape(self, records):
        lines = critical_rate_csv([records[f"fen {fen}"] for fen in PROBE_FENS])
        assert lines[0] == CRITICAL_RATE_HEADER
        assert len(lines) == 1 + 4  # two records skipped
        assert lines[1] == f"fen {FEN_A},3,1,1.000000"
        assert lines[2] == f"fen {FEN_B},4,1,0.500000"


class TestHistograms:
    def test_binning_and_drop_counts(self):
        with live_session(GOLDEN_CFG) as session:
            session.handshake()
            report = session.build_eval_histograms(
                [Position(fen=fen) for fen in PROBE_FENS]
            )
        assert (report.plus_count, report.minus_count, report.dropped) == (4, 1, 1)
        plus_bins = [i for i, w in enumerate(report.pdf.plus_weights) if w > 0]
        minus_bins = [i for i, w in enumerate(report.pdf.minus_weights) if w > 0]
        # logistic(130/400) lands in bin 5, logistic(-40/400) in 3,
        # mate 3 saturates into the top bin, logistic(20/400) in 4
        assert plus_bins == [3, 4, 5, 7]
        assert minus_bins == [2]
        assert all(w == pytest.approx(0.25) for w in report.pdf.plus_weights if w > 0)

    def test_round_trip_through_heuristic_file(self, tmp_path):
        with live_session(GOLDEN_CFG) as session:
            session.handshake()
            report = session.build_eval_histograms(
                [Position(fen=fen) for fen in PROBE_FENS]
            )
        path = tmp_path / "probe.hist"
        save_histogram(report.pdf, path, comment="probe histogram")
        loaded = load_histogram(path)
        assert loaded.plus_weights == pytest.approx(report.pdf.plus_weights)
        assert loaded.minus_weights == pytest.approx(report.pdf.minus_weights)

    def test_single_class_rejected(self):
        with live_session(GOLDEN_CFG) as session:
            session.handshake()
            with pytest.raises(ValueError, match="losing"):
                session.build_eval_histograms([Position(fen=FEN_A)])


class StreamingTransport:
    """Answers with `replies`, then with "y" on every later read. It fails
    the test after 50 reads, so a reader without a line bound stops there
    instead of spinning forever."""

    def __init__(self, replies=()):
        self.replies = list(replies)
        self.reads = 0

    def send(self, line):
        pass

    def recv(self, timeout=None):
        self.reads += 1
        if self.reads > 50:
            raise AssertionError("read 50 reply lines and still reading")
        return self.replies.pop(0) if self.replies else "y"

    def close(self):
        pass


class TestHandshake:
    @pytest.mark.parametrize(
        "replies, command", [((), "uci"), (("uciok",), "isready")], ids=["uciok", "readyok"]
    )
    def test_endless_handshake_reply_is_cut_off(self, monkeypatch, replies, command):
        monkeypatch.setattr(session_module, "MAX_REPLY_LINES", 5)
        transport = StreamingTransport(replies)
        session = EngineSession(transport, ProbeConfig())
        with pytest.raises(EngineTimeout, match=f"{command!r} within 5 lines"):
            session.handshake()
        assert transport.reads == len(replies) + 5

    def test_option_block_order(self):
        golden = load_transcript(data_path("golden_transcript.txt"))
        sent = [line for d, line in golden if d == ">"]
        setopts = [line for line in sent if line.startswith("setoption")]
        expected = [
            f"setoption name {name} value {'3' if name == 'MultiPV' else value}"
            for name, value in DEFAULT_OPTIONS
        ]
        assert setopts == expected
        assert sent[0] == "uci"
        assert sent[1 : 1 + len(expected)] == expected
        assert sent[1 + len(expected) :][:2] == ["ucinewgame", "isready"]

    def test_rejected_option_is_logged_not_fatal(self):
        cfg = ProbeConfig(options=(("Bogus Knob", "1"),))
        with live_session(cfg) as session:
            session.handshake()
            assert any("No such option" in w for w in session.warnings)
            # the session still works afterwards
            assert session.legal_moves(Position()) != ()


class TestGoldenRun:
    def test_live_run_reproduces_golden_transcript(self, tmp_path):
        with EngineSession(live_transport(), GOLDEN_CFG) as session:
            run_probe(session, PROBE_FENS)
            save_transcript(session.transcript, tmp_path / "fresh.txt")
        fresh = (tmp_path / "fresh.txt").read_bytes()
        golden = open(data_path("golden_transcript.txt"), "rb").read()
        assert fresh == golden

    def test_replay_run_matches_expected_outputs(self):
        replay = ReplayTransport(load_transcript(data_path("golden_transcript.txt")))
        with EngineSession(replay, GOLDEN_CFG) as session:
            out = run_probe(session, PROBE_FENS)
        assert replay.exhausted
        assert [rec.gamma for rec in out.records] == [1.0, 0.5, 0.5, None, None, 1.0]
        assert [pos.identifier() for pos in out.samples] == [
            "startpos moves e2e3",
            "startpos moves b2b3",
        ]
        assert (out.histograms.plus_count, out.histograms.minus_count) == (4, 1)

    def test_replay_flags_any_drift(self):
        entries = load_transcript(data_path("golden_transcript.txt"))
        entries[30] = (entries[30][0], entries[30][1] + " tampered")
        replay = ReplayTransport(entries)
        with pytest.raises(ReplayMismatch):
            with EngineSession(replay, GOLDEN_CFG) as session:
                run_probe(session, PROBE_FENS)
