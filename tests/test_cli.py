"""End-to-end tests for the command-line dispatcher."""

import json
import shlex
import sys
from importlib import resources

import pytest

from critgames.cli import GLOBAL_OPTS, SUB_OPTS, dispatch

DESK_CFG = str(resources.files("critgames.data") / "desk_grid.cfg")
GOLDEN = resources.files("critgames.data") / "golden_transcript.txt"

FEN_A = "4k3/8/8/8/8/8/8/R3K3 w Q - 0 1"


def run(capsys, *args):
    code = dispatch(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatchBasics:
    def test_density_prints_value(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "density", "--gamma", "1", "--b", "2", "--n", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert out.splitlines()[0] == "0.75"

    def test_density_table_and_limits(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "density", "--gamma", "1", "--b", "2", "--n", "2",
            "--table", "--limits", "--out-dir", str(tmp_path),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["0 1", "1 0.5", "2 0.75"]
        assert lines[3].startswith("limits 0.666667 0.333333")

    @pytest.mark.parametrize("sub", sorted(SUB_OPTS))
    def test_help_lists_every_flag(self, capsys, sub):
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0
        for key in list(SUB_OPTS[sub]) + list(GLOBAL_OPTS):
            assert f"--{key.replace('_', '-')}" in out

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("critgames ")

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "subcommand is required" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "nosuch")
        assert code == 1
        assert "invalid choice" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "density", "--nope")
        assert code == 1
        assert "unrecognized" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "density", "--gamma", "abc")
        assert code == 1
        assert "bad value for --gamma" in err

    def test_domain_validation_is_usage_error(self, capsys, tmp_path):
        # branching factor 1 fails inside the library constructors
        code, _, err = run(
            capsys, "density", "--b", "1", "--out-dir", str(tmp_path)
        )
        assert code == 1
        assert "error" in err


class TestConfigResolution:
    def test_file_value_used(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n = 3\n")
        code, out, _ = run(
            capsys, "density", "--config", str(cfg), "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert out.splitlines()[0] == "0.375"

    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n = 3\n")
        code, out, _ = run(
            capsys, "density", "--config", str(cfg), "--n", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert out.splitlines()[0] == "0.75"

    def test_comments_and_blanks_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\nn = 2  # trailing\n")
        code, out, _ = run(
            capsys, "density", "--config", str(cfg), "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert out.splitlines()[0] == "0.75"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "density", "--config", str(cfg))
        assert code == 1
        assert "unknown configuration key" in err

    def test_other_subcommand_section_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("density.n = 3\nexperiment.trees = 2\n")
        code, out, _ = run(
            capsys, "density", "--config", str(cfg), "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert out.splitlines()[0] == "0.375"

    def test_unknown_section_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus.n = 3\n")
        code, _, err = run(capsys, "density", "--config", str(cfg))
        assert code == 1
        assert "unknown configuration section" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run(capsys, "density", "--config", str(cfg))
        assert code == 1
        assert "expected key = value" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "density", "--config", "/nonexistent.cfg")
        assert code == 1
        assert "cannot read configuration" in err

    def test_manifest_echoes_resolved_values(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "density", "--n", "4", "--out-dir", str(tmp_path)
        )
        assert code == 0
        manifest = (tmp_path / "run_manifest.txt").read_text()
        assert "command = density" in manifest
        assert "n = 4" in manifest
        assert "seed = 0" in manifest

    @pytest.mark.parametrize(
        "args, expected",
        [
            # a usage failure found by the handler: a nan histogram weight
            (("search", "--algo", "alphabeta", "--heuristic", "histogram:{hist}"), 1),
            (("probe", "--engine", "/nonexistent/engine"), 2),
        ],
    )
    def test_failed_run_leaves_no_manifest(self, capsys, tmp_path, args, expected):
        hist = tmp_path / "bad.hist"
        hist.write_text("bins=2\nplus=1 nan\nminus=0 1\n")
        out = tmp_path / "out"
        argv = [arg.format(hist=hist) for arg in args]
        code, _, _ = run(capsys, *argv, "--out-dir", str(out))
        assert code == expected
        assert out.is_dir()
        assert not (out / "run_manifest.txt").exists()
        # nor does it leave an earlier successful run's manifest in place
        assert run(capsys, "density", "--n", "4", "--out-dir", str(out))[0] == 0
        assert (out / "run_manifest.txt").exists()
        assert run(capsys, *argv, "--out-dir", str(out))[0] == expected
        assert not (out / "run_manifest.txt").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("branchings", "1", "branching_factor must be an integer >= 2"),
            ("gammas", "1.5", "critical_rate must lie in [0, 1]"),
            ("explorations", "-1", "exploration constant must be >= 0"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_grid_value_fails_before_any_search(
        self, capsys, tmp_path, key, value, message, source
    ):
        args = ["experiment", "--budgets", "10", "--trees", "2", "--workers", "1",
                "--out-dir", str(tmp_path)]
        if source == "flag":
            args += [f"--{key}", value]
        else:
            cfg = tmp_path / "grid.cfg"
            cfg.write_text(f"experiment.{key} = {value}\n")
            args += ["--config", str(cfg)]
        code, _, err = run(capsys, *args)
        assert code == 1
        assert message in err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (("theorem", "--verify", "--trees", "0"), "trees must be an integer >= 1"),
            (("theorem", "--verify", "--trees", "2", "--branchings", "2,1"), "branching_factor"),
            (("pv-check", "--depth-max", "1", "--seeds", "1", "--playouts", "0"),
             "playouts must be an integer >= 1"),
        ],
    )
    def test_bad_count_is_usage_error(self, capsys, tmp_path, args, message):
        code, out, err = run(capsys, *args, "--out-dir", str(tmp_path))
        assert code == 1
        assert message in err
        assert "separation" not in out and "b=2" not in out  # nothing ran


class TestDeterminism:
    def test_gen_tree_same_seed_same_files(self, capsys, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(
                capsys, "gen-tree", "--seed", "9", "--max-depth", "5",
                "--depth-cap", "4", "--out-dir", str(d),
            )
            assert code == 0
        assert (dirs[0] / "tree.txt").read_bytes() == (dirs[1] / "tree.txt").read_bytes()
        # a repeated run into one directory rewrites identical bytes
        snapshots = []
        for _ in range(2):
            run(capsys, "gen-tree", "--seed", "9", "--max-depth", "5",
                "--depth-cap", "4", "--out-dir", str(dirs[0]))
            snapshots.append((dirs[0] / "run_manifest.txt").read_bytes())
        assert snapshots[0] == snapshots[1]

    def test_gen_tree_seed_changes_tree(self, capsys, tmp_path):
        outputs = []
        for seed in ("1", "2"):
            d = tmp_path / seed
            run(capsys, "gen-tree", "--seed", seed, "--max-depth", "5",
                "--depth-cap", "5", "--out-dir", str(d))
            outputs.append((d / "tree.txt").read_text())
        assert outputs[0] != outputs[1]
        assert outputs[0].startswith("digraph {")

    def test_search_same_seed_same_json(self, capsys, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(
                capsys, "search", "--budget", "150", "--max-depth", "10",
                "--heuristic", "gaussian:0.3", "--seed", "5", "--out-dir", str(d),
            )
            assert code == 0
        assert (dirs[0] / "search.json").read_bytes() == (
            dirs[1] / "search.json"
        ).read_bytes()


class TestSearchCommand:
    def test_alphabeta_writes_payload(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "search", "--algo", "alphabeta", "--depth", "3",
            "--max-depth", "8", "--heuristic", "gaussian:0.2", "--seed", "3",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "alphabeta: value" in out
        payload = json.loads((tmp_path / "search.json").read_text())
        assert payload["algorithm"] == "alphabeta"
        assert payload["best_action"] in (0, 1)
        assert 0.0 <= payload["value"] <= 1.0

    def test_uct_reports_checkpoints(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "search", "--budget", "100", "--checkpoints", "10,100",
            "--max-depth", "8", "--seed", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "2 checkpoints" in out
        payload = json.loads((tmp_path / "search.json").read_text())
        assert [c["iteration"] for c in payload["checkpoints"]] == [10, 100]

    def test_unknown_algorithm(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "search", "--algo", "dfs", "--out-dir", str(tmp_path)
        )
        assert code == 1
        assert "unknown algorithm" in err

    def test_uct_trace_file(self, capsys, tmp_path):
        args = ("search", "--budget", "60", "--max-depth", "8",
                "--heuristic", "gaussian:0.3", "--seed", "4")
        trace = tmp_path / "trace.csv"
        assert run(capsys, *args, "--out-dir", str(tmp_path / "plain"))[0] == 0
        assert run(capsys, *args, "--out-dir", str(tmp_path / "traced"),
                   "--trace", str(trace))[0] == 0
        assert (tmp_path / "plain" / "search.json").read_bytes() == (
            tmp_path / "traced" / "search.json"
        ).read_bytes()
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,path,reward"
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 61))

    def test_trace_needs_uct(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, err = run(
            capsys, "search", "--algo", "alphabeta", "--trace", str(trace),
            "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "--trace" in err
        assert not trace.exists()


class TestExperimentCommand:
    def test_bundled_config_baseline_index_is_one(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "experiment", "--config", DESK_CFG, "--workers", "1",
            "--seed", "0", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "2 cells" in out
        rows = (tmp_path / "results.csv").read_text().splitlines()
        assert rows[0] == "gamma,b,c,heuristic,algo,budget,delta,se,pathology_index"
        baseline = [r for r in rows[1:] if r.split(",")[5] == "10"]
        assert baseline and all(r.split(",")[8] == "1.000000" for r in baseline)
        assert (tmp_path / "pathology.svg").exists()
        assert (tmp_path / "manifest.txt").exists()

    def test_two_runs_identical_outputs(self, capsys, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(
                capsys, "experiment", "--config", DESK_CFG, "--workers", "1",
                "--seed", "0", "--out-dir", str(d),
            )
            assert code == 0
        assert (dirs[0] / "results.csv").read_bytes() == (
            dirs[1] / "results.csv"
        ).read_bytes()

    def test_workers_must_be_positive(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "experiment", "--config", DESK_CFG, "--workers", "0",
            "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "workers" in err


class TestPvCheckCommand:
    def test_exact_and_planner_lines(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "pv-check", "--seeds", "4", "--depth-max", "5",
            "--instances", "4", "--playouts", "60", "--out-dir", str(tmp_path),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "separation: 24/24 exact (d <= 5)"
        assert lines[1].startswith("planner accuracy:")

    def test_rejects_other_branching(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "pv-check", "--b", "3", "--out-dir", str(tmp_path)
        )
        assert code == 1
        assert "b = 2" in err


class TestTheoremCommand:
    def test_prints_bound(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "theorem", "--N", "1000", "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert out.splitlines()[0] == "8507.785473"

    def test_table(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "theorem", "--table", "2,512", "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert out.splitlines() == ["2 2.402245", "512 3279.864924"]

    def test_verify_writes_csv(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "theorem", "--N", "64", "--verify", "--trees", "8",
            "--branchings", "2", "--max-depth", "20", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "breadth_first=1.000" in out
        rows = (tmp_path / "theorem.csv").read_text().splitlines()
        assert rows[0] == "b,exploration,iterations,breadth_first_fraction,accuracy,se"
        assert rows[1].startswith("2,") and ",1.000000," in rows[1]

    def test_rejects_tiny_n(self, capsys, tmp_path):
        code, _, _ = run(capsys, "theorem", "--N", "1", "--out-dir", str(tmp_path))
        assert code == 1


class TestProbeCommand:
    def test_mock_probe_reproduces_golden_transcript(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "probe", "--samples", "2", "--plies", "1", "--bins", "8",
            "--seed", "7", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "4 estimable" in out
        assert (tmp_path / "transcript.txt").read_bytes() == GOLDEN.read_bytes()
        rows = (tmp_path / "gamma.csv").read_text().splitlines()
        assert rows[0] == "fen,b,parent_sign,gamma_tilde"
        assert len(rows) == 5
        assert (tmp_path / "probe.hist").exists()
        samples = (tmp_path / "samples.txt").read_text().splitlines()
        assert samples == ["startpos moves e2e3", "startpos moves b2b3"]

    def test_engine_start_failure_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "probe", "--engine", "/nonexistent/engine",
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "failed" in err

    def test_engine_that_never_finishes_handshake_is_runtime_error(self, capsys, tmp_path):
        # prints more lines than one reply may hold, never `uciok`
        chatter = "for _ in range(150_000): print('y')"
        engine = f"{shlex.quote(sys.executable)} -c {shlex.quote(chatter)}"
        code, _, err = run(capsys, "probe", "--engine", engine, "--out-dir", str(tmp_path))
        assert code == 2
        assert "no end to the reply to 'uci' within 100000 lines" in err

    def test_single_class_fens_is_runtime_error(self, capsys, tmp_path):
        fens = tmp_path / "fens.txt"
        fens.write_text(FEN_A + "\n")
        code, _, err = run(
            capsys, "probe", "--fens", str(fens), "--samples", "1",
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "losing" in err
