"""Grid machinery tests: seed derivation, statistics, emission formats."""

import importlib.resources
import math
import re
from pathlib import Path
from random import Random

import numpy as np
import pytest

from critgames import experiments
from critgames.experiments import (
    CSV_HEADER,
    DECIDERS,
    Cell,
    GridSpec,
    cell_key,
    cells,
    csv_lines,
    emit_results,
    grid_tasks,
    manifest_lines,
    pathology_report,
    run_cell,
    run_grid,
    run_theorem_experiment,
    theorem_c_bound,
    theorem_runs,
    tree_seeds,
)
from critgames.heuristics import parse_heuristic
from critgames.search_minimax import MinimaxConfig, alphabeta
from critgames.tree_model import GameParams


def tiny_spec(**kw):
    base = dict(
        gammas=(1.0,),
        branchings=(2,),
        explorations=(0.5,),
        heuristics=("histogram:chess_p10_light",),
        budgets=(10, 50),
        max_depth=8,
        trees=20,
        master_seed=7,
    )
    base.update(kw)
    return GridSpec(**base)


class TestGridSpec:
    def test_defaults_valid(self):
        spec = GridSpec()
        assert spec.budgets[0] == 10
        assert len(cells(spec)) == 2 * 3 * 5 * 1

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(budgets=())
        with pytest.raises(ValueError):
            tiny_spec(budgets=(50, 10))
        with pytest.raises(ValueError):
            tiny_spec(budgets=(10, 10))
        with pytest.raises(ValueError):
            tiny_spec(gammas=())
        with pytest.raises(ValueError):
            tiny_spec(trees=0)
        with pytest.raises(ValueError, match=re.escape("one of ('uct', 'alphabeta')")):
            tiny_spec(algorithm="dfs")
        with pytest.raises(ValueError):
            tiny_spec(heuristics=("no-such-kind",))
        with pytest.raises(ValueError):
            tiny_spec(master_seed=2**64)

    @pytest.mark.parametrize(
        "axis, values, repeated",
        [
            ("gammas", (1, 1.0), "1.0"),
            ("branchings", (2, 3, np.int64(2)), "2"),
            ("explorations", (0.5, 2, 0.50), "0.5"),
            ("heuristics", ("gaussian", "gaussian:0.3"), "'gaussian:0.3'"),
        ],
    )
    def test_values_that_repeat_after_normalisation_are_refused(self, axis, values, repeated):
        """Each would run one cell more than once."""
        with pytest.raises(ValueError, match=re.escape(f"{axis} lists {repeated} more than once")):
            tiny_spec(**{axis: values})

    def test_alphabeta_checks_the_exploration_constant(self):
        """c is only a label for alpha-beta, but a bad one is refused as for UCT."""
        for c in (math.nan, -3.0):
            for algorithm in ("uct", "alphabeta"):
                with pytest.raises(ValueError, match="exploration constant must be >= 0"):
                    tiny_spec(explorations=(0.5, c), algorithm=algorithm)

    def test_cells_cover_product(self):
        spec = tiny_spec(gammas=(0.5, 1.0), explorations=(0.1, 2.0))
        grid = cells(spec)
        assert len(grid) == 4
        assert {(c.gamma, c.exploration) for c in grid} == {
            (0.5, 0.1), (0.5, 2.0), (1.0, 0.1), (1.0, 2.0)
        }


class TestOneForm:
    """A grid keys each cell by its values, not by how they were typed."""

    @pytest.mark.parametrize(
        "name, spellings",
        [
            ("heuristics", [("gaussian",), ("gaussian:0.3",), ("gaussian:0.30",)]),
            ("gammas", [(1,), (1.0,), (np.float64(1.0),)]),
            ("explorations", [(1,), (1.0,), (np.float64(1.0),)]),
            ("budgets", [(10,), (np.int64(10),)]),
        ],
    )
    def test_equal_settings_give_equal_files(self, tmp_path, name, spellings):
        keys, outputs = set(), set()
        for k, values in enumerate(spellings):
            spec = tiny_spec(**{"algorithm": "alphabeta", "budgets": (2, 10), "trees": 8,
                                name: values})
            keys.update(cell_key(cell) for cell in cells(spec))
            written = emit_results(spec, run_grid(spec), tmp_path / str(k))
            outputs.add(tuple(path.read_bytes() for path in written))
        assert len(keys) == 1
        assert len(outputs) == 1

    def test_a_histogram_file_is_keyed_by_its_weights(self, tmp_path, monkeypatch):
        """Two paths to one file key one cell and write one results.csv."""
        monkeypatch.chdir(tmp_path)
        light = Path(str(importlib.resources.files("critgames.data") / "chess_p10_light.hist"))
        Path("light.hist").write_bytes(light.read_bytes())
        outputs = set()
        for k, text in enumerate(("histogram:light.hist", "histogram:./light.hist",
                                  f"histogram:{tmp_path / 'light.hist'}")):
            spec = tiny_spec(algorithm="alphabeta", budgets=(2, 4), trees=100, heuristics=(text,))
            written = emit_results(spec, run_grid(spec), tmp_path / str(k))
            outputs.add((written[0].read_bytes(), cell_key(cells(spec)[0])))
        assert len(outputs) == 1
        # other weights key another cell
        Path("heavy.hist").write_text("bins=2\nplus=0.2 0.8\nminus=0.8 0.2\n")
        [other] = cells(tiny_spec(heuristics=("histogram:heavy.hist",)))
        assert cell_key(other) != outputs.pop()[1]

    def test_bundled_and_built_in_keys_are_frozen(self):
        keys = {
            "histogram:chess_p10_light": 0x47E8D7039882C1A3,
            "histogram:chess_p10_heavy": 0x28244010BBDDC8C1,
            "gaussian:0.3": 0x3F07AC76446DE1AC,
            "perfect": 0xD535741CB7888505,
        }
        for text, key in keys.items():
            assert cell_key(Cell(1.0, 2, 0.5, text, (2, 4), 50, 10, "alphabeta")) == key

    def test_values_take_one_form(self):
        spec = tiny_spec(gammas=(np.float64(0.5), 1), branchings=(np.int64(2),),
                         explorations=(2,), heuristics=("gaussian:2", "gaussian"),
                         budgets=(np.int64(10),), max_depth=np.int64(8))
        assert [type(v) for v in spec.gammas + spec.explorations] == [float] * 3
        assert [type(v) for v in spec.branchings + spec.budgets] == [int] * 2
        assert type(spec.max_depth) is int
        assert spec.heuristics == ("gaussian:2.0", "gaussian:0.3")
        assert "  gammas = (0.5, 1.0)" in manifest_lines(spec)


class TestSeedDerivation:
    def test_cell_keys_distinct(self):
        spec = GridSpec()
        keys = [cell_key(c) for c in cells(spec)]
        assert len(set(keys)) == len(keys)

    def test_key_ignores_budgets_and_trees(self):
        a = cells(tiny_spec(budgets=(10, 50), trees=20))[0]
        b = cells(tiny_spec(budgets=(10,), trees=500))[0]
        assert cell_key(a) == cell_key(b)

    def test_tree_seeds_stable_and_distinct(self):
        cell = cells(tiny_spec())[0]
        seen = set()
        for t in range(50):
            pair = tree_seeds(cell, 7, t)
            assert pair == tree_seeds(cell, 7, t)
            seen.update(pair)
        assert len(seen) == 100
        assert tree_seeds(cell, 7, 0) != tree_seeds(cell, 8, 0)


class TestRunCell:
    def test_gamma_zero_always_correct(self):
        cell = cells(tiny_spec(gammas=(0.0,), trees=10))[0]
        records = run_cell(cell, 7)
        assert all(all(rec.values()) for rec in records)

    def test_single_tree_delta_is_bernoulli(self):
        cell = cells(tiny_spec(trees=1, budgets=(10,)))[0]
        report = pathology_report(cell, run_cell(cell, 7))
        assert report.deltas[0] in (0.0, 1.0)

    def test_slices_concatenate_to_full_run(self):
        cell = cells(tiny_spec(trees=12))[0]
        full = run_cell(cell, 7)
        split = run_cell(cell, 7, tree_range=range(0, 5)) + run_cell(
            cell, 7, tree_range=range(5, 12)
        )
        assert full == split

    def test_alphabeta_budgets_are_depths(self):
        cell = cells(
            tiny_spec(
                heuristics=("perfect",),
                budgets=(1, 3),
                algorithm="alphabeta",
                trees=15,
            )
        )[0]
        report = pathology_report(cell, run_cell(cell, 7))
        assert report.deltas == (1.0, 1.0)


class TestPathologyReport:
    def test_division(self):
        cell = cells(tiny_spec(budgets=(10, 1000)))[0]
        records = []
        records += [{10: True, 1000: True}] * 6
        records += [{10: True, 1000: False}] * 2
        records += [{10: False, 1000: False}] * 2
        report = pathology_report(cell, records)
        assert report.deltas == (0.8, 0.6)
        assert report.pathology[0] == 1.0
        assert report.pathology[1] == pytest.approx(0.75)
        assert report.baseline_defined

    def test_constant_delta_unit_pathology(self):
        cell = cells(tiny_spec(budgets=(10, 100, 1000)))[0]
        records = [{10: True, 100: True, 1000: True}] * 5
        report = pathology_report(cell, records)
        assert report.pathology == (1.0, 1.0, 1.0)

    def test_zero_baseline_flagged_not_thrown(self):
        cell = cells(tiny_spec(budgets=(10, 100)))[0]
        records = [{10: False, 100: True}] * 4
        report = pathology_report(cell, records)
        assert all(math.isnan(p) for p in report.pathology)
        assert not report.baseline_defined

    def test_standard_errors(self):
        cell = cells(tiny_spec(budgets=(10,)))[0]
        records = [{10: True}] * 3 + [{10: False}] * 1
        report = pathology_report(cell, records)
        assert report.standard_errors[0] == pytest.approx(math.sqrt(0.75 * 0.25 / 4))


def fair_coin(c, budgets, heuristic):
    """A DECIDERS builder drawing a uniform random action per budget."""

    def decide(trees):
        actions = []
        for params, search_seed in trees:
            rng = Random(search_seed)
            actions.append({j: rng.randrange(params.branching_factor) for j in budgets})
        return actions

    return decide


def counting(name, search, calls):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return search(*args, **kwargs)

    return wrapper


class TestStatisticalWiring:
    def test_fair_coin_stub_near_chance(self, monkeypatch):
        # under "uct" the coin sees the trees and search seeds of UCT's cells
        monkeypatch.setitem(DECIDERS, "uct", fair_coin)
        for b in (2, 5):
            spec = tiny_spec(branchings=(b,), trees=400, budgets=(10, 100))
            report = run_grid(spec)[0]
            for delta in report.deltas:
                se = math.sqrt((1 / b) * (1 - 1 / b) / 400)
                assert abs(delta - 1 / b) <= 3 * se
        # a new name needs only its entry in the table
        monkeypatch.setitem(DECIDERS, "coin", fair_coin)
        assert GridSpec(algorithm="coin").algorithm == "coin"
        assert csv_lines(run_grid(tiny_spec(algorithm="coin")))[1].split(",")[4] == "coin"


SEARCHES = ("uct_search", "alphabeta", "minimax_decisions")


class TestDeciders:
    def test_searches_looked_up_when_trees_run(self, monkeypatch):
        """Wrappers installed after import see every search: one per tree
        for UCT and, for alpha-beta depths within the cap, one full-width
        pass per block of trees, here one per task; and the CSV holds."""
        for algorithm, budgets in (("uct", (5, 20)), ("alphabeta", (1, 2, 3))):
            spec = tiny_spec(
                trees=6, budgets=budgets, max_depth=6, algorithm=algorithm, branchings=(2, 3)
            )
            plain = csv_lines(run_grid(spec, workers=1))
            calls = []
            with monkeypatch.context() as patch:
                for name in SEARCHES:
                    patch.setattr(experiments, name, counting(name, getattr(experiments, name), calls))
                counted = csv_lines(run_grid(spec, workers=1))
            if algorithm == "uct":
                assert calls == ["uct_search"] * (len(cells(spec)) * spec.trees)
            else:  # at most 6 trees of 27 leaves per task: one block each
                assert calls == ["minimax_decisions"] * len(grid_tasks(spec, 1))
            assert counted == plain

    def test_alphabeta_takes_the_depths_past_the_cap(self, monkeypatch):
        """b^d at or under ENUM_CAP goes to the full-width pass, every
        deeper depth to one alpha-beta search; decisions are alpha-beta's."""
        # 2^19 = 524288 <= 10^6 < 2^20
        spec = tiny_spec(
            budgets=(3, 19, 20, 21), max_depth=30, trees=1, algorithm="alphabeta",
            heuristics=("gaussian:0.3",),
        )
        cell = cells(spec)[0]
        calls = []

        def record(name, search):
            def wrapper(params, *args):
                calls.append((name, args[0] if name == "minimax_decisions" else args[1].depth))
                return search(params, *args)

            return wrapper

        with monkeypatch.context() as patch:
            for name in SEARCHES[1:]:
                patch.setattr(experiments, name, record(name, getattr(experiments, name)))
            records = run_cell(cell, spec.master_seed)
        assert calls == [("minimax_decisions", [3, 19]), ("alphabeta", 20), ("alphabeta", 21)]
        [(params, optimal, search_seed)] = experiments.cell_trees(cell, spec.master_seed, range(1))
        for depth in (3, 19):
            cfg = MinimaxConfig(depth, parse_heuristic("gaussian:0.3"), search_seed)
            assert records[0][depth] == (alphabeta(params, (), cfg).best_action in optimal)

    @pytest.mark.parametrize(
        "b, budgets, max_depth, trees, blocks",
        [
            (2, (1, 3), 8, 1, [1]),  # one tree
            (2, (2, 6), 8, 300, [128, 128, 44]),  # 2^6 leaves; 300 trees do not fill 3 blocks
            (2, (4, 10), 12, 17, [8, 8, 1]),  # 2^10 leaves: 8 trees fill a block exactly
            (3, (3, 8), 10, 3, [1, 1, 1]),  # 3^8 leaves: two trees would pass 2^13
            (2, (5, 14), 20, 2, [1, 1]),  # 2^14 leaves: one tree alone passes 2^13
            (2, (3, 12, 13), 10, 9, [8, 1]),  # past max_depth 10 the frontier has 2^10 leaves
        ],
    )
    def test_blocks_decide_as_alphabeta(self, monkeypatch, b, budgets, max_depth, trees, blocks):
        """A slice goes to the full-width pass in blocks of at most 2^13
        frontier leaves (or one tree); every decision is alpha-beta's."""
        rng = Random(f"{b}|{budgets}|{trees}")
        heuristic = parse_heuristic("gaussian:0.3")
        pairs = [(GameParams(b, 0.8, max_depth, rng.getrandbits(64)), rng.getrandbits(64))
                 for _ in range(trees)]
        sizes = []
        search = experiments.minimax_decisions

        def recorded(block, depths, spec):
            sizes.append(len(block))
            return search(block, depths, spec)

        monkeypatch.setattr(experiments, "minimax_decisions", recorded)
        decisions = DECIDERS["alphabeta"](0.5, budgets, heuristic)(pairs)
        assert sizes == blocks
        for (params, seed), actions in zip(pairs, decisions, strict=True):
            assert actions == {
                d: alphabeta(params, (), MinimaxConfig(d, heuristic, seed)).best_action
                for d in budgets
            }


class TestGridTasks:
    def test_slices_are_cut_from_the_whole_grid(self):
        """About four tasks per worker, never more than one cell each."""
        # criteria 3/4: 2 cells of 300 trees on 2 workers keep 75-tree slices
        spec = tiny_spec(explorations=(0.5, 2.0), trees=300)
        assert [len(t) for _, _, t in grid_tasks(spec, 2)] == [75] * 8
        # the benchmark's alpha-beta grid: 20 cells of 10 trees run 20 one-cell tasks
        spec = GridSpec(algorithm="alphabeta", gammas=(1.0,), branchings=(2, 3),
                        heuristics=("histogram:chess_p10_light", "gaussian:0.3"),
                        budgets=(2, 4, 6, 8), trees=10)
        tasks = grid_tasks(spec, 2)
        assert [(cell, t) for cell, _, t in tasks] == [(cell, range(10)) for cell in cells(spec)]
        # uneven cuts cover each cell's trees once, in order
        spec = tiny_spec(gammas=(0.5, 1.0), trees=7)
        for workers in (1, 2, 3, 5):
            tasks = grid_tasks(spec, workers)
            for cell in cells(spec):
                covered = [i for c, _, t in tasks if c == cell for i in t]
                assert covered == list(range(7))


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenAlphabeta:
    """Alpha-beta grids recorded before the full-width pass (the first two)
    and before its rough Gaussian scoring (the third); it must reproduce
    them byte for byte."""

    @pytest.mark.parametrize(
        "name, grid",
        [
            # the worker-count grid of CI, at 20 trees
            ("alphabeta_ci.csv", dict(gammas=(1.0,), branchings=(2, 3),
                                      heuristics=("histogram:chess_p10_light", "gaussian:0.3"),
                                      budgets=(2, 4, 6))),
            # budget 5 lies past max_depth 4
            ("alphabeta_edges.csv", dict(gammas=(0.0, 0.5), branchings=(2, 3),
                                         heuristics=("perfect", "playout-l1", "playout-linf"),
                                         budgets=(1, 3, 5), max_depth=4)),
            # rough Gaussian levels and their exact re-scores: sigma 0 ties every
            # clipped value, and budget 11 lies past max_depth 9
            ("alphabeta_gaussian.csv", dict(gammas=(0.5, 0.9, 1.0), branchings=(2, 3),
                                            heuristics=("gaussian:0.0", "gaussian:0.05",
                                                        "gaussian:0.3", "gaussian:1.5"),
                                            budgets=(1, 2, 3, 5, 7, 11), max_depth=9)),
        ],
    )
    def test_results_csv_unchanged(self, tmp_path, name, grid):
        spec = GridSpec(explorations=(0.5,), trees=20, algorithm="alphabeta", **grid)
        emit_results(spec, run_grid(spec), tmp_path)
        assert (tmp_path / "results.csv").read_bytes() == (GOLDEN / name).read_bytes()


class TestDeterminism:
    def test_identical_spec_identical_csv(self):
        spec = tiny_spec()
        a = csv_lines(run_grid(spec))
        b = csv_lines(run_grid(spec))
        assert a == b

    def test_cell_order_isolation(self):
        spec = tiny_spec(gammas=(0.5, 1.0))
        grid = cells(spec)
        forward = {cell_key(c): pathology_report(c, run_cell(c, spec.master_seed)) for c in grid}
        backward = {
            cell_key(c): pathology_report(c, run_cell(c, spec.master_seed))
            for c in reversed(grid)
        }
        for key, report in forward.items():
            assert report.deltas == backward[key].deltas

    def test_worker_pool_matches_inline(self):
        for algorithm, budgets in (("uct", (5, 20)), ("alphabeta", (1, 3))):
            spec = tiny_spec(
                trees=8, budgets=budgets, max_depth=6, algorithm=algorithm,
                gammas=(0.5, 1.0), branchings=(2, 3),
            )
            inline = "\n".join(csv_lines(run_grid(spec, workers=1)))
            for workers in (2, 3):
                assert "\n".join(csv_lines(run_grid(spec, workers=workers))) == inline

    def test_wall_time_is_measured_per_cell(self):
        spec = tiny_spec(trees=4, budgets=(5, 20), gammas=(0.5, 1.0), branchings=(2, 3))
        for workers in (1, 2):
            times = [r.wall_time for r in run_grid(spec, workers=workers)]
            assert all(t > 0 for t in times)
            assert len(set(times)) > 1

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            run_grid(tiny_spec(), workers=0)


class TestTheoremBound:
    def test_frozen_values(self):
        assert theorem_c_bound(2) == pytest.approx(2.4022448175728996, abs=1e-12)
        assert theorem_c_bound(512) == pytest.approx(3279.8649242595325, abs=1e-9)
        assert theorem_c_bound(1000) == pytest.approx(8507.785472762109, abs=1e-8)

    def test_monotone(self):
        n = 2
        while n <= 4096:
            assert theorem_c_bound(2 * n) > theorem_c_bound(n)
            n *= 2

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            theorem_c_bound(1)

    def test_experiment_smoke(self):
        """run_theorem_experiment is a fold over theorem_runs."""
        for b, rep in zip((2, 3), run_theorem_experiment(64, (2, 3), 8, 10, 3), strict=True):
            runs = list(theorem_runs(64, b, 8, 10, 3))
            uniform = sum(result.breadth_first.holds for _, _, result in runs) / 8
            accuracy = sum(result.final_action in optimal for _, optimal, result in runs) / 8
            se = math.sqrt(accuracy * (1.0 - accuracy) / 8)
            assert (rep.breadth_first_fraction, rep.accuracy, rep.standard_error) == (
                uniform, accuracy, se)
            assert uniform == 1.0
            assert (rep.branching, rep.exploration) == (b, pytest.approx(theorem_c_bound(64)))


class TestEmission:
    def test_csv_shape_and_header(self):
        spec = tiny_spec(trees=6)
        lines = csv_lines(run_grid(spec))
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(cells(spec)) * len(spec.budgets)
        row = lines[1].split(",")
        assert row[0] == "1" and row[1] == "2" and row[2] == "0.5"
        assert row[3] == "hist:chess_p10_light"
        assert row[4] == "uct"
        float(row[6]), float(row[7])  # delta, se parse
        assert row[8] == "1.000000" or row[8] == "nan"

    def test_files_written_and_reproducible(self, tmp_path):
        spec = tiny_spec(trees=6)
        reports = run_grid(spec)
        first = emit_results(spec, reports, tmp_path / "a")
        second = emit_results(spec, reports, tmp_path / "b")
        names = [p.name for p in first]
        assert names == ["results.csv", "pathology.svg", "manifest.txt"]
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes()
        svg = (tmp_path / "a" / "pathology.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        manifest = (tmp_path / "a" / "manifest.txt").read_text()
        assert "master_seed = 7" in manifest
        assert "algorithm = 'uct'" in manifest

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results(tiny_spec(), [], tmp_path)

    def test_nan_pathology_in_csv(self):
        cell = cells(tiny_spec(budgets=(10, 100)))[0]
        report = pathology_report(cell, [{10: False, 100: False}] * 3)
        lines = csv_lines([report])
        assert lines[1].endswith(",nan")
        assert lines[2].endswith(",nan")
