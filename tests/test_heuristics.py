"""Leaf evaluator tests: exact values, sampling statistics, file format."""

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critgames import heuristics
from critgames.bitmix import MASK64, KeyedDraws
from critgames.heuristics import (
    EvalContext,
    HeuristicSpec,
    HistogramPdf,
    bundled_histogram,
    evaluate,
    frontier_scorer,
    gaussian,
    histogram,
    load_histogram,
    normalized,
    parse_heuristic,
    perfect,
    playout_l1,
    playout_linf,
    save_histogram,
)
from critgames.tree_model import MINUS, PLUS, GameParams, Player, player_at


# eight normalized weights whose running sum ends at 1 - 2^-53, then an empty top bin
_rng = Random(26)
ROUNDED_BELOW_ONE = normalized([_rng.random() for _ in range(8)] + [0.0])


def ctx_for(value, player=Player.MAX, depth=0, gamma=1.0, b=2, d_max=4):
    params = GameParams(branching_factor=b, critical_rate=gamma, max_depth=d_max, seed=1)
    return EvalContext(value=value, player=player, depth=depth, params=params)


class TestPerfect:
    def test_plus_is_one(self):
        assert evaluate(perfect(), ctx_for(PLUS), Random(0)) == 1.0

    def test_minus_is_zero(self):
        assert evaluate(perfect(), ctx_for(MINUS), Random(0)) == 0.0

    def test_separation_is_total(self):
        rng = Random(7)
        plus = [evaluate(perfect(), ctx_for(PLUS), rng) for _ in range(200)]
        minus = [evaluate(perfect(), ctx_for(MINUS), rng) for _ in range(200)]
        assert min(plus) >= max(minus)


class TestGaussian:
    def test_sigma_zero_is_exact(self):
        spec = gaussian(0.0)
        assert evaluate(spec, ctx_for(PLUS), Random(0)) == 1.0
        assert evaluate(spec, ctx_for(MINUS), Random(0)) == 0.0

    def test_clamped_to_unit_interval(self):
        spec = gaussian(5.0)
        rng = Random(3)
        draws = [evaluate(spec, ctx_for(PLUS), rng) for _ in range(2000)]
        assert all(0.0 <= r <= 1.0 for r in draws)
        assert min(draws) == 0.0 and max(draws) == 1.0

    def test_classes_shift_means(self):
        spec = gaussian(0.3)
        rng = Random(11)
        plus = [evaluate(spec, ctx_for(PLUS), rng) for _ in range(5000)]
        minus = [evaluate(spec, ctx_for(MINUS), rng) for _ in range(5000)]
        assert sum(plus) / len(plus) > 0.8
        assert sum(minus) / len(minus) < 0.2

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian(-0.1)


class TestPlayouts:
    def test_linf_terminal_minus_is_zero(self):
        ctx = ctx_for(MINUS, depth=4, d_max=4)
        assert evaluate(playout_linf(), ctx, Random(0)) == 0.0

    def test_linf_depth_two_remaining(self):
        # gamma=1, b=2, +1 Max node, two levels left: density 0.75
        ctx = ctx_for(PLUS, depth=2, d_max=4)
        assert evaluate(playout_linf(), ctx, Random(0)) == pytest.approx(0.75, abs=1e-12)

    def test_linf_deterministic(self):
        ctx = ctx_for(MINUS, player=Player.MIN, depth=1, gamma=0.7, b=3, d_max=6)
        values = {evaluate(playout_linf(), ctx, Random(seed)) for seed in range(20)}
        assert len(values) == 1

    def test_l1_is_bernoulli(self):
        ctx = ctx_for(PLUS, depth=2, d_max=4)
        rng = Random(5)
        draws = {evaluate(playout_l1(), ctx, rng) for _ in range(500)}
        assert draws == {0.0, 1.0}

    def test_l1_mean_matches_linf(self):
        ctx = ctx_for(PLUS, depth=1, player=Player.MIN, gamma=0.8, b=3, d_max=5)
        target = evaluate(playout_linf(), ctx, Random(0))
        rng = Random(42)
        n = 100_000
        mean = sum(evaluate(playout_l1(), ctx, rng) for _ in range(n)) / n
        assert abs(mean - target) <= 0.01


class TestHistogramPdf:
    def test_two_bin_classes(self):
        pdf = HistogramPdf((0.5, 0.5), (1.0, 0.0))
        rng = Random(9)
        plus = [pdf.sample(PLUS, rng) for _ in range(4000)]
        minus = [pdf.sample(MINUS, rng) for _ in range(4000)]
        assert all(0.0 <= x < 1.0 for x in plus)
        assert all(0.0 <= x < 0.5 for x in minus)
        # plus really is uniform on [0,1]: both halves hit
        assert sum(x >= 0.5 for x in plus) > 1700
        assert abs(sum(plus) / len(plus) - 0.5) < 0.02

    def test_single_bin_mass(self):
        weights = tuple(normalized([1.0] + [0.0] * 63))
        pdf = HistogramPdf(weights, weights)
        rng = Random(2)
        draws = [pdf.sample(PLUS, rng) for _ in range(2000)]
        assert all(0.0 <= x < 1.0 / 64 for x in draws)

    def test_bin_frequencies_within_three_se(self):
        pdf = bundled_histogram("chess_p10_light")
        rng = Random(17)
        n = 200_000
        counts = [0] * pdf.bin_count
        for _ in range(n):
            counts[int(pdf.sample(PLUS, rng) * pdf.bin_count)] += 1
        for w, c in zip(pdf.plus_weights, counts):
            se = math.sqrt(max(w * (1 - w), 1e-12) / n)
            assert abs(c / n - w) <= 3 * se + 1e-9

    def test_mean_is_bin_weighted(self):
        pdf = HistogramPdf((0.25, 0.75), (1.0, 0.0))
        assert pdf.mean(PLUS) == pytest.approx(0.25 * 0.25 + 0.75 * 0.75)
        assert pdf.mean(MINUS) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramPdf((1.0,), (1.0,))
        with pytest.raises(ValueError):
            HistogramPdf((0.5, 0.5), (0.5, 0.5, 0.0))
        with pytest.raises(ValueError):
            HistogramPdf((-0.1, 1.1), (0.5, 0.5))
        with pytest.raises(ValueError):
            HistogramPdf((0.6, 0.6), (0.5, 0.5))
        with pytest.raises(ValueError, match="non-finite"):
            HistogramPdf((math.nan, 1.0), (0.5, 0.5))

    def test_draw_past_a_sum_rounded_below_one(self):
        # the largest draw used to run off the last bin
        weights = ROUNDED_BELOW_ONE
        assert sum(weights[:8]) == 1.0 - 2.0**-53
        pdf = HistogramPdf(weights, weights)
        top = 1.0 - 2.0**-53  # the largest `bitmix.unit` value

        class TopDraw:
            def random(self):
                return top

        x = pdf.sample(PLUS, TopDraw())
        assert x == pdf.quantile(PLUS, top)
        assert 7 / 9 <= x <= 8 / 9 + 1e-12  # the last positive bin

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_samples_stay_in_unit_interval(self, seed):
        pdf = bundled_histogram("chess_p10_heavy")
        rng = Random(seed)
        for cls in (PLUS, MINUS):
            x = pdf.sample(cls, rng)
            assert 0.0 <= x < 1.0


class TestBundledFiles:
    def test_light_class_means_ordered(self):
        pdf = bundled_histogram("chess_p10_light")
        assert pdf.mean(PLUS) > pdf.mean(MINUS)

    def test_heavy_separates_more_than_light(self):
        light = bundled_histogram("chess_p10_light")
        heavy = bundled_histogram("chess_p10_heavy")
        light_gap = light.mean(PLUS) - light.mean(MINUS)
        heavy_gap = heavy.mean(PLUS) - heavy.mean(MINUS)
        assert heavy_gap > light_gap > 0

    def test_classes_overlap(self):
        # both classes put mass on both sides of 0.5
        for name in ("chess_p10_light", "chess_p10_heavy"):
            pdf = bundled_histogram(name)
            half = pdf.bin_count // 2
            for cls in (PLUS, MINUS):
                ws = pdf.weights(cls)
                assert sum(ws[:half]) > 0.001
                assert sum(ws[half:]) > 0.001


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        pdf = HistogramPdf((0.25, 0.75), (0.9, 0.1), label="x")
        path = tmp_path / "x.hist"
        save_histogram(pdf, path, comment="round trip")
        again = load_histogram(path)
        assert again.plus_weights == pytest.approx(pdf.plus_weights)
        assert again.minus_weights == pytest.approx(pdf.minus_weights)
        assert again.label == "x"

    def test_normalizes_raw_weights(self, tmp_path):
        path = tmp_path / "raw.hist"
        path.write_text("bins=2\nplus=2 2\nminus=3 1\n")
        pdf = load_histogram(path)
        assert pdf.plus_weights == pytest.approx((0.5, 0.5))
        assert pdf.minus_weights == pytest.approx((0.75, 0.25))

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.hist"
        path.write_text("# header\n\nbins=2\nplus=1 0  # trailing\nminus=0 1\n")
        pdf = load_histogram(path)
        assert pdf.plus_weights == (1.0, 0.0)

    @pytest.mark.parametrize(
        "body",
        [
            "bins=2\nplus=1 0\n",  # missing minus
            "bins=3\nplus=1 0\nminus=0 1\n",  # count mismatch
            "bins=2\nplus=1 -1\nminus=0 1\n",  # negative
            "bins=2\nplus=1 nan\nminus=0 1\n",  # not a number
            "bins=2\nplus=1 0\nminus=inf 1\n",  # infinite
            "bins=2\nplus=0 0\nminus=0 1\n",  # zero total
            "bins=2\nplus=1 0\nminus=0 1\nextra=1\n",  # unknown key
            "bins=2\nbins=2\nplus=1 0\nminus=0 1\n",  # duplicate
            "bins=two\nplus=1 0\nminus=0 1\n",  # parse error
            "just text\n",
        ],
    )
    def test_rejects_malformed(self, tmp_path, body):
        path = tmp_path / "bad.hist"
        path.write_text(body)
        with pytest.raises(ValueError):
            load_histogram(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_histogram(tmp_path / "absent.hist")


class TestParseHeuristic:
    def test_forms(self, tmp_path):
        assert parse_heuristic("perfect").kind == "perfect"
        assert parse_heuristic("gaussian").sigma == 0.3
        assert parse_heuristic("gaussian:0.5").sigma == 0.5
        assert parse_heuristic("playout-l1").kind == "playout-l1"
        assert parse_heuristic("playout_linf").kind == "playout-linf"
        spec = parse_heuristic("histogram:chess_p10_light")
        assert spec.kind == "histogram"
        assert spec.histogram.label == "chess_p10_light"
        path = tmp_path / "own.hist"
        path.write_text("bins=2\nplus=1 0\nminus=0 1\n")
        assert parse_heuristic(f"histogram:{path}").histogram.bin_count == 2

    def test_labels(self):
        assert perfect().label == "perfect"
        assert gaussian(0.25).label == "gaussian(0.25)"
        assert parse_heuristic("histogram:chess_p10_heavy").label == "hist:chess_p10_heavy"

    def test_bundled_histogram_read_once(self, monkeypatch, tmp_path):
        calls = []

        def counting_load(*args, **kwargs):
            calls.append(args)
            return load_histogram(*args, **kwargs)

        monkeypatch.setattr(heuristics, "load_histogram", counting_load)
        bundled_histogram.cache_clear()
        try:
            specs = [parse_heuristic("histogram:chess_p10_light") for _ in range(3)]
            assert len(calls) == 1
            assert specs[0] == specs[1] == specs[2]
            # file-path histograms are read on every call
            path = tmp_path / "own.hist"
            path.write_text("bins=2\nplus=1 0\nminus=0 1\n")
            parse_heuristic(f"histogram:{path}")
            parse_heuristic(f"histogram:{path}")
            assert len(calls) == 3
        finally:
            bundled_histogram.cache_clear()

    def test_warm_bundled_parse_skips_package_lookup(self, monkeypatch, tmp_path):
        warm = parse_heuristic("histogram:chess_p10_light")
        calls = []
        files = heuristics.resources.files

        def counting_files(*args, **kwargs):
            calls.append(args)
            return files(*args, **kwargs)

        monkeypatch.setattr(heuristics.resources, "files", counting_files)
        # a same-named file in the working directory does not shadow the bundled one
        monkeypatch.chdir(tmp_path)
        (tmp_path / "chess_p10_light").write_text("bins=2\nplus=1 0\nminus=0 1\n")
        assert parse_heuristic("histogram:chess_p10_light") == warm
        assert calls == []

    def test_rejects(self):
        for text in ("nope", "histogram", "histogram:missing_name", "gaussian:x"):
            with pytest.raises(ValueError):
                parse_heuristic(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HeuristicSpec("histogram")  # histogram kind without data
        with pytest.raises(ValueError):
            HeuristicSpec("perfect", histogram=bundled_histogram("chess_p10_light"))


class TestRangeInvariant:
    @given(
        st.sampled_from(["perfect", "gaussian", "gaussian:1.5", "histogram:chess_p10_light",
                         "playout-l1", "playout-linf"]),
        st.sampled_from([PLUS, MINUS]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_all_kinds_in_unit_interval(self, text, value, depth, seed):
        spec = parse_heuristic(text)
        player = Player.MAX if depth % 2 == 0 else Player.MIN
        ctx = ctx_for(value, player=player, depth=depth, gamma=0.9, b=3, d_max=4)
        r = evaluate(spec, ctx, Random(seed))
        assert 0.0 <= r <= 1.0


SCORER_SPECS = [
    perfect(),
    gaussian(0.3),
    gaussian(0.0),
    gaussian(2.0),
    histogram(bundled_histogram("chess_p10_light")),
    # interior and trailing zero-weight bins
    histogram(HistogramPdf(normalized([0, 3, 0, 1, 2, 0, 0]), normalized([1, 0, 0, 2, 0, 1, 0]))),
    histogram(HistogramPdf(ROUNDED_BELOW_ONE, ROUNDED_BELOW_ONE[::-1])),
    playout_l1(),
    playout_linf(),
]


class TestFrontierScorer:
    @given(
        st.sampled_from(SCORER_SPECS),
        st.integers(min_value=2, max_value=10),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=MASK64),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_evaluate_bit_for_bit(self, spec, b, gamma, max_depth, key, data):
        params = GameParams(b, gamma, max_depth, seed=3)
        score = frontier_scorer(spec, params, key)  # one scorer for many nodes, as in a search
        nodes = data.draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=max_depth),  # max_depth: terminal
            st.sampled_from([PLUS, MINUS]),
            st.integers(min_value=0, max_value=MASK64),
        ), min_size=1, max_size=8))
        for depth, value, state in nodes:
            if depth == max_depth:
                want = 1.0 if value == PLUS else 0.0
            else:
                ctx = EvalContext(value, player_at(depth), depth, params)
                want = evaluate(spec, ctx, KeyedDraws(key ^ state))
            assert score(depth, value, state).hex() == want.hex(), (spec.label, depth, value)

    def test_terminal_gaussian_is_true_utility(self):
        params = GameParams(2, 1.0, 4, seed=1)
        score = frontier_scorer(gaussian(0.5), params, key=9)
        assert [score(4, PLUS, s) for s in range(50)] == [1.0] * 50
        assert [score(4, MINUS, s) for s in range(50)] == [0.0] * 50
