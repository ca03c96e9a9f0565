import csv
import io
import math
import random
from fractions import Fraction

import pytest

from streamseq import (
    BoundsError,
    ContractError,
    CountParams,
    MiningParams,
    ParameterError,
    SweepConfig,
    SweepPoint,
    find_intersections,
    min_max_normalize,
    recommend,
    recommendation_text,
    run_sweep,
    sweep_csv,
)
from conftest import random_queue


def _params(span=2, supp=Fraction(1, 5), nbd=Fraction(1, 10), max_len=3):
    return MiningParams(supp, nbd, CountParams(span), max_len=max_len)


class TestMinMaxNormalize:
    def test_endpoints_map_exactly(self):
        got = min_max_normalize([3.0, 1.0, 2.0])
        assert got[1] == 0.0 and got[0] == 1.0

    def test_constant_input_collapses_to_range_floor(self):
        assert min_max_normalize([4.2, 4.2, 4.2]) == [0.0, 0.0, 0.0]

    def test_order_preserved(self):
        rng = random.Random(31)
        for _ in range(50):
            vals = [rng.uniform(-50, 50) for _ in range(rng.randint(2, 20))]
            normed = min_max_normalize(vals)
            for i in range(len(vals)):
                for j in range(len(vals)):
                    if vals[i] < vals[j]:
                        assert normed[i] <= normed[j]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            min_max_normalize([])


class TestCurve:
    def test_x_must_strictly_increase(self):
        with pytest.raises(ParameterError):
            find_intersections([1.0, 1.0], [0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ParameterError):
            find_intersections([2.0, 1.0], [0.0, 1.0], [1.0, 0.0])


class TestFindIntersections:
    def test_simple_crossing_interpolates(self):
        assert find_intersections([0.0, 1.0], [0.0, 1.0], [1.0, 0.0]) == [0.5]

    def test_touch_at_grid_point_counted_once(self):
        xs = [0.0, 1.0, 2.0]
        assert find_intersections(xs, [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]) == [1.0]

    def test_multiple_crossings_in_order(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        a = [0.0, 2.0, 0.0, 2.0]
        b = [1.0, 1.0, 1.0, 1.0]
        assert find_intersections(xs, a, b) == [0.5, 1.5, 2.5]

    def test_disjoint_curves_have_no_crossing(self):
        xs = [0.0, 1.0]
        assert find_intersections(xs, [0.0, 0.5], [1.0, 2.0]) == []

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ContractError):
            find_intersections([0.0, 1.0], [0.0, 1.0], [1.0, 0.0, 2.0])
        with pytest.raises(ContractError):
            find_intersections([0.0, 1.0, 2.0], [0.0, 1.0], [1.0, 0.0])


def _points(xs, sp, df):
    return [
        SweepPoint(
            delta_size=int(x),
            t_full=s * 10.0,
            t_ius=10.0,
            speedup=s,
            difference=Fraction(d).limit_denominator(1000),
        )
        for x, s, d in zip(xs, sp, df)
    ]


class TestRecommend:
    def test_single_crossing(self):
        pts = _points([100, 200, 300], [9.0, 6.0, 3.0], [0.1, 0.2, 0.7])
        rec = recommend(pts, 1000)
        assert not rec.degenerate
        assert len(rec.crossings) == 1
        assert rec.chosen_x == rec.crossings[0]
        assert rec.ratio == rec.chosen_x / 1000
        assert rec.ratio_range == (rec.ratio, rec.ratio)

    def test_ratio_range_brackets_first_to_last(self):
        # speedup dips below and rises back over the difference curve
        pts = _points(
            [100, 200, 300, 400],
            [9.0, 3.0, 3.0, 9.0],
            [0.1, 0.5, 0.5, 0.1],
        )
        rec = recommend(pts, 400)
        assert len(rec.crossings) >= 2
        lo, hi = rec.ratio_range
        assert lo == rec.crossings[0] / 400
        assert hi == rec.crossings[-1] / 400
        assert lo < hi

    def test_constant_series_flags_degenerate(self):
        pts = _points([100, 200, 300], [5.0, 5.0, 5.0], [0.1, 0.2, 0.3])
        rec = recommend(pts, 1000)
        assert rec.degenerate
        assert rec.chosen_x is None and rec.ratio is None
        assert rec.crossings == ()

    def test_needs_two_points(self):
        with pytest.raises(ContractError):
            recommend(_points([100], [5.0], [0.1]), 1000)

    def test_crossings_invariant_under_speedup_scaling(self):
        # normalization eats affine rescaling of the raw series
        pts = _points([100, 200, 300, 400], [8.0, 5.0, 4.0, 2.0], [0.0, 0.3, 0.4, 0.9])
        base = recommend(pts, 400)
        scaled = recommend(
            [
                SweepPoint(p.delta_size, p.t_full, p.t_ius, p.speedup * 7, p.difference)
                for p in pts
            ],
            400,
        )
        assert len(base.crossings) == len(scaled.crossings)
        for x, y in zip(base.crossings, scaled.crossings):
            assert math.isclose(x, y, rel_tol=0, abs_tol=1e-9)


class TestRunSweep:
    def test_sweep_points_are_consistent(self):
        rng = random.Random(60)
        q = random_queue(rng, 120, ["a", "b", "c"])
        cfg = SweepConfig(initial_size=60, delta_sizes=(10, 20, 40), params=_params())
        pts = run_sweep(q, cfg)
        assert [p.delta_size for p in pts] == [10, 20, 40]
        for p in pts:
            assert p.speedup == p.t_full / p.t_ius
            assert isinstance(p.difference, Fraction)
            assert 0 <= p.difference <= 1

    def test_cost_mode_is_bit_identical_across_runs(self):
        rng = random.Random(61)
        q = random_queue(rng, 100, ["a", "b", "c", "d"])
        cfg = SweepConfig(initial_size=50, delta_sizes=(10, 25, 45), params=_params())
        assert run_sweep(q, cfg) == run_sweep(q, cfg)

    def test_wall_clock_mode_runs(self):
        rng = random.Random(62)
        q = random_queue(rng, 60, ["a", "b"])
        cfg = SweepConfig(
            initial_size=30,
            delta_sizes=(10, 25),
            params=_params(),
            timing="wall_clock",
            repetitions=1,
        )
        for p in run_sweep(q, cfg):
            assert p.t_full >= 0 and p.t_ius > 0

    def test_queue_too_short_rejected(self):
        rng = random.Random(63)
        q = random_queue(rng, 30, ["a"])
        cfg = SweepConfig(initial_size=25, delta_sizes=(10,), params=_params())
        with pytest.raises(BoundsError):
            run_sweep(q, cfg)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SweepConfig(initial_size=0, delta_sizes=(1,), params=_params())
        with pytest.raises(ParameterError):
            SweepConfig(initial_size=1, delta_sizes=(), params=_params())
        with pytest.raises(ParameterError):
            SweepConfig(initial_size=1, delta_sizes=(5, 5), params=_params())
        with pytest.raises(ParameterError):
            SweepConfig(initial_size=1, delta_sizes=(1,), params=_params(), timing="gpu")
        with pytest.raises(ParameterError):
            SweepConfig(initial_size=1, delta_sizes=(1,), params=_params(), repetitions=0)


class TestSerialization:
    def test_csv_shape_and_normalized_columns(self):
        pts = _points([100, 200, 300], [9.0, 6.0, 3.0], [0.1, 0.2, 0.7])
        rows = list(csv.DictReader(io.StringIO(sweep_csv(pts))))
        assert [r["delta_size"] for r in rows] == ["100", "200", "300"]
        assert set(rows[0]) == {
            "delta_size",
            "speedup",
            "difference",
            "speedup_norm",
            "difference_norm",
        }
        assert rows[0]["speedup_norm"] == "1.000000"
        assert rows[2]["speedup_norm"] == "0.000000"
        assert rows[0]["difference_norm"] == "0.000000"
        assert rows[2]["difference_norm"] == "1.000000"

    def test_recommendation_text_round_trips_the_numbers(self):
        pts = _points([100, 200, 300], [9.0, 6.0, 3.0], [0.1, 0.2, 0.7])
        rec = recommend(pts, 1000)
        text = recommendation_text(rec)
        fields = dict(line.split("=", 1) for line in text.splitlines())
        assert float(fields["crossing_x"]) == pytest.approx(rec.chosen_x)
        assert float(fields["ratio"]) == pytest.approx(rec.ratio)
        assert fields["degenerate"] == "false"

    def test_recommendation_text_degenerate(self):
        pts = _points([100, 200], [5.0, 5.0], [0.1, 0.2])
        text = recommendation_text(recommend(pts, 1000))
        fields = dict(line.split("=", 1) for line in text.splitlines())
        assert fields["crossing_x"] == "none"
        assert fields["ratio"] == "none"
        assert fields["degenerate"] == "true"
