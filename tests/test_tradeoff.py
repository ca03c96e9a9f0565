import csv
import io
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from streamseq import (
    BoundsError,
    ContractError,
    CostCounter,
    CountParams,
    MiningParams,
    ParameterError,
    StreamQueue,
    SweepConfig,
    SweepPoint,
    UpdateInput,
    ViewWindow,
    distance,
    generate,
    ius_update,
    mine,
    recommend,
    recommendation_text,
    run_sweep,
    sweep_csv,
    window,
)
from streamseq import tradeoff
from streamseq.tradeoff import find_intersections, min_max_normalize
from conftest import random_queue
from test_acceptance import _trend_config, _trend_params


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
            difference=Fraction(d).limit_denominator(1000),
        )
        for x, s, d in zip(xs, sp, df)
    ]


def _reference_crossings(points, initial_size):
    """An exact reference for recommend: the normalized curves as
    Fractions, then every rung where they are equal and every segment
    whose ends lie strictly on opposite sides, solved as two lines.
    None for a degenerate sweep."""
    xs = [Fraction(p.delta_size) for p in points]
    curves = []
    for raw in (
        [Fraction(p.t_full) / Fraction(p.t_ius) for p in points],
        [Fraction(p.difference) for p in points],
    ):
        lo, hi = min(raw), max(raw)
        if lo == hi:
            return None
        curves.append([(v - lo) / (hi - lo) for v in raw])
    (a, b), found = curves, set()
    for i, x in enumerate(xs):
        if a[i] == b[i]:
            found.add(x)
    for i in range(len(xs) - 1):
        d0, d1 = a[i] - b[i], a[i + 1] - b[i + 1]
        if d0 * d1 < 0:
            slope = (d1 - d0) / (xs[i + 1] - xs[i])
            found.add(xs[i] - d0 / slope)
    return [x / initial_size for x in sorted(found)]


@st.composite
def _tied_sweeps(draw):
    """Small-integer sweeps, where equal normalized values are common."""
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    return [
        SweepPoint(
            delta_size=sum(gaps[: i + 1]),
            t_full=draw(st.integers(1, 6)),
            t_ius=draw(st.integers(1, 4)),
            difference=Fraction(draw(st.integers(0, 6)), 6),
        )
        for i in range(n)
    ]


class TestRecommend:
    def test_an_exact_tie_is_a_crossing(self):
        # at the first rung both normalized curves are exactly 1/5; in
        # floats the speedup's reads a hair above the difference's, so the
        # first crossing was missed and the ratio read 4.346
        pts = [
            SweepPoint(d, t_full, t_ius, diff)
            for d, t_full, t_ius, diff in zip(
                (6, 22, 43, 46, 49, 51),
                (27, 28, 14, 30, 6, 28),
                (9, 2, 7, 7, 24, 16),
                map(Fraction, ("1/6", "1/6", "0", "5/6", "1/3", "1/3")),
            )
        ]
        rec = recommend(pts, 10)
        assert rec.chosen_x == 6.0 and rec.ratio == 0.6
        assert recommendation_text(rec).splitlines()[1] == "ratio=0.600000"
        rows = list(csv.DictReader(io.StringIO(sweep_csv(pts))))
        assert rows[0]["speedup_norm"] == rows[0]["difference_norm"] == "0.200000"

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_tied_sweeps(), st.integers(1, 50))
    def test_crossings_equal_an_exact_reference(self, pts, initial_size):
        want = _reference_crossings(pts, initial_size)
        rec = recommend(pts, initial_size)
        assert rec.degenerate == (want is None)
        want = want or []
        assert rec.crossings == tuple(float(r * initial_size) for r in want)
        assert rec.ratio == (float(want[0]) if want else None)
        assert rec.ratio_range == ((float(want[0]), float(want[-1])) if want else None)

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

    @pytest.mark.parametrize("bad", [True, 60.0, 60.5, "60", None])
    def test_rejects_an_initial_size_that_is_not_an_int(self, bad):
        pts = _points([10, 20], [2.0, 1.0], [0.0, 1.0])
        with pytest.raises(ParameterError):
            recommend(pts, bad)

    def test_rejects_an_initial_size_below_1(self):
        pts = _points([10, 20], [2.0, 1.0], [0.0, 1.0])
        message = "^initial_size must be an integer >= 1, got 0$"
        with pytest.raises(ParameterError, match=message):
            recommend(pts, 0)

    def test_needs_two_points(self):
        with pytest.raises(ContractError):
            recommend(_points([100], [5.0], [0.1]), 1000)

    def test_crossings_invariant_under_speedup_scaling(self):
        # normalization eats a rescaling of the speedups, here of every
        # t_full by 7, which is exact in floats for these values; the raw
        # speedups, 1 down to 1/8, cross the normalized differences, and
        # scaled by 7 they would not
        pts = _points([100, 200, 300, 400], [1.0, 0.5, 0.25, 0.125], [0.0, 0.3, 0.4, 0.9])
        base = recommend(pts, 400)
        scaled = recommend(
            [SweepPoint(p.delta_size, p.t_full * 7, p.t_ius, p.difference) for p in pts],
            400,
        )
        assert len(base.crossings) == 1
        assert scaled == base


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

    def test_wall_clock_reps_start_from_empty_memos(self, monkeypatch):
        # a window that an earlier count used would time memo hits; every
        # slot but the window's range and its parent is a memo
        seen = []
        real_mine, real_update = tradeoff.mine, tradeoff.ius_update
        memos = [
            slot for slot in ViewWindow.__slots__
            if slot not in ("queue", "start", "size", "_low", "_parent")
        ]

        def used(windows):
            return any(getattr(w, slot) for w in windows for slot in memos)

        def mine(blocks, params, cost=None):
            blocks = list(blocks)
            seen.append(("mine", used(blocks)))
            return real_mine(blocks, params, cost)

        def ius_update(inp, cost=None):
            seen.append(("update", used(inp.old_blocks + inp.delta_blocks)))
            return real_update(inp, cost)

        monkeypatch.setattr(tradeoff, "mine", mine)
        monkeypatch.setattr(tradeoff, "ius_update", ius_update)
        q = random_queue(random.Random(64), 80, ["a", "b", "c"])
        cfg = SweepConfig(
            initial_size=40,
            delta_sizes=(10, 30),
            params=_params(),
            timing="wall_clock",
            repetitions=3,
        )
        run_sweep(q, cfg)
        # the base mine, then per delta its increment mine and 3 reps of each
        assert [kind for kind, _ in seen] == ["mine"] + 2 * (
            ["mine"] * 4 + ["update"] * 3
        )
        assert not any(reused for _, reused in seen)

    def test_cost_units_run_no_remine(self, monkeypatch):
        # the re-mine's charge comes from the lattice, so only the base
        # and the increments are mined
        calls = []
        real_mine = tradeoff.mine

        def mine(blocks, params, cost=None):
            calls.append(len(blocks))
            return real_mine(blocks, params, cost)

        monkeypatch.setattr(tradeoff, "mine", mine)
        q = random_queue(random.Random(65), 90, ["a", "b", "c"])
        cfg = SweepConfig(initial_size=40, delta_sizes=(10, 30, 50), params=_params())
        run_sweep(q, cfg)
        assert calls == [1] * (1 + len(cfg.delta_sizes))

    def test_wall_clock_refuses_an_update_that_disagrees_with_the_remine(self, monkeypatch):
        real_update = tradeoff.ius_update

        def ius_update(inp, cost=None):
            upd = real_update(inp, cost)
            upd.frequent.popitem()
            return upd

        monkeypatch.setattr(tradeoff, "ius_update", ius_update)
        q = random_queue(random.Random(66), 80, ["a", "b", "c"])
        cfg = SweepConfig(
            initial_size=40,
            delta_sizes=(10, 30),
            params=_params(),
            timing="wall_clock",
            repetitions=1,
        )
        with pytest.raises(ContractError, match="disagree"):
            run_sweep(q, cfg)

    def test_a_trend_sweep_peak_memory_stays_in_budget(self):
        # the seed-1 trend sweep in cost units peaked at 2.26 MiB traced;
        # when each head cut every label to itself to list its alphabet
        # it read 3.11 MiB
        q = generate(_trend_config(1, 100_000, drift_at=20_000))
        q.alphabet()  # builds the bitmap column, which a read log comes with
        cfg = SweepConfig(20_000, tuple(range(2_000, 18_001, 2_000)), _trend_params())
        tracemalloc.start()
        try:
            run_sweep(q, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * 2**20

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
        message = "^every delta size must be an integer >= 1, got 0$"
        with pytest.raises(ParameterError, match=message):
            SweepConfig(initial_size=1, delta_sizes=(0, 5), params=_params())
        with pytest.raises(ParameterError):
            SweepConfig(initial_size=1, delta_sizes=(1,), params=_params(), timing="gpu")
        with pytest.raises(ParameterError):
            SweepConfig(initial_size=1, delta_sizes=(1,), params=_params(), repetitions=0)

    # True used to run as a delta of 1 and print "True" in the CSV, and a
    # float to fail inside the counter with a bare TypeError
    _NOT_INTS = [True, False, 60.0, 60.5, "60", None]

    @pytest.mark.parametrize("bad", _NOT_INTS)
    def test_rejects_an_initial_size_that_is_not_an_int(self, bad):
        with pytest.raises(ParameterError):
            SweepConfig(initial_size=bad, delta_sizes=(10, 20), params=_params())

    @pytest.mark.parametrize("bad", _NOT_INTS)
    def test_rejects_a_delta_size_that_is_not_an_int(self, bad):
        with pytest.raises(ParameterError):
            SweepConfig(initial_size=60, delta_sizes=(bad, 70), params=_params())

    @pytest.mark.parametrize("bad", _NOT_INTS)
    def test_rejects_repetitions_that_are_not_an_int(self, bad):
        with pytest.raises(ParameterError):
            SweepConfig(
                initial_size=60, delta_sizes=(10, 20), params=_params(), repetitions=bad
            )


def _reference_sweep(queue, cfg):
    """run_sweep in cost units with every rung a fresh window, or None
    when some rung's update rescans nothing, which run_sweep refuses."""
    w0 = window(queue, 0, cfg.initial_size)
    base = mine([w0], cfg.params)
    points = []
    for d in cfg.delta_sizes:
        dw = window(queue, cfg.initial_size, d)
        part = mine([dw], cfg.params)
        full_cost, upd_cost = CostCounter(), CostCounter()
        full = mine([w0, dw], cfg.params, cost=full_cost)
        upd = ius_update(UpdateInput(base, [w0], part, [dw]), cost=upd_cost)
        assert upd.frequent == full.frequent
        t_full, t_ius = full_cost.window_evaluations, upd_cost.window_evaluations
        if t_ius == 0:
            return None
        points.append(
            SweepPoint(
                delta_size=d,
                t_full=t_full,
                t_ius=t_ius,
                difference=distance(frozenset(base.frequent), frozenset(full.frequent)),
            )
        )
    return points


@st.composite
def _sweeps(draw):
    """A random queue and a cost-unit sweep over it.  Spans run past the
    base window and past the shortest rungs, so rungs with no start
    position, and bases with none, are drawn too.  A base and a rung that
    both have none leave the update nothing to charge, so half the
    ladders start at the span.  max_len is drawn with None among its
    values, so the re-mine's charge stops both at an empty level and at
    the cap."""
    span = draw(st.integers(1, 10), label="span")
    initial = draw(st.integers(1, 20), label="initial")
    low = draw(st.sampled_from([1, span]), label="shortest allowed rung")
    rungs = st.sets(st.integers(low, 40), min_size=1, max_size=5)
    deltas = sorted(draw(rungs, label="deltas"))
    n = initial + deltas[-1] + draw(st.integers(0, 5))
    labels = st.sets(st.sampled_from("abcd"), min_size=1, max_size=2)
    rows = draw(st.lists(labels, min_size=n, max_size=n))
    supp = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 5), Fraction(1, 3)]))
    max_len = draw(st.sampled_from([None, 1, 2, 3]), label="max_len")
    params = MiningParams(supp, supp / 2, CountParams(span), max_len=max_len)
    queue = StreamQueue((i + 1, r) for i, r in enumerate(rows))
    return queue, SweepConfig(initial_size=initial, delta_sizes=tuple(deltas), params=params)


class TestRunSweepProperties:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_sweeps())
    def test_equals_a_sweep_over_fresh_windows(self, case):
        """Every rung counted through the widest increment's start sets
        gives the points of rungs built as their own windows."""
        queue, cfg = case
        want = _reference_sweep(queue, cfg)
        if want is None:
            with pytest.raises(ContractError):
                run_sweep(queue, cfg)
        else:
            assert run_sweep(queue, cfg) == want


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

    def test_csv_needs_a_point(self):
        with pytest.raises(ParameterError, match="^no sweep points to render$"):
            sweep_csv([])

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
