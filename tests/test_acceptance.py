"""Shipping gate: one test per release criterion, plus a pin of the
desk-scale sweep's cost units and of what they are made of.

Each test prints a single summary line with its measured numbers and
asserts its own runtime budget.  A correct-but-slow run is a failure.

The trend tests share sweeps through a module cache: the drift stream
is expensive to generate, and the recommendation-stability check wants
the exact sweep the trend check scored.
"""

import random
import statistics
import time
from fractions import Fraction

from scipy.stats import spearmanr

from streamseq import (
    CostCounter,
    CountParams,
    GenConfig,
    MiningParams,
    Sequence,
    SweepConfig,
    SweepPoint,
    UpdateInput,
    distance,
    dump_pattern_file,
    generate,
    ius_update,
    load_pattern_file,
    mine,
    occur_partitioned,
    parse_event_log,
    recommend,
    run_sweep,
    serialize_event_log,
    window,
)
from streamseq import incremental, occurrence, tradeoff
from streamseq.cli import main as cli_main
from streamseq.tradeoff import min_max_normalize

from conftest import random_queue
from oracle import brute_force_frequent, shrink_by_one


# --- criterion 1: the pattern-set distance is a metric ---


def _subsets(universe):
    items = sorted(universe)
    return [
        frozenset(x for i, x in enumerate(items) if (mask >> i) & 1)
        for mask in range(1 << len(items))
    ]


def test_criterion_1_distance_is_a_metric():
    t0 = time.monotonic()

    subsets = _subsets(range(4))
    d = [[distance(a, b) for b in subsets] for a in subsets]
    n = len(subsets)
    triples = 0
    for i in range(n):
        assert d[i][i] == 0
        for j in range(n):
            assert d[i][j] == d[j][i]
            assert 0 <= d[i][j] <= 1
            assert (d[i][j] == 0) == (subsets[i] == subsets[j])
            for k in range(n):
                assert d[i][k] <= d[i][j] + d[j][k]
                triples += 1
    assert triples == 4096  # 16 subsets, all ordered triples

    rng = random.Random(101)
    for _ in range(10_000):
        a = frozenset(x for x in range(12) if rng.random() < 0.5)
        b = frozenset(x for x in range(12) if rng.random() < 0.5)
        c = frozenset(x for x in range(12) if rng.random() < 0.5)
        dab, dbc, dac = distance(a, b), distance(b, c), distance(a, c)
        assert dab == distance(b, a)
        assert distance(a, a) == 0
        assert (dab == 0) == (a == b)
        assert dac <= dab + dbc

    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(
        f"criterion 1: metric axioms on 4096 exhaustive triples + 10000 "
        f"random triples: PASS ({elapsed:.1f}s)"
    )


# --- criteria 2 and 3: agreement with the enumeration oracle ---


def _random_instance(rng):
    n_types = rng.randint(2, 8)
    alphabet = [chr(ord("a") + i) for i in range(n_types)]
    q = random_queue(rng, rng.randint(30, 300), alphabet, max_fill=2)
    span = rng.randint(2, 5)
    min_supp = Fraction(rng.randint(5, 50), 100)
    params = MiningParams(min_supp, min_supp / 2, CountParams(span), max_len=4)
    return q, params


def test_criterion_2_miner_matches_enumeration_oracle():
    t0 = time.monotonic()
    rng = random.Random(202)
    for _ in range(200):
        q, params = _random_instance(rng)
        w = window(q, 0, len(q))
        got = mine([w], params)
        want = brute_force_frequent(
            [w], params.count_params, params.min_supp, params.min_nbd_supp,
            params.max_len,
        )
        assert got.frequent == want.frequent
        assert got.border == want.border
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(
        f"criterion 2: miner == oracle on 200 random streams, all counts: "
        f"PASS ({elapsed:.1f}s)"
    )


def test_criterion_3_incremental_update_matches_full_mine():
    t0 = time.monotonic()
    rng = random.Random(303)
    for _ in range(200):
        q, params = _random_instance(rng)
        n = len(q)
        k = rng.randint(10, n - 10)
        w0 = window(q, 0, k)
        dw = window(q, k, n - k)
        upd = ius_update(UpdateInput(mine([w0], params), [w0], mine([dw], params), [dw]))
        full = mine([w0, dw], params)
        assert upd.frequent == full.frequent

        # soundness: every reported border entry re-counts into the band
        # and keeps the every-subsequence-frequent precondition
        supp_thr = params.supp_threshold(n)
        nbd_thr = params.nbd_threshold(n)
        for seq, count in upd.border.items():
            assert occur_partitioned(seq, [w0, dw], params.count_params) == count
            assert nbd_thr < count <= supp_thr
            assert all(s in upd.frequent for s in shrink_by_one(seq))
        # completeness: the update runs mine's search, so it misses nothing
        assert upd.border == full.border
    elapsed = time.monotonic() - t0
    assert elapsed < 180
    print(
        f"criterion 3: incremental frequent == full mine on 200 splits, "
        f"border sound and equal to the full mine's on all: "
        f"PASS ({elapsed:.1f}s)"
    )


# --- criteria 4 and 5: the update-timing trends ---


def _trend_params():
    return MiningParams(Fraction(1, 10), Fraction(3, 100), CountParams(4), max_len=4)


def _trend_config(seed, n_events, drift_at):
    def seqs(*specs):
        return tuple((Sequence.of(*labels), float(rate)) for labels, rate in specs)

    pre = seqs(
        # fourteen hot singles; E001..E008 stop firing at the drift
        *[((f"E{i:03d}",), 80) for i in range(1, 15)],
        # pair ladder over the dying types: their counts freeze at the
        # drift, so the growing frequency threshold demotes rung after
        # rung as the window stretches, and each demotion leaves stale
        # entries that force per-increment rescans.  Heads and tails are
        # disjoint, so no rung joins into a length-3 candidate.
        (("E001", "E002"), 24),
        (("E003", "E004"), 31),
        (("E005", "E006"), 39),
        (("E007", "E008"), 47),
        # border residents that the second phase promotes; both sides
        # carry stored counts for them, so promotion costs no rescan
        (("E011", "E012"), 10),
        (("E009", "E010"), 8),
    )
    post = seqs(
        # the surviving types keep firing; no new event type ever appears,
        # which keeps the candidate frontier of the increment small
        *[((f"E{i:03d}",), 80) for i in range(9, 15)],
        (("E011", "E012"), 120),
        (("E009", "E010"), 60),
    )
    return GenConfig(
        n_types=194,
        n_events=n_events,
        seed=seed,
        tuple_fill=1.0,
        embedded=pre,
        drift_at=drift_at,
        embedded_after=post,
    )


# (queue, initial size, points) per (scale, seed); the queue is kept only
# for seed 1, which the determinism re-run needs
_sweeps = {}


def _trend_sweep(scale, seed):
    key = (scale, seed)
    if key not in _sweeps:
        n_events, w0 = (100_000, 20_000) if scale == "full" else (20_000, 4_000)
        q = generate(_trend_config(seed, n_events, drift_at=w0))
        deltas = tuple((w0 // 10) * i for i in range(1, 10))
        cfg = SweepConfig(initial_size=w0, delta_sizes=deltas, params=_trend_params())
        points = run_sweep(q, cfg)
        _sweeps[key] = (q if seed == 1 else None, w0, points)
    return _sweeps[key]


def test_criterion_4_speedup_falls_and_difference_rises():
    t0 = time.monotonic()
    _, _, points = _trend_sweep("full", 1)
    deltas = [p.delta_size for p in points]
    rho_speedup = spearmanr(deltas, [p.speedup for p in points])[0]
    rho_difference = spearmanr(deltas, [float(p.difference) for p in points])[0]
    assert rho_speedup <= -0.5
    assert rho_difference >= 0.5
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(
        f"criterion 4: spearman(delta, speedup)="
        f"{rho_speedup:+.3f} <= -0.5, spearman(delta, difference)="
        f"{rho_difference:+.3f} >= +0.5: PASS ({elapsed:.1f}s)"
    )


def test_criterion_5_recommended_ratio_stable_across_seeds():
    t0 = time.monotonic()
    ratios = []
    for seed in (1, 2, 3, 4, 5):
        _, w0, points = _trend_sweep("full", seed)
        rec = recommend(points, w0)
        assert not rec.degenerate
        assert len(rec.crossings) >= 1
        assert rec.ratio is not None
        assert 0 < rec.ratio <= 0.9
        ratios.append(rec.ratio)
    med = statistics.median(ratios)
    worst = max(abs(r - med) for r in ratios)
    assert worst <= 0.10

    # cost-unit timing carries no clock noise: a fresh sweep over the
    # same stream reproduces every point bit for bit
    q, w0, points = _trend_sweep("full", 1)
    cfg = SweepConfig(
        initial_size=w0,
        delta_sizes=tuple(p.delta_size for p in points),
        params=_trend_params(),
    )
    assert run_sweep(q, cfg) == points

    elapsed = time.monotonic() - t0
    assert elapsed < 40
    print(
        f"criterion 5: ratios {[round(r, 3) for r in ratios]}, median "
        f"{med:.3f}, worst deviation {worst * 100:.1f}pp <= 10pp, repeat "
        f"run bit-identical: PASS ({elapsed:.1f}s)"
    )


def test_desk_trend_sweep_cost_units_are_pinned():
    # Cost units depend only on which (candidate, block) pairs are
    # scanned.  Criterion 5 compares a sweep with itself, so this pins the
    # absolute figures: a change to the search or to the counter that
    # moves them has to say so here.
    t0 = time.monotonic()
    q, _, points = _trend_sweep("desk", 1)
    assert len(q) == 9831
    assert [(p.delta_size, p.t_full, p.t_ius) for p in points] == [
        (400, 1713660, 177791),
        (800, 1869660, 242600),
        (1200, 2025660, 281827),
        (1600, 2181660, 334639),
        (2000, 2337660, 383454),
        (2400, 2506448, 452254),
        (2800, 2663248, 501069),
        (3200, 2834436, 581060),
        (3600, 3022412, 665848),
    ]
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"desk trend sweep: 9 (delta, t_full, t_ius) points exact: PASS ({elapsed:.1f}s)")


def test_a_smoke_size_trend_sweep_walks_as_its_pin(monkeypatch):
    # The benchmark's cost-unit trend sweep at its smoke size, seed 1:
    # 10,000 events, a 2,000-tuple base and increments 200..1,800, each a
    # head of the widest.  Every search resumes a level from the prefixes
    # its own level before closed, on the base window and on the widest
    # increment, which counts for its heads: 119 walks.  When windows
    # kept the closed prefixes of earlier searches, an update resumed
    # from those its increment's mine had left, and the sweep walked 115
    # times; a search that left the heads' parent out walks more.
    walk, walks = occurrence._walk, [0]

    def counting_walk(*args):
        walks[0] += 1
        return walk(*args)

    q = generate(_trend_config(1, 10_000, drift_at=2_000))
    cfg = SweepConfig(2_000, tuple(200 * i for i in range(1, 10)), _trend_params())
    monkeypatch.setattr(occurrence, "_walk", counting_walk)
    run_sweep(q, cfg)
    assert walks[0] == 119


def test_desk_trend_sweep_cost_units_decompose(monkeypatch):
    # Each block of a sweep is one window, so with s = size - span + 1
    # start positions per block, a re-mine that counts N candidates costs
    # N * (s0 + sd) and an update that rescans the base block R_old times
    # and the increment R_delta times costs R_old * s0 + R_delta * sd.
    # N comes from a real re-mine, the rescans from the counting hook.
    t0 = time.monotonic()
    q, w0, points = _trend_sweep("desk", 1)
    params = _trend_params()
    rescans = []  # per update: [R_old, R_delta]
    real_update, real_count = tradeoff.ius_update, incremental.occur_partitioned

    def update(inp, cost=None):
        rescans.append([0, 0])
        return real_update(inp, cost)

    def count(seq, blocks, count_params, cost=None):
        rescans[-1][blocks[0].start != 0] += 1
        return real_count(seq, blocks, count_params, cost)

    monkeypatch.setattr(tradeoff, "ius_update", update)
    monkeypatch.setattr(incremental, "occur_partitioned", count)
    deltas = tuple(p.delta_size for p in points)
    cfg = SweepConfig(initial_size=w0, delta_sizes=deltas, params=params)
    assert run_sweep(q, cfg) == points

    span = params.count_params.span
    s0 = w0 - span + 1
    for p, (r_old, r_delta) in zip(points, rescans, strict=True):
        cost = CostCounter()
        mine([window(q, 0, w0), window(q, w0, p.delta_size)], params, cost)
        n = sum(cost.candidates.values())
        sd = p.delta_size - span + 1
        assert p.t_full == n * (s0 + sd)
        assert p.t_ius == r_old * s0 + r_delta * sd
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(
        f"desk trend sweep: t_full = N(s0 + sd) and t_ius = R_old s0 + "
        f"R_delta sd on 9 rungs, (R_old, R_delta) {rescans}: PASS ({elapsed:.1f}s)"
    )


# --- criterion 6: normalization exactness ---


def test_criterion_6_normalization_exact_and_scale_invariant():
    t0 = time.monotonic()
    rng = random.Random(606)
    for _ in range(1000):
        n = rng.randint(2, 40)
        values = [rng.uniform(-1e6, 1e6) for _ in range(n)]
        if min(values) == max(values):  # keep the endpoint checks honest
            values[0] += 1.0
        out = min_max_normalize(values)
        assert out[values.index(min(values))] == 0.0
        assert out[values.index(max(values))] == 1.0
        order = sorted(range(n), key=values.__getitem__)
        assert all(out[a] <= out[b] for a, b in zip(order, order[1:]))

    # crossing positions ignore a uniform rescale of the raw speedups
    sizes = [100 * i for i in range(1, 10)]
    speeds = [9.5, 8.1, 7.2, 6.0, 5.1, 4.4, 3.9, 3.1, 2.5]
    diffs = [Fraction(x, 100) for x in (2, 5, 9, 14, 20, 27, 33, 40, 48)]

    def points(scale):
        return [
            SweepPoint(d, t_full=s * scale, t_ius=1.0, difference=f)
            for d, s, f in zip(sizes, speeds, diffs)
        ]

    base = recommend(points(1), 1000)
    scaled = recommend(points(7), 1000)
    assert len(base.crossings) >= 1
    assert len(scaled.crossings) == len(base.crossings)
    for a, b in zip(base.crossings, scaled.crossings):
        assert abs(a - b) <= 1e-9

    elapsed = time.monotonic() - t0
    assert elapsed < 5
    print(
        f"criterion 6: endpoints exact on 1000 series, order preserved, "
        f"crossings invariant under x7 speedup scaling: PASS ({elapsed:.1f}s)"
    )


# --- criterion 7: the command-line pipeline ---


def test_criterion_7_cli_update_matches_composed_mine(tmp_path):
    t0 = time.monotonic()
    rng = random.Random(707)
    for i in range(25):
        fixture = tmp_path / f"f{i:02d}"
        fixture.mkdir()
        log = fixture / "events.log"
        rate = rng.randint(40, 160)
        assert cli_main([
            "gen", str(log),
            "--types", str(rng.randint(4, 8)),
            "--events", str(rng.randint(240, 480)),
            "--seed", str(1000 + i),
            "--pattern", f"E001+E002@{rate}",
        ]) == 0

        text = log.read_text()
        q = parse_event_log(text)
        assert serialize_event_log(q) == text

        n = len(q)
        n0 = max(20, 6 * n // 10)
        dsz = max(10, n // 5)
        assert n0 + dsz <= n
        supp = rng.choice(["0.08", "0.1", "0.15", "0.2"])
        flags = [
            "--min-supp", supp,
            "--min-nbd-supp", str(Fraction(supp) / 2),
            "--span", str(rng.randint(2, 4)),
            "--max-len", "3",
        ]
        base = fixture / "base.patterns"
        upd = fixture / "upd.patterns"
        full = fixture / "full.patterns"
        assert cli_main(["mine", str(log), str(base), "--size", str(n0), *flags]) == 0
        assert cli_main(["update", str(log), str(base), str(upd), "--size", str(dsz)]) == 0
        assert cli_main(["mine", str(log), str(full), "--size", f"{n0},{dsz}", *flags]) == 0

        def frequent_lines(path):
            return [l for l in path.read_text().splitlines(keepends=True)
                    if l.startswith("L\t")]

        assert frequent_lines(upd) == frequent_lines(full)
        for path in (base, upd, full):
            stored = path.read_text()
            assert dump_pattern_file(load_pattern_file(stored)) == stored

    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(
        f"criterion 7: update == composed mine byte-for-byte in the "
        f"frequent section on 25 fixtures, round trips byte-stable: "
        f"PASS ({elapsed:.1f}s)"
    )
