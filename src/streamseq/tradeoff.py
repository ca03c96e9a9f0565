"""Update-timing analysis: sweep increment sizes, normalize, intersect.

Growing a window by a small increment keeps the incremental update far
cheaper than a full re-mine, but the mined pattern set barely moves;
growing by a large increment changes patterns a lot while the update
advantage fades.  run_sweep measures both effects over a ladder of
increment sizes, min_max_normalize puts the two series on a common
[0, 1] scale, and recommend reads off where the falling speedup curve
meets the rising difference curve.  The first meeting point, divided by
the base window size, is the recommended increment ratio: grow the
window by about that fraction before re-mining.  The normalization and
the crossings are exact rationals; only the reported values are floats,
each the nearest float to its exact value.

Timings can be wall-clock or the deterministic cost model from the
occurrence module; the cost model is the default because it makes every
figure in the analysis reproducible bit for bit.  In cost units the full
re-mine is charged from the lattice, not run: the update's frequent
family fixes every candidate the re-mine would count.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

from .distance import distance
from .errors import BoundsError, ContractError, ParameterError, _check_int
from .incremental import UpdateInput, ius_update, speedup
from .mining import MiningParams, mine
from .model import StreamQueue
from .occurrence import CostCounter, ViewWindow, window

COST_UNITS = "cost_units"
WALL_CLOCK = "wall_clock"


@dataclass(frozen=True)
class SweepConfig:
    """A sweep plan: base window, increment ladder, mining parameters.

    timing selects the deterministic cost model (default) or wall-clock
    seconds; repetitions only matters for wall-clock, where the median
    of that many runs is kept.
    """

    initial_size: int
    delta_sizes: tuple[int, ...]
    params: MiningParams
    timing: str = COST_UNITS
    repetitions: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_sizes", tuple(self.delta_sizes))
        _check_int("initial_size", self.initial_size, 1)
        if not self.delta_sizes:
            raise ParameterError("delta_sizes must not be empty")
        for d in self.delta_sizes:
            _check_int("every delta size", d, 1)
        if any(b <= a for a, b in zip(self.delta_sizes, self.delta_sizes[1:])):
            raise ParameterError("delta sizes must strictly increase")
        if self.timing not in (COST_UNITS, WALL_CLOCK):
            raise ParameterError(f"unknown timing mode {self.timing!r}")
        _check_int("repetitions", self.repetitions, 1)


@dataclass(frozen=True)
class SweepPoint:
    """One measured increment size."""

    delta_size: int
    t_full: float
    t_ius: float
    difference: Fraction

    @property
    def speedup(self) -> float:
        """The update's speedup over a re-mine, t_full / t_ius."""
        return speedup(self.t_full, self.t_ius)


@dataclass(frozen=True)
class Recommendation:
    """Where the normalized curves meet, and what that says.

    crossings holds every meeting abscissa in increasing order;
    chosen_x is the first one, ratio is chosen_x / initial window size,
    ratio_range brackets first to last crossing.  Each is the float
    nearest to the exact rational recommend computes.  degenerate flags
    a sweep where one series was constant, which leaves normalization
    meaningless; no crossing is reported then.
    """

    crossings: tuple[float, ...]
    chosen_x: float | None
    ratio: float | None
    ratio_range: tuple[float, float] | None
    degenerate: bool


def min_max_normalize(values) -> list[Fraction]:
    """Affinely map values onto [0, 1]: v' = (v - min) / (max - min).

    Each value is read as the Fraction it equals, a float included, and
    mapped exactly: the minimum to 0, the maximum to 1.  A constant
    series has no spread to map and collapses to 0 everywhere.
    """
    vals = [Fraction(v) for v in values]
    if not vals:
        raise ParameterError("cannot normalize an empty series")
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return [Fraction(0)] * len(vals)
    width = hi - lo
    return [(v - lo) / width for v in vals]


def find_intersections(xs, a, b) -> list[Fraction]:
    """All x where two piecewise-linear curves over the grid xs meet.

    a and b are the curves' y values at each grid point; xs must
    strictly increase.  Every value is read as the Fraction it equals,
    so each meeting is exact.  Returned in increasing order.  A grid point
    where the curves are exactly equal is reported once.  Strictly
    opposite signs of the gap across a segment give one interior
    crossing by linear interpolation; a segment where the curves
    coincide throughout contributes its endpoints (as exact grid-point
    meetings), not a continuum.
    """
    if not len(xs) == len(a) == len(b):
        raise ContractError(
            f"grid and curves differ in length: {len(xs)}, {len(a)}, {len(b)}"
        )
    xs = [Fraction(x) for x in xs]
    if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
        raise ParameterError("curve x values must strictly increase")
    gap = [Fraction(ay) - Fraction(by) for ay, by in zip(a, b)]
    hits: set[Fraction] = set()
    for i, g in enumerate(gap):
        if g == 0:
            hits.add(xs[i])
    for i in range(len(xs) - 1):
        g0, g1 = gap[i], gap[i + 1]
        if (g0 > 0 > g1) or (g0 < 0 < g1):
            t = g0 / (g0 - g1)
            hits.add(xs[i] + (xs[i + 1] - xs[i]) * t)
    return sorted(hits)


def _remine_charge(
    w0: ViewWindow, labels0: set[str], dw: ViewWindow, span: int, upd_cost: CostCounter
) -> int:
    """The cost units mine([w0, dw]) charges, given w0's alphabet and the
    update's counter.

    The re-mine counts every single in either window and then, per
    level m, gen_candidates(F_m) for its frequent level F_m, stopping at
    the first empty level or once m + 1 would pass max_len.  It charges
    each candidate once per block, as CostCounter.charge does, so one
    charge of each block, times the candidates, is the re-mine's.
    upd_cost is the counter of the update of those two windows, whose
    frequent family is the re-mine's: its search joined the same levels
    and tallied the same candidates from length 2 on.  Only its singles
    differ, being the ones either side stored.
    """
    n = len(labels0.union(dw.alphabet()))
    n += sum(c for m, c in upd_cost.candidates.items() if m >= 2)
    per_candidate = CostCounter()
    for w in (w0, dw):
        per_candidate.charge(w.size, span)
    return n * per_candidate.window_evaluations


def run_sweep(queue: StreamQueue, cfg: SweepConfig) -> list[SweepPoint]:
    """Measure full-remine cost, update cost and pattern drift per delta.

    The base window [0, initial_size) is mined once up front; each delta
    then gets its increment mined (both excluded from timing, since a
    deployed system would hold those pattern sets already), after which
    the incremental update is measured against a full re-mine of the
    composed blocks.

    In cost units no re-mine runs.  The update's frequent family is the
    re-mine's, since the sweep mined the base and every increment over
    their own blocks, so it fixes which candidates the re-mine would
    count, and the re-mine's charge follows from the lattice
    (_remine_charge).  In wall-clock mode the re-mine is timed, and an
    update that disagrees with it raises ContractError.

    The increments are nested prefixes of the widest one, [initial_size,
    initial_size + max delta), so each is built as a head window of it:
    a sequence is matched once over the widest increment, and each
    increment counts it by masking that one start set to its own starts
    and lists its alphabet from the widest one's first tuples.  The base
    window's alphabet, which every re-mine charge reads, is taken once.
    In cost units the update rescans the base window and the increment's
    head window.  Cost units charge each scan all the same, so they do
    not depend on this reuse.  A wall-clock rep builds fresh windows and
    a fresh UpdateInput, so no time it records is a memo hit left over
    from the base or increment mine or an earlier rep.
    """
    need = cfg.initial_size + cfg.delta_sizes[-1]
    if need > len(queue):
        raise BoundsError(
            f"sweep needs {need} tuples, queue has only {len(queue)}"
        )
    w0 = window(queue, 0, cfg.initial_size)
    base = mine([w0], cfg.params)
    base_keys = frozenset(base.frequent)
    labels0 = set(w0.alphabet())
    wide = window(queue, cfg.initial_size, cfg.delta_sizes[-1])

    points: list[SweepPoint] = []
    for d in cfg.delta_sizes:
        dw = wide._head(d)
        part = mine([dw], cfg.params)
        if cfg.timing == COST_UNITS:
            upd_cost = CostCounter()
            upd = ius_update(UpdateInput(base, [w0], part, [dw]), cost=upd_cost)
            t_full: float = _remine_charge(w0, labels0, dw, cfg.params.span, upd_cost)
            t_ius: float = upd_cost.window_evaluations
        else:
            t_full, full = _median_time(
                cfg.repetitions, lambda: _fresh(w0, dw), lambda bs: mine(bs, cfg.params)
            )
            t_ius, upd = _median_time(
                cfg.repetitions,
                lambda: UpdateInput(base, _fresh(w0), part, _fresh(dw)),
                ius_update,
            )
            if upd.frequent != full.frequent:
                raise ContractError(
                    f"update and re-mine disagree at delta {d}; "
                    "the input pattern sets do not match their blocks"
                )
        if t_ius == 0:
            raise ContractError(
                f"the update at delta {d} needs no rescan, so its speedup "
                "over a re-mine is undefined"
            )
        points.append(
            SweepPoint(
                delta_size=d,
                t_full=t_full,
                t_ius=t_ius,
                difference=distance(base_keys, frozenset(upd.frequent)),
            )
        )
    return points


def _fresh(*windows: ViewWindow) -> list[ViewWindow]:
    """New windows of the given ones' ranges, their memos empty."""
    return [window(w.queue, w.start, w.size) for w in windows]


def _median_time(reps: int, make, call) -> tuple[float, object]:
    """The median wall time of `reps` calls call(make()), and the last
    call's result.  Each rep makes its argument before its timer
    starts, so no time holds the making."""
    times = []
    for _ in range(reps):
        arg = make()
        t0 = time.perf_counter()
        result = call(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _series(points: list[SweepPoint]) -> tuple[list[Fraction], list[Fraction]]:
    """A sweep's speedups, t_full / t_ius, and differences, as exact
    rationals; a wall-clock float time converts exactly."""
    speedups = [speedup(Fraction(p.t_full), Fraction(p.t_ius)) for p in points]
    return speedups, [Fraction(p.difference) for p in points]


def recommend(points: list[SweepPoint], initial_size: int) -> Recommendation:
    """Normalize both series and intersect them.

    Needs at least two points to interpolate between.  When either
    series is constant the sweep is degenerate: normalization would
    fabricate a geometry the data does not have, so no crossing or
    ratio is reported and the degenerate flag is set instead.  The
    speedups are read from t_full and t_ius as exact rationals, not as
    the rounded float SweepPoint.speedup, and everything up to the
    reported floats is exact, so a grid point where the normalized
    curves are equal is a meeting, never a tiny gap of either sign.
    """
    if len(points) < 2:
        raise ContractError("recommend needs at least two sweep points")
    _check_int("initial_size", initial_size, 1)
    sp, df = _series(points)
    degenerate = (max(sp) == min(sp)) or (max(df) == min(df))
    crossings = [] if degenerate else find_intersections(
        [p.delta_size for p in points], min_max_normalize(sp), min_max_normalize(df)
    )
    xs = tuple(map(float, crossings))
    ratios = [float(x / initial_size) for x in crossings]
    return Recommendation(
        crossings=xs,
        chosen_x=xs[0] if xs else None,
        ratio=ratios[0] if ratios else None,
        ratio_range=(ratios[0], ratios[-1]) if ratios else None,
        degenerate=degenerate,
    )


def sweep_csv(points: list[SweepPoint]) -> str:
    """Render sweep points as CSV with raw and normalized columns.

    The normalized columns are the exact curves recommend intersects,
    each printed from its nearest float.
    """
    if not points:
        raise ParameterError("no sweep points to render")
    sp_n, df_n = map(min_max_normalize, _series(points))
    lines = ["delta_size,speedup,difference,speedup_norm,difference_norm"]
    for p, s, d in zip(points, sp_n, df_n):
        lines.append(
            f"{p.delta_size},{p.speedup:.6f},{float(p.difference):.6f},"
            f"{float(s):.6f},{float(d):.6f}"
        )
    return "\n".join(lines) + "\n"


def recommendation_text(rec: Recommendation) -> str:
    """Render a recommendation as stable key=value lines."""

    def fmt(v: float | None) -> str:
        return "none" if v is None else f"{v:.6f}"

    lo, hi = rec.ratio_range if rec.ratio_range is not None else (None, None)
    lines = [
        f"crossing_x={fmt(rec.chosen_x)}",
        f"ratio={fmt(rec.ratio)}",
        f"range_lo={fmt(lo)}",
        f"range_hi={fmt(hi)}",
        f"degenerate={'true' if rec.degenerate else 'false'}",
    ]
    return "\n".join(lines) + "\n"
