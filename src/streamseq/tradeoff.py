"""Update-timing analysis: sweep increment sizes, normalize, intersect.

Growing a window by a small increment keeps the incremental update far
cheaper than a full re-mine, but the mined pattern set barely moves;
growing by a large increment changes patterns a lot while the update
advantage fades.  run_sweep measures both effects over a ladder of
increment sizes, min_max_normalize puts the two series on a common
[0, 1] scale, and recommend reads off where the falling speedup curve
meets the rising difference curve.  The first meeting point, divided by
the base window size, is the recommended increment ratio: grow the
window by about that fraction before re-mining.

Timings can be wall-clock or the deterministic cost model from the
occurrence module; the cost model is the default because it makes every
figure in the analysis reproducible bit for bit.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

from .distance import distance
from .errors import BoundsError, ContractError, ParameterError
from .incremental import UpdateInput, ius_update, speedup
from .mining import MiningParams, mine
from .model import StreamQueue, window
from .occurrence import CostCounter

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
        if self.initial_size < 1:
            raise ParameterError(f"initial_size must be >= 1, got {self.initial_size}")
        if not self.delta_sizes:
            raise ParameterError("delta_sizes must not be empty")
        if any(d < 1 for d in self.delta_sizes):
            raise ParameterError("every delta size must be >= 1")
        if any(b <= a for a, b in zip(self.delta_sizes, self.delta_sizes[1:])):
            raise ParameterError("delta sizes must strictly increase")
        if self.timing not in (COST_UNITS, WALL_CLOCK):
            raise ParameterError(f"unknown timing mode {self.timing!r}")
        if self.repetitions < 1:
            raise ParameterError("repetitions must be >= 1")


@dataclass(frozen=True)
class SweepPoint:
    """One measured increment size."""

    delta_size: int
    t_full: float
    t_ius: float
    speedup: float
    difference: Fraction


@dataclass(frozen=True)
class Recommendation:
    """Where the normalized curves meet, and what that says.

    crossings holds every meeting abscissa in increasing order;
    chosen_x is the first one, ratio is chosen_x / initial window size,
    ratio_range brackets first to last crossing.  degenerate flags a
    sweep where one series was constant, which leaves normalization
    meaningless; no crossing is reported then.
    """

    crossings: tuple[float, ...]
    chosen_x: float | None
    ratio: float | None
    ratio_range: tuple[float, float] | None
    degenerate: bool


def min_max_normalize(values) -> list[float]:
    """Affinely map values onto [0, 1]: v' = (v - min) / (max - min).

    The minimum maps to exactly 0.0 and the maximum to exactly 1.0, bit
    for bit.  A constant series has no spread to map and collapses to
    0.0 everywhere.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ParameterError("cannot normalize an empty series")
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return [0.0] * len(vals)
    width = hi - lo
    return [(v - lo) / width for v in vals]


def find_intersections(xs, a, b) -> list[float]:
    """All x where two piecewise-linear curves over the grid xs meet.

    a and b are the curves' y values at each grid point; xs must
    strictly increase.  Returned in increasing order.  A grid point
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
    if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
        raise ParameterError("curve x values must strictly increase")
    gap = [ay - by for ay, by in zip(a, b)]
    hits: set[float] = set()
    for i, g in enumerate(gap):
        if g == 0:
            hits.add(xs[i])
    for i in range(len(xs) - 1):
        g0, g1 = gap[i], gap[i + 1]
        if (g0 > 0 > g1) or (g0 < 0 < g1):
            t = g0 / (g0 - g1)
            hits.add(xs[i] + (xs[i + 1] - xs[i]) * t)
    return sorted(hits)


def run_sweep(queue: StreamQueue, cfg: SweepConfig) -> list[SweepPoint]:
    """Measure full-remine cost, update cost and pattern drift per delta.

    The base window [0, initial_size) is mined once up front; each delta
    then gets its increment mined (both excluded from timing, since a
    deployed system would hold those pattern sets already), after which
    the full re-mine of the composed blocks and the incremental update
    are measured.  The two must agree on the frequent family; the sweep
    checks that instead of assuming it.
    """
    need = cfg.initial_size + cfg.delta_sizes[-1]
    if need > len(queue):
        raise BoundsError(
            f"sweep needs {need} tuples, queue has only {len(queue)}"
        )
    w0 = window(queue, 0, cfg.initial_size)
    base = mine([w0], cfg.params)
    base_keys = frozenset(base.frequent)

    points: list[SweepPoint] = []
    for d in cfg.delta_sizes:
        dw = window(queue, cfg.initial_size, d)
        part = mine([dw], cfg.params)
        upd_input = UpdateInput(old=base, delta=part, old_blocks=[w0], delta_blocks=[dw])
        if cfg.timing == COST_UNITS:
            full_cost = CostCounter()
            full = mine([w0, dw], cfg.params, cost=full_cost)
            upd_cost = CostCounter()
            upd = ius_update(upd_input, cost=upd_cost)
            t_full: float = full_cost.window_evaluations
            t_ius: float = upd_cost.window_evaluations
        else:
            full_times = []
            for _ in range(cfg.repetitions):
                t0 = time.perf_counter()
                full = mine([w0, dw], cfg.params)
                full_times.append(time.perf_counter() - t0)
            upd_times = []
            for _ in range(cfg.repetitions):
                t0 = time.perf_counter()
                upd = ius_update(upd_input)
                upd_times.append(time.perf_counter() - t0)
            t_full = statistics.median(full_times)
            t_ius = statistics.median(upd_times)
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
                speedup=speedup(t_full, t_ius),
                difference=distance(base_keys, frozenset(full.frequent)),
            )
        )
    return points


def recommend(points: list[SweepPoint], initial_size: int) -> Recommendation:
    """Normalize both series and intersect them.

    Needs at least two points to interpolate between.  When either
    series is constant the sweep is degenerate: normalization would
    fabricate a geometry the data does not have, so no crossing or
    ratio is reported and the degenerate flag is set instead.
    """
    if len(points) < 2:
        raise ContractError("recommend needs at least two sweep points")
    if initial_size < 1:
        raise ParameterError(f"initial_size must be >= 1, got {initial_size}")
    xs = [float(p.delta_size) for p in points]
    sp = [p.speedup for p in points]
    df = [float(p.difference) for p in points]
    degenerate = (max(sp) == min(sp)) or (max(df) == min(df))
    crossings = () if degenerate else tuple(
        find_intersections(xs, min_max_normalize(sp), min_max_normalize(df))
    )
    ratios = [x / initial_size for x in crossings]
    return Recommendation(
        crossings=crossings,
        chosen_x=crossings[0] if crossings else None,
        ratio=ratios[0] if ratios else None,
        ratio_range=(ratios[0], ratios[-1]) if ratios else None,
        degenerate=degenerate,
    )


def sweep_csv(points: list[SweepPoint]) -> str:
    """Render sweep points as CSV with raw and normalized columns."""
    if not points:
        raise ParameterError("no sweep points to render")
    sp_n = min_max_normalize([p.speedup for p in points])
    df_n = min_max_normalize([float(p.difference) for p in points])
    lines = ["delta_size,speedup,difference,speedup_norm,difference_norm"]
    for p, s, d in zip(points, sp_n, df_n):
        lines.append(
            f"{p.delta_size},{p.speedup:.6f},{float(p.difference):.6f},{s:.6f},{d:.6f}"
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
