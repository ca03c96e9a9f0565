"""Occurrence and support counting.

A sequence occurs at start position i of a window when its items can be
matched, in order, to strictly increasing tuple indices inside the
width-`span` sub-window [i, i+span).  Two items never share a tuple.
occur() counts how many of the |w| - span + 1 start positions admit such
a match; a window shorter than the span has no start positions at all.
support() divides the count by the window size, as an exact fraction.

Counting over a partitioned window is additive by definition: an
occurrence belongs to exactly one block and never straddles a boundary.
That definition is what lets stored per-block counts be reused verbatim
when a window grows.

occur() walks per-type position indexes and counts whole runs of start
positions at once.  The oracle module keeps an independent brute-force
counter that tests hold it to.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ParameterError, UndefinedSupportError
from .model import Sequence, ViewWindow


@dataclass(frozen=True)
class CountParams:
    """Counting parameters: the sliding sub-window width `span` (>= 1)."""

    span: int

    def __post_init__(self) -> None:
        if not isinstance(self.span, int) or self.span < 1:
            raise ParameterError(f"span must be an integer >= 1, got {self.span!r}")


@dataclass
class CostCounter:
    """Deterministic work model for counting passes.

    One counting pass of one candidate over one block charges the number
    of start positions evaluated, max(0, len - span + 1), to
    window_evaluations and bumps scans by one.  The totals depend only on
    which (candidate, block) pairs were scanned, never on wall time, so
    repeated runs of a deterministic caller produce identical totals.
    """

    window_evaluations: int = 0
    scans: int = 0

    def charge(self, window_len: int, span: int) -> None:
        self.window_evaluations += max(0, window_len - span + 1)
        self.scans += 1


def occur(
    seq: Sequence,
    w: ViewWindow,
    params: CountParams,
    cost: CostCounter | None = None,
) -> int:
    """Count start positions of w whose span-wide sub-window contains seq.

    Runs off the queue's per-type position index.  For each occurrence p
    of the first item, the minimal chain completion e(p) is found by
    repeated successor lookups; every start position s with
    prev(p) < s <= p and s >= e(p) - span + 1 then matches at p first.
    e(p) is non-decreasing in p, so the scan stops at the first p whose
    chain cannot complete inside the window.
    """
    if cost is not None:
        cost.charge(w.size, params.span)
    span = params.span
    if span > w.size:
        return 0
    lo_abs = w.start
    hi_abs = w.end                      # exclusive
    limit = hi_abs - span               # last legal start, inclusive
    q = w.queue
    first = q.positions(seq.items[0])
    rest = [q.positions(it) for it in seq.items[1:]]

    total = 0
    prev = lo_abs - 1                   # previous first-item position
    i = bisect_left(first, lo_abs)
    while i < len(first):
        p = first[i]
        if p >= hi_abs:
            break
        e = p
        complete = True
        for plist in rest:
            j = bisect_right(plist, e)  # strictly after e
            if j == len(plist) or plist[j] >= hi_abs:
                complete = False
                break
            e = plist[j]
        if not complete:
            break                       # later p only pushes e further right
        lo = max(prev + 1, e - span + 1, lo_abs)
        hi = min(p, limit)
        if hi >= lo:
            total += hi - lo + 1
        prev = p
        i += 1
    return total


def support(seq: Sequence, w: ViewWindow, params: CountParams) -> Fraction:
    """occur / |w| as an exact fraction; undefined on an empty window."""
    if w.size == 0:
        raise UndefinedSupportError("support over an empty window is undefined")
    return Fraction(occur(seq, w, params), w.size)


def occur_partitioned(
    seq: Sequence,
    blocks: Iterable[ViewWindow],
    params: CountParams,
    cost: CostCounter | None = None,
) -> int:
    """Sum of per-block occurrence counts; one charge per block scanned."""
    return sum(occur(seq, b, params, cost) for b in blocks)
