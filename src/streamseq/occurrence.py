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

occur() is bit-parallel in the manner of SPAM's vertical bitmaps (Ayres
et al., KDD 2002): each event type has one bitmap per queue, a Python
int with bit i set when the type is in tuple i, and a set of start
positions is an int too.  Matching one item moves every start at once
with a few big-int operations per offset inside the span, so the cost
is O(len(seq) * min(span, gap) * W / word) for a window of W tuples,
where gap is the longest run of tuples without the item and word is
the int digit width (30 bits in CPython).  The trade-off is the rare
item at a huge span: on 20,000 tuples at span 10,000, a type that
occurs twice costs about 28 ms per call, where a walk over its two
positions would cost microseconds.  At the spans the benchmark uses, 4
and 32, a type in one tuple of 50 counts 4 to 25 times faster than
that walk did.  The oracle module keeps an independent brute-force
counter that tests hold occur() to.
"""

from __future__ import annotations

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

    Works on sets of start positions held as int bitmaps, bit i for start
    i.  After a prefix of seq is matched greedily (each item at the
    earliest tuple after the previous one), ends[d] is the set of starts
    whose match of that prefix ends at offset d < span.  The next item Y
    is matched by walking d upward with the set `pending` of starts still
    waiting for Y: at offset d, pending & (Y >> d) are the starts that
    find Y there and become the new ends[d]; the rest keep waiting, and
    the old ends[d] join them, since the next item must sit strictly
    later.  The empty prefix has every legal start pending at offset 0.
    A match that would end at offset span or later is dropped, so the
    count is the number of starts left in the final ends.  The walk for
    one item stops once nothing waits past the last ends entry, so it
    costs O(min(span, gap) * W / word) as the module docstring says.
    """
    if cost is not None:
        cost.charge(w.size, params.span)
    span = params.span
    if span > w.size:
        return 0
    pending = (1 << (w.size - span + 1)) - 1    # every legal start
    ends: list[int] = []
    for item in seq.items:
        y = w.mask(item)
        if not y:
            return 0
        hits: list[int] = []
        n_ends = len(ends)
        for d in range(span):
            if d >= n_ends and not pending:
                break
            hit = pending & (y >> d)
            hits.append(hit)
            pending ^= hit
            if d < n_ends:
                pending |= ends[d]
        while hits and not hits[-1]:
            hits.pop()
        if not hits:
            return 0
        ends, pending = hits, 0
    return sum(b.bit_count() for b in ends)


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
