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
positions is an int too.  For a window of W tuples, with word the int
digit width (30 bits in CPython):

  * A single item costs O(log span * W / word): its starts are its
    bitmap ORed with itself shifted by 0..span-1, which doubling shifts
    build.
  * One item step, matching an item after a matched prefix, moves every
    start at once with a few big-int operations per offset inside the
    span, so it costs O(min(span, gap) * W / word), where gap is the
    longest run of tuples without the item.
  * A window keeps the last prefix matched over it.  A candidate whose
    prefix is the previous candidate's costs one item step; any other
    costs one step per item.  The candidates of a mining level arrive
    sorted, so each prefix is matched once per block.
  * Nested windows read one start set.  Whether start i matches depends
    only on the tuples [i, i+span), so a head window, the first d tuples
    of a wider parent, matches exactly the parent's matching starts
    below d - span + 1.  The parent keeps each sequence's start set, the
    OR of the last item's new ends (or a single item's cover), and every
    head counts it with one AND and one popcount.  A sweep's increments
    are heads of its widest one, so each sequence is matched once per
    sweep, not once per increment.

The trade-off is the rare item at a huge span: on 20,000 tuples at
span 10,000, a type that occurs twice costs about 20 ms per item step
(2-vCPU Xeon, CPython 3.11), where a walk over its two positions would
cost microseconds; a single item now takes 0.1 ms there.  At the
spans the benchmark uses, 4 and 32, a type in one tuple of 50 counts 4
to 25 times faster than that walk did.  The tests hold occur() to an
independent brute-force counter in their oracle, tests/oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ParameterError, UndefinedSupportError
from .model import Sequence, ViewWindow


@dataclass(frozen=True)
class CountParams:
    """Counting parameters: the sliding sub-window width `span`, an int >= 1."""

    span: int

    def __post_init__(self) -> None:
        if not isinstance(self.span, int) or isinstance(self.span, bool) or self.span < 1:
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


def _walk(pending: int, ends: list[int], y: int, span: int) -> tuple[list[int], int]:
    """Match one more item, with window bitmap y, after a matched prefix.

    ends[d] is the set of starts whose prefix match ends at offset d, and
    `pending` the starts already waiting for the item at offset 0 (every
    legal start, for the empty prefix).  Returns the new ends, without
    trailing empty sets, and the starts still waiting once the span is
    used up: those whose prefix matches but the item does not follow.
    """
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
    return hits, pending


def occur(
    seq: Sequence,
    w: ViewWindow,
    params: CountParams,
    cost: CostCounter | None = None,
) -> int:
    """Count start positions of w whose span-wide sub-window contains seq.

    Works on sets of start positions held as int bitmaps, bit i for start
    i.  A single item Y occurs at start i when Y's bitmap has a bit in
    [i, i+span), so its count is one popcount of the OR of Y shifted by
    0..span-1, which doubling shifts build in about log2(span) steps.

    A longer seq is its prefix seq[:-1] matched greedily (each item at
    the earliest tuple after the previous one), then extended by its
    last item.  After a prefix is matched, ends[d] is the set of starts
    whose match ends at offset d < span, and _walk matches the next item
    Y by walking d upward with the set `pending` of starts still waiting
    for Y: at offset d, pending & (Y >> d) are the starts that find Y
    there and become the new ends[d]; the rest keep waiting, and the old
    ends[d] join them, since the next item must sit strictly later.  The
    empty prefix has every legal start pending at offset 0.  A match
    that would end at offset span or later is dropped.  The ends sets
    are disjoint, so the count is the prefix's count minus the starts
    left waiting for the last item.  The walk for one item stops once
    nothing waits past the last ends entry, so it costs
    O(min(span, gap) * W / word) as the module docstring says.

    The window keeps the last prefix it matched, with its count and
    ends, keyed by span.  Candidates arrive sorted, so a run of them
    sharing a prefix matches it once and then walks one item each.  A
    head window (ViewWindow._head) is counted from its parent's start
    set for seq, kept to the head's starts, which the parent matches
    once for all its heads.  The memos never change a result, and every
    call charges `cost` one scan, memo hit or not, so cost units stay a
    function of the (candidate, block) pairs asked for.
    """
    if cost is not None:
        cost.charge(w.size, params.span)
    span = params.span
    parent = w._parent
    if parent is None:
        return _match(seq, w, span, False)
    if span > w.size:
        return 0
    key = (span, seq)
    found = parent._starts.get(key)
    if found is None:
        found = parent._starts[key] = _match(seq, parent, span, True)
    # the head's starts are the low size - span + 1 bits
    return (found & (w._low >> (span - 1))).bit_count()


def _match(seq: Sequence, w: ViewWindow, span: int, as_set: bool) -> int:
    """The starts of w where seq matches: their set if as_set, else their count."""
    if span > w.size:
        return 0
    y = w.mask(seq[-1])
    if not y:
        return 0
    starts = w.size - span + 1
    if len(seq) == 1:
        cover, width = y, 1
        while width < span:
            step = min(width, span - width)
            cover |= cover >> step
            width += step
        found = cover & ((1 << starts) - 1)
        return found if as_set else found.bit_count()
    key = (span, seq[:-1])
    memo = w._prefix
    if memo is not None and memo[0] == key:
        _, count, ends = memo
    else:
        count, ends, pending = starts, [], (1 << starts) - 1
        for item in key[1]:
            ends, left = _walk(pending, ends, w.mask(item), span)
            count -= left.bit_count()
            if not count:
                break
            pending = 0
        w._prefix = (key, count, ends)
    if not count:
        return 0
    hits, left = _walk(0, ends, y, span)
    if not as_set:
        return count - left.bit_count()
    found = 0
    for hit in hits:
        found |= hit
    return found


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
