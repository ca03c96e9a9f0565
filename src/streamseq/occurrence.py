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
  * One item step, extending a matched prefix by an item, moves every
    start at once with a few big-int operations per offset inside the
    span, so it costs O(min(span, gap) * W / word), where gap is the
    longest run of tuples without the item.
  * A candidate's last item costs one AND and one OR per entry of its
    prefix's ends list, at most span of them, O(len(ends) * W / word).
    It reads the item's suffix covers, which the window keeps per
    (span, item) and builds once for every prefix the item ends, with
    one shift and one OR per entry.
  * A window keeps the last prefix matched over it.  A candidate whose
    prefix is the previous candidate's costs its last item; any other
    costs one step per prefix item first.  The candidates of a mining
    level arrive sorted, so each prefix is matched once per block.
  * Nested windows read one start set.  Whether start i matches depends
    only on the tuples [i, i+span), so a head window, the first d tuples
    of a wider parent, matches exactly the parent's matching starts
    below d - span + 1.  The parent keeps each sequence's start set, the
    OR of the last item's new ends (or a single item's cover), and every
    head counts it with one AND and one popcount.  A sweep's increments
    are heads of its widest one, so each sequence is matched once per
    sweep, not once per increment.

The trade-offs are the rare item and the memory at a huge span.  On
20,000 tuples at span 10,000, a type that occurs twice costs about
20 ms per item step (2-vCPU Xeon, CPython 3.11), where a walk over its
two positions would cost microseconds; a single item takes 0.1 ms
there.  At the spans the benchmark uses, 4 and 32, a type in one tuple
of 50 counts 4 to 25 times faster than that walk did.  The suffix
covers hold, per window, span and last item, one int of the window's
width per entry of the longest ends list asked, at most span of them,
so at most (last items) * span * W bits.  On the benchmark's seed-1 deep
stream (20,000 tuples, span 32, max_len 5) they took a mine from 0.89
to 2.81 MiB traced peak and to 0.6 times its time; on 4,000 of its
tuples at span 256 and max_len 2, from 6.5 to 31.3 MiB and to 0.5
times its time.  The tests hold occur() to an independent brute-force
counter in their oracle, tests/oracle.py.
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
    """Match one more prefix item, with window bitmap y, after the items so far.

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
    the earliest tuple after the previous one), then closed by its last
    item.  After a prefix is matched, ends[d] is the set of starts whose
    match ends at offset d < span, and _walk matches the next prefix
    item Y by walking d upward with the set `pending` of starts still
    waiting for Y: at offset d, pending & (Y >> d) are the starts that
    find Y there and become the new ends[d]; the rest keep waiting, and
    the old ends[d] join them, since the next item must sit strictly
    later.  The empty prefix has every legal start pending at offset 0.
    A match that would end at offset span or later is dropped.  The
    walk for one item stops once nothing waits past the last ends entry,
    so it costs O(min(span, gap) * W / word) as the module docstring
    says.  The last item needs no new ends, only whether it follows:
    start i in ends[e] matches when Y sits at an offset in (e, span),
    that is when i is in after[e], the OR of Y >> d over e < d < span.
    So the starts are the OR of ends[e] & after[e] (_last_item), and
    the count is their popcount.

    The window keeps the last prefix it matched, with its count and
    ends, keyed by span, and each last item's after sets, keyed by
    (span, item) and as long as the longest ends list asked.
    Candidates arrive sorted, so a run of them sharing a prefix matches
    it once and then closes one last item each, and each item's after
    sets serve every prefix it ends.  A head window (ViewWindow._head)
    is counted from its parent's start set for seq, kept to the head's
    starts, which the parent matches once for all its heads.  The memos
    never change a result, and every call charges `cost` one scan, memo
    hit or not, so cost units stay a function of the (candidate, block)
    pairs asked for.
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
        found = _cover(y, span) & ((1 << starts) - 1)
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
    found = _last_item(w, span, seq[-1], ends)
    return found if as_set else found.bit_count()


def _cover(y: int, width: int) -> int:
    """The OR of y shifted by 0..width-1, built by doubling shifts."""
    cover, done = y, 1
    while done < width:
        step = min(done, width - done)
        cover |= cover >> step
        done += step
    return cover


def _last_item(w: ViewWindow, span: int, item: str, ends: list[int]) -> int:
    """The starts in `ends` that find `item` after their prefix's match.

    ends[e] is the set of starts whose prefix match ends at offset e, and
    after[e] the set of starts with `item` at some offset in (e, span),
    so the answer is the OR of ends[e] & after[e].  The window keeps
    `after` per (span, item), as long as the longest `ends` asked so far.
    A longer `ends`, of n entries, adds the missing entries: after[n-1],
    the OR of y >> d over n <= d < span for the item's bitmap y, from
    doubling shifts, and each one below from the one above, as
    after[e] = after[e + 1] | y >> (e + 1).
    """
    key = (span, item)
    after = w._after.get(key, [])
    n, have = len(ends), len(after)
    if n > have:
        y = w.mask(item)
        top = _cover(y, span - n) >> n if n < span else 0
        new = [top]
        for e in range(n - 2, have - 1, -1):
            top |= y >> (e + 1)
            new.append(top)
        after = w._after[key] = after + new[::-1]
    found = 0
    for e, a in zip(ends, after):
        if e:
            found |= e & a
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
