"""Occurrence and support counting.

A sequence occurs at start position i of a window when its items can be
matched, in order, to strictly increasing tuple indices inside the
width-`span` sub-window [i, i+span).  Two items never share a tuple.
occur() counts how many of the |w| - span + 1 start positions admit such
a match; a window shorter than the span has no start positions at all.
support() divides the count by the window size, as an exact fraction.
A window (ViewWindow) is a range of a queue's tuples that copies none of
them.  It lives here, with the counter, because it is where the counter
keeps its memos; its docstring lays out every one of them.

Counting over a partitioned window is additive by definition: an
occurrence belongs to exactly one block and never straddles a boundary.
That definition is what lets stored per-block counts be reused verbatim
when a window grows.  occur_partitioned() is the one counting loop, and
occur() a one-block call of it.

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
  * A candidate's last item costs 4b big-int operations, with b =
    (span - 1).bit_length(), and one popcount: O(b * W / word).  Each
    start carries two offsets, E, where its prefix's match ends, and L,
    the last offset inside the span where the item sits, and the
    candidate matches where E < L.  Both are kept bit-sliced, as b
    planes each, and compared plane by plane.  The end planes cost
    O(len(ends) * W / word) once per prefix node, the item's
    offset planes O(span * W / word) once per (span, item) and window.
  * A window keeps its matched path: the nodes of the last prefix
    asked, one per prefix length, and the items that prefix spells.  A
    candidate whose prefix is those items reads the last node's end
    planes after one tuple compare.  Any other walks only the prefix
    items past the head it shares with the path, so its cost is the
    item steps of the new items plus its last item.  An item step
    after a prefix of k items skips the offsets up to k - 1, where no
    start waits yet.  The candidates of a mining level arrive sorted,
    so each prefix node is matched once per level.  A prefix whose
    parent, one item shorter, the level before closed resumes from
    the parent's matched starts and end planes, which give back its
    ends in 2 * (2 ** b - 1) big-int operations, and walks only its
    last item.  So a mine walks each prefix node once per block.
  * Nested windows read one start set.  Whether start i matches depends
    only on the tuples [i, i+span), so a head window, the first d tuples
    of a wider parent, matches exactly the parent's matching starts
    below d - span + 1.  The parent keeps each sequence's start set, as
    the last item's comparison (or a single item's cover) gives it, and
    every head counts it with one AND, with the head's legal starts, and
    one popcount.  A sweep's increments are heads of its widest one, so
    each sequence is matched once per sweep, not once per increment.
    Any other read of a head, such as a cut of a label, is its own.

The trade-offs are the rare item and the memory at a huge span.  On
20,000 tuples at span 10,000, a type that occurs twice costs about
20 ms per item step (2-vCPU Xeon, CPython 3.11), where a walk over its
two positions would cost microseconds; a single item takes 0.1 ms
there.  At the spans the benchmark uses, 4 and 32, a type in one tuple
of 50 counts 4 to 25 times faster than that walk did.  A window's
counting memos hold (last items) * b + (path) + (closed prefixes) *
(b + 1) + 1 ints of W bits, the path being each node's ends, at most
span of them, and its b planes, the closed prefixes those of the last
two lengths closed, each its matched starts and b end planes, and the
1 the window's legal starts.  On the benchmark's seed-1 deep stream
(20,000 tuples, span 32, max_len 5) one mine's traced peak is 2.2 MiB;
on 4,000 of its tuples at span 256 and max_len 2 it is 8.2 MiB, as
level 2 closes every single and max_len 2 reads none of them.  A
cost-unit sweep of the seed-1 trend stream (w0 20,000, increments
2,000..18,000, span 4) peaks at 3.7 MiB.

The tests hold occur() to an independent brute-force counter in their
oracle, tests/oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable

from .errors import BoundsError, UndefinedSupportError, _check_int
from .model import Sequence, StreamQueue

# a matched prefix's ends and, once built, its end planes
_PathNode = tuple[list[int], list[int] | None]


class ViewWindow:
    """The range [start, start+size) of a queue's tuples, to count over.

    A window copies nothing: the counter reads it through mask(), and
    its tuples are the queue's, queue[start:end].  start and size are
    ints, not bools.  A window mined in pieces is a list of windows, one
    per block, so that counts can be kept per block.

    A head window, built by _head(d), is the first d tuples of a wider
    window, its parent.  A head equals the plain window of its range and
    cuts a label from the queue's row as any window does.  Two reads go
    through the parent: a head's alphabet is the labels whose first
    tuple in the parent lies below d, and occur_partitioned counts a
    head from the parent's start sets.

    A window holds seven memos.  They never change a result and take no
    part in equality or in what a window means.  Here b is the bit
    length of span - 1, and L the last offset within the span, past a
    start, where an item sits (module docstring):

      _cuts         label -> the queue's row of it cut to the window;
                    filled by mask()
      _firsts       each present label, sorted, -> the index of its
                    first tuple; asked only of a parent (_first_tuples)
      _path         (span, prefix, nodes): one _PathNode (ends, end
                    planes or None) per prefix length of the last
                    prefix matched at that span, from the shortest it
                    walked or resumed from (_closed) up to its first
                    node that matches nowhere, and `prefix`, its items
                    up to that node, which _match compares a
                    candidate's prefix with; the next prefix replaces
                    the nodes from the first item where the two
                    differ (_prefix_planes)
      _lasts        (span, item) -> the item's b L planes, plane k the
                    starts whose L has bit k set, for an item that ends
                    a sequence of two or more (_last_offsets)
      _starts       (span, sequence) -> the sequence's set of matching
                    starts, bit i for start i; kept only in a parent
      _start_masks  span -> the window's legal starts, its low
                    size - span + 1 bits (_legal_starts)
      _closed       (span, length) -> prefix -> (matched starts, end
                    planes), for each prefix whose end planes
                    _prefix_planes built; read and dropped by the first
                    prefix one item longer that resumes from it, and
                    the length dropped whole once a prefix two items
                    longer closes

    Each memo entry, and the whole of `_firsts`, is written in a single
    statement, so a reader never sees one half-written.  So windows, as
    their queues, are safe to share between the miner, the incremental
    updater and the sweep driver without locking.
    """

    __slots__ = (
        "queue", "start", "size", "_low", "_parent",
        "_cuts", "_firsts", "_path", "_lasts", "_starts", "_start_masks", "_closed",
    )

    def __init__(self, queue: StreamQueue, start: int, size: int) -> None:
        _check_int("window start", start)
        _check_int("window size", size)
        if start < 0 or size < 0 or start + size > len(queue):
            raise BoundsError(
                f"window [{start}, {start + size}) does not fit a queue of "
                f"{len(queue)} tuples"
            )
        self.queue = queue
        self.start = start
        self.size = size
        self._low = (1 << size) - 1  # the low `size` bits, which mask() keeps
        self._parent: ViewWindow | None = None
        self._cuts: dict[str, int] = {}
        self._firsts: dict[str, int] | None = None
        self._path: tuple[int, tuple[str, ...], tuple[_PathNode, ...]] | None = None
        self._lasts: dict[tuple[int, str], list[int]] = {}
        self._starts: dict[tuple[int, Sequence], int] = {}
        self._start_masks: dict[int, int] = {}
        self._closed: dict[tuple[int, int], dict[tuple[str, ...], tuple[int, list[int]]]] = {}

    def _head(self, size: int) -> ViewWindow:
        """The window of this one's first `size` tuples, as a head of it."""
        if not 0 <= size <= self.size:
            raise BoundsError(f"a head of {size} tuples does not fit {self!r}")
        head = ViewWindow(self.queue, self.start, size)
        head._parent = self
        return head

    def _legal_starts(self, span: int) -> int:
        """The starts at which a span-wide match fits, the low size - span + 1
        bits, or 0 when the window is narrower than the span."""
        if span not in self._start_masks:
            self._start_masks[span] = self._low >> (span - 1)
        return self._start_masks[span]

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ViewWindow):
            return (
                self.queue is other.queue
                and self.start == other.start
                and self.size == other.size
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"ViewWindow({self.start}:{self.end})"

    @property
    def end(self) -> int:
        return self.start + self.size

    def mask(self, item: str) -> int:
        """The queue's bitmap of `item` cut to this window: bit i is tuple i.

        Each label is cut once per window; later calls reuse the cut.  A
        cut decodes only the bytes of the queue's row that cover the
        window's range, so it costs the window's size, not the queue's.
        """
        cut = self._cuts.get(item)
        if cut is None:
            row = self.queue._type_bitmaps().get(item, b"")
            s = self.start
            whole = int.from_bytes(row[s >> 3:(s + self.size + 7) >> 3], "little")
            whole >>= s & 7
            cut = self._cuts[item] = whole & self._low
        return cut

    def alphabet(self) -> list[str]:
        """Labels present in this window, sorted.

        A head cuts no label for this: a label is in it when the label's
        first tuple in its parent (_first_tuples) lies below its size.
        """
        if self._parent is None:
            return [label for label in self.queue.alphabet() if self.mask(label)]
        return [label for label, i in self._parent._first_tuples().items() if i < self.size]

    def _first_tuples(self) -> dict[str, int]:
        """Each label present here, sorted, to the index of its first tuple."""
        if self._firsts is None:
            cuts = ((label, self.mask(label)) for label in self.queue.alphabet())
            self._firsts = {label: (c & -c).bit_length() - 1 for label, c in cuts if c}
        return self._firsts


def window(queue: StreamQueue, start: int, size: int) -> ViewWindow:
    """View the `size` tuples of `queue` beginning at index `start`."""
    return ViewWindow(queue, start, size)


@dataclass(frozen=True)
class CountParams:
    """Counting parameters: the sliding sub-window width `span`, an int >= 1."""

    span: int

    def __post_init__(self) -> None:
        _check_int("span", self.span, 1)


@dataclass
class CostCounter:
    """Deterministic work model for counting passes.

    One counting pass of one candidate over one block charges the number
    of start positions evaluated, max(0, len - span + 1), to
    window_evaluations and bumps scans by one.  The totals depend only on
    which (candidate, block) pairs were scanned, never on wall time, so
    repeated runs of a deterministic caller produce identical totals.
    A level-wise search (mine or the incremental update) given a counter
    also adds to candidates[m] the number of length-m candidates it
    counted.
    """

    window_evaluations: int = 0
    scans: int = 0
    candidates: dict[int, int] = field(default_factory=dict)

    def charge(self, window_len: int, span: int) -> None:
        self.window_evaluations += max(0, window_len - span + 1)
        self.scans += 1


def _walk(pending: int, ends: list[int], y: int, span: int) -> list[int]:
    """Match one more prefix item, with window bitmap y, after the items so far.

    A prefix is matched greedily, each item at the earliest tuple after
    the previous one.  ends[d] is the set of starts whose match so far
    ends at offset d < span, and `pending` the starts already waiting
    for the item at offset 0 (every legal start, for the empty prefix).
    The walk moves d upward: at offset d, pending & (y >> d) are the
    starts that find the item there and become the new ends[d]; the
    rest keep waiting, and the old ends[d] join them, since the next
    item must sit strictly later.  A start still waiting once the span
    is used up drops out: its prefix matches but the item does not
    follow.  An offset where nothing waits costs no shift and no AND:
    the old ends[d] only start waiting there.  A prefix of k items ends
    at offset k - 1 or later, so its next walk skips every offset up to
    k - 1, and a walk from the root, with no ends, skips none.  One loop
    runs over the ends, and a second drains what still waits past them;
    it stops once nothing waits, so the walk costs
    O(min(span, gap) * W / word) (module docstring).  Returns the new
    ends, without trailing empty sets.
    """
    hits = [0] * span
    d = 0
    for e in ends:
        if pending:
            hit = pending & (y >> d)
            hits[d] = hit
            pending = pending ^ hit | e
        else:
            pending = e
        d += 1
    while pending and d < span:
        hit = pending & (y >> d)
        hits[d] = hit
        pending ^= hit
        d += 1
    del hits[d:]
    while hits and not hits[-1]:
        hits.pop()
    return hits


def occur(
    seq: Sequence,
    w: ViewWindow,
    params: CountParams,
    cost: CostCounter | None = None,
) -> int:
    """Count start positions of w whose span-wide sub-window contains seq.

    A one-block call of occur_partitioned, the one counting loop.
    """
    return occur_partitioned(seq, (w,), params, cost)


def occur_partitioned(
    seq: Sequence,
    blocks: Iterable[ViewWindow],
    params: CountParams,
    cost: CostCounter | None = None,
) -> int:
    """Sum of per-block occurrence counts; one charge per block scanned.

    This is the one counting loop.  Every block charges `cost` one scan,
    memo hit or not, so cost units stay a function of the (candidate,
    block) pairs asked for.  A block narrower than the span has no
    starts and counts 0.  A root window counts the popcount of its start
    set for seq (_match).  A head window (ViewWindow._head) counts its
    parent's start set for seq, matched once and kept in the parent's
    `_starts`, ANDed with the head's legal starts, its low
    size - span + 1 bits (ViewWindow._legal_starts): one AND and one
    popcount.
    The memos (ViewWindow) never change a result.
    """
    span = params.span
    total = 0
    for w in blocks:
        if cost is not None:
            cost.charge(w.size, span)
        if span > w.size:
            continue
        parent = w._parent
        if parent is None:
            total += _match(seq, w, span).bit_count()
            continue
        found = parent._starts.get((span, seq))
        if found is None:
            found = parent._starts[span, seq] = _match(seq, parent, span)
        starts = w._start_masks.get(span) or w._legal_starts(span)
        total += (found & starts).bit_count()
    return total


def _match(seq: Sequence, w: ViewWindow, span: int) -> int:
    """The set of starts of w where seq matches, bit i for start i; w
    is at least span wide.

    A single item Y occurs at start i when Y's bitmap has a bit in
    [i, i+span), so its starts are the OR of Y shifted by 0..span-1
    (_cover), cut to the legal starts.  A longer seq is its prefix
    seq[:-1] matched greedily (_walk, along the window's matched path:
    _prefix_planes; a prefix equal to the one the path spells reads its
    last node), then closed by its last item (_last_item).  The
    legal starts (ViewWindow._legal_starts) are read for a single, and
    for a walk from the root of the path, whose first item every legal
    start waits for.
    """
    y = w._cuts.get(seq[-1]) or w.mask(seq[-1])
    if not y:
        return 0
    if len(seq) == 1:
        return _cover(y, span) & w._legal_starts(span)
    prefix = seq[:-1]
    memo = w._path
    if memo is not None and memo[1] == prefix and memo[0] == span:
        planes = memo[2][-1][1]  # the prefix closed last, or None where it fails
    else:
        planes = _prefix_planes(w, span, prefix)
    if planes is None:
        return 0
    return _last_item(w, span, seq[-1], planes)


def _cover(y: int, width: int) -> int:
    """The OR of y shifted by 0..width-1, built by doubling shifts."""
    cover, done = y, 1
    while done < width:
        step = min(done, width - done)
        cover |= cover >> step
        done += step
    return cover


def _prefix_planes(w: ViewWindow, span: int, prefix: tuple[str, ...]) -> list[int] | None:
    """The end planes of prefix's match over w (_end_planes), or None
    when it matches nowhere.

    A prefix walks only its items past the head it shares with the
    window's matched path (module docstring), so the candidates of a
    level, which arrive sorted, match each prefix node once.  A prefix
    that shares less than its parent, prefix[:-1], with the path, and
    whose parent's planes a shorter prefix closed (ViewWindow._closed),
    takes the parent's ends from those planes (_split_ends) and walks
    only its last item; the path then holds the nodes from the parent
    on.  So the levels of a mine match each prefix node once.  Planes
    are built once, for the node a candidate closes, and noted in
    `_closed`; the path is replaced by the prefix's nodes in one
    statement.  A walk from the root starts with every legal start of w
    pending.
    """
    memo = w._path
    items, path = memo[1:] if memo is not None and memo[0] == span else ((), ())
    k = 0
    for a, b in zip(items, prefix):
        if a != b:
            break
        k += 1
    skip = len(items) - len(path)  # the path's first node is that of items[:skip + 1]
    nodes: list[_PathNode] = list(path[: k - skip]) if k > skip else []
    if nodes and not nodes[-1][0]:
        return None  # a shared head that matches nowhere
    if nodes and k == len(prefix) and nodes[-1][1] is not None:
        return nodes[-1][1]
    if not nodes:
        k = skip = 0
    parent = prefix[:-1]
    if k < len(parent):
        closed = w._closed.get((span, len(parent)))
        entry = closed.pop(parent, None) if closed else None
        if entry is not None:
            matched, planes = entry
            nodes, k = [(_split_ends(matched, planes), planes)], len(parent)
            skip = k - 1
    for item in prefix[k:]:
        pending, ends = (0, nodes[-1][0]) if nodes else (w._legal_starts(span), [])
        ends = _walk(pending, ends, w.mask(item), span)
        nodes.append((ends, None))
        if not ends:
            break
    ends = nodes[-1][0]
    planes = None
    if ends:
        planes, matched = _end_planes(ends, span)
        nodes[-1] = (ends, planes)
        n = len(prefix)
        w._closed.pop((span, n - 2), None)
        w._closed.setdefault((span, n), {})[prefix] = (matched, planes)
    w._path = (span, prefix[: skip + len(nodes)], tuple(nodes))
    return planes


def _end_planes(ends: list[int], span: int) -> tuple[list[int], int]:
    """The complemented planes of the end offsets E that `ends` holds,
    and the matched starts, the OR of all ends.

    ends[e] is the set of starts whose match ends at offset e < span,
    one offset per start.  Plane k, for k below (span - 1).bit_length(),
    holds the matched starts whose E has bit k clear, so a start the
    prefix does not match reads as the largest offset.  Pairwise
    reduction builds them in about 2 * len(ends) ORs: plane k is the OR
    of the even-indexed sets of level k, level 0 being ends, and level
    k + 1 ORs level k's adjacent pairs, so its set j holds the starts
    with E >> (k + 1) == j.  The last level is one set, the matched
    starts, since len(ends) <= span <= 2 ** len(planes).
    """
    planes = []
    for _ in range((span - 1).bit_length()):
        even, odd = ends[::2], ends[1::2]
        planes.append(reduce(or_, even, 0))
        ends = [*map(or_, even, odd), *even[len(odd):]]
    return planes, reduce(or_, ends, 0)


def _split_ends(matched: int, planes: list[int]) -> list[int]:
    """The ends list whose matched starts and end planes (_end_planes)
    are `matched` and `planes`, without trailing empty sets.

    Splitting runs from the high plane down: at plane k each set j,
    the starts with E >> (k + 1) == j, splits into its starts in the
    plane, whose bit k is clear, as set 2j, and the rest as set 2j + 1.
    That is 2 * (2 ** b - 1) big-int operations for b planes, against
    about four per offset for each item a walk from the root takes.
    """
    ends = [matched]
    for plane in reversed(planes):
        split = []
        for s in ends:
            low = s & plane
            split += low, s ^ low
        ends = split
    while not ends[-1]:
        ends.pop()
    return ends


def _last_item(w: ViewWindow, span: int, item: str, planes: list[int]) -> int:
    """The starts whose prefix match, with complemented end planes
    `planes`, is followed by `item` within the span.

    The last item needs no new ends, only whether it follows: start i,
    whose prefix match ends at offset E(i), matches when the item sits
    at an offset in (E(i), span), that is when E(i) < L(i), L(i) being
    the last offset d < span with the item at i + d, or 0
    (_last_offsets).  Both offsets are kept as b = (span - 1).bit_length()
    bit planes, plane k holding bit k of every start's offset.  The end
    planes are complemented within the matched starts (_end_planes), so
    a start the prefix does not match reads as the largest offset and
    never matches.  The planes are compared one bit at a time, low to
    high: a bit where L is 1 and E is 0 makes E < L so far, one where L
    is 0 and E is 1 makes it false, and equal bits keep the verdict of
    the bits below.  Each plane costs four big-int operations, or one
    AND while no start has been found yet.
    """
    lasts = w._lasts.get((span, item))
    if lasts is None:
        lasts = _last_offsets(w, span, item)
    found = 0
    for last, not_end in zip(lasts, planes):
        found = (last & not_end) | (found & (not_end ^ last)) if found else last & not_end
    return found


def _last_offsets(w: ViewWindow, span: int, item: str) -> list[int]:
    """The offset planes of item's last occurrence after each start of w.

    L(i) is the largest offset d in (0, span) with `item` in tuple i + d,
    or 0 when there is none, and plane k holds the starts with bit k of
    L set, for k below (span - 1).bit_length().  They are built from
    y >> d, d from span - 1 down to 1, each adding the starts that no
    larger d reached, and kept per (span, item), where _last_item
    looks them up.
    """
    y = w.mask(item)
    planes = [0] * (span - 1).bit_length()
    seen = 0
    for d in range(span - 1, 0, -1):
        now = seen | y >> d
        fresh = now ^ seen
        if fresh:
            for b in range(d.bit_length()):
                if d >> b & 1:
                    planes[b] |= fresh
        seen = now
    w._lasts[span, item] = planes
    return planes


def support(seq: Sequence, w: ViewWindow, params: CountParams) -> Fraction:
    """occur / |w| as an exact fraction; undefined on an empty window."""
    if w.size == 0:
        raise UndefinedSupportError("support over an empty window is undefined")
    return Fraction(occur(seq, w, params), w.size)
