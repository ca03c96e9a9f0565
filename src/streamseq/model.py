"""Stream data model.

An event label is a plain str: non-empty, with no comma, no whitespace
and no lone surrogate, so it survives both text formats unescaped and
encodes as UTF-8; _check_label holds that rule.  An event stream is a
queue of tuples: each tuple is the set of labels observed at one int
timestamp, and tuples are kept in strictly increasing timestamp order.
A Sequence is a non-empty tuple of labels.  A queue is held as columns:
`times`, its timestamps, and one bitmap per label whose bit i is set
when the label is in tuple i.  parse_event_log fills those columns
straight from the text; the per-tuple StreamTuple view is built only
when something iterates or indexes the queue (the oracle,
serialize_event_log, tests).  A queue built from StreamTuple objects
keeps them and derives its bitmaps on first use.  Mining never copies
stream data; it works on ViewWindow objects, which are (queue, start,
size) views over a contiguous run of tuples.  A window mined in pieces
is a list of such views, one per block, so that counts can be
maintained per block.

Everything here is immutable after construction, which is what makes the
window views safe to share between the miner, the incremental updater and
the sweep driver without locking.  The exception is memos that never
change a result.  A queue builds its bitmaps or its tuples on first use.
A window fills a memo of each label's bitmap cut to it, one label at a
time, and keeps the last prefix the occurrence counter matched over it,
replacing it when the prefix changes.  Each memo entry is written in one
statement, so a reader sees it whole or not at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BoundsError, EventLogParseError, ParameterError

_LABEL_BREAKERS = re.compile(r"[,\s\ud800-\udfff]")


def _check_label(label: object) -> None:
    """Raise ParameterError unless `label` is a valid event label.

    A label is a non-empty str with no comma, no character for which
    str.isspace() is true and no lone surrogate (U+D800 to U+DFFF);
    exactly those are what `_LABEL_BREAKERS` matches.  So a label
    survives both text formats unescaped: that covers every line
    boundary of str.splitlines() and everything str.strip() removes.
    And it encodes as UTF-8, the encoding of every streamseq file,
    which a surrogate code point cannot.
    """
    if not isinstance(label, str) or not label:
        raise ParameterError(f"event label must be a non-empty string, got {label!r}")
    if _LABEL_BREAKERS.search(label):
        raise ParameterError(
            f"event label may not contain commas, whitespace or surrogates: "
            f"{label!r}"
        )


@dataclass(frozen=True)
class StreamTuple:
    """All event labels observed at one int timestamp. Never empty.

    The labels themselves are checked once per distinct label when a
    StreamQueue is built from tuples.
    """

    time: int
    types: frozenset[str]

    def __post_init__(self) -> None:
        if not isinstance(self.time, int) or isinstance(self.time, bool):
            raise ParameterError(f"stream tuple time must be an int, got {self.time!r}")
        if isinstance(self.types, str):
            raise ParameterError(
                f"stream tuple types must be a set of labels, not the string "
                f"{self.types!r}"
            )
        if not isinstance(self.types, frozenset):
            object.__setattr__(self, "types", frozenset(self.types))
        if not self.types:
            raise ParameterError(f"stream tuple at time {self.time} is empty")

    def __len__(self) -> int:
        return len(self.types)

    def __contains__(self, item: str) -> bool:
        return item in self.types


class StreamQueue:
    """An immutable run of stream tuples in strictly increasing time order.

    The queue is its columns: `times`, the timestamps, and one bitmap per
    event type, a Python int whose bit i is set when the type is in tuple
    i.  The bitmaps are shared by every window over the queue; the
    occurrence counter and alphabet() read them through mask().  A queue
    built from StreamTuple objects keeps them and builds its bitmaps in
    one pass on first use; a parsed queue is given its bitmaps and builds
    its StreamTuple view (`tuples`, iteration, indexing) on first use.
    Length, masks, windows, equality and hashing never need that view.
    Building from tuples checks each distinct label once.
    """

    __slots__ = ("times", "_tuples", "_masks")

    def __init__(self, tuples: Iterable[StreamTuple]) -> None:
        tps = tuple(tuples)
        times = tuple(t.time for t in tps)
        for prev, cur in zip(times, times[1:]):
            if cur <= prev:
                raise ParameterError(
                    f"timestamps must strictly increase: {prev} then {cur}"
                )
        for label in set().union(*(t.types for t in tps)):
            _check_label(label)
        self.times = times
        self._tuples: tuple[StreamTuple, ...] | None = tps
        self._masks: dict[str, int] | None = None

    @classmethod
    def _from_columns(
        cls, times: tuple[int, ...], masks: dict[str, int]
    ) -> StreamQueue:
        """A queue given as strictly increasing timestamps and the non-zero
        bitmap of every type present, each within len(times) bits."""
        queue = cls.__new__(cls)
        queue.times = times
        queue._tuples = None
        queue._masks = masks
        return queue

    @property
    def tuples(self) -> tuple[StreamTuple, ...]:
        """The tuples in time order; a parsed queue builds them on first use."""
        if self._tuples is None:
            rows: list[list[str]] = [[] for _ in self.times]
            for label, m in self._type_masks().items():
                for i in _set_bits(m):
                    rows[i].append(label)
            self._tuples = tuple(
                StreamTuple(ts, frozenset(row)) for ts, row in zip(self.times, rows)
            )
        return self._tuples

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> StreamTuple:
        return self.tuples[i]

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self.tuples)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StreamQueue):
            return (
                self.times == other.times
                and self._type_masks() == other._type_masks()
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.times, frozenset(self._type_masks().items())))

    def __repr__(self) -> str:
        return f"StreamQueue(<{len(self.times)} tuples>)"

    def _type_masks(self) -> dict[str, int]:
        if self._masks is None:
            columns: dict[str, list[int]] = {}
            for i, t in enumerate(self._tuples):
                for label in t.types:
                    columns.setdefault(label, []).append(i)
            n = len(self.times)
            self._masks = {label: _bitmap(col, n) for label, col in columns.items()}
        return self._masks

    def mask(self, item: str) -> int:
        """Bitmap of the tuples holding `item`: bit i is set for tuple i."""
        return self._type_masks().get(item, 0)

    def alphabet(self) -> list[str]:
        """All labels present, sorted."""
        return sorted(self._type_masks())


def _bitmap(indices: Iterable[int], n: int) -> int:
    """The n-bit int with bit i set for every i in `indices`."""
    row = bytearray((n + 7) >> 3)
    for i in indices:
        row[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(row, "little")


def _set_bits(m: int) -> Iterator[int]:
    """The indices of the set bits of `m` >= 0, ascending."""
    bits = f"{m:b}"[::-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


class ViewWindow:
    """A zero-copy view over queue tuples [start, start+size).

    Indexing is relative to the window; `start` stays available so the
    occurrence counter can work in absolute queue coordinates.

    A window holds two memos that never change a result and take no part
    in equality or in what a window means: `_cuts`, filled once per label
    by mask() with that label's bitmap cut to the window, and `_prefix`,
    the last prefix the occurrence counter matched here, as one tuple
    ((span, prefix), count, ends) that the next new prefix replaces.
    Each memo entry is written in a single statement, so a reader never
    sees one half-written.
    """

    __slots__ = ("queue", "start", "size", "_cuts", "_prefix")

    def __init__(self, queue: StreamQueue, start: int, size: int) -> None:
        if start < 0 or size < 0 or start + size > len(queue):
            raise BoundsError(
                f"window [{start}, {start + size}) does not fit a queue of "
                f"{len(queue)} tuples"
            )
        self.queue = queue
        self.start = start
        self.size = size
        self._cuts: dict[str, int] = {}
        self._prefix: tuple[tuple[int, tuple[str, ...]], int, list[int]] | None = None

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> StreamTuple:
        if not 0 <= i < self.size:
            raise BoundsError(f"index {i} outside window of size {self.size}")
        return self.queue[self.start + i]

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self.queue.tuples[self.start : self.start + self.size])

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

    def subwindow(self, offset: int, size: int) -> ViewWindow:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise BoundsError(
                f"subwindow [{offset}, {offset + size}) outside window of "
                f"size {self.size}"
            )
        return ViewWindow(self.queue, self.start + offset, size)

    def mask(self, item: str) -> int:
        """The queue's bitmap of `item` cut to this window: bit i is tuple i.

        Each label is cut once per window; later calls reuse the cut.
        """
        cut = self._cuts.get(item)
        if cut is None:
            cut = self._cuts[item] = (
                (self.queue.mask(item) >> self.start) & ((1 << self.size) - 1)
            )
        return cut

    def alphabet(self) -> list[str]:
        """Labels present in this window, sorted."""
        return [label for label in self.queue.alphabet() if self.mask(label)]


def window(queue: StreamQueue, start: int, size: int) -> ViewWindow:
    """View the `size` tuples of `queue` beginning at index `start`."""
    return ViewWindow(queue, start, size)


class Sequence(tuple):
    """A tuple of event labels, repeats allowed, never empty.

    Being a tuple, a Sequence is hashable, equal to the plain tuple of
    its labels, and totally ordered by them, so every container of
    patterns in this package iterates and serializes in one
    deterministic order.  Slices and concatenations are plain tuples.
    """

    __slots__ = ()

    def __new__(cls, items: Iterable[str]) -> Sequence:
        if isinstance(items, str):
            raise ParameterError(f"a sequence takes labels, not the string {items!r}")
        seq = super().__new__(cls, items)
        if not seq:
            raise ParameterError("a sequence must contain at least one item")
        for label in seq:
            _check_label(label)
        return seq

    @classmethod
    def of(cls, *labels: str) -> Sequence:
        """Shorthand: Sequence.of("a", "b") == Sequence(["a", "b"])."""
        return cls(labels)

    def __repr__(self) -> str:
        return "<" + ",".join(self) + ">"

    def drop(self, i: int) -> Sequence:
        """The subsequence with position i removed. Length must be >= 2."""
        if len(self) < 2:
            raise ParameterError("cannot drop from a length-1 sequence")
        if not 0 <= i < len(self):
            raise ParameterError(f"drop index {i} out of range")
        return Sequence(self[:i] + self[i + 1 :])

    def shrink_by_one(self) -> list[Sequence]:
        """All distinct length-(m-1) subsequences, sorted. Empty for m=1."""
        if len(self) < 2:
            return []
        return sorted({self.drop(i) for i in range(len(self))})


def parse_event_log(text: str) -> StreamQueue:
    """Parse event-log text into a StreamQueue.

    Each record line is "timestamp,event_label" with a base-10 integer
    timestamp and a label _check_label accepts.  Lines that are empty or
    start with '#' are skipped.  Records may arrive in any order and may
    repeat: they are grouped by timestamp, duplicates within a timestamp
    merge, and tuples come out sorted by timestamp.  The first bad line
    raises EventLogParseError with its 1-based number.

    One pass over the lines collects each label's timestamps; the
    distinct timestamps are then ranked and each label's ranks set bits
    in one bytearray row.  The queue is those columns: no StreamTuple is
    built until something iterates or indexes it.
    """
    columns: dict[str, list[int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        ts_str, sep, label = line.partition(",")
        if not sep:
            raise EventLogParseError(line_no, f"expected 'timestamp,label', got {raw!r}")
        try:
            ts = int(ts_str.strip(), 10)
        except ValueError:
            raise EventLogParseError(line_no, f"bad timestamp {ts_str.strip()!r}") from None
        column = columns.get(label)
        if column is None:
            try:
                _check_label(label)
            except ParameterError as exc:
                raise EventLogParseError(line_no, str(exc)) from None
            column = columns[label] = []
        column.append(ts)
    times = sorted(set().union(*columns.values()))
    rank = {ts: i for i, ts in enumerate(times)}
    masks = {
        label: _bitmap(map(rank.__getitem__, column), len(times))
        for label, column in columns.items()
    }
    return StreamQueue._from_columns(tuple(times), masks)


def serialize_event_log(queue: StreamQueue) -> str:
    """Render a queue back to event-log text.

    One record per (timestamp, type), tuples in time order, labels sorted
    within each tuple; ends with a newline when non-empty.  The output is
    a fixed point: parse -> serialize -> parse is the identity.
    """
    lines = [
        f"{t.time},{label}"
        for t in queue
        for label in sorted(t.types)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
