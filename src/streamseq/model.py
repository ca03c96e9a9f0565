"""Stream data model.

An event label is a plain str: non-empty, with no comma, no whitespace
and no lone surrogate, so it survives both text formats unescaped and
encodes as UTF-8; _check_label holds that rule.  An event stream is a
queue of tuples: each tuple is the set of labels observed at one int
timestamp, and tuples are kept in strictly increasing timestamp order.
A Sequence is a non-empty tuple of labels.  A queue is held as columns:
`times`, its timestamps, and one bitmap per label whose bit i is set
when the label is in tuple i.  A bitmap is kept as bytes, a canonical
little-endian row with no trailing zero byte, and decoded to an int
only a window at a time: a window cuts the bytes that cover its range.
The command line keeps these columns beside each log it reads
(logcache), so it parses a log's text only while that log is new or
changed, and a queue read from there builds its `times` tuple only when
something asks for it.  parse_event_log fills those columns in one pass
over the text, a few operations per record: it sets the record's bit in
its label's row, where bit r stands for the r-th run, a maximal stretch
of consecutive records sharing one timestamp.  Its one label table maps
each label to its row.  It reads the text line by line, split into
lines a chunk at a time, each chunk cut after a newline, with the run
state carried from chunk to chunk.  In a time-ordered log each run is
one tuple and the rows are the bitmaps.  Any other log, with a record
out of order or a timestamp that comes back later, pays one relabel of
the runs into sorted timestamp order, which also merges runs of one
timestamp.  Iterating or indexing a queue yields each tuple's label
set, a frozenset, which a parsed queue builds only when something asks
for it (serialize_event_log, or the tests and their brute-force
oracle).  A queue built from (time, labels) rows keeps its label sets
and derives its bitmaps on first use.

This module holds the stream model and the log format, and nothing of
counting: the windows that counting reads a queue through, and their
memos, live with the counter (occurrence.ViewWindow).  So the log cache,
which keys every sidecar on this file (logcache), survives a change to
counting.

Everything here is immutable after construction, which is what makes a
queue safe to share between the miner, the incremental updater and the
sweep driver without locking.  The exception is memos that never change
a result: a queue builds its bitmaps, its label sets or its `times`
tuple on first use, each in one statement, so a reader sees it whole or
not at all.
"""

from __future__ import annotations

import operator
import re
from array import array
from itertools import islice
from typing import Iterable, Iterator

from .errors import EventLogParseError, ParameterError

_LABEL_BREAKERS = re.compile(r"[,\s\ud800-\udfff]")
_SERIALIZE_BLOCK = 4096  # tuples joined into one string by serialize_event_log
_Row = bytes | bytearray | memoryview  # a bitmap's canonical bytes


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


class StreamQueue:
    """An immutable run of stream tuples in strictly increasing time order.

    A tuple is the non-empty set of labels observed at one int timestamp.
    The queue is its columns: `times`, the timestamps, and one bitmap per
    event type whose bit i is set when the type is in tuple i.  Each
    bitmap is held as a bytes-like row, little-endian and canonical: no
    trailing zero byte, so equal bitmaps are equal rows.  A window cuts
    its range straight from the row, and its mask() reads that cut as an
    int.  Iterating or indexing the queue yields each tuple's label set,
    a frozenset[str], so StreamQueue(zip(q.times, q)) == q.  A queue
    built from (time, labels) rows keeps its label sets and builds its
    bitmaps in one pass on first use; a parsed queue is given its
    bitmaps and builds its label sets on first use.  A queue read from a
    sidecar holds its timestamps as an array and builds the `times`
    tuple on first use.  Length, masks, windows, equality and hashing
    never need the label sets, and equality and hashing do not depend on
    the type of a row.  Building from rows checks each distinct label
    once.
    """

    __slots__ = ("_times", "_sets", "_bitmaps")

    def __init__(self, rows: Iterable[tuple[int, Iterable[str]]]) -> None:
        times: list[int] = []
        sets: list[frozenset[str]] = []
        for time, labels in rows:
            if not isinstance(time, int) or isinstance(time, bool):
                raise ParameterError(f"stream tuple time must be an int, got {time!r}")
            if times and time <= times[-1]:
                raise ParameterError(
                    f"timestamps must strictly increase: {times[-1]} then {time}"
                )
            if isinstance(labels, str):
                raise ParameterError(
                    f"stream tuple types must be a set of labels, not the string "
                    f"{labels!r}"
                )
            labels = frozenset(labels)
            if not labels:
                raise ParameterError(f"stream tuple at time {time} is empty")
            times.append(time)
            sets.append(labels)
        for label in set().union(*sets):
            _check_label(label)
        self._times: tuple[int, ...] | array = tuple(times)
        self._sets: tuple[frozenset[str], ...] | None = tuple(sets)
        self._bitmaps: dict[str, _Row] | None = None

    @classmethod
    def _from_columns(
        cls,
        times: tuple[int, ...] | array,
        sets: tuple[frozenset[str], ...] | None = None,
        bitmaps: dict[str, _Row] | None = None,
    ) -> StreamQueue:
        """A queue given as strictly increasing timestamps, a tuple or an
        array('q'), and one of two columns: `sets`, each tuple's non-empty
        label set, every label one that _check_label passes; or `bitmaps`,
        the canonical row of every type present, each within len(times)
        bits.  The other is built on first use."""
        queue = cls.__new__(cls)
        queue._times = times
        queue._sets = sets
        queue._bitmaps = bitmaps
        return queue

    @property
    def times(self) -> tuple[int, ...]:
        """The timestamps, in order; a queue given them as an array builds
        this tuple on first use."""
        times = self._times
        if type(times) is not tuple:
            times = self._times = tuple(times)
        return times

    def _label_sets(self) -> tuple[frozenset[str], ...]:
        """Each tuple's labels in time order; a parsed queue builds them on
        first use."""
        if self._sets is None:
            rows: list[list[str]] = [[] for _ in range(len(self._times))]
            for label, row in self._bitmaps.items():
                for i in _set_bits(int.from_bytes(row, "little")):
                    rows[i].append(label)
            self._sets = tuple(map(frozenset, rows))
        return self._sets

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(
        self, i: int | slice
    ) -> frozenset[str] | tuple[frozenset[str], ...]:
        return self._label_sets()[i]

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self._label_sets())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StreamQueue):
            return (
                self.times == other.times
                and self._type_bitmaps() == other._type_bitmaps()
            )
        return NotImplemented

    def __hash__(self) -> int:
        rows = self._type_bitmaps().items()
        return hash((self.times, frozenset((label, bytes(row)) for label, row in rows)))

    def __repr__(self) -> str:
        return f"StreamQueue(<{len(self)} tuples>)"

    def __reduce__(self) -> tuple:
        # a row may be a memoryview, which does not pickle; as bytes it
        # is the same bitmap
        rows = self._bitmaps and {label: bytes(row) for label, row in self._bitmaps.items()}
        return StreamQueue._from_columns, (self.times, self._sets, rows)

    def _type_bitmaps(self) -> dict[str, _Row]:
        if self._bitmaps is None:
            columns: dict[str, list[int]] = {}
            for i, labels in enumerate(self._sets):
                for label in labels:
                    columns.setdefault(label, []).append(i)
            self._bitmaps = {label: _bitmap(col) for label, col in columns.items()}
        return self._bitmaps

    def alphabet(self) -> list[str]:
        """All labels present, sorted."""
        return sorted(self._type_bitmaps())


def _bitmap(indices: list[int]) -> bytearray:
    """The canonical row with bit i set for every i in the non-empty
    `indices`."""
    row = bytearray((max(indices) >> 3) + 1)
    for i in indices:
        row[i >> 3] |= 1 << (i & 7)
    return row


def _set_bits(m: int) -> Iterator[int]:
    """The indices of the set bits of `m` >= 0, ascending."""
    bits = f"{m:b}"[::-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def _check_int(name: str, value: object) -> None:
    """Raise ParameterError unless `value` is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an int, got {value!r}")


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
    def _unchecked(cls, labels: tuple[str, ...]) -> Sequence:
        """Wrap a non-empty tuple of labels that were already checked.

        The labels must come from a Sequence, from a queue's bitmaps,
        whose labels the queue checked when it was built, or from
        load_pattern_file, which checks each distinct label text once; in
        each case _check_label has passed on each of them, so checking
        them again could only repeat that answer.  The mining engine builds every
        candidate this way, so a search over an already-built queue
        makes no label check at all.
        """
        return tuple.__new__(cls, labels)

    @classmethod
    def of(cls, *labels: str) -> Sequence:
        """Shorthand: Sequence.of("a", "b") == Sequence(["a", "b"])."""
        return cls(labels)

    def __repr__(self) -> str:
        return "<" + ",".join(self) + ">"


# a chunk of log text is cut just after the first newline at or past
# this many characters from its start
_CHUNK = 1 << 16


def parse_event_log(text: str) -> StreamQueue:
    """Parse event-log text into a StreamQueue.

    Each record line is "timestamp,event_label" with a base-10 integer
    timestamp and a label _check_label accepts; whitespace around the
    timestamp and after the label is ignored.  Lines that are empty or
    start with '#' are skipped.  Records may arrive in any order and may
    repeat: they are grouped by timestamp, duplicates within a timestamp
    merge, and tuples come out sorted by timestamp.  The first bad line
    raises EventLogParseError with its 1-based number.

    One pass over the text sets one bit per record, in its label's row
    in `rows`, the one label table.  A record's bit is its run: a
    maximal stretch of consecutive records that share one timestamp.
    The text is split into lines in chunks of about _CHUNK characters,
    each cut just after a newline, so that the lines of the whole log
    are never held at once.  Each line costs a partition at the comma,
    an int() only where the timestamp's text differs from the record
    before, a lookup of the label text and a bit set; the run state
    carries from one chunk to the next.

    int() ignores whitespace around a number, but not all that
    str.strip() removes: U+001F is one it refuses.  So a timestamp int()
    refuses as written is read again stripped, unless its line is blank
    or a comment, and a label text missing from `rows` is looked up
    again without its trailing padding.  An equal earlier line would
    have failed in the same way first, so the bad line is named as the
    first one in its chunk equal to it, and lines are counted a chunk at
    a time.  In a time-ordered log every run is one tuple, so the rows
    are the queue's bitmaps as they stand; any other log pays one
    relabel of the runs into sorted timestamp order (_queue_of_runs).
    """
    rows: dict[str, bytearray] = {}  # label -> row, bit r set for run r
    times: list[int] = []  # the timestamp of each run
    last = last_str = None  # the last run's timestamp, the last record's text
    run = -1  # the last run, which sets bit `bit` of byte `byte` in a row
    byte = bit = 0
    done = start = 0  # the lines and the characters before the chunk
    while start < len(text):
        # just after a newline, which is always a line boundary; or the end
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        lines = text[start:end].splitlines()
        start = end
        for raw in lines:
            ts_str, sep, label = raw.partition(",")
            if ts_str != last_str:
                try:
                    ts = int(ts_str, 10)
                except ValueError:
                    line = raw.strip()
                    if not line or line[0] == "#":
                        continue
                    try:
                        ts = int(ts_str.strip(), 10)
                    except ValueError:
                        message = f"bad timestamp {ts_str.strip()!r}"
                        break
                last_str = ts_str
                if ts != last:
                    last = ts
                    times.append(ts)
                    run += 1
                    byte = run >> 3
                    bit = 1 << (run & 7)
            try:
                row = rows[label]
            except KeyError:
                label = label.rstrip()
                row = rows.get(label)
                if row is None:
                    try:
                        _check_label(label)
                    except ParameterError as exc:
                        message = str(exc)
                        break
                    row = rows[label] = bytearray(byte + 1)
            try:
                row[byte] |= bit
            except IndexError:
                # a row ends at its label's last run so far and at least
                # doubles when it grows, so it stays within twice its bitmap
                row.extend(bytes(byte + 1))
                row[byte] |= bit
        else:
            done += len(lines)
            continue
        # the loop broke at line `raw`
        if not sep:  # and so its label text is ""
            message = f"expected 'timestamp,label', got {raw!r}"
        raise EventLogParseError(done + lines.index(raw) + 1, message)
    return _queue_of_runs(times, rows)


def _queue_of_runs(times: list[int], rows: dict[str, bytearray]) -> StreamQueue:
    """The queue of the runs with timestamps `times`, where each label's
    row has bit r set for each run r holding it.

    When the runs' timestamps strictly increase, run r is tuple r.
    Otherwise a record arrived out of order or a timestamp came back
    later in the log, and each run is relabeled to the rank of its
    timestamp among the distinct ones, which merges the runs that share
    a timestamp.
    """
    if all(map(operator.lt, times, times[1:])):
        for row in rows.values():
            # a row may have grown past its last set byte
            del row[len(row.rstrip(b"\0")):]
        return StreamQueue._from_columns(tuple(times), bitmaps=rows)
    order = sorted(set(times))
    rank = dict(zip(order, range(len(order))))
    ranks = list(map(rank.__getitem__, times))  # the tuple of each run
    bitmaps = {}
    for label, row in rows.items():
        runs = _set_bits(int.from_bytes(row, "little"))
        bitmaps[label] = _bitmap(list(map(ranks.__getitem__, runs)))
    return StreamQueue._from_columns(tuple(order), bitmaps=bitmaps)


def serialize_event_log(queue: StreamQueue) -> str:
    """Render a queue back to event-log text.

    One record per (timestamp, type), tuples in time order, labels sorted
    within each tuple; ends with a newline when non-empty.  The output is
    a fixed point: parse -> serialize -> parse is the identity.  A tuple
    is written as one string, not one per record: with head "\n{time},",
    its records are head + head.join(its sorted labels).  The strings of
    _SERIALIZE_BLOCK tuples at a time are joined into one block, so no
    string per tuple of the whole log is ever held.  The joined text
    starts with a newline, so the first block drops it, and one last
    join of the blocks and a closing newline is the log.
    """
    rows = zip(queue.times, queue)
    blocks = []
    while block := "".join(
        [
            (head := f"\n{time},") + head.join(sorted(labels))
            for time, labels in islice(rows, _SERIALIZE_BLOCK)
        ]
    ):
        blocks.append(block)
    if not blocks:
        return ""
    blocks[0] = blocks[0][1:]
    blocks.append("\n")
    return "".join(blocks)
