"""Stream data model.

An event label is a plain str: non-empty, with no comma, no whitespace
and no lone surrogate, so it survives both text formats unescaped and
encodes as UTF-8; _check_label holds that rule.  An event stream is a
queue of tuples: each tuple is the set of labels observed at one int
timestamp, and tuples are kept in strictly increasing timestamp order.
A Sequence is a non-empty tuple of labels.  A queue is held as columns:
`times`, its timestamps, and one bitmap per label whose bit i is set
when the label is in tuple i.  parse_event_log fills those columns
in one pass over the text, a few operations per record: it sets the
record's bit in its label's row, where bit r stands for the r-th run,
a maximal stretch of consecutive records sharing one timestamp.  Its
one label table maps each label to its row.  It reads the text in
chunks cut after a newline, each in one of two lanes: a chunk of
plain ASCII "timestamp,label" lines ending in "\n" is read in bulk;
any other chunk is read line by line.  In a time-ordered log each run
is one tuple and the rows are the bitmaps.  Any other log, with a
record out of order or a timestamp that comes back later, pays one
relabel of the runs into sorted timestamp order, which also merges
runs of one timestamp.  Iterating or indexing a queue yields each
tuple's label set, a frozenset, which a parsed queue builds only when
something asks for it (serialize_event_log, or the tests and their
brute-force oracle).  A queue built from (time, labels) rows keeps its
label sets and derives its bitmaps on first use.  Mining never copies
stream data; it works on ViewWindow objects, each the (queue, start,
size) range of tuples to count over.  A window mined in pieces is a
list of such ranges, one per block, so that counts can be
maintained per block.

Everything here is immutable after construction, which is what makes the
windows safe to share between the miner, the incremental updater and
the sweep driver without locking.  The exception is memos that never
change a result.  A queue builds its bitmaps or its label sets on first
use.  A window keeps four memos: each label's bitmap cut to it, filled
one label at a time; the path of prefixes the occurrence counter last
matched over it, replaced when the prefix changes; each last item's
offset planes, built once per span; and, in a window that head windows
were cut from, each sequence's set of matching starts, which its heads
count from.  Each memo entry is written in one statement, so a reader
sees it whole or not at all.
"""

from __future__ import annotations

import operator
import re
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


class StreamQueue:
    """An immutable run of stream tuples in strictly increasing time order.

    A tuple is the non-empty set of labels observed at one int timestamp.
    The queue is its columns: `times`, the timestamps, and one bitmap per
    event type, a Python int whose bit i is set when the type is in tuple
    i.  The bitmaps are shared by every window over the queue; the
    occurrence counter and alphabet() read them through mask().
    Iterating or indexing the queue yields each tuple's label set, a
    frozenset[str], so StreamQueue(zip(q.times, q)) == q.  A queue built
    from (time, labels) rows keeps its label sets and builds its bitmaps
    in one pass on first use; a parsed queue is given its bitmaps and
    builds its label sets on first use.  Length, masks, windows,
    equality and hashing never need the label sets.  Building from rows
    checks each distinct label once.
    """

    __slots__ = ("times", "_sets", "_masks")

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
        self.times = tuple(times)
        self._sets: tuple[frozenset[str], ...] | None = tuple(sets)
        self._masks: dict[str, int] | None = None

    @classmethod
    def _from_columns(
        cls, times: tuple[int, ...], masks: dict[str, int]
    ) -> StreamQueue:
        """A queue given as strictly increasing timestamps and the non-zero
        bitmap of every type present, each within len(times) bits."""
        queue = cls.__new__(cls)
        queue.times = times
        queue._sets = None
        queue._masks = masks
        return queue

    @classmethod
    def _from_sets(
        cls, times: tuple[int, ...], sets: tuple[frozenset[str], ...]
    ) -> StreamQueue:
        """A queue given as strictly increasing timestamps and each tuple's
        non-empty label set, every label one that _check_label passes."""
        queue = cls.__new__(cls)
        queue.times = times
        queue._sets = sets
        queue._masks = None
        return queue

    def _label_sets(self) -> tuple[frozenset[str], ...]:
        """Each tuple's labels in time order; a parsed queue builds them on
        first use."""
        if self._sets is None:
            rows: list[list[str]] = [[] for _ in self.times]
            for label, m in self._masks.items():
                for i in _set_bits(m):
                    rows[i].append(label)
            self._sets = tuple(map(frozenset, rows))
        return self._sets

    def __len__(self) -> int:
        return len(self.times)

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
            for i, labels in enumerate(self._sets):
                for label in labels:
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


def _check_int(name: str, value: object) -> None:
    """Raise ParameterError unless `value` is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an int, got {value!r}")


# a matched prefix's last item, its ends and, once built, its end planes
_PathNode = tuple[str, list[int], list[int] | None]


class ViewWindow:
    """The range [start, start+size) of a queue's tuples, to count over.

    A window copies nothing: the occurrence counter reads it through
    mask(), and its tuples are the queue's, queue[start:end].  start
    and size are ints, not bools.

    A window holds four memos that never change a result and take no
    part in equality or in what a window means: `_cuts`, filled once per
    label by mask() with that label's bitmap cut to the window;
    `_path`, the prefix the occurrence counter last matched here, as
    (span, nodes) with one node (item, ends, end planes or None) per
    prefix length, which the next prefix replaces from the first item
    where the two differ; `_lasts`, which maps (span, item) to the
    item's (span - 1).bit_length() offset planes, plane k the starts
    whose last offset of the item inside the span has bit k set, filled
    for items that end a sequence of two or more; and
    `_starts`, which maps (span, sequence) to the sequence's set of
    matching starts here, bit i for start i, filled only for a window
    that heads were cut from.  Each memo entry is written in a single
    statement, so a reader never sees one half-written.

    A head window, built by _head(d), is the first d tuples of a wider
    window, its parent, and reads through the parent's memos: its cut
    of a label is the parent's cut ANDed with the low d bits, and the
    occurrence counter answers a count over it from the parent's start
    set, keeping the head's d - span + 1 starts.  Whether a start
    matches depends only on the span tuples from it on, so the parent
    and every head agree on each start they share.  A head equals the
    plain window of its range.
    """

    __slots__ = (
        "queue", "start", "size", "_low", "_parent",
        "_cuts", "_path", "_lasts", "_starts",
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
        self._path: tuple[int, tuple[_PathNode, ...]] | None = None
        self._lasts: dict[tuple[int, str], list[int]] = {}
        self._starts: dict[tuple[int, Sequence], int] = {}

    def _head(self, size: int) -> ViewWindow:
        """The window of this one's first `size` tuples, as a head of it."""
        if not 0 <= size <= self.size:
            raise BoundsError(f"a head of {size} tuples does not fit {self!r}")
        head = ViewWindow(self.queue, self.start, size)
        head._parent = self
        return head

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

        Each label is cut once per window, a head's from its parent's
        cut; later calls reuse the cut.
        """
        cut = self._cuts.get(item)
        if cut is None:
            whole = (
                self.queue.mask(item) >> self.start
                if self._parent is None
                else self._parent.mask(item)
            )
            cut = self._cuts[item] = whole & self._low
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
# the ASCII characters str.splitlines() breaks a line at, and the comma
_SEPARATORS = b",\n\r\v\f\x1c\x1d\x1e"
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in _SEPARATORS)


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
    The text is read in chunks of about _CHUNK characters, each cut just
    after a newline, and each chunk takes one of two lanes.  The bulk
    lane (_bulk_chunk) takes a chunk of ASCII text in which every line
    holds exactly one comma and ends in a plain newline.  It splits the
    chunk once, looks every label text up at once, calls int() only
    where a timestamp's text differs from the record before and sets
    each record's bit.  A bad label, or a timestamp int() refuses as
    written (a comment line, padding such as U+001F, a bad timestamp),
    drops the chunk's runs and new labels and sends it to the line lane
    (_line_chunk), which sets the same bits again, line by line: a
    partition at the comma, an int() where the timestamp's text changes,
    a lookup of the label text, a bit set.  In a time-ordered log every
    run is one tuple, so the rows are the queue's bitmaps as they stand;
    any other log pays one relabel of the runs into sorted timestamp
    order (_queue_of_runs).
    """
    rows: dict[str, bytearray] = {}  # label -> row, bit r set for run r
    times: list[int] = []  # the timestamp of each run
    state = (None, -1, 0, 0)  # the last run's timestamp, the run, its byte and bit
    done = start = 0  # the lines and the characters before the chunk
    while start < len(text):
        # just after a newline, which is always a line boundary; or the end
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        chunk = text[start:end]
        start = end
        bulk = _bulk_chunk(chunk, rows, times, *state)
        if bulk is None:
            lines = chunk.splitlines()
            state = _line_chunk(lines, done, rows, times, *state)
            done += len(lines)
        else:
            state, records = bulk
            done += records
    return _queue_of_runs(times, rows)


def _bulk_chunk(
    chunk: str,
    rows: dict[str, bytearray],
    times: list[int],
    last: int | None,
    run: int,
    byte: int,
    bit: int,
) -> tuple[tuple[int | None, int, int, int], int] | None:
    """Parse a chunk of records in bulk, as parse_event_log says: the new
    (last, run, byte, bit) state and the number of lines; None, with
    `times` and `rows` as they were, for a chunk the line lane must
    read."""
    if not chunk.isascii():
        return None
    body = chunk[:-1] if chunk[-1] == "\n" else chunk
    # every line holds one comma and ends in "\n", not in another line
    # boundary; counting commas and lines cannot prove this
    seps = body.encode("ascii").translate(None, _NOT_SEPARATORS)
    if seps != b",\n" * (len(seps) >> 1) + b",":
        return None
    fields = body.replace("\n", ",").split(",")
    texts = fields[1::2]
    new: dict[str, bytearray] = {}
    try:
        found = list(map(rows.__getitem__, texts))
    except KeyError:
        # each label text without its trailing padding, as the line lane reads it
        texts = list(map(str.rstrip, texts))
        # new labels, in order of first appearance; they are committed
        # only once the chunk has parsed here, so that the label of a line
        # the line lane skips, such as "# 1,E999", never gets a row
        for text in dict.fromkeys(texts):
            if text in rows:
                continue
            try:
                _check_label(text)
            except ParameterError:
                return None  # a bad label, which the line lane names
            new[text] = bytearray()
        found = list(map({**rows, **new}.__getitem__, texts))
    runs = len(times)
    last_str = None  # the timestamp text of the last record
    try:
        for ts_str, row in zip(fields[::2], found):
            if ts_str != last_str:
                last_str = ts_str
                ts = int(ts_str, 10)
                if ts != last:
                    last = ts
                    times.append(ts)
                    run += 1
                    byte = run >> 3
                    bit = 1 << (run & 7)
            try:
                row[byte] |= bit
            except IndexError:
                row.extend(bytes(byte + 1))
                row[byte] |= bit
    except ValueError:
        del times[runs:]
        return None
    rows.update(new)
    return (last, run, byte, bit), len(found)


def _line_chunk(
    lines: list[str],
    done: int,
    rows: dict[str, bytearray],
    times: list[int],
    last: int | None,
    run: int,
    byte: int,
    bit: int,
) -> tuple[int | None, int, int, int]:
    """Parse a chunk's `lines`, which follow `done` lines of the log, one
    at a time, as parse_event_log says; the new (last, run, byte, bit)
    state.

    int() ignores whitespace around a number, but not all that
    str.strip() removes: U+001F is one it refuses.  So a timestamp int()
    refuses as written is read again stripped, unless its line is blank
    or a comment, and a label text missing from `rows` is looked up
    again without its trailing padding.  An equal earlier line would
    have failed in the same way first, so the bad line is named as the
    first one equal to it; no line count is kept.
    """
    last_str = None  # the timestamp text of the last record
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
        return last, run, byte, bit
    # the loop broke at line `raw`
    if not sep:  # and so its label text is ""
        message = f"expected 'timestamp,label', got {raw!r}"
    raise EventLogParseError(done + lines.index(raw) + 1, message)


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
        masks = {label: int.from_bytes(row, "little") for label, row in rows.items()}
        return StreamQueue._from_columns(tuple(times), masks)
    order = sorted(set(times))
    rank = dict(zip(order, range(len(order))))
    ranks = list(map(rank.__getitem__, times))  # the tuple of each run
    masks = {}
    for label, row in rows.items():
        runs = _set_bits(int.from_bytes(row, "little"))
        masks[label] = _bitmap(map(ranks.__getitem__, runs), len(order))
    return StreamQueue._from_columns(tuple(order), masks)


def serialize_event_log(queue: StreamQueue) -> str:
    """Render a queue back to event-log text.

    One record per (timestamp, type), tuples in time order, labels sorted
    within each tuple; ends with a newline when non-empty.  The output is
    a fixed point: parse -> serialize -> parse is the identity.
    """
    lines = [
        f"{time},{label}"
        for time, labels in zip(queue.times, queue)
        for label in sorted(labels)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
