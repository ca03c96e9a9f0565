"""Stream data model.

An event stream is a queue of tuples: each tuple is the set of event types
observed at one timestamp, and tuples are kept in strictly increasing
timestamp order.  Mining never copies stream data; it works on ViewWindow
objects, which are (queue, start, size) views over a contiguous run of
tuples.  A window mined in pieces is a list of such views, one per block,
so that counts can be maintained per block.

Everything here is immutable after construction, which is what makes the
window views safe to share between the miner, the incremental updater and
the sweep driver without locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BoundsError, EventLogParseError, ParameterError

# Characters that would break the two line-oriented text formats
# (event logs are comma-separated, pattern files are tab-separated).
_FORBIDDEN_IN_LABEL = set(", \t\r\n\x0b\x0c")


class EventType:
    """An interned event-type symbol.

    Labels must be non-empty and contain no comma or whitespace so they
    survive both text formats unescaped.  Construction interns: equal
    labels give the identical object, so the default identity equality
    and hashing agree with label equality, cost no Python call, and an
    alphabet behaves like a set of atoms.  Ordering is by label.
    """

    __slots__ = ("label",)
    _pool: dict[str, EventType] = {}

    def __new__(cls, label: str) -> EventType:
        cached = cls._pool.get(label)
        if cached is not None:
            return cached
        if not isinstance(label, str) or not label:
            raise ParameterError("event label must be a non-empty string")
        if any(c in _FORBIDDEN_IN_LABEL for c in label):
            raise ParameterError(
                f"event label may not contain commas or whitespace: {label!r}"
            )
        obj = object.__new__(cls)
        obj.label = label
        return cls._pool.setdefault(label, obj)

    def __repr__(self) -> str:
        return f"EventType({self.label!r})"

    def __str__(self) -> str:
        return self.label

    def __lt__(self, other: EventType) -> bool:
        if not isinstance(other, EventType):
            return NotImplemented
        return self.label < other.label

    # keep interning stable under copy/deepcopy
    def __copy__(self) -> EventType:
        return self

    def __deepcopy__(self, memo: dict) -> EventType:
        return self


@dataclass(frozen=True)
class StreamTuple:
    """All event types observed at one timestamp. Never empty."""

    time: int
    types: frozenset[EventType]

    def __post_init__(self) -> None:
        if not isinstance(self.types, frozenset):
            object.__setattr__(self, "types", frozenset(self.types))
        if not self.types:
            raise ParameterError(f"stream tuple at time {self.time} is empty")

    def __len__(self) -> int:
        return len(self.types)

    def __contains__(self, item: EventType) -> bool:
        return item in self.types


class StreamQueue:
    """An immutable run of stream tuples in strictly increasing time order.

    Also owns one lazily built bitmap per event type, a Python int whose
    bit i is set when the type is in tuple i.  The masks are built in one
    pass on first use and shared by every window over the queue; the
    occurrence counter and alphabet() read them through mask().
    """

    __slots__ = ("tuples", "_masks")

    def __init__(self, tuples: Iterable[StreamTuple]) -> None:
        tps = tuple(tuples)
        for prev, cur in zip(tps, tps[1:]):
            if cur.time <= prev.time:
                raise ParameterError(
                    f"timestamps must strictly increase: {prev.time} then {cur.time}"
                )
        self.tuples = tps
        self._masks: dict[EventType, int] | None = None

    def __len__(self) -> int:
        return len(self.tuples)

    def __getitem__(self, i: int) -> StreamTuple:
        return self.tuples[i]

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self.tuples)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StreamQueue):
            return self.tuples == other.tuples
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.tuples)

    def __repr__(self) -> str:
        return f"StreamQueue(<{len(self.tuples)} tuples>)"

    def _type_masks(self) -> dict[EventType, int]:
        if self._masks is None:
            nbytes = (len(self.tuples) + 7) >> 3
            rows: dict[EventType, bytearray] = {}
            for i, t in enumerate(self.tuples):
                byte, bit = i >> 3, 1 << (i & 7)
                for et in t.types:
                    row = rows.get(et)
                    if row is None:
                        row = rows[et] = bytearray(nbytes)
                    row[byte] |= bit
            self._masks = {
                et: int.from_bytes(row, "little") for et, row in rows.items()
            }
        return self._masks

    def mask(self, item: EventType) -> int:
        """Bitmap of the tuples holding `item`: bit i is set for tuple i."""
        return self._type_masks().get(item, 0)

    def alphabet(self) -> list[EventType]:
        """All event types present, sorted by label."""
        return sorted(self._type_masks())


class ViewWindow:
    """A zero-copy view over queue tuples [start, start+size).

    Indexing is relative to the window; `start` stays available so the
    occurrence counter can work in absolute queue coordinates.
    """

    __slots__ = ("queue", "start", "size")

    def __init__(self, queue: StreamQueue, start: int, size: int) -> None:
        if start < 0 or size < 0 or start + size > len(queue):
            raise BoundsError(
                f"window [{start}, {start + size}) does not fit a queue of "
                f"{len(queue)} tuples"
            )
        self.queue = queue
        self.start = start
        self.size = size

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

    def mask(self, item: EventType) -> int:
        """The queue's bitmap of `item` cut to this window: bit i is tuple i."""
        return (self.queue.mask(item) >> self.start) & ((1 << self.size) - 1)

    def alphabet(self) -> list[EventType]:
        """Event types present in this window, sorted by label."""
        return [et for et in self.queue.alphabet() if self.mask(et)]


def window(queue: StreamQueue, start: int, size: int) -> ViewWindow:
    """View the `size` tuples of `queue` beginning at index `start`."""
    return ViewWindow(queue, start, size)


class Sequence:
    """An ordered list of event types, repeats allowed, never empty.

    Sequences are hashable and totally ordered by their label tuples, so
    every container of patterns in this package iterates and serializes
    in one deterministic order.
    """

    __slots__ = ("items", "_key", "_hash")

    def __init__(self, items: Iterable[EventType]) -> None:
        its = tuple(items)
        if not its:
            raise ParameterError("a sequence must contain at least one item")
        for it in its:
            if not isinstance(it, EventType):
                raise ParameterError(f"sequence items must be EventType, got {it!r}")
        self.items = its
        self._key = tuple(it.label for it in its)
        self._hash = hash(self._key)

    @classmethod
    def of(cls, *labels: str) -> Sequence:
        """Shorthand: Sequence.of("a", "b") == Sequence([EventType("a"), ...])."""
        return cls(EventType(l) for l in labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._key

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[EventType]:
        return iter(self.items)

    def __getitem__(self, i: int) -> EventType:
        return self.items[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence):
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: Sequence) -> bool:
        return self._key < other._key

    def __le__(self, other: Sequence) -> bool:
        return self._key <= other._key

    def __gt__(self, other: Sequence) -> bool:
        return self._key > other._key

    def __ge__(self, other: Sequence) -> bool:
        return self._key >= other._key

    def __repr__(self) -> str:
        return "<" + ",".join(self._key) + ">"

    def drop(self, i: int) -> Sequence:
        """The subsequence with position i removed. Length must be >= 2."""
        if len(self.items) < 2:
            raise ParameterError("cannot drop from a length-1 sequence")
        if not 0 <= i < len(self.items):
            raise ParameterError(f"drop index {i} out of range")
        return Sequence(self.items[:i] + self.items[i + 1 :])

    def shrink_by_one(self) -> list[Sequence]:
        """All distinct length-(m-1) subsequences, sorted. Empty for m=1."""
        if len(self.items) < 2:
            return []
        return sorted({self.drop(i) for i in range(len(self.items))})


def parse_event_log(text: str) -> StreamQueue:
    """Parse event-log text into a StreamQueue.

    Each record line is "timestamp,event_label" with a base-10 integer
    timestamp and a comma/whitespace-free label.  Lines that are empty or
    start with '#' are skipped.  Records may arrive in any order and may
    repeat: they are grouped by timestamp, duplicates within a timestamp
    merge, and tuples come out sorted by timestamp.
    """
    grouped: dict[int, set[EventType]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        ts_str, sep, label = line.partition(",")
        if not sep:
            raise EventLogParseError(line_no, f"expected 'timestamp,label', got {raw!r}")
        try:
            ts = int(ts_str.strip(), 10)
        except ValueError:
            raise EventLogParseError(line_no, f"bad timestamp {ts_str.strip()!r}") from None
        try:
            et = EventType(label)
        except ParameterError as exc:
            raise EventLogParseError(line_no, str(exc)) from None
        grouped.setdefault(ts, set()).add(et)
    return StreamQueue(
        StreamTuple(time=ts, types=frozenset(grouped[ts])) for ts in sorted(grouped)
    )


def serialize_event_log(queue: StreamQueue) -> str:
    """Render a queue back to event-log text.

    One record per (timestamp, type), tuples in time order, labels sorted
    within each tuple; ends with a newline when non-empty.  The output is
    a fixed point: parse -> serialize -> parse is the identity.
    """
    lines = [
        f"{t.time},{et.label}"
        for t in queue
        for et in sorted(t.types)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
