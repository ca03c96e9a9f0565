"""Synthetic event-stream generation with drift.

Streams are built tuple by tuple at timestamps 1, 2, 3, ... until the
requested number of events has been emitted.  Each tuple gets a random
background fill drawn uniformly from the alphabet, plus any items owed
by embedded patterns: a pattern fires per tuple with probability
rate/1000 and then lays its items down on consecutive tuples, which is
what makes it minable at small spans.  At the drift boundary the active
pattern list is swapped wholesale, so the stream's frequent structure
before and after the boundary genuinely differs.

Randomness comes from an in-repo splitmix64, a public, well-documented
64-bit mixer, rather than the stdlib Mersenne Twister: the algorithm is
pinned here so a (seed, config) pair denotes the same stream on any
Python version, forever.  Draw order per tuple is fixed and documented
on generate(); nothing about the output depends on set or dict
iteration order.

The draws are computed in batches.  splitmix64's n-th draw is a mix of
seed + n * gamma mod 2**64, a function of n alone, so _batches computes
4096 at a time on one Python int holding one state per 128-bit lane:
each step of the mix is a single shift, xor, mask or multiply over all
lanes, and int.to_bytes with a memoryview unpacks the results.
generate() reads its draws straight from the batches (_draws), with no
call per draw.  The one-step recurrence stays in the tests as the
reference the batches must equal.

A draw u is tested as an int, never turned into a float.  It stands for
the uniform (u >> 11) * 2.0 ** -53 in [0, 1), and an event of
probability p happens when that float is below p.  For an int m,
m * 2**-53 < p holds exactly when m < ceil(p * 2**53), and u >> 11 < c
exactly when u < c << 11, so the test is u < _threshold(p), one int
comparison against a threshold computed once per pattern and once for
the fill.  Each pattern's laydown, its (offset, item) pairs, is also
computed once, and a tuple's patterns are tested in C by
itertools.compress.  The generator loop that tests each draw as a float
stays in the tests as the reference these streams must equal byte for
byte.

Memory does not grow with n_types: a pattern label is checked by
parsing it against the label format, and a type's label is formatted
when it is first drawn, so no alphabet is ever built.  n_types is at
most 2**64, the number of values one draw can take.  Nor do the label
sets grow with the tuples: generate() keeps one frozenset per distinct
label set drawn, and every tuple with that set refers to it, so memory
grows with the distinct label sets drawn, not with tuples.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress, islice
from numbers import Real
from operator import gt
from typing import Iterator

from .errors import ParameterError
from .model import Sequence, StreamQueue, _check_int

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the Weyl increment

_LANES = 4096  # draws per batch, one per 128-bit lane of a packed int
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")  # 1 per lane
_LOW = _MASK64 * _ONES  # the low 64 bits of every lane
# lane k holds (k + 1) * gamma: the Weyl offsets of a batch's draws
_OFFSETS = int.from_bytes(
    b"".join(
        ((k + 1) * _GAMMA & _MASK64).to_bytes(16, "little") for k in range(_LANES)
    ),
    "little",
)
_STRIDE = (_LANES * _GAMMA & _MASK64) * _ONES  # from one batch to the next
# the 64-bit words of a packed int's bytes that are its lanes' low halves,
# lane 0 first; the bytes are in native order, which is how cast("Q") reads
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _batches(seed: int) -> Iterator[list[int]]:
    """The splitmix64 stream of `seed`, _LANES draws at a time.

    Draw n (1-based) is mix(seed + n * gamma mod 2**64), so a batch is
    computed without the draws before it: its Weyl states sit one per
    128-bit lane of one int, and every step of mix runs on all lanes at
    once.  A 64-bit lane value times a 64-bit constant fits in its
    128-bit lane, and masking to the low halves after each step drops
    what a shift or product carried into the high ones.
    """
    states = ((seed & _MASK64) * _ONES + _OFFSETS) & _LOW
    while True:
        z = ((states ^ (states >> 30)) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
        z = ((z ^ (z >> 27)) & _LOW) * 0x94D049BB133111EB & _LOW
        z ^= z >> 31  # the high halves now hold bits of the next lane
        words = memoryview(z.to_bytes(16 * _LANES, sys.byteorder)).cast("Q")
        yield words[_LOW_WORDS].tolist()
        states = (states + _STRIDE) & _LOW


def _cutoff(n: int) -> int:
    """The draws below this are accepted for a uniform integer in [0, n):
    the largest multiple of n that is at most 2**64, so that every
    residue mod n has equally many of them."""
    return (_MASK64 + 1) - ((_MASK64 + 1) % n)


def _draws(seed: int) -> Iterator[int]:
    """The 64-bit splitmix64 draws of `seed`, one at a time, read from
    its batches."""
    return chain.from_iterable(_batches(seed))


def _threshold(p: Real) -> int:
    """The draws u that pass (u >> 11) * 2.0 ** -53 < p are exactly those
    below this int.

    The float is m * 2**-53 for m = u >> 11 in [0, 2**53), exactly, and
    grows with m, so the test passes for every m below some c and for
    none from c on; u >> 11 < c exactly when u < c << 11.  For a float
    or a Fraction p, c is ceil(p * 2**53) held to [0, 2**53].  Bisection
    on the expression itself finds c, so it means what the expression
    means for any real p: a Fraction is compared exactly, never rounded
    through a float product, and a NumPy float32, which Fraction()
    refuses, is compared as NumPy compares it.
    """
    low, high = 0, 1 << 53
    while low < high:
        mid = (low + high) >> 1
        if mid * 2.0 ** -53 < p:
            low = mid + 1
        else:
            high = mid
    return low << 11


def _width(n_types: int) -> int:
    """The digits of a type label: those of n_types, at least three."""
    return max(3, len(str(n_types)))


class _Labels(dict):
    """Type index -> label, each formatted when it is first drawn, so
    memory grows with the types a stream holds, not with n_types."""

    def __init__(self, n_types: int) -> None:
        self.width = _width(n_types)

    def __missing__(self, index: int) -> str:
        label = self[index] = f"E{index + 1:0{self.width}d}"
        return label


def type_labels(n_types: int) -> list[str]:
    """The generated alphabet: E001..E194 style, zero-padded."""
    return list(map(_Labels(n_types).__getitem__, range(n_types)))


def _is_type_label(label: str, n_types: int) -> bool:
    """Whether `label` is in type_labels(n_types), read off the label
    itself: "E", then _width(n_types) ASCII digits naming 1..n_types."""
    digits = label[1:]
    return (
        label[:1] == "E"
        and len(digits) == _width(n_types)
        and digits.isascii()
        and digits.isdigit()
        and 1 <= int(digits) <= n_types
    )


# a pattern's laydown: (offset, item) per item, offset 0 on the firing tuple
_Plan = tuple[tuple[int, str], ...]


def _schedules(
    embedded: tuple[tuple[Sequence, float], ...],
) -> tuple[tuple[_Plan, ...], tuple[int, ...]]:
    """Each pattern's laydown and the threshold its firing draw must fall
    below, as two parallel tuples."""
    plans = tuple(tuple(enumerate(seq)) for seq, _ in embedded)
    limits = tuple(_threshold(rate / 1000.0) for _, rate in embedded)
    return plans, limits


def _check_real(name: str, value: object) -> None:
    """Raise ParameterError unless `value` is a real number and not a bool."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class GenConfig:
    """Generator settings.

    n_types     alphabet size, 1..2**64; labels are those of
                type_labels(n_types), formatted only when drawn
    n_events    stop once at least this many events have been emitted
    seed        splitmix64 seed
    tuple_fill  mean background items per tuple, >= 1; the fractional
                part is realized by a Bernoulli extra item
    embedded    (pattern, rate) pairs; rate is expected firings per
                1000 tuples, each firing laying the pattern on
                consecutive tuples
    drift_at    tuple index at which `embedded_after` replaces
                `embedded`; None for no drift
    """

    n_types: int
    n_events: int
    seed: int
    tuple_fill: float = 1.0
    embedded: tuple[tuple[Sequence, float], ...] = ()
    drift_at: int | None = None
    embedded_after: tuple[tuple[Sequence, float], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "embedded", tuple(tuple(e) for e in self.embedded))
        if self.embedded_after is not None:
            object.__setattr__(
                self, "embedded_after", tuple(tuple(e) for e in self.embedded_after)
            )
        for name in ("n_types", "n_events", "seed"):
            _check_int(name, getattr(self, name))
        if self.drift_at is not None:
            _check_int("drift_at", self.drift_at)
        if self.n_types < 1:
            raise ParameterError(f"n_types must be >= 1, got {self.n_types}")
        if self.n_types > 1 << 64:
            # past 2**64 no 64-bit draw can stand for a uniform type index
            raise ParameterError(f"n_types must be <= 2**64, got {self.n_types}")
        if self.n_events < 1:
            raise ParameterError(f"n_events must be >= 1, got {self.n_events}")
        _check_real("tuple_fill", self.tuple_fill)
        if not 1.0 <= self.tuple_fill <= self.n_types:
            raise ParameterError(
                f"tuple_fill must be in [1, n_types], got {self.tuple_fill}"
            )
        if (self.drift_at is None) != (self.embedded_after is None):
            raise ParameterError(
                "drift_at and embedded_after must be given together"
            )
        if self.drift_at is not None and self.drift_at < 1:
            raise ParameterError(f"drift_at must be >= 1, got {self.drift_at}")
        for plist in (self.embedded, self.embedded_after or ()):
            for seq, rate in plist:
                if not isinstance(seq, Sequence):
                    raise ParameterError(f"embedded pattern {seq!r} is not a Sequence")
                _check_real("rate", rate)
                if not 0.0 <= rate <= 1000.0:
                    raise ParameterError(f"rate must be in [0, 1000], got {rate}")
                missing = [
                    label for label in seq if not _is_type_label(label, self.n_types)
                ]
                if missing:
                    raise ParameterError(
                        f"pattern {seq!r} uses labels outside the alphabet: {missing}"
                    )


def generate(cfg: GenConfig) -> StreamQueue:
    """Generate the stream a config and seed denote.

    Per tuple i (0-based; its timestamp is i+1), draws happen in a fixed
    order: one uniform per active embedded pattern in config order (a
    firing schedules the pattern's items onto tuples i, i+1, ...), one
    uniform for the fractional background fill, then the background type
    draws.  Generation stops at the first tuple boundary where the event
    count reaches n_events, so the total overshoots by at most one
    tuple's worth.  Pattern firings scheduled past that boundary are cut
    off with the stream.

    Each uniform is a draw u read as (u >> 11) * 2.0 ** -53, and it is
    below p exactly when u < _threshold(p) (module docstring), so the
    comparisons are on ints and give the float comparison's answer for
    a float or a Fraction alike.  A type index is the first draw below
    _cutoff(n_types), reduced mod n_types; its label is formatted when
    first drawn, so memory grows with the types drawn, not n_types.
    """
    n_types, n_events, drift_at = cfg.n_types, cfg.n_events, cfg.drift_at
    draws = _draws(cfg.seed)
    # the label of a uniform type index per kept draw, read lazily from
    # the same stream; n_types.__rmod__(u) is u % n_types
    labels = map(
        _Labels(n_types).__getitem__,
        map(n_types.__rmod__, filter(_cutoff(n_types).__gt__, draws)),
    )
    base_fill = int(cfg.tuple_fill)
    extra = _threshold(cfg.tuple_fill - base_fill)
    plans, limits = _schedules(cfg.embedded)

    pending: defaultdict[int, set[str]] = defaultdict(set)
    sets: list[frozenset[str]] = []
    seen: dict[frozenset[str], frozenset[str]] = {}  # one object per label set
    events = 0
    i = 0
    while events < n_events:
        if i == drift_at:
            plans, limits = _schedules(cfg.embedded_after)
        # compress asks for a plan before its selector, and map for a limit
        # before its draw, so this takes one draw per pattern and no more
        for plan in compress(plans, map(gt, limits, draws)):
            for offset, item in plan:
                pending[i + offset].add(item)
        k = base_fill + (next(draws) < extra)
        due = pending.pop(i, None)
        if due is None:
            row = frozenset(islice(labels, k))
        else:
            due.update(islice(labels, k))
            row = frozenset(due)
        row = seen.setdefault(row, row)
        sets.append(row)
        events += len(row)
        i += 1

    if drift_at is not None and drift_at >= len(sets):
        raise ParameterError(
            f"drift_at={drift_at} lies beyond the generated stream "
            f"({len(sets)} tuples); raise n_events or move the boundary"
        )
    # every tuple holds at least one label, from type_labels or a checked
    # Sequence, so the queue needs no check of its rows
    return StreamQueue._from_columns(tuple(range(1, len(sets) + 1)), tuple(sets))
