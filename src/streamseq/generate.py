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
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from numbers import Real
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


def type_labels(n_types: int) -> list[str]:
    """The generated alphabet: E001..E194 style, zero-padded."""
    width = max(3, len(str(n_types)))
    return [f"E{i:0{width}d}" for i in range(1, n_types + 1)]


def _check_real(name: str, value: object) -> None:
    """Raise ParameterError unless `value` is a real number and not a bool."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class GenConfig:
    """Generator settings.

    n_types     alphabet size; labels come from type_labels(n_types)
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
        alphabet = set(type_labels(self.n_types))
        for plist in (self.embedded, self.embedded_after or ()):
            for seq, rate in plist:
                if not isinstance(seq, Sequence):
                    raise ParameterError(f"embedded pattern {seq!r} is not a Sequence")
                _check_real("rate", rate)
                if not 0.0 <= rate <= 1000.0:
                    raise ParameterError(f"rate must be in [0, 1000], got {rate}")
                missing = [label for label in seq if label not in alphabet]
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
    """
    n_types, n_events, drift_at = cfg.n_types, cfg.n_events, cfg.drift_at
    draws = _draws(cfg.seed)
    # the draws kept for a uniform type index, read from the same stream
    accepted = filter(_cutoff(n_types).__gt__, draws)
    alphabet = type_labels(n_types)
    base_fill = int(cfg.tuple_fill)
    frac_fill = cfg.tuple_fill - base_fill
    active = [(seq, rate / 1000.0) for seq, rate in cfg.embedded]
    after = [(seq, rate / 1000.0) for seq, rate in cfg.embedded_after or ()]

    pending: dict[int, set[str]] = {}
    sets: list[frozenset[str]] = []
    events = 0
    i = 0
    while events < n_events:
        if i == drift_at:
            active = after
        # zip takes one draw per pattern, and none once they run out
        for (seq, p), u in zip(active, draws):
            if (u >> 11) * 2.0 ** -53 < p:
                for at, item in enumerate(seq, i):
                    pending.setdefault(at, set()).add(item)
        k = base_fill
        if (next(draws) >> 11) * 2.0 ** -53 < frac_fill:
            k += 1
        types = pending.pop(i, set())
        for _ in range(k):
            types.add(alphabet[next(accepted) % n_types])
        sets.append(frozenset(types))
        events += len(types)
        i += 1

    if drift_at is not None and drift_at >= len(sets):
        raise ParameterError(
            f"drift_at={drift_at} lies beyond the generated stream "
            f"({len(sets)} tuples); raise n_events or move the boundary"
        )
    # every tuple holds at least one label, from type_labels or a checked
    # Sequence, so the queue needs no check of its rows
    return StreamQueue._from_sets(tuple(range(1, len(sets) + 1)), tuple(sets))
