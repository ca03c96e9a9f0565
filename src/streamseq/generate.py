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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .model import Sequence, StreamQueue, _check_int

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: add a Weyl constant, then mix through two xorshift-
    multiply rounds.  Passes BigCrush; period 2**64; trivially seedable."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n < 1:
            raise ParameterError(f"next_below needs n >= 1, got {n}")
        cutoff = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            r = self.next_u64()
            if r < cutoff:
                return r % n


def type_labels(n_types: int) -> list[str]:
    """The generated alphabet: E001..E194 style, zero-padded."""
    width = max(3, len(str(n_types)))
    return [f"E{i:0{width}d}" for i in range(1, n_types + 1)]


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
    rng = SplitMix64(cfg.seed)
    alphabet = type_labels(cfg.n_types)
    base_fill = int(cfg.tuple_fill)
    frac_fill = cfg.tuple_fill - base_fill

    pending: dict[int, set[str]] = {}
    rows: list[tuple[int, frozenset[str]]] = []
    events = 0
    i = 0
    while events < cfg.n_events:
        if cfg.drift_at is not None and i >= cfg.drift_at:
            active = cfg.embedded_after
        else:
            active = cfg.embedded
        for seq, rate in active:
            if rng.next_float() < rate / 1000.0:
                for off, item in enumerate(seq):
                    pending.setdefault(i + off, set()).add(item)
        k = base_fill
        if rng.next_float() < frac_fill:
            k += 1
        types = pending.pop(i, set())
        for _ in range(k):
            types.add(alphabet[rng.next_below(cfg.n_types)])
        rows.append((i + 1, frozenset(types)))
        events += len(types)
        i += 1

    if cfg.drift_at is not None and cfg.drift_at >= len(rows):
        raise ParameterError(
            f"drift_at={cfg.drift_at} lies beyond the generated stream "
            f"({len(rows)} tuples); raise n_events or move the boundary"
        )
    return StreamQueue(rows)
