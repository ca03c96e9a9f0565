"""Brute-force reference implementations that tests check against.

contains() and occur_bruteforce() test every start position directly;
brute_force_frequent() mines by exhaustive embedding enumeration, and
shrink_by_one() lists a sequence's one-shorter subsequences.  None of
them shares code with the bit-parallel counter in the occurrence module
or with the level-wise miner, so agreement with them is evidence, not
tautology.  walk_reference() is the greedy prefix step that visits
every offset, idle or not, which the package's skipping walk must
match.  ScalarSplitMix64 is the splitmix64 recurrence one draw at a
time, generate_reference() the generator loop that tests each draw as a
float and builds the whole alphabet, and serialize_reference() the
writer that makes one string per record; the package's batched draws,
integer thresholds and one string per tuple must reproduce them byte
for byte.  They import only the package's public names.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence as PySequence

from streamseq import (
    CountParams,
    GenConfig,
    MiningParams,
    ParameterError,
    PatternSet,
    Sequence,
    StreamQueue,
    ViewWindow,
    window,
)

_MASK64 = (1 << 64) - 1


def shrink_by_one(seq: Sequence) -> list[Sequence]:
    """All distinct length-(m-1) subsequences, sorted. Empty for m=1."""
    if len(seq) < 2:
        return []
    return sorted({Sequence(seq[:i] + seq[i + 1 :]) for i in range(len(seq))})


def contains(seq: Sequence, w: ViewWindow) -> bool:
    """True when seq embeds in w at strictly increasing tuple indices."""
    need = iter(seq)
    item = next(need)
    for labels in w.queue[w.start : w.end]:
        if item in labels:
            nxt = next(need, None)
            if nxt is None:
                return True
            item = nxt
    return False


def occur_bruteforce(
    seq: Sequence,
    w: ViewWindow,
    params: CountParams,
) -> int:
    """Reference implementation: test every start position directly."""
    span = params.span
    return sum(
        1
        for i in range(w.size - span + 1)
        if contains(seq, window(w.queue, w.start + i, span))
    )


def walk_reference(pending: int, ends: list[int], y: int, span: int) -> list[int]:
    """One greedy prefix step over every offset d < span: the starts
    waiting at d that find the item in y at offset d end there, and the
    old ends[d] start waiting; trailing empty sets are dropped."""
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
    return hits


# Guards for the enumeration oracle. Enumeration cost explodes with
# any of these, so the oracle refuses instead of silently crawling.
_ORACLE_MAX_TUPLES = 2000
_ORACLE_MAX_ALPHABET = 12
_ORACLE_MAX_SPAN = 8
_ORACLE_MAX_LEN = 5


def brute_force_frequent(
    blocks: PySequence[ViewWindow],
    params: CountParams,
    min_supp: Fraction,
    min_nbd_supp: Fraction,
    max_len: int,
):
    """Independent mining oracle by exhaustive embedding enumeration.

    For every start position of every block, enumerates every distinct
    sequence up to max_len items that embeds in that span-wide sub-window,
    and credits each one occurrence.  Classification into frequent and
    border sets then follows the strict threshold rules.  Shares no code
    with the level-wise miner or the bit-parallel counter; exists to check
    them.

    Refuses (ParameterError) when the instance exceeds the small-instance
    guards, or when max_len is missing: unbounded enumeration is not a
    meaningful oracle.
    """
    if max_len is None or max_len < 1:
        raise ParameterError("the oracle requires a positive max_len bound")
    if max_len > _ORACLE_MAX_LEN:
        raise ParameterError(f"oracle refuses max_len > {_ORACLE_MAX_LEN}")
    if params.span > _ORACLE_MAX_SPAN:
        raise ParameterError(f"oracle refuses span > {_ORACLE_MAX_SPAN}")
    total_tuples = sum(b.size for b in blocks)
    if total_tuples > _ORACLE_MAX_TUPLES:
        raise ParameterError(f"oracle refuses > {_ORACLE_MAX_TUPLES} tuples")
    alphabet: set = set()
    for b in blocks:
        alphabet.update(b.alphabet())
    if len(alphabet) > _ORACLE_MAX_ALPHABET:
        raise ParameterError(f"oracle refuses > {_ORACLE_MAX_ALPHABET} event types")

    mp = MiningParams(
        min_supp=min_supp,
        min_nbd_supp=min_nbd_supp,
        count_params=params,
        max_len=max_len,
    )
    span = params.span
    counts: dict[Sequence, int] = {}
    for b in blocks:
        rows = [sorted(labels) for labels in b.queue[b.start : b.end]]
        for i in range(b.size - span + 1):
            found: set[tuple] = set()
            stack = [((), i)]           # (item prefix, next tuple index)
            while stack:
                prefix, j = stack.pop()
                for k in range(j, i + span):
                    for et in rows[k]:
                        cand = prefix + (et,)
                        found.add(cand)
                        if len(cand) < max_len:
                            stack.append((cand, k + 1))
            for items in found:
                key = Sequence(items)
                counts[key] = counts.get(key, 0) + 1

    thr_l = mp.min_supp * total_tuples
    thr_n = mp.min_nbd_supp * total_tuples
    frequent: dict[Sequence, int] = {}
    near: dict[Sequence, int] = {}
    for key in sorted(counts):
        c = counts[key]
        if c > thr_l:
            frequent[key] = c
        elif c > thr_n:
            near[key] = c
    # border entries additionally need every one-shorter subsequence frequent
    border = {
        s: c
        for s, c in near.items()
        if all(sub in frequent for sub in shrink_by_one(s))
    }
    return PatternSet(
        params=mp,
        blocks=tuple((b.start, b.end) for b in blocks),
        frequent=frequent,
        border=border,
    )


class ScalarSplitMix64:
    """The splitmix64 recurrence one draw at a time: the reference that
    the batched draws are checked against."""

    def __init__(self, seed):
        self.state = seed & _MASK64
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self):
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_below(self, n):
        cutoff = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            r = self.next_u64()
            if r < cutoff:
                return r % n


def generate_reference(cfg: GenConfig) -> StreamQueue:
    """The stream `cfg` denotes, by the generator loop that tests every
    draw as a float in [0, 1) and indexes a list of the whole alphabet;
    its draws come from the scalar recurrence."""
    n_types, n_events, drift_at = cfg.n_types, cfg.n_events, cfg.drift_at
    draws = iter(ScalarSplitMix64(cfg.seed).next_u64, None)
    # the draws kept for a uniform type index, read from the same stream
    accepted = filter(((_MASK64 + 1) - ((_MASK64 + 1) % n_types)).__gt__, draws)
    width = max(3, len(str(n_types)))
    alphabet = [f"E{i:0{width}d}" for i in range(1, n_types + 1)]
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
    return StreamQueue(zip(range(1, len(sets) + 1), sets))


def serialize_reference(queue: StreamQueue) -> str:
    """Event-log text by one string per (timestamp, label) record, labels
    sorted within each tuple."""
    lines = [
        f"{time},{label}"
        for time, labels in zip(queue.times, queue)
        for label in sorted(labels)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
