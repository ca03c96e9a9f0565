"""Level-wise sequence mining over partitioned windows.

mine() finds two disjoint families over a window of blocks:

  frequent:  occur > min_supp * W
  border:    min_nbd_supp * W < occur <= min_supp * W, and every
             one-item-shorter subsequence is frequent (vacuous for
             single items)

where W is the total size of the window's blocks.  Counts are ints,
so each comparison is made exactly against an int threshold:
occur > x holds iff occur > floor(x), and occur <= x iff
occur <= floor(x), for any rational x.  There is no float
tie-breaking at the thresholds.  The border family is what makes
cheap incremental updates possible: it holds the almost-frequent
sequences whose exact counts are already known.

The search is level-wise: level m candidates are joined from the level
m-1 frequent set and pruned by full one-shorter-subsequence containment,
so counting work is only ever spent on candidates whose subsequences all
survived.  Counts are accumulated per block and summed; see the
occurrence module for why that sum is the definition of the composed
count rather than an approximation of it.  The sum counts a tuple twice
when two blocks share it, so a PatternSet records its blocks as
(start, end) queue ranges and refuses ranges that overlap; the window
size is derived from them.  The ranges name one queue, so mine()
refuses blocks that view different queues.  The incremental update runs
the same search and differs only in where its counts come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence as PySequence, Union

from .errors import ContractError, ParameterError, _check_int
from .model import Sequence
from .occurrence import CostCounter, CountParams, ViewWindow, occur_partitioned
from .occurrence import _end_search, _new_level

ThresholdLike = Union[Fraction, int, str, float]


def as_fraction(value: ThresholdLike) -> Fraction:
    """Coerce a threshold to an exact Fraction.

    Floats are read through their shortest decimal repr, so 0.45 means
    exactly 9/20 rather than the nearest binary float; strings accept
    both "9/20" and "0.45".  A bool is refused, as every other numeric
    parameter refuses one.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    try:
        if isinstance(value, float):
            return Fraction(repr(value))
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ParameterError(f"cannot read threshold from {value!r}")


@dataclass(frozen=True)
class MiningParams:
    """Thresholds and counting parameters for one mining run.

    Requires 0 < min_nbd_supp <= min_supp <= 1.  max_len, when given,
    is an int >= 1 that caps the length of any mined sequence.
    """

    min_supp: Fraction
    min_nbd_supp: Fraction
    count_params: CountParams
    max_len: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_supp", as_fraction(self.min_supp))
        object.__setattr__(self, "min_nbd_supp", as_fraction(self.min_nbd_supp))
        if not 0 < self.min_nbd_supp <= self.min_supp <= 1:
            raise ParameterError(
                "thresholds must satisfy 0 < min_nbd_supp <= min_supp <= 1, got "
                f"min_supp={self.min_supp}, min_nbd_supp={self.min_nbd_supp}"
            )
        if self.max_len is not None:
            _check_int("max_len", self.max_len, 1)

    @property
    def span(self) -> int:
        return self.count_params.span

    def supp_threshold(self, window_size: int) -> int:
        """floor(min_supp * window_size), exactly.

        An int count is frequent iff it is strictly above this value,
        which is the same test as being strictly above min_supp *
        window_size itself.
        """
        return self.min_supp.numerator * window_size // self.min_supp.denominator

    def nbd_threshold(self, window_size: int) -> int:
        """floor(min_nbd_supp * window_size), exactly; see supp_threshold."""
        return self.min_nbd_supp.numerator * window_size // self.min_nbd_supp.denominator


@dataclass
class PatternSet:
    """The result of mining one (possibly partitioned) window.

    frequent and border map Sequence -> exact occurrence count over the
    whole window.  blocks records the (start, end) queue ranges the
    counts were accumulated over, in order; it is the one record of the
    window, and window_size is derived from it.
    """

    params: MiningParams
    blocks: tuple[tuple[int, int], ...]
    frequent: dict[Sequence, int]
    border: dict[Sequence, int]

    @property
    def window_size(self) -> int:
        return sum(end - start for start, end in self.blocks)

    def stored_count(self, seq: Sequence) -> int | None:
        """The known count for seq, looking in both sections."""
        c = self.frequent.get(seq)
        if c is None:
            c = self.border.get(seq)
        return c

    def validate(self) -> None:
        """Check the structural invariants; ContractError on violation.

        Blocks are ranges 0 <= start <= end, and no two non-empty blocks
        share a tuple; sections are disjoint; counts sit strictly inside
        their bands; frequent is closed downward; border members have
        every one-shorter subsequence frequent.  No count is above what
        occur could give: the number of start positions of the blocks,
        sum(max(0, end - start - span + 1)), or the count of any
        one-shorter subsequence, since adding an item never adds an
        occurrence.  No sequence is longer than span, since its items
        need distinct tuples within one span, so occur counts 0 for it
        and every stored count is at least 1.
        """
        ranges = sorted(self.blocks)
        for start, end in ranges:
            if not 0 <= start <= end:
                raise ContractError(f"block {start}:{end} is not a range")
        ranges = [r for r in ranges if r[0] < r[1]]
        for (s0, e0), (s1, e1) in zip(ranges, ranges[1:]):
            if s1 < e0:
                raise ContractError(f"blocks {s0}:{e0} and {s1}:{e1} overlap")
        p = self.params
        span, max_len, frequent = p.span, p.max_len, self.frequent
        thr_l = p.supp_threshold(self.window_size)
        thr_n = p.nbd_threshold(self.window_size)
        starts = sum(max(0, end - start - span + 1) for start, end in self.blocks)
        overlap = frequent.keys() & self.border.keys()
        if overlap:
            raise ContractError(f"sections overlap: {sorted(overlap)[:3]}")
        for seq, c in frequent.items():
            if not c > thr_l:
                raise ContractError(f"{seq!r} count {c} not above {thr_l}")
        for seq, c in self.border.items():
            if not thr_n < c <= thr_l:
                raise ContractError(f"{seq!r} count {c} outside ({thr_n}, {thr_l}]")
        for family in (frequent, self.border):
            for seq, c in family.items():
                n = len(seq)
                if c > starts:
                    raise ContractError(
                        f"{seq!r} count {c} is above the {starts} start positions "
                        f"of the blocks"
                    )
                if max_len is not None and n > max_len:
                    raise ContractError(f"{seq!r} longer than max_len={max_len}")
                if n > span:
                    raise ContractError(
                        f"{seq!r} longer than span={span}, so it occurs nowhere"
                    )
                for i in range(n if n > 1 else 0):
                    sub = seq[:i] + seq[i + 1 :]
                    sub_count = frequent.get(sub)
                    if sub_count is None:
                        raise ContractError(
                            f"{seq!r} kept but subsequence "
                            f"{Sequence._unchecked(sub)!r} is not frequent"
                        )
                    if c > sub_count:
                        raise ContractError(
                            f"{seq!r} count {c} is above the count {sub_count} "
                            f"of its subsequence {Sequence._unchecked(sub)!r}"
                        )


def gen_candidates(level: Iterable[Sequence]) -> list[Sequence]:
    """Join a frequent level into the next level's candidates.

    Sequences s and t of common length m-1 join when s minus its first
    item equals t minus its last item, giving s extended by t's last
    item.  For m-1 = 1 the join degenerates to all ordered pairs,
    including a type with itself, so a level of singles is joined as
    the ordered product of its labels, which has no inner subsequence
    to check.  A longer candidate survives only when every one of its
    one-shorter subsequences is in the input level; dropping its first
    item gives t and dropping its last gives s, so only the inner drops
    need a lookup, made in a plain loop that stops at the first miss.
    The inputs are joined in sorted order, so the output comes out
    sorted and duplicate-free.

    An input that is not a Sequence is made one, which checks its
    labels; the join and the pruning then work on plain tuples, whose
    labels are the input's, and only the survivors are wrapped.
    """
    seqs = sorted({s if isinstance(s, Sequence) else Sequence(s) for s in level})
    if not seqs:
        return []
    lengths = {len(s) for s in seqs}
    if len(lengths) != 1:
        raise ContractError(f"mixed sequence lengths in candidate join: {lengths}")
    wrap = Sequence._unchecked
    if len(seqs[0]) == 1:
        labels = [s[0] for s in seqs]
        return [wrap((a, b)) for a in labels for b in labels]

    lasts: dict[tuple[str, ...], list[str]] = {}
    for t in seqs:
        lasts.setdefault(t[:-1], []).append(t[-1])
    have = set(seqs)
    inner = range(1, len(seqs[0]))
    out: list[Sequence] = []
    for s in seqs:
        for last in lasts.get(s[1:], ()):
            cand = s + (last,)
            for i in inner:
                if cand[:i] + cand[i + 1 :] not in have:
                    break
            else:
                out.append(wrap(cand))
    return out


def _levelwise(
    singles: list[Sequence],
    count: Callable[[Sequence], int],
    params: MiningParams,
    windows: tuple[ViewWindow, ...],
    cost: CostCounter | None = None,
) -> PatternSet:
    """The level-wise search shared by mine() and the incremental update.

    Level 1 counts `singles`, which the caller gives in Sequence order;
    level m counts gen_candidates(frequent level m-1), looked up as this
    module's attribute once per level.  Each candidate is counted once,
    by `count`, and filed as frequent or border against the thresholds
    for the total size of `windows`, the blocks `count` counts over,
    whose (start, end) ranges the result records.  The search stops at
    the first empty frequent level or past max_len.  Candidates are
    visited in Sequence order, so any cost `count` charges is
    reproducible run to run.  Given a counter, the search adds each
    level's number of candidates to `cost.candidates`.

    The search owns the counting state it leaves on its windows, and
    on each head window's parent, which counts for it: before each level
    it tells them whether a longer level may follow (_new_level), and
    it drops that state when it ends, however it ends (_end_search).
    """
    blocks = tuple((w.start, w.end) for w in windows)
    result = PatternSet(params=params, blocks=blocks, frequent={}, border={})
    result.validate()  # refuses overlapping blocks before any counting
    thr_l = params.supp_threshold(result.window_size)
    thr_n = params.nbd_threshold(result.window_size)

    candidates = singles
    m = 1
    try:
        while candidates:
            within = params.max_len is None or m < params.max_len  # level m + 1 may follow
            _new_level(windows, params.span, within)
            if cost is not None:
                cost.candidates[m] = cost.candidates.get(m, 0) + len(candidates)
            level: list[Sequence] = []
            for cand in candidates:
                c = count(cand)
                if c > thr_l:
                    result.frequent[cand] = c
                    level.append(cand)
                elif c > thr_n:
                    result.border[cand] = c
            m += 1
            candidates = gen_candidates(level) if level and within else []
    finally:
        _end_search(windows)

    return result


def mine(
    blocks: PySequence[ViewWindow],
    params: MiningParams,
    cost: CostCounter | None = None,
) -> PatternSet:
    """Mine the frequent and border families of a partitioned window.

    blocks are the pieces of the covering window, in order, all of one
    queue; a single block is the common case.  Blocks of different
    queues raise ContractError, since their counts would be summed and
    their ranges name neither queue.  Blocks that share a tuple raise
    ContractError too, since the sum would count that tuple twice; gaps
    between blocks are allowed.  Both are refused before anything is
    counted.  An empty window yields an empty PatternSet.  Level 1
    counts the singles of the blocks' labels, in Sequence order: the
    sorted union of the blocks' alphabets.  Iteration order of
    candidates is the Sequence total order at every level, so results
    (and any attached CostCounter) are reproducible run to run.
    """
    blocks = tuple(blocks)
    if any(b.queue is not blocks[0].queue for b in blocks):
        raise ContractError("blocks of one window must all view the same queue")
    labels = sorted({label for b in blocks for label in b.alphabet()})
    cp = params.count_params
    return _levelwise(
        [Sequence._unchecked((label,)) for label in labels],
        lambda seq: occur_partitioned(seq, blocks, cp, cost),
        params,
        blocks,
        cost,
    )
