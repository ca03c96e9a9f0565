"""Incremental pattern-set update for a grown window.

Given the mined pattern sets of a window and of the increment appended
to it, ius_update produces the pattern set of the composed window while
rescanning as little stream data as possible.  It is mine()'s level-wise
search over the composed window with another count source: each side's
count is the stored one when that side's pattern set holds the sequence,
else a rescan of that side's blocks, and the composed count is their
sum.  This is the negative-border scheme of Thomas et al. (KDD 1997).

The result equals mine(old_blocks + delta_blocks) exactly, both sections
and every count, provided each pattern set was mined over the windows
given with it.  UpdateInput takes those windows from the caller that
mined them and checks that they have the set's recorded blocks, all of
one queue:

  * Level 1 is seeded with the singles either side stored.  A single
    neither side stored is at or below the border threshold on both
    sides, so its composed count is at or below the composed one.
  * Every longer candidate comes from gen_candidates over the composed
    frequent level, as in mine(), and the count source returns the same
    per-block sum that mine() would count.

No (sequence, side) count that is stored in the supplied pattern sets
is ever recomputed from the stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, IncompatiblePatternSetsError, ParameterError
from .mining import PatternSet, _levelwise
from .model import Sequence
from .occurrence import CostCounter, ViewWindow, occur_partitioned


@dataclass(frozen=True)
class UpdateInput:
    """Everything ius_update needs.

    old/delta are the mined pattern sets of the two window parts, both
    mined under the same parameters.  old_blocks and delta_blocks are
    the windows each set was mined over, as the caller built them, kept
    as tuples and used only for rescans.  Each side's windows must have
    that set's recorded (start, end) ranges, in order, and every window
    must view one queue; otherwise ContractError, since a rescan over
    other tuples than the stored counts cover gives a wrong pattern set.
    A head window passes, its range being its plain window's.  The
    composed window is old's blocks then delta's; like any pattern set's
    blocks they may leave gaps but may not overlap.
    """

    old: PatternSet
    old_blocks: tuple[ViewWindow, ...]
    delta: PatternSet
    delta_blocks: tuple[ViewWindow, ...]

    def __post_init__(self) -> None:
        if self.delta.params != self.old.params:
            raise IncompatiblePatternSetsError(
                "pattern sets were mined under different parameters"
            )
        for name, ps in (("old_blocks", self.old), ("delta_blocks", self.delta)):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            ranges = tuple((w.start, w.end) for w in getattr(self, name))
            if ranges != ps.blocks:
                raise ContractError(f"{name} cover {ranges}, not the blocks {ps.blocks}")
        if len({id(w.queue) for w in self.old_blocks + self.delta_blocks}) > 1:
            raise ContractError("the windows of an update must all view the same queue")


def ius_update(inp: UpdateInput, cost: CostCounter | None = None) -> PatternSet:
    """Update the old pattern set with the increment's.

    Returns the PatternSet of the composed window; it matches
    mine(old_blocks + delta_blocks, old.params) exactly, counts included.
    A candidate's count is one call of `count`, which asks each side's
    stored_count and rescans that side's blocks, inp.old_blocks or
    inp.delta_blocks, only where it has none.
    Only rescans are charged to `cost`; stored-count lookups are free.
    The search's per-level candidate counts are added to `cost` too.
    """
    old, dlt = inp.old, inp.delta
    old_blocks, delta_blocks = inp.old_blocks, inp.delta_blocks
    old_count, delta_count = old.stored_count, dlt.stored_count
    cp = old.params.count_params

    def count(seq: Sequence) -> int:
        c = old_count(seq)
        if c is None:
            c = occur_partitioned(seq, old_blocks, cp, cost)
        d = delta_count(seq)
        if d is None:
            d = occur_partitioned(seq, delta_blocks, cp, cost)
        return c + d

    singles = {s for ps in (old, dlt) for s in (*ps.frequent, *ps.border) if len(s) == 1}
    return _levelwise(sorted(singles), count, old.params, old_blocks + delta_blocks, cost)


def speedup(t_full: float, t_ius: float) -> float:
    """Full-remine cost over update cost, as a plain ratio."""
    if t_full < 0 or t_ius < 0:
        raise ParameterError("durations must be nonnegative")
    if t_ius == 0:
        raise ZeroDivisionError("update cost is zero; speedup undefined")
    return t_full / t_ius
