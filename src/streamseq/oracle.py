"""Brute-force reference implementations that tests check against.

contains() and occur_bruteforce() test every start position directly;
brute_force_frequent() mines by exhaustive embedding enumeration.  None
of them shares code with the bit-parallel counter in the occurrence
module or with the level-wise miner, so agreement with them is
evidence, not tautology.  Not exported from the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence as PySequence

from .errors import ParameterError
from .mining import MiningParams, PatternSet
from .model import Sequence, ViewWindow
from .occurrence import CountParams


def contains(seq: Sequence, w: ViewWindow) -> bool:
    """True when seq embeds in w at strictly increasing tuple indices."""
    need = iter(seq.items)
    item = next(need)
    for t in w:
        if item in t.types:
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
        if contains(seq, w.subwindow(i, span))
    )


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
        rows = [sorted(t.types) for t in b]
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
        if all(sub in frequent for sub in s.shrink_by_one())
    }
    return PatternSet(
        params=mp,
        blocks=tuple((b.start, b.end) for b in blocks),
        frequent=frequent,
        border=border,
    )
