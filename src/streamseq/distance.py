"""Set distance between mined pattern families.

The distance between two finite sets is |symmetric difference| divided
by |union|, an exact fraction in [0, 1]; two empty sets are at distance
zero.  This is a true metric (it is the Jaccard distance), so it can be
trended over time without surprises: identity, symmetry and the
triangle inequality all hold.

Counts play no part here.  Two windows that agree on which sequences
are frequent are at distance zero even when every count differs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet, Hashable, TypeVar

from .mining import PatternSet
from .model import Sequence

T = TypeVar("T", bound=Hashable)


def distance(a: AbstractSet[T], b: AbstractSet[T]) -> Fraction:
    """|a symmetric-difference b| / |a union b|; 0 when both are empty."""
    union = a | b
    if not union:
        return Fraction(0)
    return Fraction(len(a ^ b), len(union))


def pattern_keys(ps: PatternSet, include_border: bool = False) -> frozenset[Sequence]:
    """The sequences of a pattern set, frequent only by default.

    include_border widens the key set to frequent plus border; the
    default mirrors how pattern change is trended, where only the
    frequent family matters.
    """
    if include_border:
        return frozenset(ps.frequent) | frozenset(ps.border)
    return frozenset(ps.frequent)
