import random
from fractions import Fraction

from streamseq import (
    CountParams,
    MiningParams,
    Sequence,
    distance,
    mine,
    pattern_keys,
)
from conftest import alternating_ab


def test_known_values_are_exact_rationals():
    assert distance({"a"}, {"a", "b"}) == Fraction(1, 2)
    assert distance({"a"}, {"b"}) == 1
    assert distance({"a", "b"}, {"a", "b"}) == 0
    assert isinstance(distance({"a"}, {"a", "b"}), Fraction)


def test_both_empty_is_zero():
    assert distance(frozenset(), frozenset()) == 0


def test_one_empty():
    assert distance(frozenset(), {"a", "b"}) == 1


def _random_subset(rng, universe):
    return frozenset(x for x in universe if rng.random() < 0.5)


def test_metric_axioms_on_random_subsets():
    rng = random.Random(1717)
    universe = list(range(9))
    for _ in range(400):
        a = _random_subset(rng, universe)
        b = _random_subset(rng, universe)
        c = _random_subset(rng, universe)
        dab = distance(a, b)
        assert distance(b, a) == dab  # symmetry
        assert (dab == 0) == (a == b)  # identity of indiscernibles
        assert 0 <= dab <= 1
        assert distance(a, c) <= dab + distance(b, c)  # triangle, exact


def test_pattern_keys_respects_border_flag():
    params = MiningParams(Fraction(1, 2), Fraction(1, 5), CountParams(2), max_len=3)
    ps = mine([alternating_ab()], params)
    assert pattern_keys(ps) == frozenset({Sequence.of("a"), Sequence.of("b")})
    assert pattern_keys(ps, include_border=True) == frozenset(
        {
            Sequence.of("a"),
            Sequence.of("b"),
            Sequence.of("a", "b"),
            Sequence.of("b", "a"),
        }
    )


def test_distance_over_sequence_sets():
    a = frozenset({Sequence.of("a"), Sequence.of("a", "b")})
    b = frozenset({Sequence.of("a")})
    assert distance(a, b) == Fraction(1, 2)
