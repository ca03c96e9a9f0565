import copy
import random

import pytest

from streamseq import (
    BoundsError,
    EventLogParseError,
    EventType,
    ParameterError,
    Sequence,
    StreamQueue,
    StreamTuple,
    ViewWindow,
    parse_event_log,
    serialize_event_log,
    window,
)
from streamseq.oracle import contains
from conftest import queue_of, random_queue, tup


def embeds(small, big):
    """Order-preserving containment of one sequence in another."""
    return contains(small, window(queue_of(*([l] for l in big.labels)), 0, len(big)))


class TestEventType:
    def test_interning_returns_identical_object(self):
        assert EventType("alarm") is EventType("alarm")

    def test_equality_and_hash_follow_label(self):
        assert EventType("x") == EventType("x")
        assert EventType("x") != EventType("y")
        assert len({EventType("x"), EventType("x"), EventType("y")}) == 2

    def test_ordering_is_label_order(self):
        assert sorted([EventType("b"), EventType("a")]) == [
            EventType("a"),
            EventType("b"),
        ]

    def test_str_is_label(self):
        assert str(EventType("link_down")) == "link_down"

    @pytest.mark.parametrize("bad", ["", "a,b", "a b", "a\tb", "a\nb", "a\rb"])
    def test_rejects_labels_that_break_text_formats(self, bad):
        with pytest.raises(ParameterError):
            EventType(bad)

    def test_copy_and_deepcopy_preserve_identity(self):
        et = EventType("copyme")
        assert copy.copy(et) is et
        assert copy.deepcopy(et) is et


class TestStreamTuple:
    def test_coerces_types_to_frozenset(self):
        t = StreamTuple(1, [EventType("a"), EventType("a")])
        assert t.types == frozenset([EventType("a")])

    def test_rejects_empty_tuple(self):
        with pytest.raises(ParameterError):
            StreamTuple(3, frozenset())

    def test_len_and_contains(self):
        t = tup(1, "a", "b")
        assert len(t) == 2
        assert EventType("a") in t
        assert EventType("z") not in t


class TestStreamQueue:
    def test_requires_strictly_increasing_times(self):
        with pytest.raises(ParameterError):
            StreamQueue([tup(1, "a"), tup(1, "b")])
        with pytest.raises(ParameterError):
            StreamQueue([tup(2, "a"), tup(1, "b")])

    def test_indexing_and_iteration(self):
        q = queue_of("a", "b", "c")
        assert len(q) == 3
        assert q[1].time == 2
        assert [t.time for t in q] == [1, 2, 3]

    def test_mask_index(self):
        q = queue_of("ab", "b", "a", "c")
        assert q.mask(EventType("a")) == 0b0101
        assert q.mask(EventType("b")) == 0b0011
        assert q.mask(EventType("nope")) == 0

    def test_mask_consistent_with_scan(self):
        rng = random.Random(7)
        q = random_queue(rng, 60, ["a", "b", "c", "d"])
        for label in "abcd":
            et = EventType(label)
            expected = [i for i, t in enumerate(q) if et in t]
            m = q.mask(et)
            assert [i for i in range(len(q)) if m >> i & 1] == expected
            assert m.bit_length() <= len(q)

    def test_alphabet_sorted(self):
        q = queue_of("cb", "a")
        assert [et.label for et in q.alphabet()] == ["a", "b", "c"]


class TestViewWindow:
    def test_bounds_enforced(self):
        q = queue_of("a", "b", "c")
        with pytest.raises(BoundsError):
            ViewWindow(q, -1, 2)
        with pytest.raises(BoundsError):
            ViewWindow(q, 0, 4)
        with pytest.raises(BoundsError):
            ViewWindow(q, 2, 2)

    def test_relative_indexing(self):
        q = queue_of("a", "b", "c", "d")
        w = window(q, 1, 2)
        assert w[0].time == 2
        assert w[1].time == 3
        with pytest.raises(BoundsError):
            w[2]

    def test_end_and_ident(self):
        w = window(queue_of("a", "b", "c", "d"), 1, 3)
        assert w.end == 4

    def test_subwindow(self):
        q = queue_of("a", "b", "c", "d")
        sub = window(q, 1, 3).subwindow(1, 2)
        assert (sub.start, sub.size) == (2, 2)
        with pytest.raises(BoundsError):
            window(q, 1, 3).subwindow(1, 3)

    def test_window_alphabet_is_window_local(self):
        q = queue_of("a", "z", "a")
        assert [et.label for et in window(q, 0, 1).alphabet()] == ["a"]

    def test_window_alphabet_matches_scan(self):
        rng = random.Random(8)
        q = random_queue(rng, 90, ["a", "b", "c", "d", "e"], max_fill=1)
        for _ in range(40):
            start = rng.randint(0, 90)
            w = window(q, start, rng.randint(0, 90 - start))
            assert w.alphabet() == sorted({et for t in w for et in t.types})


class TestSequence:
    def test_of_and_labels(self):
        s = Sequence.of("a", "b", "a")
        assert s.labels == ("a", "b", "a")
        assert len(s) == 3
        assert repr(s) == "<a,b,a>"

    def test_rejects_empty_and_non_event_items(self):
        with pytest.raises(ParameterError):
            Sequence([])
        with pytest.raises(ParameterError):
            Sequence(["a"])

    def test_total_order(self):
        seqs = [Sequence.of("b"), Sequence.of("a", "b"), Sequence.of("a")]
        assert sorted(seqs) == [
            Sequence.of("a"),
            Sequence.of("a", "b"),
            Sequence.of("b"),
        ]

    def test_drop(self):
        s = Sequence.of("a", "b", "c")
        assert s.drop(1) == Sequence.of("a", "c")
        with pytest.raises(ParameterError):
            Sequence.of("a").drop(0)
        with pytest.raises(ParameterError):
            s.drop(3)

    def test_shrink_by_one_dedups_and_sorts(self):
        assert Sequence.of("a", "a").shrink_by_one() == [Sequence.of("a")]
        assert Sequence.of("a", "b").shrink_by_one() == [
            Sequence.of("a"),
            Sequence.of("b"),
        ]
        assert Sequence.of("x").shrink_by_one() == []

    @pytest.mark.parametrize(
        "small,big,expected",
        [
            (("a", "c"), ("a", "b", "c"), True),
            (("c", "a"), ("a", "b", "c"), False),
            (("a", "a"), ("a", "b", "a"), True),
            (("a", "a"), ("a", "b"), False),
            (("a",), ("a",), True),
        ],
    )
    def test_is_subsequence_of(self, small, big, expected):
        assert embeds(Sequence.of(*small), Sequence.of(*big)) is expected

    def test_every_shrink_is_a_subsequence(self):
        rng = random.Random(13)
        for _ in range(50):
            labels = [rng.choice("abc") for _ in range(rng.randint(2, 6))]
            s = Sequence.of(*labels)
            for sub in s.shrink_by_one():
                assert embeds(sub, s)


class TestEventLog:
    def test_parse_basic(self):
        q = parse_event_log("1,a\n2,b\n")
        assert len(q) == 2
        assert EventType("a") in q[0]

    def test_parse_groups_merges_and_sorts(self):
        text = "# header comment\n5,b\n\n1,a\n5,a\n5,b\n"
        q = parse_event_log(text)
        assert [t.time for t in q] == [1, 5]
        assert q[1].types == frozenset([EventType("a"), EventType("b")])

    def test_parse_reports_line_numbers(self):
        with pytest.raises(EventLogParseError) as info:
            parse_event_log("1,a\nnot a record\n")
        assert info.value.line_no == 2

    @pytest.mark.parametrize("bad", ["x,a", "1.5,a", "1,", "1, a", "1,a,b"])
    def test_parse_rejects_malformed_records(self, bad):
        with pytest.raises(EventLogParseError):
            parse_event_log(bad + "\n")

    def test_serialize_sorts_labels_within_tuple(self):
        q = queue_of("ba")
        assert serialize_event_log(q) == "1,a\n1,b\n"

    def test_serialize_empty_queue(self):
        assert serialize_event_log(StreamQueue(())) == ""

    def test_round_trip_is_byte_stable(self):
        rng = random.Random(99)
        for _ in range(20):
            q = random_queue(rng, rng.randint(1, 40), ["a", "b", "c", "de", "f"])
            text = serialize_event_log(q)
            again = parse_event_log(text)
            assert again == q
            assert serialize_event_log(again) == text
