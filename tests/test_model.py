import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from streamseq import (
    BoundsError,
    CountParams,
    EventLogParseError,
    MiningParams,
    ParameterError,
    PatternFileError,
    Sequence,
    StreamQueue,
    StreamTuple,
    ViewWindow,
    dump_pattern_file,
    load_pattern_file,
    mine,
    occur,
    parse_event_log,
    serialize_event_log,
    window,
)
from streamseq.oracle import contains
from conftest import labels, queue_of, random_queue, tup

ROOT = Path(__file__).resolve().parents[1]


def embeds(small, big):
    """Order-preserving containment of one sequence in another."""
    return contains(small, window(queue_of(*([l] for l in big)), 0, len(big)))


# a pattern file that is valid with one more frequent single, `L\t<label>\t3`
_PATTERN_FILE_HEAD = (
    "format=1\nwindow_size=4\nmin_supp=1/2\nmin_nbd_supp=1/4\n"
    "span=1\nmax_len=none\nblocks=0:4\n"
)


class TestLabelRule:
    """One rule for a label, whichever way it enters: a non-empty str with
    no comma, no character str.isspace() holds for and no lone surrogate."""

    @pytest.mark.parametrize(
        "bad",
        ["", "a,b", "a b", "a\tb", "a\nb", "a\rb",
         "a\xa0", "a\u2028b", "a\x85b", "a\x1cb", "a\ud800", "\udfffb"],
    )
    def test_rejects_labels_that_break_text_formats(self, bad):
        with pytest.raises(ParameterError):
            Sequence.of(bad)
        with pytest.raises(ParameterError):
            StreamQueue([StreamTuple(1, {"ok"}), StreamTuple(2, {"ok", bad})])
        # the parser strips whitespace around a field, so a non-empty bad
        # label is followed by one more character to keep it whole
        record = f"1,{bad}x\n" if bad else "1,\n"
        with pytest.raises(EventLogParseError):
            parse_event_log("0,ok\n" + record)
        with pytest.raises(PatternFileError):
            load_pattern_file(_PATTERN_FILE_HEAD + f"L\t{bad}\t3\n")

    def test_the_same_inputs_with_a_good_label_are_accepted(self):
        assert Sequence.of("ok") == ("ok",)
        StreamQueue([StreamTuple(1, {"ok"}), StreamTuple(2, {"ok", "x"})])
        assert parse_event_log("0,ok\n1,okx\n").alphabet() == ["ok", "okx"]
        ps = load_pattern_file(_PATTERN_FILE_HEAD + "L\tok\t3\n")
        assert ps.frequent == {Sequence.of("ok"): 3}

    def test_matches_str_isspace_on_every_code_point(self):
        refused = []
        for cp in range(0x110000):
            try:
                Sequence.of("a" + chr(cp))
            except ParameterError:
                refused.append(chr(cp))
        assert refused == [c for c in map(chr, range(0x110000))
                           if c == "," or c.isspace() or 0xD800 <= ord(c) <= 0xDFFF]

    def test_every_accepted_character_serializes_to_utf8(self):
        accepted = []
        for cp in range(0x110000):
            try:
                Sequence.of("a" + chr(cp))
            except ParameterError:
                continue
            accepted.append(chr(cp))
        # every accepted character, 4,096 to a label, one label per tuple
        labels = ["".join(accepted[i : i + 4096])
                  for i in range(0, len(accepted), 4096)]
        q = StreamQueue(StreamTuple(t, {lb}) for t, lb in enumerate(labels))
        data = serialize_event_log(q).encode("utf-8")
        assert parse_event_log(data.decode("utf-8")) == q

    def test_a_queue_of_plain_string_labels_counts(self):
        q = StreamQueue([StreamTuple(1, {"a"}), StreamTuple(2, {"b"})])
        w = window(q, 0, len(q))
        assert occur(Sequence.of("a"), w, CountParams(span=1)) == 1
        assert occur(Sequence.of("a", "b"), w, CountParams(span=2)) == 1


def _mined_set(queue):
    params = MiningParams("1/4", "1/8", CountParams(span=2), max_len=3)
    return mine([window(queue, 0, len(queue))], params)


_PICKLE_LOG = "".join(f"{t},{l}\n" for t, l in enumerate("abcabcabdabcbdab", start=1))


class TestPickle:
    def test_values_survive_a_round_trip(self):
        queue = parse_event_log(_PICKLE_LOG)
        ps = _mined_set(queue)
        assert ps.frequent
        for x in (Sequence.of("a", "b"), queue, ps):
            assert pickle.loads(pickle.dumps(x)) == x

    def test_lookups_survive_another_hash_seed(self, tmp_path):
        """A pattern set pickled under one str hash seed and loaded under
        another still finds every stored count and dumps the same bytes."""
        dump = tmp_path / "ps.pickle"
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                             os.environ.get("PYTHONPATH")]))

        def python(seed, code):
            proc = subprocess.run(
                [sys.executable, "-c", code, str(dump)], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        prelude = (
            "import pickle, sys\n"
            "from streamseq import dump_pattern_file, parse_event_log\n"
            "from test_model import _PICKLE_LOG, _mined_set\n"
            "queue = parse_event_log(_PICKLE_LOG)\n"
        )
        python("1", prelude + (
            "with open(sys.argv[1], 'wb') as f:\n"
            "    pickle.dump((queue, _mined_set(queue)), f)\n"
        ))
        out = python("2", prelude + (
            "with open(sys.argv[1], 'rb') as f:\n"
            "    old_queue, old = pickle.load(f)\n"
            "fresh = _mined_set(queue)\n"
            "assert old_queue == queue and old == fresh\n"
            "for family in (fresh.frequent, fresh.border):\n"
            "    for seq, count in family.items():\n"
            "        assert old.stored_count(seq) == count, seq\n"
            "assert dump_pattern_file(old) == dump_pattern_file(fresh)\n"
            "sys.stdout.write(dump_pattern_file(old))\n"
        ))
        assert out == dump_pattern_file(_mined_set(parse_event_log(_PICKLE_LOG)))


class TestStreamTuple:
    def test_coerces_types_to_frozenset(self):
        t = StreamTuple(1, ["a", "a"])
        assert t.types == frozenset(["a"])

    def test_rejects_empty_tuple(self):
        with pytest.raises(ParameterError):
            StreamTuple(3, frozenset())

    def test_rejects_a_bare_string_of_types(self):
        with pytest.raises(ParameterError):
            StreamTuple(1, "ab")

    # each of these used to write a log that fails to parse, or ("10"
    # before "9") one whose records reorder on a round trip
    @pytest.mark.parametrize("bad", [1.5, True, False, "9", "10", None])
    def test_rejects_a_time_that_is_not_an_int(self, bad):
        with pytest.raises(ParameterError):
            StreamTuple(bad, {"a"})

    def test_len_and_contains(self):
        t = tup(1, "a", "b")
        assert len(t) == 2
        assert "a" in t
        assert "z" not in t


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
        assert q.mask("a") == 0b0101
        assert q.mask("b") == 0b0011
        assert q.mask("nope") == 0

    def test_mask_consistent_with_scan(self):
        rng = random.Random(7)
        q = random_queue(rng, 60, ["a", "b", "c", "d"])
        for label in "abcd":
            expected = [i for i, t in enumerate(q) if label in t]
            m = q.mask(label)
            assert [i for i in range(len(q)) if m >> i & 1] == expected
            assert m.bit_length() <= len(q)

    def test_equality_reads_times_and_masks(self):
        q = queue_of("ab", "b")
        parsed = parse_event_log("1,a\n1,b\n2,b\n")
        assert parsed == q and hash(parsed) == hash(q)
        assert StreamQueue([tup(1, "a", "b"), tup(3, "b")]) != q
        assert StreamQueue([tup(1, "a", "b"), tup(2, "a")]) != q

    def test_alphabet_sorted(self):
        q = queue_of("cb", "a")
        assert q.alphabet() == ["a", "b", "c"]


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
        assert window(q, 0, 1).alphabet() == ["a"]

    def test_window_alphabet_matches_scan(self):
        rng = random.Random(8)
        q = random_queue(rng, 90, ["a", "b", "c", "d", "e"], max_fill=1)
        for _ in range(40):
            start = rng.randint(0, 90)
            w = window(q, start, rng.randint(0, 90 - start))
            assert w.alphabet() == sorted({label for t in w for label in t.types})


class TestSequence:
    def test_of_and_labels(self):
        s = Sequence.of("a", "b", "a")
        assert s == Sequence(["a", "b", "a"]) == ("a", "b", "a")
        assert hash(s) == hash(("a", "b", "a"))
        assert s != Sequence.of("a", "b")
        assert len(s) == 3
        assert repr(s) == "<a,b,a>"

    def test_rejects_empty_and_non_event_items(self):
        for bad in ([], "ab", [1], ["a", None]):
            with pytest.raises(ParameterError):
                Sequence(bad)

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
        assert "a" in q[0]

    def test_parse_groups_merges_and_sorts(self):
        text = "# header comment\n5,b\n\n1,a\n5,a\n5,b\n"
        q = parse_event_log(text)
        assert [t.time for t in q] == [1, 5]
        assert q[1].types == frozenset(["a", "b"])

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


# whitespace that may sit around the fields of a record, and line endings
_pad = st.text(st.sampled_from(" \t\x1f"), max_size=2)
_eol = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1e", "\x85", "\u2028"])


@st.composite
def _written_log(draw):
    """A random queue and a messy log of it: records shuffled and repeated,
    blank and comment lines between them, whitespace around the fields."""
    pool = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    times = sorted(draw(st.sets(st.integers(-10**12, 10**12), max_size=25)))
    tuples = [
        StreamTuple(t, draw(st.frozensets(st.sampled_from(pool), min_size=1,
                                          max_size=len(pool))))
        for t in times
    ]
    records = [(t.time, label) for t in tuples for label in t.types]
    records += draw(st.lists(st.sampled_from(records), max_size=5)) if records else []
    records = draw(st.permutations(records))
    lines = []
    for ts, label in records:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "#", "# 1,a", "  #x,y"])))
        lines.append(f"{draw(_pad)}{ts}{draw(_pad)},{label}{draw(_pad)}")
    text = "".join(line + draw(_eol) for line in lines)
    return StreamQueue(tuples), text


class TestEventLogProperties:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_written_log())
    def test_parse_equals_the_queue_and_serialize_is_a_fixed_point(self, case):
        ref, text = case
        q = parse_event_log(text)
        assert len(q) == len(ref)
        assert q.times == ref.times
        assert q.alphabet() == ref.alphabet()
        for label in ref.alphabet():
            assert q.mask(label) == ref.mask(label)
        assert q == ref and hash(q) == hash(ref)
        assert list(q) == list(ref)
        out = serialize_event_log(q)
        assert out == serialize_event_log(ref)
        assert parse_event_log(out) == q
        assert serialize_event_log(parse_event_log(out)) == out

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        _written_log(),
        st.sampled_from(["no comma", "1.5,a", "x,a", "1,", "1, a", "1,a,b",
                         "1,new\xa0label", "1,ne w"]),
        _eol,
    )
    def test_a_bad_record_reports_its_own_line(self, case, bad, eol):
        _, text = case
        line_no = len(text.splitlines()) + 1
        with pytest.raises(EventLogParseError) as info:
            parse_event_log(text + bad + eol + "oops" + eol)
        assert info.value.line_no == line_no
