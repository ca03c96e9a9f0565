import contextlib
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
    GenConfig,
    MiningParams,
    ParameterError,
    PatternFileError,
    Sequence,
    StreamQueue,
    ViewWindow,
    dump_pattern_file,
    generate,
    load_pattern_file,
    mine,
    occur,
    parse_event_log,
    serialize_event_log,
    window,
)
from streamseq import model
from conftest import labels, queue_of, random_queue
from oracle import contains, shrink_by_one

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
            StreamQueue([(1, {"ok"}), (2, {"ok", bad})])
        # the parser strips whitespace around a field, so a non-empty bad
        # label is followed by one more character to keep it whole
        record = f"1,{bad}x\n" if bad else "1,\n"
        with pytest.raises(EventLogParseError):
            parse_event_log("0,ok\n" + record)
        with pytest.raises(PatternFileError):
            load_pattern_file(_PATTERN_FILE_HEAD + f"L\t{bad}\t3\n")

    def test_the_same_inputs_with_a_good_label_are_accepted(self):
        assert Sequence.of("ok") == ("ok",)
        StreamQueue([(1, {"ok"}), (2, {"ok", "x"})])
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
        q = StreamQueue((t, {lb}) for t, lb in enumerate(labels))
        data = serialize_event_log(q).encode("utf-8")
        assert parse_event_log(data.decode("utf-8")) == q

    def test_a_queue_of_plain_string_labels_counts(self):
        q = StreamQueue([(1, {"a"}), (2, {"b"})])
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


class TestQueueRows:
    """A queue is built from (time, labels) rows, and iterating it yields
    each tuple's label set, so the rows of a queue rebuild it."""

    def test_coerces_types_to_frozenset(self):
        t = StreamQueue([(1, ["a", "a"])])[0]
        assert t == frozenset(["a"]) and type(t) is frozenset

    def test_rejects_empty_tuple(self):
        with pytest.raises(ParameterError):
            StreamQueue([(1, {"a"}), (3, frozenset())])

    def test_rejects_a_bare_string_of_types(self):
        with pytest.raises(ParameterError):
            StreamQueue([(1, "ab")])

    # each of these used to write a log that fails to parse, or ("10"
    # before "9") one whose records reorder on a round trip
    @pytest.mark.parametrize("bad", [1.5, True, False, "9", "10", None])
    def test_rejects_a_time_that_is_not_an_int(self, bad):
        with pytest.raises(ParameterError):
            StreamQueue([(bad, {"a"})])

    def test_len_and_contains(self):
        t = queue_of("ab")[0]
        assert len(t) == 2
        assert "a" in t
        assert "z" not in t

    def test_rows_rebuild_the_queue(self):
        parsed = parse_event_log("3,b\n1,a\n3,a\n7,c\n")
        generated = generate(GenConfig(n_types=6, n_events=300, seed=5, tuple_fill=1.5))
        built = random_queue(random.Random(3), 40, ["a", "b", "c"])
        for q in (parsed, generated, built):
            again = StreamQueue(zip(q.times, q))
            assert again == q and again.times == q.times
            assert list(again) == list(q)
            assert serialize_event_log(again) == serialize_event_log(q)


class TestStreamQueue:
    def test_requires_strictly_increasing_times(self):
        with pytest.raises(ParameterError):
            StreamQueue([(1, {"a"}), (1, {"b"})])
        with pytest.raises(ParameterError):
            StreamQueue([(2, {"a"}), (1, {"b"})])

    def test_indexing_and_iteration(self):
        q = queue_of("a", "b", "c")
        assert len(q) == 3
        assert q.times == (1, 2, 3)
        assert q[1] == frozenset("b")
        assert list(q) == [frozenset("a"), frozenset("b"), frozenset("c")]
        assert q[1:] == (frozenset("b"), frozenset("c"))

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
        assert StreamQueue([(1, {"a", "b"}), (3, {"b"})]) != q
        assert StreamQueue([(1, {"a", "b"}), (2, {"a"})]) != q

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

    # a float used to fail deep in the counter with a bare TypeError
    @pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", None])
    def test_rejects_a_start_that_is_not_an_int(self, bad):
        with pytest.raises(ParameterError):
            window(queue_of("a", "b", "c"), bad, 1)

    @pytest.mark.parametrize("bad", [True, False, 2.0, 1.5, "2", None])
    def test_rejects_a_size_that_is_not_an_int(self, bad):
        with pytest.raises(ParameterError):
            window(queue_of("a", "b", "c"), 0, bad)

    def test_end_and_ident(self):
        w = window(queue_of("a", "b", "c", "d"), 1, 3)
        assert w.end == 4

    def test_window_alphabet_is_window_local(self):
        q = queue_of("a", "z", "a")
        assert window(q, 0, 1).alphabet() == ["a"]

    def test_window_alphabet_matches_scan(self):
        rng = random.Random(8)
        q = random_queue(rng, 90, ["a", "b", "c", "d", "e"], max_fill=1)
        for _ in range(40):
            start = rng.randint(0, 90)
            w = window(q, start, rng.randint(0, 90 - start))
            assert w.alphabet() == sorted({label for t in q[w.start : w.end] for label in t})


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

    def test_shrink_by_one_dedups_and_sorts(self):
        assert shrink_by_one(Sequence.of("a", "a")) == [Sequence.of("a")]
        assert shrink_by_one(Sequence.of("a", "b")) == [
            Sequence.of("a"),
            Sequence.of("b"),
        ]
        assert shrink_by_one(Sequence.of("x")) == []

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
            for sub in shrink_by_one(s):
                assert embeds(sub, s)


class TestEventLog:
    def test_parse_basic(self):
        q = parse_event_log("1,a\n2,b\n")
        assert len(q) == 2
        assert "a" in q[0]

    def test_parse_groups_merges_and_sorts(self):
        text = "# header comment\n5,b\n\n1,a\n5,a\n5,b\n"
        q = parse_event_log(text)
        assert q.times == (1, 5)
        assert q[1] == frozenset(["a", "b"])

    def test_parse_reports_line_numbers(self):
        with pytest.raises(EventLogParseError) as info:
            parse_event_log("1,a\nnot a record\n")
        assert info.value.line_no == 2

    @pytest.mark.parametrize("bad", ["x,a", "1.5,a", "1,", "1, a", "1,a,b"])
    def test_parse_rejects_malformed_records(self, bad):
        with pytest.raises(EventLogParseError):
            parse_event_log(bad + "\n")

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            # a bad timestamp before a new bad label, and the other way round
            ("1,a\nx,b\n2,c d\n", 2, "bad timestamp 'x'"),
            ("1,a\n2,c d\nx,b\n", 2, "whitespace"),
            # a bad line that repeats is reported where it first appears
            ("1,a\n2,c d\n3,b\n2,c d\n", 2, "whitespace"),
            ("1,a\nx,a\n2,a\nx,a\n", 2, "bad timestamp 'x'"),
            ("1,a\n7\n2,a\n7\n", 2, "expected 'timestamp,label'"),
            # padded text of a known label, then a bad label twice
            ("1,a\n2,a \n3,a b\n3,a b\n", 3, "whitespace"),
        ],
    )
    def test_the_first_bad_line_is_reported(self, text, line_no, message):
        with pytest.raises(EventLogParseError, match=message) as info:
            parse_event_log(text)
        assert info.value.line_no == line_no

    def test_padding_int_refuses_is_still_padding(self):
        # int() refuses U+001F around a number, str.strip() removes it
        for text in ("0\x1f,a", "\x1f0,a\n", "0,a\x1f\n", "\x1c0\x1f,a\x1f"):
            q = parse_event_log(text)
            assert q.times == (0,) and q.alphabet() == ["a"]

    @pytest.mark.parametrize(
        "rewrite", ["reversed", "shuffled", "one record last", "one time split"]
    )
    def test_records_out_of_time_order_parse_to_the_same_queue(self, rewrite):
        # 2,400 tuples: each label's row spans 300 bytes, so the relabel
        # moves bits between bytes, not only within one
        rng = random.Random(31)
        rows = [(t * 3 - 2_000, rng.sample("abcdefg", rng.randint(1, 3)))
                for t in range(2_400)]
        rows[0] = (rows[0][0], ["a"])  # a tuple of one record
        rows[1_000] = (rows[1_000][0], ["b", "c", "d"])
        ref = StreamQueue(rows)
        lines = serialize_event_log(ref).splitlines()
        if rewrite == "reversed":
            lines.reverse()
        elif rewrite == "shuffled":
            rng.shuffle(lines)
        elif rewrite == "one record last":
            # the first tuple's only record: its time comes last, yet it
            # ranks first
            lines.append(lines.pop(0))
        else:
            # one of tuple 1000's three records moves to the front
            at = lines.index(f"{rows[1_000][0]},c")
            lines.insert(0, lines.pop(at))
        text = "\n".join(lines) + "\n"
        assert text != serialize_event_log(ref)
        q = parse_event_log(text)
        assert q == ref and q.times == ref.times
        assert list(q) == list(ref)
        assert serialize_event_log(q) == serialize_event_log(ref)

    # A chunk that gives the parser every label below, so that a chunk
    # after it can take the bulk lane; _parse_after_head puts the text it
    # is given in that next chunk.
    _HEAD = "1,a\n1,b\n1,E001\n1,E002\n1,E023\n"

    def _parse_after_head(self, tail):
        assert len(tail) < len(self._HEAD)
        text = self._HEAD + tail
        with _chunk_size(len(self._HEAD)):
            _parses_as_the_two_pass_parse(text)
            return parse_event_log(text)

    def test_balanced_commas_are_not_records(self):
        # three lines, three commas: only a line-by-line check of the
        # separators refuses it
        with pytest.raises(EventLogParseError, match="got '7'") as info:
            self._parse_after_head("7\nE023\n5,E001,6,E002\n")
        assert info.value.line_no == 6

    def test_a_comment_inside_a_bulk_chunk_is_skipped(self):
        q = self._parse_after_head("2,a\n# 1,a\n3,b\n")
        assert q.times == (1, 2, 3) and q[1] == {"a"} and q[2] == {"b"}

    @pytest.mark.parametrize("brk", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028"])
    @pytest.mark.parametrize("tail", ["2,a\n3{},b\n", "2,a{}3,b\n", "1{},a\n"])
    def test_line_breaks_inside_a_chunk_split_as_splitlines(self, tail, brk):
        # int() takes "3\r" as 3; the line "3" has no comma
        text = tail.format(brk)
        if len(text.splitlines()) > text.count(","):
            with pytest.raises(EventLogParseError, match="expected 'timestamp,label'"):
                self._parse_after_head(text)
        else:
            assert self._parse_after_head(text).times == (1, 2, 3)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_a_timestamp_text_that_comes_back_is_read_again(self, eol):
        # each lane skips int() only for the text of the record just before
        q = self._parse_after_head(eol.join(["2,a", "3,b", "2,b", "3,a", ""]))
        assert q.times == (1, 2, 3) and q[1] == q[2] == {"a", "b"}

    def test_a_bad_timestamp_in_a_bulk_chunk_reports_its_own_line(self):
        with pytest.raises(EventLogParseError, match="bad timestamp 'x'") as info:
            self._parse_after_head("2,a\n3,b\nx,a\n4,b\n")
        assert info.value.line_no == 8

    def test_padding_in_a_bulk_chunk_still_parses(self):
        # int() refuses the U+001F, so the bulk lane undoes its runs and
        # the line lane reads the chunk again
        q = self._parse_after_head("2,a\n3,b\n\x1f4,a\n5,b\n")
        assert q.times == (1, 2, 3, 4, 5)
        assert list(q)[1:] == [{"a"}, {"b"}, {"a"}, {"b"}]

    def test_a_comment_in_the_first_chunk_gives_its_label_no_row(self):
        # the bulk lane meets E999 as new label text before int() refuses
        # "# 1" and the line lane skips the line
        text = "1,E001\n# 1,E999\n2,E002\n"
        _parses_as_the_two_pass_parse(text)
        q = parse_event_log(text)
        assert q.alphabet() == ["E001", "E002"]
        assert q == StreamQueue([(1, {"E001"}), (2, {"E002"})])

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("1,E001\n2,E002\n3,E001 \n4,E0 3\n5,E004\n", 4, "whitespace"),
            ("1,a\n2,b\n3,\n4,c\n", 3, "non-empty"),
        ],
    )
    def test_a_bad_label_in_the_first_chunk_reports_its_own_line(
        self, text, line_no, message
    ):
        _parses_as_the_two_pass_parse(text)
        with pytest.raises(EventLogParseError, match=message) as info:
            parse_event_log(text)
        assert info.value.line_no == line_no

    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize(
        "text", ["1,a \n2,a\n3,b\n", "1,a\n2,a \n3,b\n", "1,a \n2,a \n3,b\n"]
    )
    def test_a_label_written_bare_after_padded_keeps_its_row(self, text, chunk):
        # both lanes strip the padding after a label, so padded and bare
        # text share the label's one row, in chunks of one line or of two
        with _chunk_size(chunk):
            _parses_as_the_two_pass_parse(text)
            queue = parse_event_log(text)
        assert list(queue) == [{"a"}, {"a"}, {"b"}]
        assert queue.alphabet() == ["a", "b"]

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
_ascii_labels = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E, blacklist_characters=","),
    min_size=1,
    max_size=4,
)


@st.composite
def _written_log(draw, clean=False):
    """A random queue and a messy log of it: records shuffled and repeated,
    blank and comment lines between them, whitespace around the fields.
    A clean log has ASCII labels, bare fields, "\n" line ends and a blank
    or comment line before one record in ten, so that the parser's bulk
    lane takes most of its chunks."""
    pool = draw(st.lists(_ascii_labels if clean else labels,
                         min_size=1, max_size=6, unique=True))
    times = sorted(draw(st.sets(st.integers(-10**12, 10**12), max_size=25)))
    rows = [
        (t, draw(st.frozensets(st.sampled_from(pool), min_size=1, max_size=len(pool))))
        for t in times
    ]
    records = [(t, label) for t, types in rows for label in types]
    records += draw(st.lists(st.sampled_from(records), max_size=5)) if records else []
    records = draw(st.permutations(records))
    pad, eol = (st.just(""), st.just("\n")) if clean else (_pad, _eol)
    odd = st.integers(0, 9).map(lambda i: i == 0) if clean else st.booleans()
    lines = []
    for ts, label in records:
        if draw(odd):
            lines.append(draw(st.sampled_from(["", " ", "#", "# 1,a", "  #x,y"])))
        lines.append(f"{draw(pad)}{ts}{draw(pad)},{label}{draw(pad)}")
    text = "".join(line + draw(eol) for line in lines)
    return StreamQueue(rows), text


def _two_pass_parse(text):
    """The parse the one-pass parser replaced, kept as its reference: each
    label's timestamps first, then one tuple per distinct timestamp."""
    columns = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        ts_str, sep, label = line.partition(",")
        if not sep:
            raise EventLogParseError(line_no, f"expected 'timestamp,label', got {raw!r}")
        try:
            ts = int(ts_str.strip(), 10)
        except ValueError:
            raise EventLogParseError(line_no, f"bad timestamp {ts_str.strip()!r}") from None
        if label not in columns:
            try:
                Sequence.of(label)
            except ParameterError as exc:
                raise EventLogParseError(line_no, str(exc)) from None
        columns.setdefault(label, set()).add(ts)
    tuples = {}
    for label, times in columns.items():
        for ts in times:
            tuples.setdefault(ts, set()).add(label)
    return StreamQueue(sorted(tuples.items()))


def _parses_as_the_two_pass_parse(text):
    """parse_event_log gives _two_pass_parse's queue, or its error with the
    same line number and message."""
    try:
        ref = _two_pass_parse(text)
    except EventLogParseError as exc:
        with pytest.raises(EventLogParseError) as info:
            parse_event_log(text)
        assert (info.value.line_no, str(info.value)) == (exc.line_no, str(exc))
    else:
        q = parse_event_log(text)
        assert q == ref and q.times == ref.times


@contextlib.contextmanager
def _chunk_size(n):
    """Have parse_event_log cut its text into chunks of about n characters."""
    saved = model._CHUNK
    model._CHUNK = n
    try:
        yield
    finally:
        model._CHUNK = saved


# pieces of messy lines: numbers int() takes or refuses, commas, comment
# marks, padding that int() takes or refuses and labels good and bad
_piece = st.sampled_from(
    ["0", "1", "12", "-3", "+4", "1_0", "_1", "x", "1.5", "\u0661", ",", ",", "#",
     " ", "\t", "\x1f", "\x1c", "\x85", "\u3000", "\xa0", "a", "b", "ab", "a b"]
)
_messy_pad = st.text(st.sampled_from(" \t\x1f\x1c\u3000\xa0"), max_size=2)
_messy_line = st.one_of(
    st.builds("{}{}{},{}{}".format, _messy_pad, st.integers(-3, 6), _messy_pad,
              st.sampled_from(["a", "b", "ab"]), _messy_pad),
    st.lists(_piece, max_size=6).map("".join),
)


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

    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(st.lists(st.tuples(_messy_line, _eol), max_size=8))
    def test_matches_the_two_pass_parse_on_messy_lines(self, lines):
        _parses_as_the_two_pass_parse("".join(line + eol for line, eol in lines))

    # chunks of one line, of a few and of many
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        _written_log(clean=True),
        st.sampled_from([1, 2, 7, 64]),
        st.none() | st.tuples(st.integers(0, 200), _messy_line),
    )
    def test_chunks_of_a_clean_log_match_the_two_pass_parse(self, case, chunk, odd):
        _, text = case
        if odd is not None:
            lines = text.splitlines(keepends=True)
            at, line = odd
            lines.insert(at % (len(lines) + 1), line + "\n")
            text = "".join(lines)
        with _chunk_size(chunk):
            _parses_as_the_two_pass_parse(text)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_messy_line, _eol), max_size=12),
        st.sampled_from([1, 2, 7, 64]),
    )
    def test_chunks_of_messy_lines_match_the_two_pass_parse(self, lines, chunk):
        with _chunk_size(chunk):
            _parses_as_the_two_pass_parse("".join(line + eol for line, eol in lines))

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
