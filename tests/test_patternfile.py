import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from streamseq import (
    CountParams,
    MiningParams,
    PatternFileError,
    PatternSet,
    Sequence,
    mine,
    window,
)
from streamseq import cli, patternfile
from streamseq.model import _check_label
from streamseq.patternfile import dump_pattern_file, load_pattern_file
from conftest import alternating_ab, labels, queue_of, random_queue

GOLDEN = (
    "format=1\n"
    "window_size=4\n"
    "min_supp=1/2\n"
    "min_nbd_supp=1/5\n"
    "span=2\n"
    "max_len=3\n"
    "blocks=0:4\n"
    "L\ta\t3\n"
    "L\tb\t3\n"
    "NBD\ta\tb\t2\n"
    "NBD\tb\ta\t1\n"
)


def _reference_set():
    params = MiningParams(Fraction(1, 2), Fraction(1, 5), CountParams(2), max_len=3)
    return mine([alternating_ab()], params)


def test_dump_matches_golden_bytes():
    assert dump_pattern_file(_reference_set()) == GOLDEN


def test_load_golden():
    ps = load_pattern_file(GOLDEN)
    ref = _reference_set()
    assert ps.params == ref.params
    assert ps.window_size == 4
    assert ps.blocks == ((0, 4),)
    assert ps.frequent == ref.frequent
    assert ps.border == ref.border


def test_each_distinct_label_text_is_checked_once(monkeypatch):
    checked = []

    def counting(label):
        checked.append(label)
        _check_label(label)

    monkeypatch.setattr(patternfile, "_check_label", counting)
    assert load_pattern_file(GOLDEN).frequent == _reference_set().frequent
    assert sorted(checked) == ["a", "b"]  # of six label fields


def test_round_trip_random_pattern_sets():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(4, 50)
        q = random_queue(rng, n, ["a", "b", "c", "lnk_up", "x9"])
        params = MiningParams(
            Fraction(rng.randint(10, 50), 100),
            Fraction(rng.randint(2, 9), 100),
            CountParams(rng.randint(1, 4)),
            max_len=rng.choice([None, 2, 3]),
        )
        cut = rng.randint(1, n)
        blocks = [window(q, 0, cut)]
        if cut < n:
            blocks.append(window(q, cut, n - cut))
        ps = mine(blocks, params)
        text = dump_pattern_file(ps)
        back = load_pattern_file(text)
        assert back.params == ps.params
        assert back.window_size == ps.window_size
        assert back.blocks == ps.blocks
        assert back.frequent == ps.frequent
        assert back.border == ps.border
        assert dump_pattern_file(back) == text  # byte-stable


@st.composite
def _mined_set(draw):
    """mine() over 1-4 blocks with gaps of a random stream of three types."""
    names = draw(st.lists(labels, min_size=3, max_size=3, unique=True))
    rows = draw(st.lists(st.integers(1, 7), min_size=1, max_size=60))
    q = queue_of(*([lb for i, lb in enumerate(names) if r >> i & 1] for r in rows))
    k = draw(st.integers(1, 4))
    edges = sorted(draw(st.lists(st.integers(0, len(rows)), min_size=2 * k, max_size=2 * k)))
    pct = draw(st.integers(5, 60))
    params = MiningParams(
        Fraction(pct, 100),
        Fraction(pct, 300),
        CountParams(draw(st.integers(1, 4))),
        max_len=draw(st.sampled_from([None, 1, 2, 3])),
    )
    return mine([window(q, lo, hi - lo) for lo, hi in zip(edges[::2], edges[1::2])], params)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_mined_set())
def test_mined_sets_round_trip_byte_stably(ps):
    text = dump_pattern_file(ps)
    back = load_pattern_file(text)
    assert (back.params, back.blocks, back.frequent, back.border) == (
        ps.params,
        ps.blocks,
        ps.frequent,
        ps.border,
    )
    assert dump_pattern_file(back) == text


def test_unbounded_max_len_round_trips():
    params = MiningParams(Fraction(1, 2), Fraction(1, 5), CountParams(2))
    ps = mine([alternating_ab()], params)
    text = dump_pattern_file(ps)
    assert "max_len=none\n" in text
    assert load_pattern_file(text).params.max_len is None


def test_max_len_header_may_be_omitted_entirely():
    text = GOLDEN.replace("max_len=3\n", "")
    assert load_pattern_file(text).params.max_len is None


def test_block_ranges():
    q = alternating_ab().queue
    ps = mine([window(q, 0, 1), window(q, 1, 3)], _reference_set().params)
    text = dump_pattern_file(ps)
    assert "blocks=0:1,1:4\n" in text
    ps = load_pattern_file(text)
    assert ps.blocks == ((0, 1), (1, 4))
    assert ps.window_size == 4


def test_empty_sections_round_trip():
    params = MiningParams(Fraction(1, 2), Fraction(1, 5), CountParams(2))
    ps = PatternSet(params=params, blocks=(), frequent={}, border={})
    text = dump_pattern_file(ps)
    assert "window_size=0\n" in text and "blocks=\n" in text
    back = load_pattern_file(text)
    assert back.frequent == {} and back.border == {}
    assert back.blocks == ()


def test_blank_and_comment_lines_are_skipped():
    text = GOLDEN.replace("span=2\n", "span=2\n\n# a comment\n  \t\n  # indented\n")
    assert load_pattern_file(text) == load_pattern_file(GOLDEN)


# a header under which <a> counting 1 is frequent, for one entry-like line
_HEAD = (
    "format=1\nwindow_size=4\nmin_supp=1/5\nmin_nbd_supp=1/10\n"
    "span=2\nmax_len=3\nblocks=0:4\n"
)


@pytest.mark.parametrize(
    "lines, message",
    [
        ("L=3\n", "line 8: unknown header key 'L'"),
        ("L\t\n", "line 8: entry needs tag, labels and count"),
        (" L\ta\t1\n", "line 8: unknown section ' L'"),
        ("NBD\ta\t-1\n", "line 8: bad count '-1'"),
        ("L\ta\t1\nNBD\ta\t1\n", "line 9: duplicate entry <a>"),
    ],
)
def test_a_line_like_an_entry_is_refused_as_what_it_is(lines, message):
    with pytest.raises(PatternFileError, match=f"^{re.escape(message)}$"):
        load_pattern_file(_HEAD + lines)


@pytest.mark.parametrize(
    "line, frequent",
    [
        ("#\tL\ta\t1\n", {}),
        ("  # L\ta\t1\n", {}),
        ("L\ta\t1 \n", {Sequence.of("a"): 1}),
    ],
)
def test_a_line_like_an_entry_is_read_as_what_it_is(line, frequent):
    ps = load_pattern_file(_HEAD + line)
    assert ps.frequent == frequent and ps.border == {}


# a header under which <a> counting anything from 1 to 50 is frequent
_WIDE_HEAD = (
    "format=1\nwindow_size=50\nmin_supp=1/100\nmin_nbd_supp=1/200\n"
    "span=1\nblocks=0:50\n"
)


@pytest.mark.parametrize(
    "text, value",
    [
        ("+5", 5), ("5_0", 50), ("05", 5), ("-0", 0),
        ("٥", 5),  # ARABIC-INDIC DIGIT FIVE, a decimal digit to int
        ("-1", None), ("5.0", None), ("0x5", None), ("x", None), ("", None),
    ],
)
def test_window_size_entry_counts_and_cli_sizes_read_one_count_rule(text, value, capsys):
    # window_size= must equal the total of blocks=, so the block is as
    # long as the value read; a refused text is refused before the check
    sized = (
        f"format=1\nwindow_size={text}\nmin_supp=1/2\nmin_nbd_supp=1/5\n"
        f"span=1\nblocks=0:{5 if value is None else value}\n"
    )
    entry = _WIDE_HEAD + f"L\ta\t{text}\n"
    parser = cli.build_parser("update")
    argv = ["update", "log", "old", "out", f"--size={text}"]
    if value is None:
        with pytest.raises(PatternFileError,
                           match=f"^line 2: bad value for window_size: {re.escape(repr(text))}$"):
            load_pattern_file(sized)
        with pytest.raises(PatternFileError, match=f"^line 7: bad count {re.escape(repr(text))}$"):
            load_pattern_file(entry)
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"streamseq update: error: argument --size: not a count >= 0: {text!r}"
        )
        return
    assert load_pattern_file(sized).window_size == value
    if value:
        assert load_pattern_file(entry).frequent == {Sequence.of("a"): value}
    else:
        # read as 0, which no stored count may be
        with pytest.raises(PatternFileError,
                           match="^inconsistent pattern file: <a> count 0 not above 0$"):
            load_pattern_file(entry)
    assert parser.parse_args(argv).size == value


class TestLoadRejectsMalformedInput:
    def test_missing_header_key(self):
        with pytest.raises(PatternFileError):
            load_pattern_file(GOLDEN.replace("span=2\n", ""))

    def test_duplicate_header_key(self):
        with pytest.raises(PatternFileError):
            load_pattern_file(GOLDEN.replace("span=2\n", "span=2\nspan=2\n"))

    def test_unknown_section_tag(self):
        with pytest.raises(PatternFileError):
            load_pattern_file(GOLDEN.replace("NBD\tb\ta\t1\n", "XXX\tb\ta\t1\n"))

    def test_non_integer_count(self):
        with pytest.raises(PatternFileError):
            load_pattern_file(GOLDEN.replace("L\ta\t3\n", "L\ta\tmany\n"))

    def test_duplicate_entry(self):
        with pytest.raises(PatternFileError):
            load_pattern_file(GOLDEN + "L\ta\t3\n")

    def test_bad_threshold_pair(self):
        broken = GOLDEN.replace("min_nbd_supp=1/5", "min_nbd_supp=3/4")
        with pytest.raises(PatternFileError):
            load_pattern_file(broken)

    def test_entries_must_respect_thresholds(self):
        # <b,a> count forged above the frequent threshold but left in NBD
        broken = GOLDEN.replace("NBD\tb\ta\t1\n", "NBD\tb\ta\t4\n")
        with pytest.raises(PatternFileError):
            load_pattern_file(broken)

    def test_count_above_the_start_positions(self):
        # four tuples hold three span-2 start positions, so no count passes 3
        with pytest.raises(PatternFileError, match="start positions"):
            load_pattern_file(GOLDEN.replace("L\ta\t3\n", "L\ta\t4\n"))

    def test_count_above_a_subsequence_count(self):
        # <a,b> occurs wherever <a> does, so its count cannot pass <a>'s
        text = (
            "format=1\nwindow_size=10\nmin_supp=1/10\nmin_nbd_supp=1/20\n"
            "span=3\nmax_len=3\nblocks=0:10\n"
            "L\ta\t5\nL\tb\t7\nL\ta\tb\t6\n"
        )
        load_pattern_file(text.replace("L\ta\tb\t6", "L\ta\tb\t5"))
        with pytest.raises(PatternFileError, match="subsequence <a>"):
            load_pattern_file(text)

    def test_sequence_longer_than_span(self):
        # three items need three distinct tuples, which no span-2 window
        # holds, so <a,b,a> counts 0 wherever it is counted
        text = (
            "format=1\nwindow_size=10\nmin_supp=1/5\nmin_nbd_supp=1/10\n"
            "span=2\nmax_len=none\nblocks=0:10\n"
            "L\ta\t5\nL\tb\t5\nL\ta\ta\t4\nL\ta\tb\t4\nL\tb\ta\t4\n"
            "NBD\ta\tb\ta\t2\n"
        )
        load_pattern_file(text.replace("NBD\ta\tb\ta\t2\n", ""))
        with pytest.raises(PatternFileError, match="longer than span=2"):
            load_pattern_file(text)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("L\tb c\t3\n", "whitespace"),
            ("NBD\ta\tb c\t2\n", "whitespace"),  # after a label checked before
            ("L\t\t3\n", "non-empty"),
            ("L\ta\ud800\t3\n", "surrogates"),
        ],
    )
    def test_a_bad_label_is_reported_on_its_first_line(self, entry, message):
        line_no = GOLDEN.count("\n") + 1
        with pytest.raises(PatternFileError, match=f"^line {line_no}: .*{message}"):
            load_pattern_file(GOLDEN + entry + entry)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("window_size=4\n", "window_size=-4\n",
             "^line 2: bad value for window_size: '-4'$"),
            ("L\ta\t3\n", "L\ta\t-3\n", "^line 8: bad count '-3'$"),
            ("span=2\n", "span=2\ncolour=blue\n", "^line 6: unknown header key 'colour'$"),
            ("format=1\n", "format=2\n", "^unsupported format '2'$"),
            ("blocks=0:4\n", "blocks=4:0,0:8\n",
             "^inconsistent pattern file: block 4:0 is not a range$"),
            # floor(1/2 * 4) = 2 is the most a sequence below the
            # frequent band may count
            ("L\ta\t3\n", "L\ta\t2\n",
             "^inconsistent pattern file: <a> count 2 not above 2$"),
        ],
    )
    def test_refusal_names_the_fault(self, old, new, message):
        assert old in GOLDEN
        with pytest.raises(PatternFileError, match=message):
            load_pattern_file(GOLDEN.replace(old, new))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("window_size=4\n", "window_size=four\n",
             "line 2: bad value for window_size: 'four'"),
            ("min_supp=1/2\n", "min_supp=half\n", "line 3: bad value for min_supp: 'half'"),
            ("min_nbd_supp=1/5\n", "min_nbd_supp=1/0\n",
             "line 4: bad value for min_nbd_supp: '1/0'"),
            ("span=2\n", "span= 2.5 \n", "line 5: bad value for span: '2.5'"),
            ("max_len=3\n", "max_len=None\n", "line 6: bad value for max_len: 'None'"),
            ("blocks=0:4\n", "blocks=0-4\n", "line 7: bad value for blocks: '0-4'"),
            # a block end is digits only, stricter than a count
            ("blocks=0:4\n", "blocks=0: 4\n", "line 7: bad value for blocks: '0: 4'"),
            ("blocks=0:4\n", "blocks=+0:4\n", "line 7: bad value for blocks: '+0:4'"),
            ("blocks=0:4\n", "blocks=0:4_0\n", "line 7: bad value for blocks: '0:4_0'"),
            ("format=1\n", "format=2\n", "unsupported format '2'"),
            ("format=1\n", "format=1\nsupport=1/2\n", "line 2: unknown header key 'support'"),
            ("span=2\n", "span=2\n span =3\n", "line 6: duplicate header key 'span'"),
            *[
                (line, "", f"missing header keys: ['{line.partition('=')[0]}']")
                for line in ("format=1\n", "window_size=4\n", "min_supp=1/2\n",
                             "min_nbd_supp=1/5\n", "span=2\n", "blocks=0:4\n")
            ],
        ],
    )
    def test_each_header_refusal_is_named_exactly(self, old, new, message):
        assert old in GOLDEN
        with pytest.raises(PatternFileError, match=f"^{re.escape(message)}$"):
            load_pattern_file(GOLDEN.replace(old, new))

    def test_truncated_entry_line(self):
        with pytest.raises(PatternFileError):
            load_pattern_file(GOLDEN + "L\n")

    @pytest.mark.parametrize(
        "blocks",
        [
            "blocks=0:4,4:8\n",   # 8 tuples, but window_size=4
            "blocks=0:3,2:3\n",   # tuple 2 counted twice
            "blocks=0:2,,2:4\n",  # malformed: an empty range
            "",                   # no blocks= header at all
        ],
    )
    def test_blocks_must_agree_with_the_header(self, blocks):
        with pytest.raises(PatternFileError):
            load_pattern_file(GOLDEN.replace("blocks=0:4\n", blocks))
