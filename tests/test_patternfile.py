import random
from fractions import Fraction

import pytest

from streamseq import (
    CountParams,
    MiningParams,
    PatternFileError,
    PatternSet,
    Sequence,
    mine,
    window,
)
from streamseq.patternfile import dump_pattern_file, load_pattern_file
from conftest import alternating_ab, random_queue

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
    ps = load_pattern_file(GOLDEN.replace("blocks=0:4", "blocks=0:1,1:4"))
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
