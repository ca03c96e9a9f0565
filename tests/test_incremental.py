import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from streamseq import (
    ContractError,
    CostCounter,
    CountParams,
    IncompatiblePatternSetsError,
    MiningParams,
    ParameterError,
    Sequence,
    StreamQueue,
    StreamTuple,
    UpdateInput,
    ius_update,
    mine,
    speedup,
    window,
)
from streamseq.patternfile import dump_pattern_file, load_pattern_file
from conftest import queue_of, random_queue


def _mine_and_update(q, split, params, cost=None):
    """Mine [0,split) and [split,len) separately, then update."""
    w0 = window(q, 0, split)
    dw = window(q, split, len(q) - split)
    old = mine([w0], params)
    part = mine([dw], params)
    inp = UpdateInput(old=old, delta=part, old_blocks=[w0], delta_blocks=[dw])
    return ius_update(inp, cost=cost)


def _double(q):
    """The same tuples again, shifted past the end of q."""
    shift = q[len(q) - 1].time
    tuples = list(q) + [StreamTuple(t.time + shift, t.types) for t in q]
    return StreamQueue(tuples)


class TestEquivalenceWithRemining:
    def test_identical_parts_double_every_count(self):
        rng = random.Random(83)
        params = MiningParams(Fraction(3, 10), Fraction(1, 10), CountParams(2), max_len=3)
        for _ in range(20):
            q = random_queue(rng, rng.randint(3, 25), ["a", "b", "c"])
            qq = _double(q)
            n = len(q)
            old = mine([window(qq, 0, n)], params)
            upd = _mine_and_update(qq, n, params)
            # thresholds scale with |W|, so membership is unchanged and
            # every stored count exactly doubles
            assert set(upd.frequent) == set(old.frequent)
            assert set(upd.border) == set(old.border)
            for s, c in old.frequent.items():
                assert upd.frequent[s] == 2 * c
            for s, c in old.border.items():
                assert upd.border[s] == 2 * c

    def test_random_splits_match_full_remine_exactly(self):
        rng = random.Random(271)
        for _ in range(80):
            n = rng.randint(4, 60)
            q = random_queue(rng, n, ["a", "b", "c", "d"])
            split = rng.randint(1, n - 1)
            supp = Fraction(rng.randint(8, 50), 100)
            params = MiningParams(
                supp, supp / 2, CountParams(rng.randint(1, 4)), max_len=4
            )
            upd = _mine_and_update(q, split, params)
            full = mine([window(q, 0, split), window(q, split, n - split)], params)
            assert upd.frequent == full.frequent
            assert upd.border == full.border
            assert upd.window_size == full.window_size

    def test_chained_updates_match_three_block_mine(self):
        rng = random.Random(55)
        params = MiningParams(Fraction(1, 5), Fraction(1, 10), CountParams(3), max_len=3)
        q = random_queue(rng, 48, ["a", "b", "c"])
        w0, d1, d2 = window(q, 0, 16), window(q, 16, 16), window(q, 32, 16)
        step1 = ius_update(
            UpdateInput(
                old=mine([w0], params),
                delta=mine([d1], params),
                old_blocks=[w0],
                delta_blocks=[d1],
            )
        )
        step2 = ius_update(
            UpdateInput(
                old=step1,
                delta=mine([d2], params),
                old_blocks=[w0, d1],
                delta_blocks=[d2],
            )
        )
        full = mine([w0, d1, d2], params)
        assert step2.frequent == full.frequent
        assert step2.border == full.border
        assert step2.blocks == full.blocks == ((0, 16), (16, 32), (32, 48))


@st.composite
def _gapped_split(draw):
    """A random stream cut into 2-4 blocks with gaps, split into old and delta."""
    rows = draw(st.lists(st.integers(1, 7), min_size=2, max_size=60))
    q = queue_of(*([lb for i, lb in enumerate("abc") if r >> i & 1] for r in rows))
    k = draw(st.integers(2, 4))
    edges = sorted(draw(st.lists(st.integers(0, len(rows)), min_size=2 * k, max_size=2 * k)))
    blocks = [window(q, lo, hi - lo) for lo, hi in zip(edges[::2], edges[1::2])]
    j = draw(st.integers(1, k - 1))
    return blocks[:j], blocks[j:]


class TestUpdateProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        _gapped_split(),
        st.integers(5, 60),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_update_equals_mine_and_survives_a_round_trip(self, split, pct, span, max_len):
        old_blocks, delta_blocks = split
        supp = Fraction(pct, 100)
        params = MiningParams(supp, supp / 3, CountParams(span), max_len=max_len)
        upd = ius_update(
            UpdateInput(
                old=mine(old_blocks, params),
                delta=mine(delta_blocks, params),
                old_blocks=old_blocks,
                delta_blocks=delta_blocks,
            )
        )
        full = mine(old_blocks + delta_blocks, params)
        assert (upd.frequent, upd.border, upd.blocks) == (
            full.frequent,
            full.border,
            full.blocks,
        )
        text = dump_pattern_file(upd)
        back = load_pattern_file(text)
        assert (back.params, back.blocks, back.frequent, back.border) == (
            upd.params,
            upd.blocks,
            upd.frequent,
            upd.border,
        )
        assert dump_pattern_file(back) == text


class TestMembershipTransitions:
    def test_demotion_when_delta_starves_a_frequent_sequence(self):
        # <a> occurs 6 times in a 10-tuple window; a 10-tuple increment
        # with no a's drags it to the border, or out entirely when the
        # border threshold is higher than its stale count
        q = queue_of(*(["a"] * 6 + ["b"] * 4 + ["b"] * 10))
        for nbd, expect_border in ((Fraction(1, 4), True), (Fraction(35, 100), False)):
            params = MiningParams(Fraction(1, 2), nbd, CountParams(1))
            upd = _mine_and_update(q, 10, params)
            assert Sequence.of("a") not in upd.frequent  # 6 <= 0.5 * 20
            if expect_border:
                assert upd.border[Sequence.of("a")] == 6  # 6 > 5
            else:
                assert Sequence.of("a") not in upd.border  # 6 <= 7

    def test_promotion_from_border(self):
        # <a> sits on the border of the old window, then the increment
        # is saturated with a's
        q = queue_of(*(["a"] * 3 + ["b"] * 7 + ["a"] * 10))
        params = MiningParams(Fraction(1, 2), Fraction(1, 5), CountParams(1))
        old = mine([window(q, 0, 10)], params)
        assert old.border[Sequence.of("a")] == 3
        upd = _mine_and_update(q, 10, params)
        assert upd.frequent[Sequence.of("a")] == 13  # 13 > 10

    def test_appearance_of_a_sequence_the_old_window_never_saw(self):
        q = queue_of(*(["b"] * 10 + ["c"] * 10))
        params = MiningParams(Fraction(1, 4), Fraction(1, 8), CountParams(1))
        old = mine([window(q, 0, 10)], params)
        assert old.stored_count(Sequence.of("c")) is None
        upd = _mine_and_update(q, 10, params)
        assert upd.frequent[Sequence.of("c")] == 10


class TestInputValidation:
    def _pieces(self):
        q = queue_of("a", "b", "a", "b")
        params = MiningParams(Fraction(1, 2), Fraction(1, 5), CountParams(2))
        w0, dw = window(q, 0, 2), window(q, 2, 2)
        return q, params, w0, dw

    def test_mismatched_params_rejected(self):
        q, params, w0, dw = self._pieces()
        other = MiningParams(Fraction(1, 3), Fraction(1, 5), CountParams(2))
        inp = UpdateInput(
            old=mine([w0], params),
            delta=mine([dw], other),
            old_blocks=[w0],
            delta_blocks=[dw],
        )
        with pytest.raises(IncompatiblePatternSetsError):
            ius_update(inp)

    def test_blocks_must_cover_the_claimed_window(self):
        q, params, w0, dw = self._pieces()
        inp = UpdateInput(
            old=mine([w0], params),
            delta=mine([dw], params),
            old_blocks=[window(q, 0, 1)],  # too small for old.window_size
            delta_blocks=[dw],
        )
        with pytest.raises(ContractError):
            ius_update(inp)

    def test_blocks_must_sit_where_the_pattern_set_was_mined(self):
        # right sizes, no overlap, wrong place: stored counts of 0:30
        # would be summed with rescans of 10:40
        rng = random.Random(7)
        q = random_queue(rng, 60, ["a", "b", "c"])
        params = MiningParams(Fraction(1, 5), Fraction(1, 10), CountParams(2))
        w0, dw = window(q, 0, 30), window(q, 40, 20)
        for old_blocks in ([window(q, 10, 30)], [window(q, 0, 10), window(q, 10, 20)]):
            inp = UpdateInput(
                old=mine([w0], params),
                delta=mine([dw], params),
                old_blocks=old_blocks,
                delta_blocks=[dw],
            )
            with pytest.raises(ContractError):
                ius_update(inp)

    def test_overlapping_blocks_rejected_but_gaps_allowed(self):
        q = queue_of("a", "b", "a", "b", "a", "b")
        params = MiningParams(Fraction(1, 2), Fraction(1, 5), CountParams(2))
        w0 = window(q, 0, 3)
        for dw, overlaps in ((window(q, 2, 3), True), (window(q, 0, 3), True),
                             (window(q, 4, 2), False)):
            inp = UpdateInput(
                old=mine([w0], params),
                delta=mine([dw], params),
                old_blocks=[w0],
                delta_blocks=[dw],
            )
            if overlaps:
                with pytest.raises(ContractError):
                    ius_update(inp)
            else:
                upd = ius_update(inp)
                full = mine([w0, dw], params)
                assert (upd.frequent, upd.border) == (full.frequent, full.border)


class TestUpdateCost:
    def test_rescans_only_what_the_parts_never_counted(self):
        # two identical single-type blocks: every level-1 and level-2
        # count is already stored, so only the <a,a,a> candidate needs
        # counting, once per side
        q = queue_of(*["a"] * 8)
        params = MiningParams(Fraction(1, 2), Fraction(1, 4), CountParams(2))
        cost = CostCounter()
        upd = _mine_and_update(q, 4, params, cost=cost)
        assert upd.frequent == {Sequence.of("a"): 6, Sequence.of("a", "a"): 6}
        assert (cost.scans, cost.window_evaluations) == (2, 6)

    def test_update_cost_stays_below_full_remine(self):
        rng = random.Random(40)
        params = MiningParams(Fraction(1, 5), Fraction(1, 10), CountParams(2), max_len=3)
        q = random_queue(rng, 80, ["a", "b", "c"])
        full_cost = CostCounter()
        mine([window(q, 0, 60), window(q, 60, 20)], params, cost=full_cost)
        upd_cost = CostCounter()
        _mine_and_update(q, 60, params, cost=upd_cost)
        assert upd_cost.window_evaluations < full_cost.window_evaluations


class TestSpeedup:
    def test_ratio(self):
        assert speedup(18.0, 6.0) == 3.0

    def test_zero_update_cost_is_undefined(self):
        with pytest.raises(ZeroDivisionError):
            speedup(10.0, 0.0)

    def test_negative_times_rejected(self):
        with pytest.raises(ParameterError):
            speedup(-1.0, 2.0)
        with pytest.raises(ParameterError):
            speedup(1.0, -2.0)
