import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from streamseq import (
    ContractError,
    CostCounter,
    CountParams,
    MiningParams,
    ParameterError,
    PatternSet,
    Sequence,
    UpdateInput,
    gen_candidates,
    ius_update,
    mine,
    window,
)
from streamseq import model
from streamseq.mining import as_fraction
from conftest import alternating_ab, queue_of, random_queue
from oracle import brute_force_frequent, shrink_by_one

SPAN2 = CountParams(2)


class TestAsFraction:
    def test_accepts_common_threshold_spellings(self):
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert as_fraction(1) == 1
        assert as_fraction("1/3") == Fraction(1, 3)
        assert as_fraction("0.25") == Fraction(1, 4)

    def test_floats_convert_by_decimal_repr_not_binary_expansion(self):
        # 0.1 must mean 1/10, not the nearest double
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(0.45) == Fraction(45, 100)

    def test_rejects_garbage(self):
        with pytest.raises(ParameterError):
            as_fraction("one half")
        with pytest.raises(ParameterError):
            as_fraction(None)

    # True == 1, so a bool would otherwise pass as min_supp 1
    @pytest.mark.parametrize("bad", [True, False])
    def test_rejects_a_bool(self, bad):
        with pytest.raises(ParameterError, match="cannot read threshold"):
            as_fraction(bad)
        with pytest.raises(ParameterError, match="cannot read threshold"):
            MiningParams(bad, Fraction(1, 4), SPAN2)
        with pytest.raises(ParameterError, match="cannot read threshold"):
            MiningParams(Fraction(1, 2), bad, SPAN2)


class TestMiningParams:
    def test_threshold_band_enforced(self):
        MiningParams(Fraction(1, 2), Fraction(1, 2), SPAN2)  # equal is allowed
        with pytest.raises(ParameterError):
            MiningParams(Fraction(1, 4), Fraction(1, 2), SPAN2)  # nbd above supp
        with pytest.raises(ParameterError):
            MiningParams(Fraction(3, 2), Fraction(1, 4), SPAN2)  # supp above 1
        with pytest.raises(ParameterError):
            MiningParams(Fraction(1, 2), Fraction(0), SPAN2)  # nbd must be positive

    def test_max_len_validation(self):
        with pytest.raises(ParameterError):
            MiningParams(Fraction(1, 2), Fraction(1, 4), SPAN2, max_len=0)

    # a pattern file dumped with such a max_len would not load back
    @pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, "3"])
    def test_max_len_must_be_an_int(self, bad):
        with pytest.raises(ParameterError):
            MiningParams(Fraction(1, 2), Fraction(1, 4), SPAN2, max_len=bad)

    def test_thresholds_are_exact(self):
        p = MiningParams(0.1, 0.03, CountParams(4))
        assert p.supp_threshold(20000) == 2000
        assert p.nbd_threshold(20000) == 600
        assert p.span == 4


class TestGenCandidates:
    def test_singles_join_into_all_ordered_pairs(self):
        got = gen_candidates([Sequence.of("a"), Sequence.of("b")])
        assert got == [
            Sequence.of("a", "a"),
            Sequence.of("a", "b"),
            Sequence.of("b", "a"),
            Sequence.of("b", "b"),
        ]

    def test_lone_pair_has_no_join_partner(self):
        assert gen_candidates([Sequence.of("a", "b")]) == []

    def test_subset_pruning_kills_joins_with_infrequent_middles(self):
        # ab+ba joins to aba, but its subsequence aa is not in the level
        got = gen_candidates([Sequence.of("a", "b"), Sequence.of("b", "a")])
        assert got == []

    def test_join_survives_when_every_subset_is_present(self):
        level = [Sequence.of("a", "b"), Sequence.of("b", "c"), Sequence.of("a", "c")]
        assert gen_candidates(level) == [Sequence.of("a", "b", "c")]

    def test_self_join(self):
        got = gen_candidates([Sequence.of("a", "a")])
        assert got == [Sequence.of("a", "a", "a")]

    def test_duplicates_tolerated_empty_ok(self):
        assert gen_candidates([]) == []
        got = gen_candidates([Sequence.of("a")] * 3)
        assert got == [Sequence.of("a", "a")]

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ContractError):
            gen_candidates([Sequence.of("a"), Sequence.of("a", "b")])

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda m: st.lists(
                st.tuples(*[st.sampled_from("abc")] * m).map(
                    lambda t: t if t[0] == "a" else Sequence(t)
                ),
                max_size=20,
            )
        )
    )
    def test_equals_a_reference_join(self, level):
        # the join on plain tuple slices is the join on validated Sequences;
        # the level mixes plain tuples and Sequences
        seqs = sorted({Sequence(s) for s in level})
        want = sorted(
            {
                Sequence(s + t[-1:])
                for s in seqs
                for t in seqs
                if s[1:] == t[:-1]
                and all(
                    sub in seqs for sub in shrink_by_one(Sequence(s + t[-1:]))
                )
            }
        )
        got = gen_candidates(level)
        assert got == want
        assert all(type(c) is Sequence for c in got)

    @pytest.mark.parametrize("bad", ["", "a b", "a,b", "\ud800", 7])
    def test_a_plain_tuple_with_a_bad_label_is_refused(self, bad):
        with pytest.raises(ParameterError):
            gen_candidates([("a",), (bad,)])


class TestMine:
    def test_reference_window(self):
        params = MiningParams(Fraction(1, 2), Fraction(1, 5), SPAN2, max_len=3)
        ps = mine([alternating_ab()], params)
        assert ps.frequent == {Sequence.of("a"): 3, Sequence.of("b"): 3}
        assert ps.border == {Sequence.of("a", "b"): 2, Sequence.of("b", "a"): 1}
        assert ps.window_size == 4
        assert ps.blocks == ((0, 4),)

    def test_reference_window_lower_threshold(self):
        params = MiningParams(Fraction(45, 100), Fraction(1, 5), SPAN2, max_len=3)
        ps = mine([alternating_ab()], params)
        assert ps.frequent == {
            Sequence.of("a"): 3,
            Sequence.of("b"): 3,
            Sequence.of("a", "b"): 2,
        }
        assert ps.border == {Sequence.of("b", "a"): 1}

    def test_strict_threshold_boundary(self):
        # count == threshold is NOT frequent; frequency needs strictly more
        params = MiningParams(Fraction(1, 2), Fraction(1, 4), CountParams(1))
        q = queue_of("a", "a", "b", "b")
        ps = mine([window(q, 0, 4)], params)
        assert Sequence.of("a") not in ps.frequent  # count 2 == 0.5 * 4
        assert ps.border[Sequence.of("a")] == 2

    @pytest.mark.parametrize(
        "min_supp, min_nbd_supp",
        [
            (Fraction(3, 10), Fraction(1, 5)),  # thresholds 3 and 2 exactly
            (Fraction(1, 3), Fraction(1, 4)),  # thresholds 10/3 and 5/2
        ],
    )
    def test_int_thresholds_classify_as_the_oracle_does(self, min_supp, min_nbd_supp):
        # at span 1 a single's count is the number of tuples holding it;
        # a at 2 is on neither band, b at 3 is border, c at 4 is frequent,
        # each one step from a threshold
        held = {"a": 2, "b": 3, "c": 4}
        rows = ({"z"} | {lb for lb, n in held.items() if i < n} for i in range(10))
        q = queue_of(*rows)
        params = MiningParams(min_supp, min_nbd_supp, CountParams(1), max_len=2)
        w = window(q, 0, 10)
        got = mine([w], params)
        want = brute_force_frequent([w], CountParams(1), min_supp, min_nbd_supp, 2)
        assert (got.frequent, got.border) == (want.frequent, want.border)
        assert got.frequent == {Sequence.of("c"): 4, Sequence.of("z"): 10}
        assert got.border == {Sequence.of("b"): 3}
        assert isinstance(params.supp_threshold(10), int)
        assert (params.supp_threshold(10), params.nbd_threshold(10)) == (3, 2)

    def test_empty_blocks(self):
        params = MiningParams(Fraction(1, 2), Fraction(1, 4), SPAN2)
        ps = mine([], params)
        assert ps.frequent == {} and ps.border == {} and ps.window_size == 0

    def test_overlapping_blocks_rejected_but_gaps_allowed(self):
        q = queue_of("a", "b", "a", "b", "a", "b")
        params = MiningParams(Fraction(1, 4), Fraction(1, 8), SPAN2)
        for blocks in ([window(q, 0, 3), window(q, 2, 2)], [window(q, 2, 2), window(q, 0, 4)]):
            cost = CostCounter()
            with pytest.raises(ContractError):
                mine(blocks, params, cost=cost)
            assert cost.scans == 0  # refused before any counting
        gap = mine([window(q, 0, 2), window(q, 0, 0), window(q, 4, 2)], params)
        assert gap.window_size == 4
        assert gap.blocks == ((0, 2), (0, 0), (4, 6))

    def test_blocks_of_different_queues_rejected(self):
        # summed, the counts would make <c> frequent although q1 holds no c
        q1 = queue_of(*"ababa")
        q2 = queue_of(*"ababacccca")
        params = MiningParams(Fraction(1, 4), Fraction(1, 8), SPAN2)
        cost = CostCounter()
        with pytest.raises(ContractError, match="same queue"):
            mine([window(q1, 0, 5), window(q2, 5, 5)], params, cost=cost)
        assert cost.scans == 0  # refused before any counting

    def test_max_len_caps_exploration(self):
        q = queue_of("a", "a", "a", "a")
        params = MiningParams(Fraction(1, 4), Fraction(1, 8), SPAN2, max_len=1)
        ps = mine([window(q, 0, 4)], params)
        assert set(ps.frequent) == {Sequence.of("a")}

    def test_multi_block_counts_are_per_block_sums(self):
        q = queue_of("a", "b", "a", "b")
        params = MiningParams(Fraction(1, 4), Fraction(1, 8), SPAN2, max_len=2)
        split = mine([window(q, 0, 2), window(q, 2, 2)], params)
        assert split.window_size == 4
        assert split.blocks == ((0, 2), (2, 4))
        # the cut loses the <b,a> occurrence straddling position 1
        assert split.frequent[Sequence.of("a", "b")] == 2
        assert Sequence.of("b", "a") not in split.frequent
        assert Sequence.of("b", "a") not in split.border

    def test_agrees_with_oracle_on_random_streams(self):
        rng = random.Random(314)
        for _ in range(40):
            n = rng.randint(4, 60)
            q = random_queue(rng, n, ["a", "b", "c", "d"])
            params = MiningParams(
                Fraction(rng.randint(10, 50), 100),
                Fraction(rng.randint(2, 9), 100),
                CountParams(rng.randint(1, 4)),
                max_len=3,
            )
            w = window(q, 0, n)
            got = mine([w], params)
            want = brute_force_frequent(
                [w], params.count_params, params.min_supp, params.min_nbd_supp, 3
            )
            assert got.frequent == want.frequent
            assert got.border == want.border

    def test_result_is_deterministic(self):
        rng = random.Random(9)
        q = random_queue(rng, 50, ["a", "b", "c"])
        params = MiningParams(Fraction(1, 5), Fraction(1, 10), SPAN2, max_len=4)
        a = mine([window(q, 0, 50)], params)
        b = mine([window(q, 0, 50)], params)
        assert a.frequent == b.frequent and a.border == b.border
        assert list(a.frequent) == list(b.frequent)  # iteration order too

    def test_the_search_tallies_its_candidates_per_level(self):
        # level 1 counts every single, level m the joins of level m-1's
        # frequent sequences; a counter used twice adds both searches
        rng = random.Random(27)
        q = random_queue(rng, 60, ["a", "b", "c"])
        params = MiningParams(Fraction(1, 5), Fraction(1, 10), SPAN2, max_len=3)
        cost = CostCounter()
        ps = mine([window(q, 0, 60)], params, cost=cost)
        levels = {m: [s for s in ps.frequent if len(s) == m] for m in (1, 2)}
        want = {1: 3, 2: len(gen_candidates(levels[1])), 3: len(gen_candidates(levels[2]))}
        assert want[3] > 0 and cost.candidates == want
        mine([window(q, 0, 60)], params, cost=cost)
        assert cost.candidates == {m: 2 * c for m, c in want.items()}


class TestPatternSetValidate:
    def _params(self):
        return MiningParams(Fraction(1, 2), Fraction(1, 5), SPAN2, max_len=3)

    def test_valid_set_passes(self):
        ps = mine([alternating_ab()], self._params())
        ps.validate()

    def test_section_overlap_rejected(self):
        ps = mine([alternating_ab()], self._params())
        ps.border[Sequence.of("a")] = 3
        with pytest.raises(ContractError):
            ps.validate()

    def test_underweight_frequent_rejected(self):
        ps = mine([alternating_ab()], self._params())
        ps.frequent[Sequence.of("b", "a")] = 1  # 1 <= 0.5 * 4
        with pytest.raises(ContractError):
            ps.validate()

    def test_overweight_border_rejected(self):
        ps = mine([alternating_ab()], self._params())
        ps.border[Sequence.of("a", "b")] = 3  # 3 > 0.5 * 4 belongs in frequent
        with pytest.raises(ContractError):
            ps.validate()

    def test_border_requires_frequent_subsets(self):
        params = self._params()
        ps = PatternSet(
            params=params,
            blocks=((0, 4),),
            frequent={Sequence.of("a"): 3},
            border={Sequence.of("b", "b"): 1},  # <b> is not frequent
        )
        with pytest.raises(ContractError):
            ps.validate()

    def test_max_len_cap_enforced(self):
        params = MiningParams(Fraction(1, 2), Fraction(1, 5), SPAN2, max_len=1)
        ps = PatternSet(
            params=params,
            blocks=((0, 4),),
            frequent={Sequence.of("a"): 3, Sequence.of("a", "b"): 3},
            border={},
        )
        with pytest.raises(ContractError):
            ps.validate()

    def test_stored_count_searches_both_sections(self):
        ps = mine([alternating_ab()], self._params())
        assert ps.stored_count(Sequence.of("a")) == 3
        assert ps.stored_count(Sequence.of("b", "a")) == 1
        assert ps.stored_count(Sequence.of("c")) is None


def test_an_already_built_queue_needs_no_label_check(monkeypatch):
    # a queue checks its labels when it is built; mining and updating over
    # it build every candidate from those labels and check none again
    checks = []
    real = model._check_label

    def counted(label):
        checks.append(label)
        real(label)

    q = random_queue(random.Random(8), 120, ["a", "b", "c", "d"])
    params = MiningParams(Fraction(1, 5), Fraction(1, 10), CountParams(4), max_len=3)
    monkeypatch.setattr(model, "_check_label", counted)
    old = mine([window(q, 0, 90)], params)
    grown = ius_update(UpdateInput(q, old, mine([window(q, 90, 30)], params)))
    assert any(len(s) == 3 for s in grown.frequent)  # the search reached level 3
    assert checks == []
    assert isinstance(params.supp_threshold(120), int)
    assert isinstance(params.nbd_threshold(120), int)
    Sequence.of("a", "b")
    assert checks == ["a", "b"]  # the rebinding does see a checked build
