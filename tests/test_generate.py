import hashlib
import importlib
import math
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from streamseq import (
    CountParams,
    GenConfig,
    ParameterError,
    Sequence,
    generate,
    occur,
    serialize_event_log,
    window,
)
from streamseq.generate import _LANES, _cutoff, _draws, _threshold, type_labels
from oracle import ScalarSplitMix64, generate_reference, serialize_reference
from test_acceptance import _trend_config

# the module; the package's name `generate` is the function
generate_module = importlib.import_module("streamseq.generate")

_MASK64 = (1 << 64) - 1


def below(draws, n):
    """A uniform integer in [0, n) from `draws`, by the expression generate
    uses: reject the draws at or past the cutoff, reduce the first kept."""
    return next(filter(_cutoff(n).__gt__, draws)) % n


def unit_float(draws):
    """The uniform float in [0, 1) that the next draw stands for."""
    return (next(draws) >> 11) * 2.0 ** -53


# seeds on both sides of each 64-bit wrap; every test below reads draws
# across the boundary between two batches
_SEEDS = (0, 42, -1, 2**64 - 1, 2**64 + 5)


class TestBatchesMatchTheScalarRecurrence:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_draws_across_batches(self, seed):
        ref = ScalarSplitMix64(seed)
        n = 2 * _LANES + 3
        assert list(islice(_draws(seed), n)) == [ref.next_u64() for _ in range(n)]

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_each_call_starts_the_stream_afresh(self, seed):
        ref = ScalarSplitMix64(seed)
        first = _draws(seed)
        head = list(islice(first, _LANES + 3))
        assert head == [ref.next_u64() for _ in range(_LANES + 3)]
        assert next(_draws(seed)) == head[0]
        assert next(first) == ref.next_u64()

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_floats_and_indices_across_a_boundary(self, seed):
        ref = ScalarSplitMix64(seed)
        draws = _draws(seed)
        for _ in range(_LANES - 50):
            assert next(draws) == ref.next_u64()
        for _ in range(40):
            assert unit_float(draws) == ref.next_float()
            assert below(draws, 194) == ref.next_below(194)
        assert next(draws) == ref.next_u64()

    @pytest.mark.parametrize("n", (194, 2**63 + 1))
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_indices_redraw_as_the_recurrence_does(self, seed, n):
        # 2**63 + 1 rejects a draw about half the time, which generate's
        # alphabets, such as 194 types, practically never do
        ref = ScalarSplitMix64(seed)
        draws = _draws(seed)
        for _ in range(_LANES - 100):
            assert next(draws) == ref.next_u64()
        start = ref.draws
        calls = 100
        assert [below(draws, n) for _ in range(calls)] == [
            ref.next_below(n) for _ in range(calls)
        ]
        redraws = ref.draws - start - calls
        assert redraws > 20 if n > 2**63 else redraws == 0
        assert next(draws) == ref.next_u64()


class TestDraws:
    def test_known_stream_for_seed_zero(self):
        # first output of the reference splitmix64 sequence
        assert next(_draws(0)) == 0xE220A8397B1DCDAF

    def test_regression_stream_for_seed_42(self):
        assert list(islice(_draws(42), 4)) == [
            13679457532755275413,
            2949826092126892291,
            5139283748462763858,
            6349198060258255764,
        ]

    def test_floats_live_in_unit_interval(self):
        draws = _draws(7)
        vals = [unit_float(draws) for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert len(set(vals)) > 990  # not obviously degenerate

    def test_indices_bounds_and_determinism(self):
        a = _draws(5)
        b = _draws(5)
        draws = [below(a, 13) for _ in range(500)]
        assert [below(b, 13) for _ in range(500)] == draws
        assert all(0 <= d < 13 for d in draws)
        assert set(draws) == set(range(13))  # all residues reachable

    def test_seed_wraps_to_64_bits(self):
        assert next(_draws(2**64)) == next(_draws(0))


class TestTypeLabels:
    def test_zero_padded_to_alphabet_width(self):
        assert type_labels(3) == ["E001", "E002", "E003"]
        assert type_labels(194)[0] == "E001"
        assert type_labels(194)[-1] == "E194"

    def test_width_grows_with_alphabet(self):
        labels = type_labels(1500)
        assert labels[0] == "E0001"
        assert labels[-1] == "E1500"
        assert len(set(labels)) == 1500


class TestGenConfig:
    def test_drift_fields_must_come_together(self):
        with pytest.raises(ParameterError):
            GenConfig(n_types=4, n_events=10, seed=1, drift_at=5)
        with pytest.raises(ParameterError):
            GenConfig(n_types=4, n_events=10, seed=1, embedded_after=())

    def test_fill_bounds(self):
        with pytest.raises(ParameterError):
            GenConfig(n_types=4, n_events=10, seed=1, tuple_fill=0.5)
        with pytest.raises(ParameterError):
            GenConfig(n_types=4, n_events=10, seed=1, tuple_fill=5.0)

    def test_patterns_must_use_alphabet_labels(self):
        with pytest.raises(ParameterError):
            GenConfig(
                n_types=4,
                n_events=10,
                seed=1,
                embedded=((Sequence.of("E009"), 10.0),),
            )

    def test_rate_bounds(self):
        with pytest.raises(ParameterError):
            GenConfig(
                n_types=4,
                n_events=10,
                seed=1,
                embedded=((Sequence.of("E001"), -1.0),),
            )

    @pytest.mark.parametrize(
        "given, message",
        [
            ({"n_types": 0}, "n_types must be >= 1, got 0"),
            ({"n_events": 0}, "n_events must be >= 1, got 0"),
            ({"drift_at": 0, "embedded_after": ()}, "drift_at must be >= 1, got 0"),
            (
                {"embedded": ((("E001",), 10.0),)},
                r"embedded pattern \('E001',\) is not a Sequence",
            ),
        ],
    )
    def test_refusal_names_the_fault(self, given, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            GenConfig(**{"n_types": 4, "n_events": 10, "seed": 1, **given})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_types", True),
            ("n_types", 2.5),
            ("n_events", True),
            ("n_events", 10.0),
            ("seed", 1.5),
            ("seed", False),
            ("drift_at", 2.5),
            ("drift_at", True),
        ],
    )
    def test_counts_and_seed_must_be_ints(self, field, value):
        given = {"n_types": 4, "n_events": 10, "seed": 1}
        if field == "drift_at":
            given["embedded_after"] = ()
        given[field] = value
        with pytest.raises(ParameterError, match=f"{field} must be an int"):
            GenConfig(**given)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tuple_fill", "1"),
            ("tuple_fill", True),
            ("tuple_fill", None),
            ("rate", "5"),
            ("rate", True),
            ("rate", 1j),
        ],
    )
    def test_fill_and_rates_must_be_real_numbers(self, field, value):
        if field == "rate":
            given = {"embedded": ((Sequence.of("E001"), value),)}
        else:
            given = {field: value}
        with pytest.raises(ParameterError, match=f"{field} must be a real number"):
            GenConfig(n_types=4, n_events=10, seed=1, **given)

    def test_fractions_give_the_stream_of_their_floats(self):
        pair = Sequence.of("E001", "E002")
        exact = GenConfig(
            n_types=6,
            n_events=800,
            seed=4,
            tuple_fill=Fraction(3, 2),
            embedded=((pair, Fraction(45)),),
        )
        rounded = GenConfig(
            n_types=6, n_events=800, seed=4, tuple_fill=1.5, embedded=((pair, 45.0),)
        )
        assert serialize_event_log(generate(exact)) == serialize_event_log(
            generate(rounded)
        )


# SHA-256 of serialize_event_log(generate(cfg)), pinned when draws were
# made one scalar step at a time; batching the draws must not move a byte
_PINNED_STREAMS = [
    (
        lambda: _trend_config(1, 100_000, drift_at=20_000),
        "66f2ca434a319ed79d8bb629a5426211b87d522e9ca099437c028d828fcb6818",
    ),
    (
        lambda: GenConfig(n_types=6, n_events=3000, seed=5, tuple_fill=1.5),
        "b90d67763113ed077cc4f62e9dc3c208743a7a39c6a68bbfe48d925fa24e4380",
    ),
    (
        lambda: GenConfig(
            n_types=40,
            n_events=20000,
            seed=11,
            tuple_fill=2.25,
            embedded=((Sequence.of("E001", "E002", "E003"), 30.0),),
        ),
        "ee4c2738b47821017fb7b39b72ef240bf56ed55c3b15a67054c3a80cf9bfc4c3",
    ),
    (
        lambda: GenConfig(n_types=10, n_events=5000, seed=-3),
        "44555d3131623e58f4b29645ab03cfa18915658790b976a1ad4d0058cd7ac55a",
    ),
    # pinned before draws were tested as ints: the benchmark's deep stream
    (
        lambda: GenConfig(
            n_types=194,
            n_events=50_000,
            seed=1,
            embedded=tuple(
                (Sequence.of(*(f"E{i:03d}" for i in range(k, k + 6))), 25.0)
                for k in (1, 7, 13, 19)
            ),
        ),
        "701a8fdb4d47529f9ba9ef6293120dea332d60881d04d810c1b06dcd2a24f014",
    ),
    # and a drift between patterns that never and always fire, with an
    # exact fractional fill
    (
        lambda: GenConfig(
            n_types=12,
            n_events=6000,
            seed=7,
            tuple_fill=Fraction(19, 10),
            embedded=((Sequence.of("E001", "E002"), 0.0), (Sequence.of("E003"), 1000.0)),
            drift_at=1000,
            embedded_after=(
                (Sequence.of("E004", "E005", "E006"), 1000.0),
                (Sequence.of("E007"), 0),
            ),
        ),
        "3e2cfca29f88f5640dbd5c523dc013f3f3cd291e0c1819de0e3b33dafeb019fa",
    ),
]


@pytest.mark.parametrize(
    "config,digest",
    _PINNED_STREAMS,
    ids=["trend", "fill-1.5", "fill-2.25", "seed-minus-3", "deep", "drift-0-1000"],
)
def test_pinned_stream(config, digest):
    text = serialize_event_log(generate(config()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "config", [_PINNED_STREAMS[0][0], _PINNED_STREAMS[4][0]], ids=["trend", "deep"]
)
def test_a_stream_holds_one_frozenset_per_distinct_label_set(config):
    q = generate(config())
    assert len({id(labels) for labels in q}) == len(set(q)) < len(q)


def test_set_up_peak_memory_stays_in_budget():
    # generating and writing the 48,879-tuple trend stream peaked at
    # 18.3 MiB traced with one frozenset and one string per tuple
    cfg = _trend_config(1, 100_000, drift_at=20_000)
    tracemalloc.start()
    try:
        serialize_event_log(generate(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


class TestGenerate:
    def test_same_seed_same_stream(self):
        cfg = GenConfig(n_types=10, n_events=500, seed=77, tuple_fill=1.4)
        assert serialize_event_log(generate(cfg)) == serialize_event_log(generate(cfg))

    def test_different_seeds_differ(self):
        a = GenConfig(n_types=10, n_events=500, seed=1)
        b = GenConfig(n_types=10, n_events=500, seed=2)
        assert serialize_event_log(generate(a)) != serialize_event_log(generate(b))

    def test_stops_at_event_budget(self):
        cfg = GenConfig(n_types=6, n_events=300, seed=3, tuple_fill=2.5)
        q = generate(cfg)
        total = sum(len(t) for t in q)
        # may overshoot by at most the last tuple's own size
        assert 300 <= total <= 300 + 6
        assert q.times == tuple(range(1, len(q) + 1))

    def test_alphabet_is_contained_in_declared_types(self):
        cfg = GenConfig(n_types=5, n_events=400, seed=9)
        q = generate(cfg)
        allowed = set(type_labels(5))
        assert set(q.alphabet()) <= allowed

    def test_embedded_pattern_boosts_occurrence(self):
        base = GenConfig(n_types=20, n_events=4000, seed=11)
        boosted = GenConfig(
            n_types=20,
            n_events=4000,
            seed=11,
            embedded=((Sequence.of("E001", "E002"), 120.0),),
        )
        pair = Sequence.of("E001", "E002")
        p = CountParams(3)
        q0 = generate(base)
        q1 = generate(boosted)
        quiet = occur(pair, window(q0, 0, len(q0)), p)
        loud = occur(pair, window(q1, 0, len(q1)), p)
        assert loud > 4 * (quiet + 1)
        # roughly one laydown per firing, a couple of start positions each
        n = len(q1)
        expected_firings = 120.0 * n / 1000.0
        assert loud > expected_firings

    def test_drift_switches_pattern_population(self):
        # wide alphabet so chance co-occurrence of the pair stays negligible
        # next to the embedded firings
        pair = Sequence.of("E001", "E002")
        cfg = GenConfig(
            n_types=40,
            n_events=6000,
            seed=13,
            embedded=((pair, 150.0),),
            drift_at=1500,
            embedded_after=(),
        )
        q = generate(cfg)
        p = CountParams(3)
        before = occur(pair, window(q, 0, 1500), p)
        after = occur(pair, window(q, 1510, len(q) - 1510), p)
        assert before > 100
        assert after < before / 10

    def test_drift_point_must_lie_inside_the_stream(self):
        cfg = GenConfig(
            n_types=4,
            n_events=20,
            seed=1,
            drift_at=10_000,
            embedded_after=(),
        )
        with pytest.raises(ParameterError):
            generate(cfg)


# probabilities on and around the boundaries of the draws' grid of
# 2**-53, as floats, ints and Fractions
_PROBABILITIES = [
    0, 0.0, 5e-324, 1e-300, 2.0**-54, 2.0**-53, 3 * 2.0**-54, 0.025, 0.08,
    1 / 3, 0.5, 0.9, 1 - 2.0**-53, 1.0, 1,
    Fraction(1, 3), Fraction(2, 7), Fraction(9, 10), Fraction(3, 2**54),
    Fraction(2**53 - 1, 2**53), Fraction(5, 2**53) + Fraction(1, 2**110),
    Fraction(5, 2**53) - Fraction(1, 2**110),
]


class TestThreshold:
    @pytest.mark.parametrize("p", _PROBABILITIES)
    def test_boundary_draws_pass_as_the_float_test_does(self, p):
        limit = _threshold(p)
        c = limit >> 11
        assert limit == c << 11
        assert c == min(max(math.ceil(Fraction(p) * 2**53), 0), 2**53)
        for u in ((c - 1) << 11, (c << 11) - 1, c << 11):
            if 0 <= u <= _MASK64:
                assert (u < limit) == ((u >> 11) * 2.0**-53 < p)

    def test_a_fraction_is_not_rounded_through_a_float_product(self):
        p = Fraction(5, 2**53) + Fraction(1, 2**110)
        # the float product rounds down onto an integer, one below the
        # exact ceiling, though the draws with u >> 11 == 5 pass the test
        assert math.ceil(p * 2.0**53) == 5
        assert 5 * 2.0**-53 < p
        assert _threshold(p) == 6 << 11

    def test_a_numpy_float32_is_compared_as_numpy_compares_it(self):
        np = pytest.importorskip("numpy")
        p = np.float32(25.0) / 1000.0
        limit = _threshold(p)
        c = limit >> 11
        for u in ((c - 1) << 11, (c << 11) - 1, c << 11):
            assert (u < limit) == bool((u >> 11) * 2.0**-53 < p)


class TestHugeAlphabets:
    def test_a_huge_alphabet_stream_is_its_draws(self, small_alphabets_only):
        n = 3 * 2**62  # past 2**63, so a quarter of the draws are redrawn
        q = generate(GenConfig(n_types=n, n_events=3000, seed=5, tuple_fill=1.5))
        ref = ScalarSplitMix64(5)
        for labels in q:
            k = 2 if ref.next_float() < 0.5 else 1
            assert labels == {f"E{ref.next_below(n) + 1:020d}" for _ in range(k)}
        assert sum(map(len, q)) >= 3000

    def test_pattern_labels_are_read_off_the_label(self, small_alphabets_only):
        n = 10**12  # labels of 13 digits
        ends = Sequence.of("E0000000000001", "E1000000000000")
        cfg = GenConfig(n_types=n, n_events=50, seed=2, embedded=((ends, 1000.0),))
        assert ends[0] in generate(cfg)[0]
        for bad in ("E001", "E1000000000001", "E0000000000000", "e0000000000001",
                    "F0000000000001", "E00000000000010", "E+00000000001",
                    "E000000000000\u0661", "E000000000000\xb2"):
            with pytest.raises(ParameterError, match="outside the alphabet"):
                GenConfig(n_types=n, n_events=50, seed=2,
                          embedded=((Sequence.of(bad), 5.0),))

    @pytest.mark.parametrize("n", [1, 9, 999, 1000, 1001, 1500])
    def test_reading_a_label_agrees_with_the_alphabet(self, n):
        alphabet = set(type_labels(n))
        tried = [f"E{i:0{w}d}" for i in range(-1, n + 3) for w in range(1, 6)]
        tried += ["", "E", "E-01", "E 001", "e001", "E001x", "E\u0661\u0662\u0663"]
        for label in tried:
            assert generate_module._is_type_label(label, n) == (label in alphabet)

    def test_2_64_types_is_the_most(self, small_alphabets_only):
        q = generate(GenConfig(n_types=2**64, n_events=20, seed=3))
        ref = ScalarSplitMix64(3)
        for labels in q:
            ref.next_u64()  # the fill draw
            assert labels == {f"E{ref.next_u64() + 1:020d}"}
        with pytest.raises(ParameterError, match=r"n_types must be <= 2\*\*64"):
            GenConfig(n_types=2**64 + 1, n_events=20, seed=3)


_RATES = st.one_of(
    st.sampled_from([0, 0.0, 500, 500.0, 1000, 1000.0]),
    st.floats(0, 1000),
    st.fractions(0, 1000, max_denominator=10**6),
)


@st.composite
def _configs(draw):
    """Small configs: fills integral and fractional, as floats and as
    Fractions of denominator 3, 7 or 10; rates on the ends of their range,
    in the middle and odd; drift inside and past the stream."""
    n_types = draw(st.integers(1, 300))
    alphabet = type_labels(n_types)

    def patterns():
        return tuple(
            (Sequence.of(*draw(st.lists(st.sampled_from(alphabet), min_size=1,
                                        max_size=4))), draw(_RATES))
            for _ in range(draw(st.integers(0, 4)))
        )

    den = draw(st.sampled_from([1, 3, 7, 10]))
    fill = Fraction(draw(st.integers(den, min(n_types, 4) * den)), den)
    drift_at = draw(st.none() | st.integers(1, 400))
    return GenConfig(
        n_types=n_types,
        n_events=draw(st.integers(1, 600)),
        seed=draw(st.sampled_from(_SEEDS) | st.integers(-(2**70), 2**70)),
        tuple_fill=draw(st.sampled_from([fill, float(fill)])),
        embedded=patterns(),
        drift_at=drift_at,
        embedded_after=None if drift_at is None else patterns(),
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_configs())
def test_streams_equal_the_float_test_reference(cfg):
    try:
        expected = serialize_reference(generate_reference(cfg))
    except ParameterError as exc:
        with pytest.raises(ParameterError) as info:
            generate(cfg)
        assert str(info.value) == str(exc)
        return
    assert serialize_event_log(generate(cfg)) == expected
