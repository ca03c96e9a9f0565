import hashlib
from fractions import Fraction

import pytest

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
from streamseq.generate import _LANES, SplitMix64, type_labels
from test_acceptance import _trend_config

_MASK64 = (1 << 64) - 1


class ScalarSplitMix64:
    """The splitmix64 recurrence one draw at a time: the reference that
    SplitMix64's batches are checked against."""

    def __init__(self, seed):
        self.state = seed & _MASK64
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self):
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_below(self, n):
        cutoff = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            r = self.next_u64()
            if r < cutoff:
                return r % n


# seeds on both sides of each 64-bit wrap; every test below reads draws
# across the boundary between two batches
_SEEDS = (0, 42, -1, 2**64 - 1, 2**64 + 5)


class TestBatchesMatchTheScalarRecurrence:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_next_u64_across_batches(self, seed):
        ref = ScalarSplitMix64(seed)
        g = SplitMix64(seed)
        n = 2 * _LANES + 3
        assert [g.next_u64() for _ in range(n)] == [ref.next_u64() for _ in range(n)]

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_iteration_reads_the_same_stream(self, seed):
        ref = ScalarSplitMix64(seed)
        g = SplitMix64(seed)
        head = [g.next_u64() for _ in range(_LANES - 1)]
        draws = iter(g)
        tail = [next(draws) for _ in range(3)] + [g.next_u64()]
        assert head + tail == [ref.next_u64() for _ in range(_LANES + 3)]

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_next_float_and_next_below_across_a_boundary(self, seed):
        ref = ScalarSplitMix64(seed)
        g = SplitMix64(seed)
        for _ in range(_LANES - 50):
            assert g.next_u64() == ref.next_u64()
        for _ in range(40):
            assert g.next_float() == ref.next_float()
            assert g.next_below(194) == ref.next_below(194)
        assert g.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_next_below_redraws_as_the_recurrence_does(self, seed):
        # 2**63 + 1 rejects a draw about half the time, which generate's
        # alphabets never do
        n = 2**63 + 1
        ref = ScalarSplitMix64(seed)
        g = SplitMix64(seed)
        for _ in range(_LANES - 100):
            assert g.next_u64() == ref.next_u64()
        start = ref.draws
        calls = 100
        assert [g.next_below(n) for _ in range(calls)] == [
            ref.next_below(n) for _ in range(calls)
        ]
        assert ref.draws - start > calls + 20  # redraws happened
        assert g.next_u64() == ref.next_u64()


class TestSplitMix64:
    def test_known_stream_for_seed_zero(self):
        # first output of the reference splitmix64 sequence
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_regression_stream_for_seed_42(self):
        g = SplitMix64(42)
        assert [g.next_u64() for _ in range(4)] == [
            13679457532755275413,
            2949826092126892291,
            5139283748462763858,
            6349198060258255764,
        ]

    def test_floats_live_in_unit_interval(self):
        g = SplitMix64(7)
        vals = [g.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert len(set(vals)) > 990  # not obviously degenerate

    def test_next_below_bounds_and_determinism(self):
        a = SplitMix64(5)
        b = SplitMix64(5)
        draws = [a.next_below(13) for _ in range(500)]
        assert [b.next_below(13) for _ in range(500)] == draws
        assert all(0 <= d < 13 for d in draws)
        assert set(draws) == set(range(13))  # all residues reachable

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()


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
]


@pytest.mark.parametrize(
    "config,digest",
    _PINNED_STREAMS,
    ids=["trend", "fill-1.5", "fill-2.25", "seed-minus-3"],
)
def test_pinned_stream(config, digest):
    text = serialize_event_log(generate(config()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


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
