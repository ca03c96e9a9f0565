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
from streamseq.generate import SplitMix64, type_labels


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
