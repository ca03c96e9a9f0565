"""Every integer parameter is refused by one rule, in one message shape."""

from fractions import Fraction

import pytest

from streamseq import (
    CountParams, GenConfig, MiningParams, ParameterError, SweepConfig, SweepPoint,
    recommend, window,
)
from streamseq.cli import main

from conftest import queue_of

_PARAMS = MiningParams(1, 1, CountParams(2))
_POINTS = [SweepPoint(d, 20.0, 10.0, Fraction(0)) for d in (10, 20)]
_QUEUE = queue_of("a", "b", "c")


def _gen(**given):
    return GenConfig(**{"n_types": 4, "n_events": 10, "seed": 1, **given})


# the name a refusal gives, the lowest value allowed (None for no bound)
# and a call that passes the value to the parameter
_INTEGERS = {
    "span": ("span", 1, lambda v: CountParams(span=v)),
    "max_len": ("max_len", 1, lambda v: MiningParams(1, 1, CountParams(2), max_len=v)),
    "SweepConfig.initial_size": (
        "initial_size", 1, lambda v: SweepConfig(v, (5, 9), _PARAMS)
    ),
    "delta size": ("every delta size", 1, lambda v: SweepConfig(5, (v, 9), _PARAMS)),
    "repetitions": (
        "repetitions", 1, lambda v: SweepConfig(5, (5, 9), _PARAMS, repetitions=v)
    ),
    "recommend.initial_size": ("initial_size", 1, lambda v: recommend(_POINTS, v)),
    "n_types": ("n_types", 1, lambda v: _gen(n_types=v)),
    "n_events": ("n_events", 1, lambda v: _gen(n_events=v)),
    "drift_at": ("drift_at", 1, lambda v: _gen(drift_at=v, embedded_after=())),
    "seed": ("seed", None, lambda v: _gen(seed=v)),
    "window start": ("window start", None, lambda v: window(_QUEUE, v, 1)),
    "window size": ("window size", None, lambda v: window(_QUEUE, 0, v)),
}


def _refusals():
    for key, (name, low, call) in _INTEGERS.items():
        values = [True, 1.0] if low is None else [True, float(low), low - 1]
        rule = "an int" if low is None else f"an integer >= {low}"
        for value in values:
            message = f"{name} must be {rule}, got {value!r}"
            yield pytest.param(call, value, message, id=f"{key}={value!r}")


@pytest.mark.parametrize("call, value, message", _refusals())
def test_an_integer_parameter_is_refused_in_one_shape(call, value, message):
    with pytest.raises(ParameterError) as caught:
        call(value)
    assert str(caught.value) == message


_MINE = ("L", "out", "--size", "9", "--min-supp", "0.1", "--min-nbd-supp", "0.05")
_SWEEP = ("L", "c", "r", "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "2")


@pytest.mark.parametrize("name, argv", [
    ("span", ("mine", *_MINE, "--span", "0")),
    ("max_len", ("mine", *_MINE, "--span", "2", "--max-len", "0")),
    ("initial_size", ("sweep", *_SWEEP, "--initial", "0", "--deltas", "5,9")),
    ("every delta size", ("sweep", *_SWEEP, "--initial", "9", "--deltas", "0,5")),
    ("repetitions", ("sweep", *_SWEEP, "--initial", "9", "--deltas", "5,9", "--reps", "0")),
    ("n_types", ("gen", "out", "--types", "0", "--events", "9", "--seed", "1")),
])
def test_the_cli_refuses_an_integer_below_1_with_exit_2(
    tmp_path, monkeypatch, capsys, name, argv
):
    # L is never made: each refusal comes before any file is read or written
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 2
    assert capsys.readouterr() == ("", f"error: {name} must be an integer >= 1, got 0\n")
    assert list(tmp_path.iterdir()) == []
