"""Shared builders for the test suite."""

import importlib
import random

import pytest
from hypothesis import strategies as st

from streamseq import StreamQueue, window


@pytest.fixture
def small_alphabets_only(monkeypatch):
    """Make type_labels refuse a large alphabet, so that code which still
    builds the whole alphabet fails at once instead of allocating it."""
    module = importlib.import_module("streamseq.generate")
    whole = module.type_labels

    def guarded(n_types):
        assert n_types <= 10_000, f"type_labels({n_types}) builds the whole alphabet"
        return whole(n_types)

    monkeypatch.setattr(module, "type_labels", guarded)


def queue_of(*groups):
    """One tuple per group, times 1..n; a group is an iterable of labels."""
    return StreamQueue((i + 1, frozenset(g)) for i, g in enumerate(groups))


def alternating_ab():
    # ({a},{b},{a},{b}) - the hand-checked reference window
    return window(queue_of("a", "b", "a", "b"), 0, 4)


def random_queue(rng: random.Random, n_tuples, alphabet, max_fill=2):
    """Random stream; each tuple gets 1..max_fill distinct types."""
    rows = []
    for i in range(n_tuples):
        k = rng.randint(1, min(max_fill, len(alphabet)))
        rows.append((i + 1, rng.sample(alphabet, k)))
    return StreamQueue(rows)


# event labels are plain strings of any character but a comma and those
# str.isspace() holds for; non-ASCII letters, symbols and controls included
labels = st.text(
    st.characters(blacklist_categories=("Cs",)).filter(
        lambda c: c != "," and not c.isspace()
    ),
    min_size=1,
    max_size=4,
)
