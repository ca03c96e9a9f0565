"""The package's public surface: `__all__` is sorted, unique and importable."""

import streamseq


def test_all_is_sorted_and_unique():
    assert streamseq.__all__ == sorted(set(streamseq.__all__))


def test_every_exported_name_resolves():
    for name in streamseq.__all__:
        assert getattr(streamseq, name) is not None, name


def test_surface_size():
    # EventType went when labels became plain strings
    assert "EventType" not in streamseq.__all__
    assert not hasattr(streamseq, "EventType")
    assert len(streamseq.__all__) == 45
