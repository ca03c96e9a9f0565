"""The package's public surface: `__all__` is sorted, unique and importable,
and a queue reads the way the benchmark reads it."""

import ast
import importlib.util
from pathlib import Path

import streamseq

# each module imports only modules before it; the package and its
# __main__ sit on top of them all
LAYERS = [
    "errors", "model", "logcache", "occurrence", "mining", "incremental",
    "distance", "tradeoff", "generate", "patternfile", "cli",
]


def test_all_is_sorted_and_unique():
    assert streamseq.__all__ == sorted(set(streamseq.__all__))


def test_every_exported_name_resolves():
    for name in streamseq.__all__:
        assert getattr(streamseq, name) is not None, name


def test_surface_size():
    # labels are plain strings and a queue yields label sets
    for gone in ("EventType", "StreamTuple"):
        assert gone not in streamseq.__all__
        assert not hasattr(streamseq, gone)
    # helpers only tests use stay in their modules, unexported
    for unexported in (
        "as_fraction",
        "SplitMix64",
        "type_labels",
        "min_max_normalize",
        "find_intersections",
    ):
        assert unexported not in streamseq.__all__
        assert not hasattr(streamseq, unexported)
    # the brute-force oracle lives with the tests, not in the package
    assert importlib.util.find_spec("streamseq.oracle") is None
    for gone in ("drop", "shrink_by_one"):
        assert not hasattr(streamseq.Sequence, gone)
    assert len(streamseq.__all__) == 39


def test_a_queue_counts_one_event_per_distinct_record():
    # bench/run.py reports a log's events as sum(len(t) for t in queue)
    text = "# comment\n3,b\n1,a\n3,a\n3,b\n\n7,c\n1,a\n"
    records = {line for line in text.splitlines() if line and line[0] != "#"}
    queue = streamseq.parse_event_log(text)
    assert sum(len(t) for t in queue) == len(records) == 4


def test_modules_import_in_dependency_order():
    package = Path(streamseq.__file__).parent
    files = sorted(package.glob("*.py"))
    assert {f.stem for f in files} == {*LAYERS, "__init__", "__main__"}
    for f in files:
        below = LAYERS[:LAYERS.index(f.stem)] if f.stem in LAYERS else LAYERS
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                for name in names:
                    assert name in below, f"{f.name} imports {name}"
