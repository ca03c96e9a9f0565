"""Outside-in tracing of the streamseq layers.

Tracer.installed() replaces public functions of the package's modules
with wrappers that record one span per call: a name, start and end
times, the enclosing span and the benchmark op it belongs to.  Nothing
in the package is edited; the wrappers are bound in every streamseq
module namespace that holds the original function (modules import each
other's functions by name), and removed again on exit.

Spans stay in memory and are written out once the run ends.  Counts
that need no timing (stored-count hits) are kept as attributes of the
innermost open span, so every figure can be grouped by op.

A layer is the module a span's name starts with.  A span's self time is
its duration minus the durations of its direct children; the self times
of all spans under one op add up to that op's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

MAX_LEVEL = 5


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, sid, name, start, parent, op, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    def as_json(self) -> dict:
        out = {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }
        attrs = {k: v for k, v in self.attrs.items() if not k.startswith("_")}
        if attrs:
            out["attrs"] = attrs
        return out


class Tracer:
    """Collects spans for the ops the benchmark runs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: int | None = None
        self._indexed: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            name,
            time.perf_counter(),
            None if parent is None else parent.sid,
            self._op,
            {} if attrs is None else attrs,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def op(self, op_id: int, name: str, attrs: dict | None = None):
        """A root span for one benchmark op; its id tags every child."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        self._op = op_id
        self._indexed = {}
        span = self.open(name, attrs)
        try:
            yield span
        finally:
            self.close(span)
            self._op = None
            self._indexed = {}

    def _parent(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if before is not None:
                args = before(attrs, args)
            span = tracer.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(attrs, args, result)
            return result

        return wrapper

    def _count_before(self, attrs, args):
        seq, blocks, params, *rest = args
        parent = self._parent()
        inp = None if parent is None else parent.attrs.get("_input")
        if inp is not None:
            attrs["side"] = "old" if blocks is inp.old_blocks else "delta"
        blocks = list(blocks)
        span = params.span
        attrs["len"] = len(seq)
        attrs["scans"] = len(blocks)
        attrs["evals"] = sum(max(0, b.size - span + 1) for b in blocks)
        return (seq, blocks, params, *rest)

    def _mine_before(self, attrs, args):
        blocks = list(args[0])
        parent = self._parent()
        if parent is not None and parent.name == "tradeoff.sweep":
            if len(blocks) > 1:
                attrs["kind"] = "full"
            elif blocks and blocks[0].start == 0:
                attrs["kind"] = "base"
            else:
                attrs["kind"] = "delta"
        return (blocks, *args[1:])

    @staticmethod
    def _mine_after(attrs, args, result):
        for section, family in (("frequent", result.frequent), ("border", result.border)):
            per_len = [0] * MAX_LEVEL
            for seq in family:
                if len(seq) <= MAX_LEVEL:
                    per_len[len(seq) - 1] += 1
            attrs[section] = per_len

    def _update_before(self, attrs, args):
        attrs["_input"] = args[0]
        return args

    @staticmethod
    def _update_after(attrs, args, result):
        attrs.pop("_input", None)

    @staticmethod
    def _text_in(attrs, args):
        attrs["bytes"] = len(args[0])
        return args

    @staticmethod
    def _text_out(attrs, args, result):
        attrs["bytes"] = len(result)

    def _positions(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(queue, item):
            key = id(queue)
            if tracer._op is None or key in tracer._indexed:
                return fn(queue, item)
            # The first lookup on a queue builds its whole index; keep the
            # queue referenced so its id is not reused within the op.
            tracer._indexed[key] = queue
            span = tracer.open("model.index_build")
            try:
                return fn(queue, item)
            finally:
                tracer.close(span)

        return wrapper

    def _stored_count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(pattern_set, seq):
            result = fn(pattern_set, seq)
            parent = tracer._parent()
            if parent is not None and result is not None:
                parent.attrs["hits"] = parent.attrs.get("hits", 0) + 1
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _bind(self, original, wrapper) -> None:
        """Bind wrapper wherever a streamseq module holds original."""
        for name, module in list(sys.modules.items()):
            if name != "streamseq" and not name.startswith("streamseq."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _bind_method(self, cls, attr, make) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    @contextmanager
    def installed(self):
        """Wrap the package's public functions for the duration."""
        # import_module, not "from streamseq import": the package binds the
        # name generate to the function, shadowing the module.
        generate, incremental, mining, model, occurrence, patternfile, tradeoff = (
            importlib.import_module(f"streamseq.{name}")
            for name in ("generate", "incremental", "mining", "model", "occurrence",
                         "patternfile", "tradeoff")
        )

        plan = [
            (model, "parse_event_log", "model.parse", None, None),
            (model, "serialize_event_log", "model.serialize", None, None),
            (generate, "generate", "generate.generate", None, None),
            (occurrence, "occur_partitioned", "occurrence.count", self._count_before, None),
            (mining, "mine", "mining.mine", self._mine_before, self._mine_after),
            (mining, "gen_candidates", "mining.join", None, None),
            (incremental, "ius_update", "incremental.update",
             self._update_before, self._update_after),
            (patternfile, "load_pattern_file", "patternfile.load", self._text_in, None),
            (patternfile, "dump_pattern_file", "patternfile.dump", None, self._text_out),
            (tradeoff, "run_sweep", "tradeoff.sweep", None, None),
            (tradeoff, "recommend", "tradeoff.recommend", None, None),
            (tradeoff, "sweep_csv", "tradeoff.csv", None, None),
            (tradeoff, "recommendation_text", "tradeoff.text", None, None),
        ]
        try:
            for module, attr, name, before, after in plan:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._bind(original, self._spanned(name, original, before, after))
            self._bind_method(model.StreamQueue, "positions", self._positions)
            self._bind_method(mining.PatternSet, "stored_count", self._stored_count)
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo = []


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own
