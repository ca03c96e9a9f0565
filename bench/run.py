#!/usr/bin/env python3
"""The streamseq benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload trend-grow --seed 1 --seconds 20 --trace 0

It generates the workload's event log from --seed, writes it under
.bench_run/, and then drives the program only through
streamseq.cli.main(argv), in this process, with one thread and no
subprocess.  Every call is checked; a call that exits non-zero or fails
its output check counts as a failed op.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  A fuller record (environment, input sizes, sample
counts, diagnostics and, when traced, every span) is written to
.bench_run/<workload>-seed<seed>-trace<t>.json.

bench/README.md says why each workload exists and how to read the
figures.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_run"
# metric names and units, in the order they are printed
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUPS = 5              # set-ups per run; setup_s is their median
TAIL_BEYOND = 10        # a reported tail percentile has this many samples above it

# The speed of a shared host drifts by tens of percent within seconds, so
# the wall time of an op measures the host as much as the program.  While
# an op runs, an interval timer interrupts it every PROBE_EVERY_S to time a
# fixed probe that the program never runs; the op's time between probes
# is rescaled to the speed at which the probe takes PROBE_NOMINAL_S, and
# the probes themselves are left out.  PROBE_NOMINAL_S is the probe's
# median on a quiet 2-vCPU Xeon 2.1 GHz host with Python 3.11, so there
# normalized seconds read as wall seconds.
PROBE_EVERY_S = 0.1
PROBE_NOMINAL_S = 0.0010
_PROBE_TEXT = "\n".join(f"{i},E{(i * 7919) % 193:03d}" for i in range(2_500))


def probe() -> tuple[float, float]:
    """Start and end of a parse, group, sort and bisect kernel over fixed text."""
    t0 = time.perf_counter()
    groups: dict[str, list[int]] = {}
    for line in _PROBE_TEXT.splitlines():
        ts, _, label = line.partition(",")
        groups.setdefault(label, []).append(int(ts))
    total = 0
    for _, xs in sorted(groups.items()):
        for x in xs[::8]:
            total += bisect.bisect_right(xs, x + 5)
    return t0, time.perf_counter()


class HostClock:
    """Times one op in wall seconds and in normalized seconds.

    Probes run at entry, on every SIGALRM while the op runs (in this
    thread, between bytecodes) and at exit.  Each stretch between two
    probes is charged at the mean speed the two probes measured.
    """

    def __enter__(self) -> HostClock:
        self.probes = [probe()]
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(probe())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.probes.append(probe())
        self.wall = self.normalized = 0.0
        for (a0, a1), (b0, b1) in zip(self.probes, self.probes[1:]):
            stretch = b0 - a1
            self.wall += stretch
            self.normalized += stretch * PROBE_NOMINAL_S / (((a1 - a0) + (b1 - b0)) / 2)


TREND_FLAGS = ("--min-supp", "1/10", "--min-nbd-supp", "3/100", "--span", "4", "--max-len", "4")
# At span 32 two planted patterns share a window with probability about
# 1/4, so at --min-supp 1/4 cross-pattern sequences are frequent on some
# seeds and not on others, and mining work swings eightfold with the seed.
# At 3/8 the base window holds exactly the planted subsequences
# (24/60/80/60/24), and 2000-tuple increments hold few extra pairs.
DEEP_FLAGS = ("--span", "32", "--min-supp", "3/8", "--min-nbd-supp", "1/8", "--max-len", "5")
DEEP_PLANTED = tuple(
    tuple(f"E{i:03d}" for i in range(k, k + 6)) for k in (1, 7, 13, 19)
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark measures, SMOKE checks it."""

    trend_events: int = 100_000
    trend_w0: int = 20_000          # also the trend stream's drift point
    sweep_deltas: tuple[int, ...] = tuple(2_000 * i for i in range(1, 10))
    grow_step: int = 1_000
    grow_steps: int = 10
    grow_check_every: int = 5
    deep_events: int = 50_000
    deep_w0: int = 20_000
    deep_delta: int = 2_000
    deep_bases: tuple[int, ...] = (0, 3_000, 6_000)


FULL = Sizes()
SMOKE = Sizes(
    trend_events=10_000,
    trend_w0=2_000,
    sweep_deltas=tuple(200 * i for i in range(1, 10)),
    grow_step=100,
    grow_steps=4,
    grow_check_every=2,
    deep_events=8_000,
    deep_w0=3_000,
    deep_delta=1_000,
    deep_bases=(0, 300, 600),
)


def load_streamseq():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "streamseq" / "__init__.py").is_file():
        sys.exit(f"bench: {src}/streamseq not found; run from a full checkout")
    sys.path.insert(0, str(src))
    return {
        name: importlib.import_module(f"streamseq.{name}")
        for name in ("cli", "generate", "model")
    }


# -- inputs -----------------------------------------------------------------


def trend_config(ss, seed: int, n_events: int, drift_at: int):
    """The acceptance trend stream (tests/test_acceptance.py, _trend_config)."""
    Sequence = ss["model"].Sequence

    def seqs(*specs):
        return tuple((Sequence.of(*labels), float(rate)) for labels, rate in specs)

    pre = seqs(
        *[((f"E{i:03d}",), 80) for i in range(1, 15)],
        (("E001", "E002"), 24),
        (("E003", "E004"), 31),
        (("E005", "E006"), 39),
        (("E007", "E008"), 47),
        (("E011", "E012"), 10),
        (("E009", "E010"), 8),
    )
    post = seqs(
        *[((f"E{i:03d}",), 80) for i in range(9, 15)],
        (("E011", "E012"), 120),
        (("E009", "E010"), 60),
    )
    return ss["generate"].GenConfig(
        n_types=194, n_events=n_events, seed=seed, tuple_fill=1.0,
        embedded=pre, drift_at=drift_at, embedded_after=post,
    )


def deep_config(ss, seed: int, n_events: int):
    """194 types and four disjoint length-6 patterns at 25 per 1000 tuples."""
    Sequence = ss["model"].Sequence
    return ss["generate"].GenConfig(
        n_types=194, n_events=n_events, seed=seed, tuple_fill=1.0,
        embedded=tuple((Sequence.of(*p), 25.0) for p in DEEP_PLANTED),
    )


# -- ops --------------------------------------------------------------------


@dataclass
class Op:
    oid: int
    kind: str                       # "setup", "mine", "update" or "sweep"
    cycle: int                      # -1 for set-up and prelude ops
    traced: bool
    seconds: float = 0.0            # wall time, probes left out
    normalized: float = 0.0         # seconds at the probe's nominal speed
    probes: int = 0
    exit: int = 0
    stdout: str = ""
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def set_times(self, clock: HostClock) -> None:
        self.seconds, self.normalized = clock.wall, clock.normalized
        self.probes = len(clock.probes)


class Run:
    """The ops of one benchmark run, and the checks on their outputs."""

    def __init__(self, ss, work: Path, sizes: Sizes) -> None:
        self.ss = ss
        self.work = work
        self.sizes = sizes
        self.log = work / "events.log"
        self.ops: list[Op] = []
        self.cycle = -1
        self.tracer = None          # a spans.Tracer while tracing
        self.border_gaps = 0
        self.pairs: list[tuple[str, Op, Op]] = []   # (window grown, update, re-mine)
        self._seen: dict[str, bytes] = {}

    def _new_op(self, kind: str) -> Op:
        op = Op(len(self.ops), kind, self.cycle, self.tracer is not None)
        self.ops.append(op)
        return op

    def _op_span(self, op: Op, name: str):
        if self.tracer is None:
            return contextlib.nullcontext(None)
        return self.tracer.op(op.oid, name, {"cmd": op.kind})

    def setup(self, cfg) -> Op:
        """Generate the log and write it; the program only reads the file."""
        gen, model = self.ss["generate"], self.ss["model"]
        op = self._new_op("setup")
        with self._op_span(op, "bench.setup"), HostClock() as clock:
            text = model.serialize_event_log(gen.generate(cfg))
            self.log.write_text(text, encoding="utf-8")
        op.set_times(clock)
        self.same_as_before(op, "events.log", text.encode("utf-8"))
        return op

    def cli(self, kind: str, *argv) -> Op:
        op = self._new_op(kind)
        argv = [kind, *(str(a) for a in argv)]
        out, err = io.StringIO(), io.StringIO()
        with self._op_span(op, "cli.main") as span:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    HostClock() as clock:
                try:
                    code = self.ss["cli"].main(argv)
                except Exception:
                    # what the process would exit with; the run goes on
                    traceback.print_exc()
                    code = 1
            if span is not None:
                span.attrs["exit"] = code
        op.set_times(clock)
        op.exit = code
        op.stdout = out.getvalue()
        if code != 0:
            op.failures.append(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return op

    def same_as_before(self, op: Op, key: str, data: bytes) -> None:
        """Every rep of a deterministic output must match the first."""
        first = self._seen.setdefault(key, data)
        if first != data:
            op.failures.append(f"{key} differs from its first rep")

    def compare_with_remine(self, op: Op, updated: Path, rm: Op, remined: Path,
                            grown: str) -> None:
        """The update's L section must equal the re-mine's byte for byte.

        A border mismatch is outside the frequent-only guarantee, so it is
        counted, not failed.
        """
        def section(path: Path, tag: str) -> list[str]:
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            return [l for l in lines if l.startswith(tag + "\t")]

        if section(updated, "L") != section(remined, "L"):
            op.failures.append(f"{updated.name}: L section differs from re-mine {remined.name}")
        if section(updated, "NBD") != section(remined, "NBD"):
            self.border_gaps += 1
        self.pairs.append((grown, op, rm))


def mine_fields(op: Op) -> dict[str, str]:
    """The key=value fields `streamseq mine` prints."""
    return dict(tok.partition("=")[::2] for tok in op.stdout.split())


def mine_stdout_ok(op: Op) -> None:
    fields = mine_fields(op)
    if set(fields) != {"L", "NBD", "cost_units"} or not all(v.isdigit() for v in fields.values()):
        op.failures.append(f"unexpected mine output {op.stdout!r}")


# -- workloads --------------------------------------------------------------


class Workload:
    name = ""
    timed = ""          # the command whose calls give call_s
    stream = ""         # "trend" or "deep"

    def config(self, ss, seed: int, sizes: Sizes):
        if self.stream == "trend":
            return trend_config(ss, seed, sizes.trend_events, sizes.trend_w0)
        return deep_config(ss, seed, sizes.deep_events)

    def prelude(self, run: Run) -> None:
        pass

    def cycle(self, run: Run) -> None:
        raise NotImplementedError


class TrendSweep(Workload):
    """The paper's headline computation: one cost-unit sweep per cycle."""

    name, timed, stream = "trend-sweep", "sweep", "trend"

    def cycle(self, run: Run) -> None:
        s = run.sizes
        csv, rec = run.work / "curves.csv", run.work / "rec.txt"
        op = run.cli(
            "sweep", run.log, csv, rec, "--initial", s.trend_w0,
            "--deltas", ",".join(map(str, s.sweep_deltas)), *TREND_FLAGS,
        )
        if not op.ok:
            return
        rows = csv.read_text(encoding="utf-8").splitlines()
        if [r.split(",")[0] for r in rows[1:]] != [str(d) for d in s.sweep_deltas]:
            op.failures.append("sweep CSV rows do not match the deltas")
        rec_text = rec.read_text(encoding="utf-8")
        if op.stdout != rec_text or not rec_text.startswith("crossing_x="):
            op.failures.append("recommendation file and stdout disagree")
        run.same_as_before(op, "curves.csv", csv.read_bytes())
        run.same_as_before(op, "rec.txt", rec_text.encode("utf-8"))


class TrendGrow(Workload):
    """The deployed loop: mine once, then a chain of small updates."""

    name, timed, stream = "trend-grow", "update", "trend"

    def cycle(self, run: Run) -> None:
        s = run.sizes
        prev = run.work / "grow0.p"
        op = run.cli("mine", run.log, prev, "--size", s.trend_w0, *TREND_FLAGS)
        if op.ok:
            mine_stdout_ok(op)
            run.same_as_before(op, prev.name, prev.read_bytes())
        sizes = [s.trend_w0]
        for step in range(1, s.grow_steps + 1):
            out = run.work / f"grow{step}.p"
            up = run.cli("update", run.log, prev, out, "--size", s.grow_step)
            sizes.append(s.grow_step)
            if up.ok:
                run.same_as_before(up, out.name, out.read_bytes())
            if step % s.grow_check_every == 0:
                remined = run.work / "grow-remine.p"
                rm = run.cli(
                    "mine", run.log, remined, "--size", ",".join(map(str, sizes)),
                    *TREND_FLAGS,
                )
                if rm.ok:
                    mine_stdout_ok(rm)
                if up.ok and rm.ok:
                    run.compare_with_remine(up, out, rm, remined,
                                            f"0:{s.trend_w0}+{sum(sizes[1:])}")
            prev = out


class DeepSpan(Workload):
    """Level-wise mining at span 32 with frequent sequences up to length 5."""

    name, timed, stream = "deep-span", "mine", "deep"

    def cycle(self, run: Run) -> None:
        s = run.sizes
        out = run.work / "deep0.p"
        op = run.cli("mine", run.log, out, "--size", s.deep_w0, *DEEP_FLAGS)
        if not op.ok:
            return
        mine_stdout_ok(op)
        text = out.read_text(encoding="utf-8")
        run.same_as_before(op, out.name, text.encode("utf-8"))
        run.same_as_before(op, "deep0.stdout", op.stdout.encode("utf-8"))
        frequent = {
            tuple(line.split("\t")[1:-1])
            for line in text.splitlines() if line.startswith("L\t")
        }
        for planted in DEEP_PLANTED:
            for i in range(len(planted)):
                sub = planted[:i] + planted[i + 1:]
                if sub not in frequent:
                    op.failures.append(f"planted subsequence {'+'.join(sub)} not mined")


class DeepGrow(Workload):
    """Updates at span 32, each checked against a re-mine of its grown window.

    How much an increment costs depends on which sequences happen to be
    frequent in it, and a 2000-tuple increment is a small sample: on some
    seeds it holds twice the frequent pairs of the base.  Each cycle
    therefore updates three windows of the same stream, so that call_s, a
    median over all of them, follows the code and not one increment.
    """

    name, timed, stream = "deep-grow", "update", "deep"

    def prelude(self, run: Run) -> None:
        s = run.sizes
        self.remines: dict[int, Op] = {}
        for base in s.deep_bases:
            for path, size in ((f"base{base}.p", str(s.deep_w0)),
                               (f"remine{base}.p", f"{s.deep_w0},{s.deep_delta}")):
                op = run.cli("mine", run.log, run.work / path, "--start", base,
                             "--size", size, *DEEP_FLAGS)
                if op.ok:
                    mine_stdout_ok(op)
            self.remines[base] = op

    def cycle(self, run: Run) -> None:
        s = run.sizes
        for base in s.deep_bases:
            out = run.work / f"grown{base}.p"
            op = run.cli("update", run.log, run.work / f"base{base}.p", out,
                         "--size", s.deep_delta)
            if not op.ok:
                continue
            run.same_as_before(op, out.name, out.read_bytes())
            remine = self.remines[base]
            if remine.ok:
                run.compare_with_remine(op, out, remine, run.work / f"remine{base}.p",
                                        f"{base}:{base + s.deep_w0}+{s.deep_delta}")
            else:
                op.failures.append("no re-mine to compare with")


WORKLOADS = {w.name: w for w in (TrendSweep, TrendGrow, DeepSpan, DeepGrow)}


# -- measurement ------------------------------------------------------------


def run_cycles(workload: Workload, run: Run, seconds: float, count: int | None = None):
    """Whole cycles until `seconds` have passed (or exactly `count`)."""
    t0 = time.perf_counter()
    done = 0
    while True:
        run.cycle += 1
        workload.cycle(run)
        done += 1
        elapsed = time.perf_counter() - t0
        if (count is not None and done >= count) or (count is None and elapsed >= seconds):
            return done, elapsed


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    i = len(xs) - TAIL_BEYOND - 1
    if i < 0:
        return None
    return {"value": xs[i], "percentile": round(100 * (i + 1) / len(xs), 1),
            "samples": len(xs), "beyond": TAIL_BEYOND}


def timing_summary(ops: list[Op]) -> dict:
    """Median and tail of the untraced op times, per kind of op.

    median and tail are in normalized seconds; wall_median and the value
    lists keep what the clock read.
    """
    by_kind = defaultdict(list)
    for op in ops:
        if (op.cycle >= 0 or op.kind == "setup") and not op.traced:
            by_kind[op.kind].append(op)
    out = {}
    for kind, group in sorted(by_kind.items()):
        norm = [op.normalized for op in group]
        out[kind] = {
            "median": statistics.median(norm),
            "tail": tail(norm),
            "samples": len(group),
            "wall_median": statistics.median(op.seconds for op in group),
            "wall_s": [op.seconds for op in group],
            "normalized_s": norm,
            "probes": [op.probes for op in group],
        }
    return out


def input_sizes(run: Run) -> dict:
    text = run.log.read_text(encoding="utf-8")
    queue = run.ss["model"].parse_event_log(text)
    return {"tuples": len(queue), "events": sum(len(t) for t in queue),
            "log_bytes": len(text.encode("utf-8"))}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, sizes: Sizes,
            ss) -> dict:
    work = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(ss, work, sizes)
    cfg = workload.config(ss, seed, sizes)
    record: dict = {"workload": workload.name, "seed": seed, "trace": int(trace),
                    "run_seconds": seconds, "environment": environment()}

    if not trace:
        for _ in range(SETUPS):
            run.setup(cfg)
        record["rss_after_setup_mb"] = peak_rss_mb()
        workload.prelude(run)
        cycles, wall = run_cycles(workload, run, seconds)
        record["timings"] = timing_summary(run.ops)
        values = {
            "setup_s": record["timings"]["setup"]["median"],
            "call_s": record["timings"][workload.timed]["median"],
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        tracer = Tracer()
        run.tracer = tracer
        with tracer.installed():
            for _ in range(SETUPS):
                run.setup(cfg)
            workload.prelude(run)
        run.tracer = None
        cycles, _ = run_cycles(workload, run, seconds / 2)
        run.tracer = tracer
        with tracer.installed():
            first_traced = run.cycle + 1
            _, wall = run_cycles(workload, run, 0, count=cycles)
        run.tracer = None
        record["timings"] = timing_summary(run.ops)
        values, diagnostics = layer_report(
            run, tracer, workload, first_traced, cycles, wall,
        )
        record["diagnostics"] = diagnostics
        record["spans"] = [s.as_json() for s in tracer.spans]

    record["cycles"] = cycles
    record["measured_s"] = wall
    record["input"] = input_sizes(run)
    record["border_gaps"] = run.border_gaps
    failed = [op for op in run.ops if not op.ok]
    record["failures"] = [f"op {op.oid} ({op.kind}): {m}" for op in failed for m in op.failures]
    record["result"] = {
        "correct": not failed,
        "attempted": len(run.ops),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer" if trace else "end_to_end"]
        },
    }
    shutil.rmtree(work)         # the record is kept, the calls' files are not
    return record


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- per-layer report -------------------------------------------------------

LEVELS = range(1, 6)


def layer_totals(spans, own, by_id, op_ids) -> dict[str, float]:
    """Per-layer self times and counts over the spans of the given ops."""
    t: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.op not in op_ids:
            continue
        self_s = own[s.sid]
        a = s.attrs
        parent = by_id.get(s.parent)
        pname = parent.name if parent is not None else ""
        name = s.name
        if name == "model.parse":
            t["model.parse_s"] += self_s
            t["model.parse_calls"] += 1
        elif name == "model.index_build":
            t["model.index_build_s"] += self_s
            t["model.index_builds"] += 1
        elif name == "model.serialize":
            t["model.serialize_s"] += self_s
        elif name == "generate.generate":
            t["generate.generate_s"] += self_s
        elif name == "occurrence.count":
            t["occurrence.count_s"] += self_s
            t["occurrence.scans"] += a["scans"]
            t["occurrence.window_evaluations"] += a["evals"]
            if pname == "mining.mine":
                t["mining.count_s"] += self_s
                t[f"mining.candidates.L{a['len']}"] += 1
            elif pname == "incremental.update":
                t["incremental.rescan_s"] += self_s
                t[f"incremental.rescans.{a.get('side', 'delta')}"] += 1
        elif name == "mining.mine":
            t["mining.self_s"] += self_s
            for section in ("frequent", "border"):
                for m, n in enumerate(a.get(section, ()), start=1):
                    t[f"mining.{section}.L{m}"] += n
            if "kind" in a:
                t[f"tradeoff.{a['kind']}_mine_s"] += s.end - s.start
        elif name == "mining.join":
            t["mining.join_s"] += self_s
        elif name == "incremental.update":
            t["incremental.self_s"] += self_s
            t["incremental.lookup_hits"] += a.get("hits", 0)
            if pname == "tradeoff.sweep":
                t["tradeoff.update_s"] += s.end - s.start
        elif name == "patternfile.load":
            t["patternfile.load_s"] += self_s
            t["patternfile.bytes"] += a["bytes"]
        elif name == "patternfile.dump":
            t["patternfile.dump_s"] += self_s
            t["patternfile.bytes"] += a.get("bytes", 0)
        elif s.layer == "tradeoff":
            t["tradeoff.self_s"] += self_s
        elif name == "cli.main":
            t["cli.self_s"] += self_s
            t[f"cli.exit.{a.get('exit')}"] += 1
            t["ops_s"] += s.end - s.start
    return t


COUNT_KEYS = (
    ["occurrence.scans", "occurrence.window_evaluations", "mining.counted",
     "incremental.lookup_hits", "incremental.rescans.old", "incremental.rescans.delta",
     "model.parse_calls", "model.index_builds"]
    + [f"mining.{k}.L{m}" for k in ("candidates", "frequent", "border") for m in LEVELS]
)


def evals_under(span, children) -> int:
    total = 0
    stack = [span]
    while stack:
        s = stack.pop()
        if s.name == "occurrence.count":
            total += s.attrs["evals"]
        stack.extend(children.get(s.sid, ()))
    return total


def layer_report(run: Run, tracer, workload: Workload, first_traced: int, cycles: int,
                 wall: float):
    """Per-layer values per cycle (per set-up for the set-up's layers)."""
    spans = tracer.spans
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    ops_by_id = {op.oid: op for op in run.ops}
    traced_cycle_ops = defaultdict(set)
    for op in run.ops:
        if op.traced and op.cycle >= first_traced:
            traced_cycle_ops[op.cycle].add(op.oid)

    # Deterministic counts must repeat exactly from cycle to cycle.
    per_cycle = []
    for cyc, ids in sorted(traced_cycle_ops.items()):
        t = layer_totals(spans, own, by_id, ids)
        t["mining.counted"] = sum(t[f"mining.candidates.L{m}"] for m in LEVELS)
        per_cycle.append((cyc, t))
    _, first = per_cycle[0]
    for cyc, t in per_cycle[1:]:
        moved = [k for k in COUNT_KEYS if t[k] != first[k]]
        if moved:
            ops_by_id[min(traced_cycle_ops[cyc])].failures.append(
                f"cycle {cyc} counts differ from cycle {per_cycle[0][0]}: {moved}")

    # Every traced mine's counted window evaluations equal its cost_units=.
    for op in run.ops:
        if op.traced and op.kind == "mine" and op.exit == 0:
            fields = mine_fields(op)
            root = next(s for s in spans if s.op == op.oid and s.name == "cli.main")
            counted = evals_under(root, children)
            if str(counted) != fields.get("cost_units"):
                op.failures.append(f"traced window evaluations {counted} != "
                         f"cost_units={fields.get('cost_units')}")

    total: dict[str, float] = defaultdict(float)
    for _, t in per_cycle:
        for k, v in t.items():
            total[k] += v
    per = defaultdict(float, {k: v / cycles for k, v in total.items()})
    setup_ids = {op.oid for op in run.ops if op.kind == "setup"}
    setup = layer_totals(spans, own, by_id, setup_ids)
    n_setups = len(setup_ids)

    def ratio(num, den):
        return num / den if den else 0.0

    layer_time_keys = [
        "model.parse_s", "model.index_build_s", "occurrence.count_s", "mining.self_s",
        "mining.join_s", "incremental.self_s", "patternfile.load_s", "patternfile.dump_s",
        "tradeoff.self_s", "cli.self_s",
    ]
    traced_wall = wall / cycles
    # Overhead compares normalized op time, so host drift between the two
    # halves of the run does not read as tracing cost.
    untraced = sum(op.normalized for op in run.ops if op.cycle >= 0 and not op.traced)
    traced = sum(op.normalized for op in run.ops if op.cycle >= first_traced)
    useful = sum(per[f"mining.{k}.L{m}"] for k in ("frequent", "border") for m in LEVELS)
    hits = per["incremental.lookup_hits"]
    rescans = per["incremental.rescans.old"] + per["incremental.rescans.delta"]
    values = defaultdict(float, per)
    values.update({
        "model.serialize_s": setup["model.serialize_s"] / n_setups,
        "generate.generate_s": setup["generate.generate_s"] / n_setups,
        "mining.useful_ratio": ratio(useful, per["mining.counted"]),
        "incremental.hit_ratio": ratio(hits, hits + rescans),
        "incremental.border_gaps": run.border_gaps,
        "bench.self_s": traced_wall - per["ops_s"],
        "trace.wall_s": traced_wall,
        "trace.accounted_share": ratio(sum(per[k] for k in layer_time_keys), traced_wall),
        "trace.overhead_s": (traced - untraced) / cycles,
        "trace.overhead_share": ratio(traced - untraced, untraced),
    })

    diagnostics = {
        "speedups": speedups(run, workload, spans, children),
        "layer_shares": {k: ratio(per[k], traced_wall) for k in layer_time_keys},
        "counts_per_cycle": {k: first[k] for k in COUNT_KEYS},
    }
    return values, diagnostics


def speedups(run: Run, workload: Workload, spans, children) -> list[dict]:
    """Cost-unit and wall speedup of update over full re-mine, per grown window.

    For ROADMAP S5 calibration only; a ratio is no end-to-end metric.
    """
    def entry(grown, full, upd):
        full_cost, upd_cost = evals_under(full, children), evals_under(upd, children)
        full_s, upd_s = full.end - full.start, upd.end - upd.start
        return {
            "window": grown,
            "full_cost": full_cost,
            "update_cost": upd_cost,
            "cost_speedup": full_cost / upd_cost if upd_cost else None,
            "full_wall_s": full_s,
            "update_wall_s": upd_s,
            "wall_speedup": full_s / upd_s if upd_s else None,
        }

    def first_named(op: Op, name: str):
        return next((s for s in spans if s.op == op.oid and s.name == name), None)

    out = []
    if workload.name == "trend-sweep":
        sweep = next((s for s in spans if s.name == "tradeoff.sweep"), None)
        if sweep is None:
            return out
        kids = children[sweep.sid]
        fulls = [s for s in kids if s.name == "mining.mine" and s.attrs.get("kind") == "full"]
        upds = [s for s in kids if s.name == "incremental.update"]
        rows = (run.work / "curves.csv").read_text(encoding="utf-8").splitlines()[1:]
        op = run.ops[sweep.op]
        for delta, full, upd, row in zip(run.sizes.sweep_deltas, fulls, upds, rows):
            e = entry(f"0:{run.sizes.trend_w0}+{delta}", full, upd)
            out.append(e)
            # the sweep's own cost-unit speedup, recomputed from outside
            if e["cost_speedup"] is None or f"{e['cost_speedup']:.6f}" != row.split(",")[1]:
                op.failures.append(f"traced cost speedup {e['cost_speedup']} at delta "
                         f"{delta} disagrees with the sweep CSV row {row!r}")
        return out
    seen = set()
    for grown, up, rm in run.pairs:
        if grown in seen or not (up.traced and rm.traced):
            continue
        full, upd = first_named(rm, "mining.mine"), first_named(up, "incremental.update")
        if full is not None and upd is not None:
            seen.add(grown)
            out.append(entry(grown, full, upd))
    return out


# -- entry point ------------------------------------------------------------


def summary_lines(record: dict, workload: Workload) -> list[str]:
    env, inp, res = record["environment"], record["input"], record["result"]
    lines = [
        f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"python={env['python']} nproc={env['nproc']} run_seconds={record['run_seconds']} "
        f"cycles={record['cycles']} measured_s={record['measured_s']:.3f}",
        f"input: tuples={inp['tuples']} events={inp['events']} log_bytes={inp['log_bytes']}",
    ]
    for kind, t in record["timings"].items():
        tl = t["tail"]
        tail_text = (f"p{tl['percentile']} {tl['value']:.4f} ({tl['beyond']} beyond)"
                     if tl else f"no tail (needs {TAIL_BEYOND + 1} samples)")
        mark = {"setup": " [setup_s]", workload.timed: " [call_s]"}.get(kind, "")
        lines.append(f"{kind}: median {t['median']:.4f} normalized s over {t['samples']}, "
                     f"{tail_text}; wall median {t['wall_median']:.4f} s{mark}")
    ratio = res["failed"] / res["attempted"]
    lines.append(f"op_fail_ratio={ratio:g} ({res['failed']}/{res['attempted']}) "
                 f"border_gaps={record['border_gaps']}")
    for e in record.get("diagnostics", {}).get("speedups", ()):
        cs, ws = e["cost_speedup"], e["wall_speedup"]
        lines.append(f"diag window={e['window']} incremental.cost_speedup="
                     f"{cs if cs is None else round(cs, 4)} incremental.wall_speedup="
                     f"{ws if ws is None else round(ws, 4)}")
    for failure in record["failures"][:20]:
        lines.append(f"FAILED {failure}")
    for name, m in res["metrics"].items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke runs reduced inputs to check the benchmark itself")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    ss = load_streamseq()
    workload = WORKLOADS[args.workload]()
    sizes = FULL if args.scale == "full" else SMOKE
    record = measure(workload, args.seed, args.seconds, bool(args.trace), sizes, ss)
    record["scale"] = args.scale
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in summary_lines(record, workload):
        print(line)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
