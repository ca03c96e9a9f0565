"""Trace the counting memory of three seed-1 runs of the benchmark's streams.

    python3 tools/peaks.py [--small]

The runs, with bench/run.py's streams, flags and sizes (--small: its
smoke sizes):

  * deep: a mine of the deep stream's first deep_w0 tuples, DEEP_FLAGS;
  * span256: a mine of its first 4,000 tuples (1,000 with --small), at
    DEEP_FLAGS with --span 256 --max-len 2;
  * sweep: a cost-unit run_sweep of the trend stream, TREND_FLAGS, base
    window trend_w0, increments sweep_deltas.

Traced peaks follow one convention: the queue is generated and its
bitmaps built before tracemalloc starts, and then one call, and only
it, is traced, over windows built fresh for it.  Each run is made twice
over fresh windows: once untraced, counting the calls to
occurrence._walk (through the module attribute), and once traced.  The
tool prints one line per run, its walks and its peak in MiB.

It runs src/streamseq of the checkout that holds it.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc

from same_outputs import _bench  # tools/, the script's own directory, leads sys.path


def _runs(small: bool) -> dict:
    """Each run's name to a function that makes its one call over fresh
    windows; the queues are built, with their bitmaps, before this
    returns."""
    bench = _bench()
    ss = bench.load_streamseq()
    from streamseq import MiningParams, SweepConfig, generate, mine, run_sweep, window

    def params(flags) -> MiningParams:
        parse = ss["cli"].build_parser("mine").parse_args
        return ss["cli"]._mining_params(parse(["mine", "log", "out", "--size", "1", *flags]))

    sizes = bench.SMOKE if small else bench.FULL
    deep = generate(bench.deep_config(ss, 1, sizes.deep_events))
    trend = generate(bench.trend_config(ss, 1, sizes.trend_events, sizes.trend_w0))
    for queue in (deep, trend):
        queue._type_bitmaps()
    deep_params = params(bench.DEEP_FLAGS)
    wide_params = params((*bench.DEEP_FLAGS, "--span", "256", "--max-len", "2"))
    sweep = SweepConfig(sizes.trend_w0, sizes.sweep_deltas, params(bench.TREND_FLAGS))
    return {
        "deep": lambda: mine([window(deep, 0, sizes.deep_w0)], deep_params),
        "span256": lambda: mine([window(deep, 0, 1_000 if small else 4_000)], wide_params),
        "sweep": lambda: run_sweep(trend, sweep),
    }


def walks(call) -> int:
    """The occurrence._walk calls that call() makes."""
    from streamseq import occurrence

    walk, count = occurrence._walk, [0]

    def counting_walk(*args):
        count[0] += 1
        return walk(*args)

    occurrence._walk = counting_walk
    try:
        call()
    finally:
        occurrence._walk = walk
    return count[0]


def peak_mib(call) -> float:
    """The tracemalloc peak of call(), in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true",
                        help="the benchmark's smoke sizes, not its full ones")
    args = parser.parse_args(argv)
    for name, call in _runs(args.small).items():
        print(f"{name}: {walks(call)} walks, peak {peak_mib(call):.3f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
