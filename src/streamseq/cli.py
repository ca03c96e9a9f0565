"""Command-line front end.

Five subcommands: gen writes a synthetic event log, mine turns a log
window into a pattern file, update grows a mined window incrementally,
diff compares two pattern files, sweep runs the update-timing analysis.
Exit codes: 0 success, 2 usage (bad flags or parameter domains), 3 data
(parse failures, inconsistent or incompatible inputs, windows that do
not fit the log), 4 I/O.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .errors import ParameterError, StreamSeqError
from .generate import GenConfig, generate
from .incremental import UpdateInput, ius_update
from .mining import MiningParams, mine
from .model import Sequence, parse_event_log, serialize_event_log, window
from .occurrence import CostCounter, CountParams
from .patternfile import dump_pattern_file, load_pattern_file
from .tradeoff import (
    COST_UNITS,
    WALL_CLOCK,
    SweepConfig,
    recommend,
    recommendation_text,
    run_sweep,
    sweep_csv,
)


def _fraction_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")


def _count_flag(text: str) -> int:
    try:
        count = int(text, 10)
        if count >= 0:
            return count
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a count >= 0: {text!r}")


def _sizes_flag(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_count_flag, text.split(",")))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"not a size list: {text!r}")


def _pattern_flag(text: str) -> tuple[str, float]:
    spec, sep, rate_s = text.rpartition("@")
    if not sep:
        raise argparse.ArgumentTypeError(f"pattern needs LABEL+LABEL...@RATE: {text!r}")
    try:
        rate = float(rate_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rate in {text!r}")
    return spec, rate


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StreamSeqError(f"{path}: not UTF-8 text: {exc}") from None


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _mining_params(args: argparse.Namespace) -> MiningParams:
    return MiningParams(
        min_supp=args.min_supp,
        min_nbd_supp=args.min_nbd_supp,
        count_params=CountParams(span=args.span),
        max_len=args.max_len,
    )


def _add_param_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--min-supp", type=_fraction_flag, required=required,
                   help="frequency threshold, e.g. 0.002 or 1/500")
    p.add_argument("--min-nbd-supp", type=_fraction_flag, required=required,
                   help="border threshold, below --min-supp")
    p.add_argument("--span", type=int, required=required,
                   help="sliding sub-window width in tuples")
    p.add_argument("--max-len", type=int, default=None,
                   help="optional cap on mined sequence length")


def cmd_gen(args: argparse.Namespace) -> int:
    def build(pairs):
        return tuple(
            (Sequence.of(*spec.split("+")), rate) for spec, rate in pairs
        )

    cfg = GenConfig(
        n_types=args.types,
        n_events=args.events,
        seed=args.seed,
        tuple_fill=args.fill,
        embedded=build(args.pattern or []),
        drift_at=args.drift_at,
        embedded_after=build(args.pattern_after) if args.pattern_after else None,
    )
    _write_text(args.out, serialize_event_log(generate(cfg)))
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    params = _mining_params(args)
    queue = parse_event_log(_read_text(args.log))
    blocks = []
    at = args.start
    for size in args.size:
        blocks.append(window(queue, at, size))
        at += size
    cost = CostCounter()
    result = mine(blocks, params, cost=cost)
    _write_text(args.out, dump_pattern_file(result))
    sys.stdout.write(
        f"L={len(result.frequent)} NBD={len(result.border)} "
        f"cost_units={cost.window_evaluations}\n"
    )
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    # each flag given must lie in the domain mine checks, whatever the
    # pattern file holds; a lone threshold stands in for the other one,
    # so its domain is (0, 1]
    supp = args.min_supp if args.min_supp is not None else args.min_nbd_supp
    nbd = args.min_nbd_supp if args.min_nbd_supp is not None else supp
    MiningParams(
        min_supp=1 if supp is None else supp,
        min_nbd_supp=1 if nbd is None else nbd,
        count_params=CountParams(span=1 if args.span is None else args.span),
        max_len=args.max_len,
    )
    old = load_pattern_file(_read_text(args.old))
    for flag in ("min_supp", "min_nbd_supp", "span", "max_len"):
        have, want = getattr(args, flag), getattr(old.params, flag)
        if have is not None and have != want:
            raise StreamSeqError(
                f"--{flag.replace('_', '-')} {have} does not match the "
                f"pattern file's {want}"
            )
    queue = parse_event_log(_read_text(args.log))
    start = args.start
    if start is None:
        start = max((end for _, end in old.blocks), default=0)
    dw = window(queue, start, args.size)
    part = mine([dw], old.params)
    result = ius_update(UpdateInput(queue, old, part))
    _write_text(args.out, dump_pattern_file(result))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from .distance import distance, pattern_keys
    from .errors import IncompatiblePatternSetsError

    a = load_pattern_file(_read_text(args.a))
    b = load_pattern_file(_read_text(args.b))
    if a.params != b.params:
        raise IncompatiblePatternSetsError(
            "pattern files were mined under different parameters"
        )
    ka = pattern_keys(a, include_border=args.include_border)
    kb = pattern_keys(b, include_border=args.include_border)
    d = distance(ka, kb)
    sys.stdout.write(
        f"distance={d}\ndecimal={float(d):.6f}\n"
        f"sym_diff={len(ka ^ kb)}\nunion={len(ka | kb)}\n"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if len(args.deltas) < 2:
        raise ParameterError(
            f"--deltas needs at least two sizes to recommend from, "
            f"got {len(args.deltas)}"
        )
    cfg = SweepConfig(
        initial_size=args.initial,
        delta_sizes=args.deltas,
        params=_mining_params(args),
        timing=args.timing,
        repetitions=args.reps,
    )
    queue = parse_event_log(_read_text(args.log))
    points = run_sweep(queue, cfg)
    _write_text(args.csv_out, sweep_csv(points))
    text = recommendation_text(recommend(points, cfg.initial_size))
    _write_text(args.rec_out, text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamseq",
        description="Sequential pattern mining over event streams, with "
        "incremental updates and update-timing analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic event log")
    p.add_argument("out", help="event-log path to write")
    p.add_argument("--types", type=int, required=True, help="alphabet size")
    p.add_argument("--events", type=int, required=True, help="events to emit")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--fill", type=float, default=1.0,
                   help="mean background items per tuple (default 1.0)")
    p.add_argument("--pattern", action="append", type=_pattern_flag,
                   metavar="L+L...@RATE",
                   help="embedded pattern with firings per 1000 tuples; repeatable")
    p.add_argument("--drift-at", type=int, default=None,
                   help="tuple index where --pattern-after takes over")
    p.add_argument("--pattern-after", action="append", type=_pattern_flag,
                   metavar="L+L...@RATE", help="pattern list after the drift point")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("mine", help="mine a log window into a pattern file")
    p.add_argument("log", help="event-log path")
    p.add_argument("out", help="pattern-file path to write")
    p.add_argument("--start", type=_count_flag, default=0,
                   help="window start tuple index")
    p.add_argument("--size", type=_sizes_flag, required=True,
                   help="window size in tuples; a comma list mines "
                   "contiguous blocks (e.g. 20000,2000)")
    _add_param_flags(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("update", help="grow a mined window incrementally")
    p.add_argument("log", help="event-log path")
    p.add_argument("old", help="pattern file of the window mined so far")
    p.add_argument("out", help="pattern-file path to write")
    p.add_argument("--start", type=_count_flag, default=None,
                   help="increment start (default: end of the mined window)")
    p.add_argument("--size", type=_count_flag, required=True,
                   help="increment size in tuples")
    _add_param_flags(p, required=False)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("diff", help="distance between two pattern files")
    p.add_argument("a", help="pattern file")
    p.add_argument("b", help="pattern file")
    p.add_argument("--include-border", action="store_true",
                   help="compare frequent plus border instead of frequent only")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("sweep", help="update-timing sweep and recommendation")
    p.add_argument("log", help="event-log path")
    p.add_argument("csv_out", help="curve CSV path to write")
    p.add_argument("rec_out", help="recommendation key-value path to write")
    p.add_argument("--initial", type=int, required=True, help="base window size")
    p.add_argument("--deltas", type=_sizes_flag, required=True,
                   help="comma list of increment sizes, strictly increasing")
    _add_param_flags(p)
    p.add_argument("--timing", choices=(COST_UNITS, WALL_CLOCK), default=COST_UNITS)
    p.add_argument("--reps", type=int, default=3,
                   help="wall-clock repetitions per measurement (median kept)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StreamSeqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
