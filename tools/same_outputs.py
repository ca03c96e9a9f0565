"""Check that this checkout and another one give the same outputs.

    python3 tools/same_outputs.py OTHER [--small]

OTHER is the root of another checkout of this repository.  Each tree
runs one child process with its own src/ first on sys.path; the child
checks where streamseq was imported from and calls cli.main once per
command, in a fresh directory of its own.  The commands cover the
seed-1 trend and deep streams of bench/run.py:

  * gen, with the flags of bench/run.py's trend_config and deep_config;
  * mine twice, cold and then warm off the log cache;
  * three chained updates and the multi-block mine of the same window;
  * sweep: trend increments 2,000..18,000, deep 500..4,000;
  * diff of the base and the updated file, with and without
    --include-border;
  * two refusals: an update with a contradicting --span, and a mine
    that starts past the log's end.

--small uses the benchmark's smoke sizes instead of its full ones.  The
exit codes, stdout and stderr of every command, and the SHA-256 of
every file written but the log caches (.sqcache), must be equal.  The
tool prints one line per difference and exits 1 if there is any, 0 if
there is none.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent

# run by each tree's child: argv is the tree's src and the directory to
# work in, stdin the commands as JSON; prints [exit, stdout, stderr] per
# command, as JSON
_CHILD = """
import contextlib, io, json, os, sys, traceback
src, work = sys.argv[1:3]
sys.path.insert(0, src)
from streamseq import cli
where = os.path.dirname(os.path.realpath(cli.__file__))
assert where == os.path.realpath(os.path.join(src, "streamseq")), where
os.chdir(work)
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc(limit=0)
            code = 1
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.__stdout__)
"""


def _bench():
    """bench/run.py of this checkout, as a module."""
    sys.path.insert(0, str(ROOT / "bench"))  # for its own `spans` import
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gen_flags(config) -> list[str]:
    """The gen flags of a bench/run.py stream config (trend_config or
    deep_config), read off the keywords it passes to GenConfig."""
    cfg = config({
        "model": SimpleNamespace(Sequence=SimpleNamespace(of=lambda *labels: labels)),
        "generate": SimpleNamespace(GenConfig=dict),
    })
    flags = ["--types", cfg.pop("n_types"), "--events", cfg.pop("n_events"),
             "--seed", cfg.pop("seed"), "--fill", cfg.pop("tuple_fill")]
    for seq, rate in cfg.pop("embedded"):
        flags += ["--pattern", f"{'+'.join(seq)}@{rate!r}"]
    drift_at = cfg.pop("drift_at", None)
    if drift_at is not None:
        flags += ["--drift-at", drift_at]
    for seq, rate in cfg.pop("embedded_after", None) or ():
        flags += ["--pattern-after", f"{'+'.join(seq)}@{rate!r}"]
    if cfg:
        raise SystemExit(f"same_outputs: no gen flag for {sorted(cfg)}")
    return flags


def commands(small: bool) -> list[list[str]]:
    """Every command both trees run, in order; paths are relative."""
    bench = _bench()
    s = bench.SMOKE if small else bench.FULL
    # the smoke deep log holds 4,998 tuples, so past its 3,000-tuple base
    # the deep updates take half the benchmark's increment, and the deep
    # sweep goes to 1,600, not 2,000
    deep_deltas = tuple((200 if small else 500) * i for i in range(1, 9))
    streams = (
        ("trend", lambda ss: bench.trend_config(ss, 1, s.trend_events, s.trend_w0),
         bench.TREND_FLAGS, s.trend_w0, s.grow_step, s.sweep_deltas, s.trend_events),
        ("deep", lambda ss: bench.deep_config(ss, 1, s.deep_events),
         bench.DEEP_FLAGS, s.deep_w0, s.deep_delta // 2, deep_deltas, s.deep_events),
    )
    out = []
    for name, config, flags, w0, step, deltas, events in streams:
        log = f"{name}.log"
        out += [
            ["gen", log, *_gen_flags(config)],
            ["mine", log, f"{name}-0.p", "--size", w0, *flags],
            ["mine", log, f"{name}-0-warm.p", "--size", w0, *flags],
        ]
        for i in range(1, 4):
            out.append(["update", log, f"{name}-{i - 1}.p", f"{name}-{i}.p", "--size", step])
        out += [
            ["mine", log, f"{name}-remine.p", "--size", f"{w0},{step},{step},{step}", *flags],
            ["sweep", log, f"{name}-curves.csv", f"{name}-rec.txt", "--initial", w0,
             "--deltas", ",".join(map(str, deltas)), *flags],
            ["diff", f"{name}-0.p", f"{name}-3.p"],
            ["diff", f"{name}-0.p", f"{name}-3.p", "--include-border"],
            ["update", log, f"{name}-0.p", f"{name}-span.p", "--size", step, "--span", "5"],
            ["mine", log, f"{name}-past.p", "--start", events, "--size", w0, *flags],
        ]
    return [[str(arg) for arg in argv] for argv in out]


def run_tree(root: Path, argvs: list[list[str]], work: Path) -> tuple[list, dict]:
    """The [exit, stdout, stderr] of each command run by root's src, and
    the SHA-256 of each file they wrote but the log caches."""
    work.mkdir()
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(root / "src"), str(work)],
        input=json.dumps(argvs), capture_output=True, text=True,
    )
    if child.returncode != 0:
        raise SystemExit(f"same_outputs: the child for {root} failed:\n{child.stderr}")
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.iterdir()) if path.suffix != ".sqcache"
    }
    return json.loads(child.stdout), digests


def differences(argvs, mine, theirs) -> list[str]:
    """One line per command output or written file that differs."""
    (results, files), (other_results, other_files) = mine, theirs
    out = []
    for argv, a, b in zip(argvs, results, other_results):
        for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                out.append(f"{' '.join(argv)}: {what} differs")
    for name in sorted(files.keys() | other_files.keys()):
        if files.get(name) != other_files.get(name):
            out.append(f"file {name} differs")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--small", action="store_true",
                        help="the benchmark's smoke sizes instead of its full ones")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "streamseq" / "__init__.py").is_file():
        parser.error(f"{other}/src/streamseq not found")
    argvs = commands(args.small)
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        found = differences(
            argvs,
            run_tree(ROOT, argvs, Path(tmp) / "this"),
            run_tree(other, argvs, Path(tmp) / "other"),
        )
    for line in found:
        print(line)
    print(f"{len(argvs)} commands: {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
