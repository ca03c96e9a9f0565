import hashlib
import subprocess
import sys

import pytest

from streamseq import StreamQueue, parse_event_log
from streamseq.cli import main
from streamseq.patternfile import load_pattern_file


def run(*argv):
    return main(list(argv))


def gen_log(path, seed=5, types=6, events=600, patterns=("E001+E002@120",)):
    argv = [
        "gen", str(path),
        "--types", str(types),
        "--events", str(events),
        "--seed", str(seed),
    ]
    for p in patterns:
        argv += ["--pattern", p]
    assert run(*argv) == 0
    return path


def test_gen_writes_parseable_deterministic_log(tmp_path):
    a = gen_log(tmp_path / "a.log")
    b = gen_log(tmp_path / "b.log")
    assert a.read_text() == b.read_text()
    q = parse_event_log(a.read_text())
    assert len(q) > 0


def test_mine_writes_pattern_file_and_summary(tmp_path, capsys):
    log = gen_log(tmp_path / "s.log")
    out = tmp_path / "w.patterns"
    code = run(
        "mine", str(log), str(out),
        "--size", "200",
        "--min-supp", "0.1",
        "--min-nbd-supp", "0.05",
        "--span", "3",
        "--max-len", "3",
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    fields = dict(tok.split("=") for tok in line.split())
    ps = load_pattern_file(out.read_text())
    assert int(fields["L"]) == len(ps.frequent)
    assert int(fields["NBD"]) == len(ps.border)
    assert int(fields["cost_units"]) > 0
    assert ps.window_size == 200


def test_a_wide_span_mine_is_pinned(tmp_path, capsys):
    # the benchmark's deep stream at its smoke size: 194 types, four
    # planted length-6 patterns, mined at span 32 up to length 5
    log, out = tmp_path / "deep.log", tmp_path / "deep.p"
    planted = [
        "--pattern=" + "+".join(f"E{i:03d}" for i in range(k, k + 6)) + "@25"
        for k in (1, 7, 13, 19)
    ]
    assert run("gen", str(log), "--types", "194", "--events", "8000", "--seed", "1",
               *planted) == 0
    assert run("mine", str(log), str(out), "--size", "3000", "--span", "32",
               "--min-supp", "3/8", "--min-nbd-supp", "1/8", "--max-len", "5") == 0
    assert capsys.readouterr().out == "L=248 NBD=647 cost_units=2773046\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6d4091bcd3c30ffbbb32b1da7bb1c6930bb865ac45d8bf044d8e3c8adf8f5450"
    )


def test_mine_multi_block_records_block_ids(tmp_path):
    log = gen_log(tmp_path / "s.log")
    out = tmp_path / "w.patterns"
    run(
        "mine", str(log), str(out),
        "--size", "150,50",
        "--min-supp", "1/10",
        "--min-nbd-supp", "1/20",
        "--span", "3",
    )
    assert load_pattern_file(out.read_text()).blocks == ((0, 150), (150, 200))


def test_update_extends_the_mined_window(tmp_path):
    log = gen_log(tmp_path / "s.log")
    base = tmp_path / "base.patterns"
    grown = tmp_path / "grown.patterns"
    run(
        "mine", str(log), str(base),
        "--size", "150",
        "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3",
    )
    code = run("update", str(log), str(base), str(grown), "--size", "50")
    assert code == 0
    ps = load_pattern_file(grown.read_text())
    assert ps.window_size == 200
    assert ps.blocks == ((0, 150), (150, 200))


def test_update_equals_composed_mine_byte_for_byte(tmp_path):
    # frequent sections must agree; this is the whole point of the updater
    log = gen_log(tmp_path / "s.log", seed=31)
    base = tmp_path / "base.patterns"
    upd = tmp_path / "upd.patterns"
    full = tmp_path / "full.patterns"
    args = ["--min-supp", "0.12", "--min-nbd-supp", "0.04", "--span", "3"]
    run("mine", str(log), str(base), "--size", "160", *args)
    run("update", str(log), str(base), str(upd), "--size", "40")
    run("mine", str(log), str(full), "--size", "160,40", *args)

    def frequent_lines(p):
        return [l for l in p.read_text().splitlines() if l.startswith("L\t")]

    assert frequent_lines(upd) == frequent_lines(full)


def test_update_rejects_contradicting_flags(tmp_path):
    log = gen_log(tmp_path / "s.log")
    base = tmp_path / "base.patterns"
    run(
        "mine", str(log), str(base),
        "--size", "150",
        "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3",
        "--max-len", "3",
    )
    for flags in (
        ["--min-supp", "0.2"],
        ["--min-nbd-supp", "0.02"],
        ["--span", "5"],
        ["--max-len", "2"],
    ):
        code = run(
            "update", str(log), str(base), str(tmp_path / "x.patterns"),
            "--size", "50", *flags,
        )
        assert code == 3, flags


def test_update_rejects_an_increment_overlapping_the_mined_window(tmp_path):
    log = gen_log(tmp_path / "s.log")
    base = tmp_path / "base.patterns"
    out = tmp_path / "x.patterns"
    run(
        "mine", str(log), str(base),
        "--size", "150",
        "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3",
    )
    code = run("update", str(log), str(base), str(out), "--start", "0", "--size", "150")
    assert code == 3
    assert not out.exists()


def test_update_starts_after_the_last_mined_tuple_by_default(tmp_path):
    # the last-listed block is not always the last block of the window
    log = gen_log(tmp_path / "s.log")
    p0, p1, p2 = (tmp_path / f"p{i}.patterns" for i in range(3))
    flags = ["--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3"]
    assert run("mine", str(log), str(p0), "--start", "100", "--size", "100", *flags) == 0
    assert run("update", str(log), str(p0), str(p1), "--start", "0", "--size", "50") == 0
    assert "blocks=100:200,0:50\n" in p1.read_text()
    assert run("update", str(log), str(p1), str(p2), "--size", "60") == 0
    assert "blocks=100:200,0:50,200:260\n" in p2.read_text()


@pytest.mark.parametrize(
    "edit",
    [
        ("window_size=150\n", "window_size=140\n"),  # disagrees with blocks=
        ("blocks=0:150\n", "blocks=0:100,90:140\n"),  # blocks overlap
        ("blocks=0:150\n", ""),  # no blocks= header
    ],
)
def test_inconsistent_pattern_file_is_3(tmp_path, capsys, edit):
    log = gen_log(tmp_path / "s.log")
    base = tmp_path / "base.patterns"
    bad = tmp_path / "bad.patterns"
    out = tmp_path / "x.patterns"
    run(
        "mine", str(log), str(base),
        "--size", "150",
        "--min-supp", "1/2", "--min-nbd-supp", "1/10", "--span", "3",
    )
    bad.write_text(base.read_text().replace(*edit))
    assert run("diff", str(bad), str(base)) == 3
    assert run("update", str(log), str(bad), str(out), "--size", "50") == 3
    assert not out.exists()
    assert capsys.readouterr().err.count("error:") == 2


def test_impossible_stored_count_is_3(tmp_path, capsys):
    # a count above the start positions of the blocks used to be added to
    # the increment's and written out, exit 0
    log = gen_log(tmp_path / "s.log", events=2000)
    base, bad, out = tmp_path / "base.p", tmp_path / "bad.p", tmp_path / "x.p"
    flags = ("--min-supp", "1/10", "--min-nbd-supp", "3/100", "--span", "4")
    assert run("mine", str(log), str(base), "--size", "400", *flags) == 0
    lines = base.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("L\t"))
    lines[i] = lines[i].rpartition("\t")[0] + "\t999999999\n"
    bad.write_text("".join(lines))
    assert run("update", str(log), str(base), str(out), "--size", "100") == 0
    out.unlink()
    assert run("update", str(log), str(bad), str(out), "--size", "100") == 3
    assert not out.exists()
    assert "start positions" in capsys.readouterr().err


def test_sequence_longer_than_span_is_3(tmp_path, capsys):
    # a stored count for <a,b,a> at span 2 used to be added to the
    # increment's and written out, exit 0
    log = tmp_path / "s.log"
    log.write_text("".join(f"{t},{'ab'[t % 2]}\n" for t in range(20)))
    good, bad, out = tmp_path / "good.p", tmp_path / "bad.p", tmp_path / "x.p"
    good.write_text(
        "format=1\nwindow_size=10\nmin_supp=1/5\nmin_nbd_supp=1/10\n"
        "span=2\nmax_len=none\nblocks=0:10\n"
        "L\ta\t5\nL\tb\t5\nL\ta\ta\t4\nL\ta\tb\t4\nL\tb\ta\t4\n"
    )
    bad.write_text(good.read_text() + "NBD\ta\tb\ta\t2\n")
    assert run("update", str(log), str(good), str(out), "--size", "5") == 0
    out.unlink()
    assert run("update", str(log), str(bad), str(out), "--size", "5") == 3
    assert not out.exists()
    assert "longer than span=2" in capsys.readouterr().err


def test_diff_reports_exact_distance(tmp_path, capsys):
    log = gen_log(tmp_path / "s.log", seed=8)
    a = tmp_path / "a.patterns"
    b = tmp_path / "b.patterns"
    args = ["--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3"]
    run("mine", str(log), str(a), "--size", "100", *args)
    run("mine", str(log), str(b), "--size", "200", *args)
    capsys.readouterr()
    assert run("diff", str(a), str(b)) == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert set(fields) == {"distance", "decimal", "sym_diff", "union"}
    # distance is |symmetric difference| / |union|, printed as a fraction
    if fields["distance"] not in ("0", "1"):
        num, den = fields["distance"].split("/")
        assert int(num) >= 0 and int(den) > 0

    assert run("diff", str(a), str(a)) == 0
    again = capsys.readouterr().out
    assert "distance=0\n" in again


def test_diff_requires_matching_parameters(tmp_path, capsys):
    log = gen_log(tmp_path / "s.log")
    a = tmp_path / "a.patterns"
    b = tmp_path / "b.patterns"
    run("mine", str(log), str(a), "--size", "100",
        "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3")
    run("mine", str(log), str(b), "--size", "100",
        "--min-supp", "0.2", "--min-nbd-supp", "0.05", "--span", "3")
    assert run("diff", str(a), str(b)) == 3


def test_sweep_writes_curves_and_recommendation(tmp_path, capsys):
    log = gen_log(tmp_path / "s.log", events=1500, seed=21)
    csv_out = tmp_path / "curves.csv"
    rec_out = tmp_path / "rec.txt"
    code = run(
        "sweep", str(log), str(csv_out), str(rec_out),
        "--initial", "300",
        "--deltas", "60,120,180,240",
        "--min-supp", "0.1", "--min-nbd-supp", "0.03", "--span", "3",
        "--max-len", "3",
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert rec_out.read_text() == printed
    header = csv_out.read_text().splitlines()[0]
    assert header == "delta_size,speedup,difference,speedup_norm,difference_norm"
    assert len(csv_out.read_text().splitlines()) == 5
    assert printed.startswith("crossing_x=")


def test_sweep_with_a_free_update_is_3(tmp_path, capsys):
    # every tuple is a, so both parts store every count the update needs
    # and it rescans nothing: its cost is 0 and the speedup undefined
    log = tmp_path / "a.log"
    log.write_text("".join(f"{t},a\n" for t in range(1, 101)))
    code = run(
        "sweep", str(log), str(tmp_path / "c.csv"), str(tmp_path / "r.txt"),
        "--initial", "40", "--deltas", "10,20",
        "--min-supp", "1/2", "--min-nbd-supp", "1/4", "--span", "2", "--max-len", "2",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "delta 10" in err


def test_cli_path_builds_no_stream_tuple(tmp_path, monkeypatch, capsys):
    # mine, update and sweep work on the parsed columns alone: no parsed
    # queue builds its per-tuple label sets
    log = gen_log(tmp_path / "s.log", events=1500, seed=21)
    flags = ("--min-supp", "0.1", "--min-nbd-supp", "0.03", "--span", "3", "--max-len", "3")

    def refuse(self):
        raise AssertionError("a queue built its label sets")

    monkeypatch.setattr(StreamQueue, "_label_sets", refuse)
    with pytest.raises(AssertionError):
        list(parse_event_log(log.read_text()))
    base, grown = tmp_path / "base.p", tmp_path / "grown.p"
    assert run("mine", str(log), str(base), "--size", "300", *flags) == 0
    assert run("update", str(log), str(base), str(grown), "--size", "100") == 0
    assert run(
        "sweep", str(log), str(tmp_path / "c.csv"), str(tmp_path / "r.txt"),
        "--initial", "300", "--deltas", "60,120,180,240", *flags,
    ) == 0
    capsys.readouterr()


def test_sweep_with_one_delta_is_2_before_reading_the_log(tmp_path, capsys):
    # recommend needs two points; refusing late would mine and write first
    csv, rec = tmp_path / "c.csv", tmp_path / "r.txt"
    for log in (gen_log(tmp_path / "s.log"), tmp_path / "missing.log"):
        code = run(
            "sweep", str(log), str(csv), str(rec), "--initial", "200", "--deltas", "100",
            "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3",
        )
        assert code == 2
        assert not csv.exists() and not rec.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --deltas")


def test_update_flag_against_the_pattern_file_is_3_before_reading_the_log(tmp_path, capsys):
    # a contradicting flag is a data error whatever the log; reading the
    # log first would exit 4 on a missing one
    log, old, out = gen_log(tmp_path / "s.log"), tmp_path / "t0.p", tmp_path / "out.p"
    assert run("mine", str(log), str(old), "--size", "200",
               "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "4") == 0
    capsys.readouterr()
    code = run("update", str(tmp_path / "missing.log"), str(old), str(out),
               "--size", "10", "--span", "7")
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --span 7 does not match")

_MINE = ("--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3")


@pytest.mark.parametrize("flag, value, got", [
    ("--span", "0", "0"),
    ("--max-len", "0", "0"),
    # a lone threshold stands in for the other one, so both read the same
    ("--min-supp", "2", "min_supp=2, min_nbd_supp=2"),
    ("--min-nbd-supp", "0", "min_supp=0, min_nbd_supp=0"),
])
def test_update_flag_outside_its_domain_has_mines_message(
    tmp_path, capsys, flag, value, got
):
    log, out = tmp_path / "missing.log", tmp_path / "out"
    given = {**dict(zip(_MINE[::2], _MINE[1::2])), flag: value}
    assert run("mine", str(log), str(out), "--size", "100",
               *[x for pair in given.items() for x in pair]) == 2
    rule = capsys.readouterr().err.split(", got ")[0]
    assert run("update", str(log), str(tmp_path / "missing.patterns"), str(out),
               "--size", "100", flag, value) == 2
    assert capsys.readouterr().err == f"{rule}, got {got}\n"


@pytest.mark.parametrize("command, flags", [
    ("mine", ("--size", "-5", *_MINE)),
    ("mine", ("--start", "-3", "--size", "100", *_MINE)),
    ("mine", ("--size", "100,-20", *_MINE)),
    ("mine", ("--size", "100", "--min-supp", "0.1", "--min-nbd-supp", "0.05",
              "--span", "0")),
    ("update", ("--size", "-5")),
    ("update", ("--start", "-10", "--size", "100")),
    ("update", ("--size", "100", "--span", "0")),
    ("update", ("--size", "100", "--max-len", "0")),
    ("update", ("--size", "100", "--min-supp", "2")),
    ("update", ("--size", "100", "--min-nbd-supp", "0")),
    ("update", ("--size", "100", "--min-supp", "1/10", "--min-nbd-supp", "1/5")),
    ("sweep", ("--initial", "0", "--deltas", "10,20", *_MINE)),
    ("sweep", ("--initial", "100", "--deltas", "10,20", "--reps", "0", *_MINE)),
    ("sweep", ("--initial", "100", "--deltas", "20,10", *_MINE)),
])
def test_bad_parameter_is_2_before_reading_the_log(tmp_path, capsys, command, flags):
    # the log does not exist, so reading it first would exit 4
    log, out = tmp_path / "missing.log", tmp_path / "out"
    outputs = {
        "mine": (out,),
        "update": (tmp_path / "missing.patterns", out),
        "sweep": (out, tmp_path / "rec"),
    }[command]
    assert run(command, str(log), *map(str, outputs), *flags) == 2
    assert not any(path.exists() for path in tmp_path.iterdir())
    assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_errors_are_2(self, capsys):
        assert run("mine") == 2  # missing required arguments
        assert run("no-such-command") == 2
        capsys.readouterr()

    def test_bad_flag_value_is_2(self, tmp_path, capsys):
        log = gen_log(tmp_path / "s.log")
        code = run(
            "mine", str(log), str(tmp_path / "o"),
            "--size", "100",
            "--min-supp", "zebra", "--min-nbd-supp", "0.05", "--span", "3",
        )
        assert code == 2
        # an empty size list, or an empty size in one, is not a size list
        for sizes in ("", "100,"):
            code = run(
                "mine", str(log), str(tmp_path / "o"),
                "--size", sizes,
                "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3",
            )
            assert code == 2
            assert "not a size list" in capsys.readouterr().err

    def test_window_outside_log_is_3(self, tmp_path, capsys):
        log = gen_log(tmp_path / "s.log", events=100)
        code = run(
            "mine", str(log), str(tmp_path / "o"),
            "--size", "100000",
            "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3",
        )
        assert code == 3
        capsys.readouterr()

    def test_missing_input_file_is_4(self, tmp_path, capsys):
        code = run(
            "mine", str(tmp_path / "absent.log"), str(tmp_path / "o"),
            "--size", "10",
            "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3",
        )
        assert code == 4
        capsys.readouterr()

    def test_corrupt_pattern_file_is_3(self, tmp_path, capsys):
        log = gen_log(tmp_path / "s.log")
        bad = tmp_path / "bad.patterns"
        bad.write_text("format=1\nnot a pattern file\n")
        code = run("update", str(log), str(bad), str(tmp_path / "o"), "--size", "10")
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("bad_arg", ["log", "old"])
    def test_input_that_is_not_utf8_is_3(self, tmp_path, capsys, bad_arg):
        paths = {"log": gen_log(tmp_path / "s.log"), "old": tmp_path / "w.p"}
        assert run("mine", str(paths["log"]), str(paths["old"]), "--size", "200",
                   "--min-supp", "0.1", "--min-nbd-supp", "0.05", "--span", "3") == 0
        paths[bad_arg] = tmp_path / "bad"
        paths[bad_arg].write_bytes(b"1,a\n\xff\xfe\n")
        out = tmp_path / "out.p"
        capsys.readouterr()
        code = run("update", str(paths["log"]), str(paths["old"]), str(out), "--size", "100")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(paths[bad_arg]) in err
        assert not out.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "streamseq", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mine" in proc.stdout and "sweep" in proc.stdout
