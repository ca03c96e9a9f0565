"""The README's examples run as written and print what it shows."""

import re
import shlex
from pathlib import Path

from streamseq.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# (language, body) of every fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def test_the_library_quick_tour_runs(tmp_path, monkeypatch):
    (tour,) = [body for lang, body in BLOCKS if lang == "python"]
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, "README.md", "exec"), {})


def test_the_command_line_block_runs_and_its_sweeps_print_what_is_shown(
    tmp_path, monkeypatch, capsys
):
    (commands,) = [body for _, body in BLOCKS if body.startswith("streamseq ")]
    monkeypatch.chdir(tmp_path)
    printed = []
    for line in commands.replace("\\\n", " ").splitlines():
        program, *argv = shlex.split(line)
        assert program == "streamseq"
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if argv[0] == "sweep":
            printed.append(out)
    assert printed == [body for _, body in BLOCKS if body.startswith("crossing_x=")]
    # the stationary log recommends nothing; the drifting one crosses
    assert [out.splitlines()[-1] for out in printed] == [
        "degenerate=true", "degenerate=false",
    ]
