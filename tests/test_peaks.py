"""tools/peaks.py traces one call per run and counts its walks."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_smoke_size_runs_print_their_walks_and_peaks():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peaks.py"), "--small"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = [re.fullmatch(r"(\w+): (\d+) walks, peak (\d+\.\d{3}) MiB", line)
             for line in run.stdout.splitlines()]
    assert all(lines), run.stdout
    runs = {m[1]: (int(m[2]), float(m[3])) for m in lines}
    assert list(runs) == ["deep", "span256", "sweep"]
    # the deep mine walks each prefix node once, as
    # test_a_deep_mine_walks_each_prefix_node_once pins on the same stream
    assert runs["deep"][0] == 124
    assert all(peak > 0 for _, peak in runs.values())
