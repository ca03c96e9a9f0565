"""tools/same_outputs.py names each output that differs between two trees."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_changed_recommendation_format_differs_in_the_sweep_outputs_alone(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tradeoff = tmp_path / "src" / "streamseq" / "tradeoff.py"
    text = tradeoff.read_text(encoding="utf-8")
    assert text.count("{v:.6f}") == 1
    tradeoff.write_text(text.replace("{v:.6f}", "{v:.5f}"), encoding="utf-8")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_outputs.py"), str(tmp_path), "--small"],
        capture_output=True, text=True,
    )
    assert run.returncode == 1, run.stderr
    # the deep sweep recommends nothing ("none"), so only the trend
    # sweep's stdout and its recommendation file show the format
    sweep, rec, summary = run.stdout.splitlines()
    assert sweep.startswith("sweep trend.log trend-curves.csv trend-rec.txt ")
    assert sweep.endswith(": stdout differs")
    assert rec == "file trend-rec.txt differs"
    assert summary == "26 commands: 2 differences"
