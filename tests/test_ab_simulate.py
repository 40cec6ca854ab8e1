"""``tools/ab_simulate.py``, the in-process simulator comparison."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_against_itself():
    result = subprocess.run(
        [sys.executable, "tools/ab_simulate.py", ".", ".", "--seeds", "1", "--reps", "1", "--structures", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert re.fullmatch(
        r"seed 1: A/B time ratio median [\d.]+, min [\d.]+, max [\d.]+ over 1 reps of 2 plans", lines[0]
    )
    assert lines[1:] == ["transcripts identical"]


def test_a_differing_transcript_exits_1(tmp_path):
    package = tmp_path / "src" / "soplan"
    shutil.copytree(ROOT / "src" / "soplan", package, ignore=shutil.ignore_patterns("__pycache__"))
    rlnc = package / "rlnc.py"
    text = rlnc.read_text()
    assert text.count('"field": self.field_order,') == 1
    rlnc.write_text(text.replace('"field": self.field_order,', '"field": self.field_order + 1,'))
    result = subprocess.run(
        [sys.executable, "tools/ab_simulate.py", ".", str(tmp_path), "--seeds", "1", "--reps", "1",
         "--structures", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1, result.stderr
    assert "seed 1 rep 0: transcript 0 differs" in result.stdout
    assert result.stdout.splitlines()[-1] == "TRANSCRIPTS DIFFER"
