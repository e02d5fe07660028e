from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_bench_pairs_rejects_one_pair_before_any_run(tmp_path):
    # One pair has no quartiles to summarise, so --pairs 1 is refused at
    # parse time, before the checkouts (here missing) are read or run.
    argv = [sys.executable, str(TOOLS / "bench_pairs.py"), "--parent", str(tmp_path / "parent"),
            "--change", str(tmp_path / "change"), "--label", "one", "--what", "one pair",
            "--run", "test-mid:2", "--pairs", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--pairs must be >= 2, got 1" in proc.stderr
    assert not list(tmp_path.iterdir())
