"""Peak RSS and wall time after each stage of one CLI run, in a fresh interpreter.

    python3 tools/stage_rss.py CONFIG [COMMAND] [--threads N] [--runs R] [--checkout DIR]

Each run starts a fresh interpreter on ``--checkout``'s ``src`` (default:
this checkout) with BLAS pinned to one thread, in CONFIG's directory, so a
relative ``input_path`` is read from there as the benchmark's CLI children
read it. The child imports ``panelthresh.cli`` and runs
``panelthresh --config CONFIG --threads N COMMAND`` (default ``report``)
with its outputs sent to a temporary directory. After the import and after
every stage the CLI times (ingest, transforms, workspace, the command's
stages, render) it records the process's ``ru_maxrss`` high-water mark.

The parent process imports no numpy and stays small: on Linux a child's
``ru_maxrss`` starts from its parent's RSS at the fork, so a large parent
would floor every row. Runs are sequential. The table printed to standard output gives, per stage,
the median over the ``--runs`` runs of the high-water mark after the stage
(MB) and of the stage's wall time (ms, the CLI's own stage clock; the
import row is the import's wall time).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMANDS = ("fit", "test", "ci", "diagnose", "report")


def child(config: str, command: str, threads: int) -> list[tuple[str, float, float]]:
    """Run the CLI once in this interpreter; (stage, ms, ru_maxrss MB) per stage."""

    def peak_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start = time.perf_counter()
    from panelthresh import cli

    rows = [("import", (time.perf_counter() - start) * 1000.0, peak_mb())]
    lap = cli._StageClock.lap

    def recording_lap(clock, stage: str) -> None:
        lap(clock, stage)
        rows.append((stage, clock.timings_ms[stage], peak_mb()))

    cli._StageClock.lap = recording_lap
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", config, "--threads", str(threads), "--output-dir", out,
                         command])
    if code != 0:
        sys.exit(f"stage_rss: the CLI exited with {code}")
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("command", nargs="?", default="report", choices=COMMANDS)
    parser.add_argument("--threads", type=int, default=1, help="the CLI's --threads")
    parser.add_argument("--runs", type=int, default=1, help="fresh interpreters, one at a time")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(str(args.config), args.command, args.threads)))
        return
    config = args.config.resolve()
    env = dict(os.environ, **BLAS_PIN, PYTHONPATH=str(args.checkout.resolve() / "src"))
    argv = [sys.executable, str(Path(__file__).resolve()), str(config), args.command,
            "--threads", str(args.threads), "--child"]
    runs = []
    for _ in range(args.runs):
        proc = subprocess.run(argv, cwd=config.parent, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"stage_rss: child failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(f"{args.command} on {config} (--threads {args.threads}, median of {args.runs} runs)")
    print("| after | wall ms | ru_maxrss MB |")
    print("|---|---|---|")
    for i, (stage, _, _) in enumerate(runs[0]):
        ms = statistics.median(run[i][1] for run in runs)
        mb = statistics.median(run[i][2] for run in runs)
        print(f"| {stage} | {ms:.1f} | {mb:.2f} |")


if __name__ == "__main__":
    main()
