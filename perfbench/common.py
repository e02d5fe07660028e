"""Paths, child environment and process spawning shared by the benchmark files.

The benchmark never installs the package: every child interpreter gets the
checkout's ``src`` directory on ``PYTHONPATH`` and BLAS pinned to one thread,
so the only parallelism in a run is the CLI's own ``--threads``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def require_src() -> None:
    """Put the checkout's package on ``sys.path``; exit if it is missing."""
    if not (SRC / "panelthresh" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'panelthresh'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class Child:
    """One finished child process, measured from spawn to exit."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    spawned_at: float


def spawn(argv: list[str], cwd: Path, stdout_path: Path, timeout_s: float) -> Child:
    """Run ``argv`` to completion and return its own resource usage.

    ``os.wait4`` reports the rusage of this one child, so CPU time and peak
    RSS are per process rather than the running maximum that
    ``RUSAGE_CHILDREN`` keeps. A child still running after ``timeout_s`` is
    killed and reported with a non-zero exit code.
    """
    stderr_path = stdout_path.with_suffix(".stderr")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(timeout_s, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - spawned_at
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        spawned_at=spawned_at,
    )
