"""Time and size the full-grid scan at growing panel sizes, one fresh interpreter each.

    python3 tools/bench_scan_scale.py
    python3 tools/bench_scan_scale.py --checkout ../parent --size 150x40 --size 500x60

For each ``--size NxT`` (default 150x40, 500x60 and 1000x100) it starts a
fresh interpreter on ``--checkout``'s ``src`` with BLAS pinned to one
thread. The child simulates report-large's panel at that size (the same
``ThresholdDGP``, seed ``--seed``), then runs ``build_scan`` on the full
observed-value grid (``max_grid_points`` uncapped) and ``estimate_on`` on
the built scan under the CLI's stage clock, with the CLI's stage names
``workspace`` and ``threshold_estimation``. It reports the grid size and
the clock's record: each stage's wall time (ms) and the child's peak RSS
(``VmHWM``, MB) after it, ``start`` once the panel is built. One JSON
object per size goes to standard output. Sizes run one at a time, so one
child holds memory at once.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SIZES = ("150x40", "500x60", "1000x100")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child(n_units: int, n_periods: int, seed: int) -> dict:
    """Build and fit one full-grid scan in this interpreter; its numbers."""
    from panelthresh import ThresholdDGP, ThresholdSpec, VariableRole, simulate_threshold_panel
    from panelthresh.cli import _StageClock
    from panelthresh.threshold import build_scan, estimate_on

    panel, _ = simulate_threshold_panel(ThresholdDGP(
        n_units=n_units, n_periods=n_periods, gamma0=0.5, beta_low=(1.0, 0.5),
        beta_high=(2.0, -0.5), delta0=0.3, control_betas=(0.5,), seed=seed,
    ))
    spec = ThresholdSpec(VariableRole("y", "q", ["q", "x2"], ["c1"]),
                         max_grid_points=n_units * n_periods)
    clock = _StageClock()
    scan = build_scan(panel, spec)
    clock.lap("workspace")
    fit = estimate_on(scan)
    clock.lap("threshold_estimation")
    return {"panel": f"{n_units}x{n_periods}", "seed": seed, "grid_points": int(scan.grid.size),
            "gamma": fit.gammas[0], **clock.record}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="repository whose src is measured (default: this one)")
    parser.add_argument("--size", action="append", help="NxT panel size, repeatable")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--child", nargs=2, type=int, metavar=("N", "T"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(*args.child, args.seed)))
        return
    env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(args.checkout.resolve() / "src")}
    for size in args.size or DEFAULT_SIZES:
        n_units, n_periods = (int(v) for v in size.split("x"))
        argv = [sys.executable, __file__, "--seed", str(args.seed),
                "--child", str(n_units), str(n_periods)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"bench_scan_scale: {size} failed:\n{proc.stderr}")
        print(proc.stdout.strip(), flush=True)


if __name__ == "__main__":
    main()
