"""Time ``pivoted_lstsq`` against the scipy-based kernel it replaced.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/bench_lstsq.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/bench_lstsq.py \
        --pipeline test-mid:2 --pipeline report-large:3

The reference, ``scipy_pivoted_lstsq``, is the kernel as it was before:
``scipy.linalg.qr`` with ``pivoting=True`` on the unscaled columns, then
``solve_triangular``. In every repeat the two kernels take turns, first one
then the other, alternating which goes first, so slow drift in the
machine's load reaches both. One JSON object per line goes to standard
output.

Without ``--pipeline`` it times single calls on the benchmark's design
shapes: 320 rows (test-mid's 8x40 panel) by 3, 6, 9 and 12 columns, and
6000 rows (report-large's 150x40 panel) by 3, 6 and 7 columns. Each shape
is timed on a full-rank standard-normal design and on the same design with
its last column replaced by a copy of the first, which takes the pivot
search. Each cell is the median over ``--repeats`` of the mean time of
``--calls`` calls, in microseconds.

With ``--pipeline WORKLOAD:SEED`` it writes that perfbench workload's panel
and config to a temporary directory and runs the workload's CLI command
in-process ``--repeats`` times with each kernel, summing the time spent in
least-squares calls. It reports the call count and the median total in
seconds per kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from panelthresh import _linalg, cli, regression, threshold
from panelthresh._linalg import RANK_TOL, LstsqResult, pivoted_lstsq
from panelthresh.errors import EstimationError

SHAPES = [(320, 3), (320, 6), (320, 9), (320, 12), (6000, 3), (6000, 6), (6000, 7)]
# The modules that call the kernel, each through its own imported name.
CALLERS = (threshold, regression)


def scipy_pivoted_lstsq(X, y, *, on_deficient="raise", names=None) -> LstsqResult:
    """The scipy-based kernel, with the same signature and result."""
    n, k = X.shape
    if n < k and on_deficient == "raise":
        raise EstimationError(f"more columns ({k}) than rows ({n})")
    Q, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        below = np.nonzero(diag < RANK_TOL * diag[0])[0]
        rank = int(below[0]) if below.size else diag.size
    if rank < k and on_deficient == "raise":
        bad = piv[rank] if rank < len(piv) else piv[-1]
        label = names[bad] if names is not None else f"column {bad}"
        raise EstimationError(f"rank-deficient regressor matrix ({label})")
    beta = np.zeros(k)
    if rank > 0:
        beta[piv[:rank]] = scipy.linalg.solve_triangular(R[:rank, :rank], Q[:, :rank].T @ y)
    residuals = y - X @ beta
    ssr = float(residuals @ residuals)
    return LstsqResult(beta, ssr, residuals, rank, tuple(int(i) for i in piv[rank:]))


KERNELS: dict[str, Callable[..., LstsqResult]] = {
    "numpy": pivoted_lstsq,
    "scipy": scipy_pivoted_lstsq,
}


def _alternate(repeats: int, run: Callable[[str], float]) -> dict[str, list[float]]:
    """``run(kernel)`` for each kernel in every repeat, alternating the order."""
    times: dict[str, list[float]] = {name: [] for name in KERNELS}
    for rep in range(repeats):
        for name in (list(KERNELS) if rep % 2 == 0 else list(KERNELS)[::-1]):
            times[name].append(run(name))
    return times


def shapes(calls: int, repeats: int) -> None:
    rng = np.random.default_rng(20261018)
    for n, k in SHAPES:
        X, y = rng.standard_normal((n, k)), rng.standard_normal(n)
        duplicate = X.copy()
        duplicate[:, -1] = duplicate[:, 0]
        for design, M in (("full", X), ("duplicate", duplicate)):
            def run(name: str) -> float:
                kernel = KERNELS[name]
                start = time.perf_counter()
                for _ in range(calls):
                    kernel(M, y, on_deficient="drop")
                return (time.perf_counter() - start) / calls

            us = {name: round(statistics.median(t) * 1e6, 1)
                  for name, t in _alternate(repeats, run).items()}
            print(json.dumps({"rows": n, "cols": k, "design": design,
                              **{f"{name}_us": v for name, v in us.items()},
                              "ratio": round(us["numpy"] / us["scipy"], 3)}), flush=True)


def pipeline(spec: str, repeats: int) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, write_inputs

    name, seed = spec.split(":")
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(workload, int(seed), Path(tmp))
        # The config names its panel relative to the run directory.
        argv = ["--config", "config.json", "--threads", str(workload.threads),
                "--output-dir", tmp, workload.command]
        calls = {}

        def run(kernel_name: str) -> float:
            kernel, spent, count, lock = KERNELS[kernel_name], [0.0], [0], threading.Lock()

            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return kernel(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    with lock:
                        spent[0] += elapsed
                        count[0] += 1

            for module in CALLERS:
                module.pivoted_lstsq = timed
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        sys.exit(f"bench_lstsq: {workload.command} failed on {spec}")
            finally:
                for module in CALLERS:
                    module.pivoted_lstsq = _linalg.pivoted_lstsq
            calls[kernel_name] = count[0]
            return spent[0]

        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            totals = _alternate(repeats, run)
        finally:
            os.chdir(cwd)
    print(json.dumps({"pipeline": spec, "threads": workload.threads, "calls": calls,
                      **{f"{name}_s": round(statistics.median(t), 4) for name, t in totals.items()},
                      "runs": {name: [round(v, 4) for v in t] for name, t in totals.items()}}),
          flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--pipeline", action="append", metavar="WORKLOAD:SEED")
    args = parser.parse_args()
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("bench_lstsq: OPENBLAS_NUM_THREADS is not 1; timings include BLAS threads",
              file=sys.stderr)
    if args.pipeline:
        for spec in args.pipeline:
            pipeline(spec, args.repeats)
    else:
        shapes(args.calls, args.repeats)


if __name__ == "__main__":
    main()
