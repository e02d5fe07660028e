"""The benchmark's workloads: seeded panels plus the CLI configuration run on them.

Each workload stresses a different layer, so a later optimisation has one
workload that exercises it and one that bypasses it:

- ``report-small``: the 8x36 benchmark panel with the README's default
  pipeline, bootstrap replications and IPS moment draws cut tenfold so
  several runs fit in one measurement window. Per-replication bootstrap
  overhead on small n and the IPS moment simulation dominate; large-n
  kernels should move nothing here.
- ``test-mid``: an 8x40 panel with two planted thresholds, ``test``
  subcommand (linearity plus the 2-vs-3 test) on two threads. Bound by
  bootstrap replications of the batched conditional scans; no IPS at all.
- ``report-large``: 150x40 panel, so the default 400-point grid thins about
  5 400 distinct trimmed threshold values. Scan cost, the ``GridProjector``
  memory that grows with N*T, and CSV ingest show here; the regime-count
  test is off because it has not been sized for this panel.

No configuration sets ``max_grid_points`` or ``trim_fraction``: the benchmark
measures the defaults users run.

``BENCHMARK.json`` lists only ``test-mid`` and ``report-large``: on a shared
2-vCPU machine the run-to-run spread of ``report-small``, whose wall time is
about one third interpreter start-up, was too wide to gate on
(interquartile range 22% of the median over ten seeds with 20-second
windows). It stays runnable here and in ``--workload all``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from panelthresh import ThresholdDGP, benchmark_dgp, simulate_threshold_panel
from panelthresh.cli import write_csv

TWO_REGRESSOR_ROLES = {
    "dependent": "y",
    "threshold": "q",
    "regime_varying": ["q", "x2"],
    "invariant_controls": ["c1"],
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    default_seed: int
    dgp: Callable[[int], ThresholdDGP]
    config: dict[str, Any]


def _mid_dgp(seed: int) -> ThresholdDGP:
    return ThresholdDGP(
        n_units=8,
        n_periods=40,
        gamma0=(0.3, 0.7),
        beta_low=(1.0, 0.5),
        beta_high=(2.0, -0.5),
        beta_regimes=((1.0, 0.5), (2.0, -0.5), (0.5, 1.0)),
        control_betas=(0.5,),
        seed=seed,
    )


def _large_dgp(seed: int) -> ThresholdDGP:
    return ThresholdDGP(
        n_units=150,
        n_periods=40,
        gamma0=0.5,
        beta_low=(1.0, 0.5),
        beta_high=(2.0, -0.5),
        delta0=0.3,
        control_betas=(0.5,),
        seed=seed,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="report-small",
            command="report",
            threads=1,
            default_seed=1,
            dgp=lambda seed: benchmark_dgp(contrast=0.5, seed=seed),
            config={
                "roles": {"dependent": "y", "threshold": "q", "regime_varying": ["q"]},
                "spec": {"num_thresholds": 1},
                "inference": {"replications": 99, "alphas": [0.05]},
                "diagnostics": {"max_lag": 3, "ips_moment_draws": 5_000},
            },
        ),
        Workload(
            name="test-mid",
            command="test",
            threads=2,
            default_seed=2,
            dgp=_mid_dgp,
            config={
                "roles": TWO_REGRESSOR_ROLES,
                "spec": {"num_thresholds": 2},
                "inference": {"replications": 99, "alphas": [0.05]},
                # Read only by the traced run, which also times the stages
                # the ``test`` subcommand skips.
                "diagnostics": {"max_lag": 3, "ips_moment_draws": 5_000},
            },
        ),
        Workload(
            name="report-large",
            command="report",
            threads=1,
            default_seed=3,
            dgp=_large_dgp,
            config={
                "roles": TWO_REGRESSOR_ROLES,
                "spec": {"num_thresholds": 1},
                "inference": {"replications": 99, "alphas": [0.05], "regime_count_test": False},
                "diagnostics": {"max_lag": 3, "ips_moment_draws": 5_000},
            },
        ),
    )
}


def write_inputs(workload: Workload, seed: int, run_dir: Path):
    """Simulate the workload's panel, write ``panel.csv`` and ``config.json``.

    The same seed drives the panel and the bootstrap. Returns the simulated
    panel, the config mapping and the config path.
    """
    panel, _ = simulate_threshold_panel(workload.dgp(seed))
    write_csv(panel, run_dir / "panel.csv")
    config = {
        "input_path": "panel.csv",
        **workload.config,
        "inference": {**workload.config["inference"], "seed": seed},
        "output": {"json": "report.json", "markdown": "report.md"},
    }
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return panel, config, config_path
