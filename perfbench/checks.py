"""Output oracle: what every CLI run must print, recomputed independently.

The oracle rebuilds the single-threshold design itself (within-demeaned
response, regime-interacted slopes, the shift indicator, the controls) and
solves every candidate of ``candidate_grid`` with ``dummy_ols_oracle``, the
package's normal-equations solver that shares no arithmetic with the QR
path. A run passes only if it exits 0 and its output carries the oracle's
argmin threshold and a linearity F within ``F_RTOL`` of the oracle's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import jsonschema
import numpy as np

from panelthresh import PanelDataset, ThresholdSpec, candidate_grid, dummy_ols_oracle
from panelthresh.cli import REPORT_SCHEMA
from panelthresh.threshold import observation_floor

F_RTOL = 1e-8


@dataclass(frozen=True)
class Oracle:
    gamma: float
    f_statistic: float


def _demean(mat: np.ndarray) -> np.ndarray:
    return (mat - mat.mean(axis=1, keepdims=True)).ravel()


def compute_oracle(panel: PanelDataset, spec: ThresholdSpec) -> Oracle:
    """Single-threshold SSR profile, argmin and linearity F by normal equations."""
    if spec.dynamic_lag:
        raise ValueError("the oracle covers static specifications only")
    roles = spec.roles
    n_units, n_periods = panel.n_units, panel.n_periods
    n_obs = n_units * n_periods
    y = _demean(panel.values(roles.dependent))
    q = panel.values(roles.threshold)
    xs = [panel.values(v) for v in roles.regime_varying]
    controls = [_demean(panel.values(v)) for v in roles.invariant_controls]
    grid = candidate_grid(q, spec.trim_fraction, spec.max_grid_points)
    floor = observation_floor(spec.trim_fraction, n_obs)

    best_gamma, best_ssr = None, np.inf
    for c in grid:
        low = q <= c
        n_low = int(low.sum())
        if min(n_low, n_obs - n_low) < floor:
            continue
        cols = [_demean(x * low) for x in xs] + [_demean(x * ~low) for x in xs]
        if spec.include_intercept_shift:
            cols.append(_demean(low.astype(float)))
        _, ssr = dummy_ols_oracle(y, np.column_stack(cols + controls))
        if ssr < best_ssr:
            best_gamma, best_ssr = float(c), ssr
    if best_gamma is None:
        raise ValueError("no admissible candidate")
    _, s0 = dummy_ols_oracle(y, np.column_stack([_demean(x) for x in xs] + controls))
    dof = n_units * (n_periods - 1)
    return Oracle(gamma=best_gamma, f_statistic=(s0 - best_ssr) / (best_ssr / dof))


def _f_problem(observed: float, oracle: Oracle) -> list[str]:
    rel = abs(observed - oracle.f_statistic) / abs(oracle.f_statistic)
    if rel > F_RTOL:
        return [f"linearity F {observed!r} differs from oracle {oracle.f_statistic!r} (rel {rel:.3g})"]
    return []


def check_output(command: str, returncode: int, output: bytes, oracle: Oracle,
                 num_thresholds: int) -> list[str]:
    """Problems with one CLI run; an empty list means the run passed.

    ``output`` is the report JSON for ``report`` and standard output for
    ``test``. The argmin threshold is checked where the output carries a
    single-threshold estimate.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        payload = json.loads(output)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if command == "report":
        try:
            jsonschema.validate(payload, REPORT_SCHEMA)
        except jsonschema.ValidationError as exc:
            return [f"report fails REPORT_SCHEMA: {exc.message}"]
    try:
        if command == "test":
            return _f_problem(payload["linearity"]["f_statistic"], oracle)
        block = payload["blocks"]["threshold"]
        problems = _f_problem(block["linearity"]["f_statistic"], oracle)
        gamma = block["gammas"][0]
    except (KeyError, IndexError, TypeError) as exc:
        return [f"output lacks an expected field: {exc!r}"]
    if num_thresholds == 1 and gamma != oracle.gamma:
        problems.append(f"gamma {gamma!r} is not the oracle argmin {oracle.gamma!r}")
    return problems
