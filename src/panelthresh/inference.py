"""Bootstrap threshold tests and likelihood-ratio confidence sets.

There is one test, Hansen's (1999) sequential F test of k thresholds
against k + 1, F_k = (S_k - S_{k+1}) / sigma2_hat_{k+1}; the linearity test
is k = 0, with S_0 the linear model's SSR. It is calibrated by the
fixed-regressor bootstrap of Hansen (1996, 1999): residual vectors are
resampled whole, by unit and with replacement, from the richer model's
residuals, the dependent variable is regenerated under the null model's
fitted values, and both models are re-estimated on each replication by the
same sequential estimator. Per-replication RNG streams derive from (seed,
replication index), so p-values do not depend on how replications are
scheduled across threads.

Confidence sets for the threshold invert the likelihood-ratio statistic
against the closed-form critical value -2 log(1 - sqrt(1 - alpha)).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ._linalg import pivoted_lstsq
from .errors import ConfigError, EstimationError
from .panel import PanelDataset
from .threshold import (
    SSRScan,
    ThresholdFit,
    ThresholdSpec,
    _demean_rows,
    _fit_ws,
    build_scan,
    estimation_panel,
    no_split_message,
    sequential_estimates,
)

MIN_REPLICATIONS = 99
DEFAULT_REPLICATIONS = 1000
CRITICAL_LEVELS = (0.10, 0.05, 0.01)
_MODEL_NAMES = ("linear", "1 threshold", "2 thresholds", "3 thresholds")


@dataclass(frozen=True)
class BootstrapTestResult:
    """Observed F statistic with its bootstrap reference distribution.

    ``degenerate_replications`` counts replications scored F* = 0 because a
    conditional scan had no admissible split or the richer model's SSR was
    not positive.
    """

    f_statistic: float
    bootstrap_p: float
    critical_values: dict[float, float]
    replications: int
    seed: int
    null_model: str
    alt_model: str
    degenerate_replications: int = 0


@dataclass(frozen=True)
class ThresholdCI:
    """Likelihood-ratio inversion confidence set for one threshold.

    ``lower`` and ``upper`` are the interval hull of the non-rejection set;
    ``lr_profile`` exposes the full (gamma, LR) profile so callers can see
    disconnected non-rejection regions.
    """

    level: float
    lower: float
    upper: float
    critical_value: float
    lr_profile: tuple[tuple[float, float], ...]


def critical_value(alpha: float) -> float:
    """Closed-form LR critical value -2 log(1 - sqrt(1 - alpha))."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    return -2.0 * math.log(1.0 - math.sqrt(1.0 - alpha))


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, rep]))


def run_indexed(count: int, threads: int, worker: Callable[[int], Any]) -> list:
    """``[worker(0), ..., worker(count - 1)]`` in contiguous chunks on at most
    ``min(threads, count)`` threads; each result lands at its own index,
    whatever the thread count."""
    out: list = [None] * count
    threads = min(threads, count)

    def chunk(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            out[i] = worker(i)

    if threads <= 1:
        chunk(0, count)
        return out
    bounds = np.linspace(0, count, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(chunk, bounds[i], bounds[i + 1]) for i in range(threads)]
        for f in futures:
            f.result()
    return out


def linearity_test(
    panel: PanelDataset,
    spec: ThresholdSpec,
    B: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
    *,
    threads: int = 1,
) -> BootstrapTestResult:
    """Bootstrap F test of the linear model against one threshold.

    F1 = (S0 - S1(gamma_hat)) / sigma2_hat, with sigma2_hat the
    single-threshold residual variance: ``regime_count_on`` with k_null = 0.
    The candidate Gram matrices are fixed across replications, so the
    screened scan factorizes them once and each replication costs one
    cumulative sum of the regenerated response plus exact re-evaluation of
    the few candidates near the minimum.
    """
    return regime_count_on(build_scan(panel, spec), 0, B, seed, threads=threads)


def additional_threshold_test(
    panel: PanelDataset,
    spec: ThresholdSpec,
    k_null: int,
    B: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
    *,
    threads: int = 1,
) -> BootstrapTestResult:
    """Bootstrap F test of k_null thresholds against k_null + 1 (1 or 2).

    The observed statistic compares the sequentially estimated nested fits;
    sigma2_hat comes from the richer model. Each bootstrap replication
    re-runs the same sequential estimator (including the refinement pass)
    on the regenerated response.

    Only the full observed-value grid is calibrated. When more than
    ``spec.max_grid_points`` trimmed values exist the grid is thinned, and
    the thinned sequential estimates sit a few observations off, so the
    extra threshold absorbs the misfit and the test over-rejects: on 8x36
    two-threshold panels with ``max_grid_points=120``, 2-vs-3 rejects at
    0.525 / 0.625 at alpha = 5% / 10%.
    """
    if k_null not in (1, 2):
        raise ConfigError(f"k_null must be 1 or 2, got {k_null}")
    return regime_count_on(build_scan(panel, spec), k_null, B, seed, threads=threads)


def regime_count_on(
    scan: SSRScan, k_null: int, B: int, seed: int, *, threads: int = 1
) -> BootstrapTestResult:
    """Sequential bootstrap F test of k_null thresholds against k_null + 1 on a
    built scan, for k_null = 0 (linearity), 1 or 2.

    F = (S_null - S_alt) / (S_alt / dof) from the sequential stages; the
    linear SSR (k_null = 0) is a pivoted least-squares fit on the fixed
    linear design. A replication whose sequential estimate stops short of
    k_null + 1 thresholds, or whose S_alt is not positive, scores F* = 0
    and counts as degenerate.
    """
    ws = scan.ws
    n, t = ws.n_units, ws.n_periods
    dof = n * (t - 1)
    stages = sequential_estimates(scan, k_null + 1)
    if len(stages) <= k_null:
        raise EstimationError(no_split_message(len(stages)))
    null_fit = _fit_ws(ws, stages[k_null - 1][0] if k_null else ())
    s_alt = stages[k_null][1]
    f_obs = (null_fit.ssr - s_alt) / (s_alt / dof)
    fitted_null = ws.y.reshape(n, t) - null_fit.residuals
    resid_alt = _fit_ws(ws, stages[k_null][0]).residuals
    if B < MIN_REPLICATIONS:
        raise ConfigError(f"need at least {MIN_REPLICATIONS} bootstrap replications, got {B}")
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    X0 = None if k_null else ws.design(())[0]

    def worker(rep: int) -> float | None:
        draw = _rep_rng(seed, rep).integers(0, n, size=n)
        ystar = _demean_rows(fitted_null + resid_alt[draw]).ravel()
        found = sequential_estimates(scan, k_null + 1, ystar)
        if len(found) <= k_null or found[k_null][1] <= 0:
            return None
        s_null = found[k_null - 1][1] if k_null else pivoted_lstsq(X0, ystar).ssr
        return (s_null - found[k_null][1]) / (found[k_null][1] / dof)

    draws = run_indexed(B, threads, worker)
    f_boot = np.array([0.0 if f is None else f for f in draws])
    return BootstrapTestResult(
        f_statistic=float(f_obs),
        bootstrap_p=float(np.count_nonzero(f_boot >= f_obs)) / B,
        critical_values={a: float(np.quantile(f_boot, 1.0 - a)) for a in CRITICAL_LEVELS},
        replications=B,
        seed=int(seed),
        null_model=_MODEL_NAMES[k_null],
        alt_model=_MODEL_NAMES[k_null + 1],
        degenerate_replications=sum(f is None for f in draws),
    )


def threshold_ci(
    panel: PanelDataset,
    spec: ThresholdSpec,
    fit: ThresholdFit,
    alpha: float,
    threshold_index: int = 0,
) -> ThresholdCI:
    """Invert the LR statistic around one estimated threshold.

    LR(gamma) = (S(gamma) - S(gamma_hat)) / sigma2_hat over the fit's SSR
    profile (conditional on the other thresholds for multi-threshold fits).
    The reported interval is the hull of the non-rejection set. Because the
    SSR is a step function of gamma that only changes at observed threshold
    values, every accepted candidate's non-rejection region extends up to
    the next observed value; the upper endpoint accounts for that, so a
    sharply identified fit still yields an interval of positive width.
    """
    c_alpha = critical_value(alpha)
    if not fit.ssr_profiles:
        raise EstimationError("fit carries no SSR profile; run the grid estimator first")
    if not 0 <= threshold_index < len(fit.ssr_profiles):
        raise EstimationError(
            f"threshold_index {threshold_index} out of range for {len(fit.gammas)} thresholds"
        )
    profile = fit.ssr_profiles[threshold_index]
    gamma_hat = fit.gammas[threshold_index]
    lr_profile = tuple((g, (s - fit.ssr) / fit.sigma2) for g, s in profile)
    accepted = [g for g, v in lr_profile if v <= c_alpha]
    accepted.append(gamma_hat)
    hi = max(accepted)
    q_panel, _ = estimation_panel(panel, spec)
    observed = np.unique(q_panel.values(spec.roles.threshold))
    nxt = np.searchsorted(observed, hi, side="right")
    upper = float(observed[nxt]) if nxt < observed.size else float(hi)
    return ThresholdCI(
        level=1.0 - alpha,
        lower=float(min(accepted)),
        upper=upper,
        critical_value=c_alpha,
        lr_profile=lr_profile,
    )
