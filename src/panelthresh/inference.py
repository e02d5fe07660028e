"""Bootstrap threshold tests and likelihood-ratio confidence sets.

There is one test, Hansen's (1999) sequential F test of k thresholds
against k + 1, F_k = (S_k - S_{k+1}) / sigma2_hat_{k+1}; the linearity test
is k = 0, with S_0 the linear model's SSR. It is calibrated by the
fixed-regressor bootstrap of Hansen (1996, 1999): residual vectors are
resampled whole, by unit and with replacement, from the richer model's
residuals, the dependent variable is regenerated under the null model's
fitted values, and both models are re-estimated on each replication by the
same sequential estimator. Per-replication RNG streams derive from (seed,
replication index) and threads spread only the fixed-threshold groups of a
scan step, so p-values do not depend on the thread count.

Confidence sets for the threshold invert the likelihood-ratio statistic
against the closed-form critical value -2 log(1 - sqrt(1 - alpha)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError, check_int, check_number
from .panel import PanelDataset
from .threshold import (
    SSRScan,
    ThresholdFit,
    ThresholdSpec,
    _fit_ws,
    _ssr_ws,
    _Workspace,
    build_scan,
    observed_stages,
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
    disconnected non-rejection regions. Its entries are exact (pivoted QR)
    wherever the fit's profile is exact and wherever the side of the
    critical value was in doubt; each other entry is screened, within its
    profile slack divided by sigma2_hat of the exact LR, and on the same
    side of the critical value.
    """

    level: float
    lower: float
    upper: float
    critical_value: float
    lr_profile: tuple[tuple[float, float], ...]


def critical_value(alpha: float) -> float:
    """Closed-form LR critical value -2 log(1 - sqrt(1 - alpha))."""
    if not 0.0 < check_number(alpha, "alpha") < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    return -2.0 * math.log(1.0 - math.sqrt(1.0 - alpha))


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, rep]))


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
    screened scan factorizes them once; each replication costs one
    cumulative sum of the regenerated response, which locates its threshold
    and screens both S0 and S1. Pivoted QR prices only the few replications
    whose F* could move the p-value or a critical value.
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

    F = (S_null - S_alt) / (S_alt / N(T - 1)), with S_null and S_alt the SSRs
    at entries k_null and k_null + 1 of a sequential chain: by ``_fit_ws`` on
    ``observed_stages``, and for each replication from the records of its own
    ``sequential_estimates`` chain. A replication whose chain stops short of
    k_null + 1 thresholds, or whose S_alt is not positive, scores F* = 0 and
    counts as degenerate.

    B, the seed and ``threads`` are checked before any scan. The unit picks
    are drawn up front (B x N int32), each replication's from its own stream,
    and one ``sequential_estimates`` call runs all B responses, so
    ``threads`` spreads the fixed-threshold groups of each step.

    Each F* is then priced from its chain's two records. Their SSRs, within
    their slacks (padded as in ``ci_on``), bound F* to an interval, padded
    for the rounding of the formula. A p-value reads only the side of the
    observed F each F* falls on, and a critical value only the order
    statistics ``np.quantile`` reads (Davidson and MacKinnon 2000). So a
    replication is priced exactly, by ``_ssr_ws`` on the calling thread in
    replication order for each side with a nonzero slack, only when its
    interval holds the observed F, when S_alt's lower end is not positive,
    when the interval is not finite, or, repeated until no more are, when
    its possible ranks meet a position one of ``CRITICAL_LEVELS`` reads.
    Every other F* is its interval's lower end, on the side and at the ranks
    of its exact value. So ``bootstrap_p``, ``critical_values`` and
    ``degenerate_replications`` are bitwise those of pricing every
    replication exactly.
    """
    if k_null not in (0, 1, 2):
        raise ConfigError(f"k_null must be 0, 1 or 2, got {k_null}")
    if check_int(B, "B") < MIN_REPLICATIONS:
        raise ConfigError(f"need at least {MIN_REPLICATIONS} bootstrap replications, got {B}")
    check_int(seed, "seed", 0)
    check_int(threads, "threads", 1)
    ws = scan.ws
    n = ws.n_units
    stages = observed_stages(scan, k_null + 1)
    null_fit, alt_fit = (_fit_ws(ws, g) for g in [(), *stages][k_null:k_null + 2])
    f_obs = (null_fit.ssr - alt_fit.ssr) / (alt_fit.ssr / ws.dof)
    fitted_null = ws.y - null_fit.residuals.ravel()
    picks = np.array([_rep_rng(seed, rep).integers(0, n, size=n) for rep in range(B)], np.int32)

    def response(rep: int) -> np.ndarray:
        return ws._demean_cols(fitted_null + alt_fit.residuals[picks[rep]].ravel())

    chains = sequential_estimates(scan, k_null + 1, B, response, threads=threads)
    pairs = [chain[k_null:k_null + 2] for chain in chains]
    # A chain short of k_null + 1 thresholds is F* = 0: exact and degenerate.
    exact = np.array([len(pair) < 2 for pair in pairs])
    degenerate = exact.copy()
    ssr, slack = np.zeros((B, 2)), np.zeros((B, 2))
    for rep in np.nonzero(~exact)[0]:
        ssr[rep] = [stage.ssr for stage in pairs[rep]]
        slack[rep] = [stage.slack for stage in pairs[rep]]
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    pad = slack + 4.0 * eps * (np.abs(ssr) + slack)
    ends = np.stack([ssr - pad, ssr + pad], axis=2)
    with np.errstate(all="ignore"):
        # F rises with S_null and is monotone in S_alt > 0: the corners bound it.
        alt_ends = ends[:, 1, None, :]
        corners = ((ends[:, 0, :, None] - alt_ends) / (alt_ends / ws.dof)).reshape(B, 4)
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        lo, hi = lo - 16.0 * eps * np.abs(lo) - tiny, hi + 16.0 * eps * np.abs(hi) + tiny
    lo[exact] = hi[exact] = 0.0
    todo = ~exact & ((lo < f_obs) & (f_obs <= hi) | (ends[:, 1, 0] <= 0)
                     | ~np.isfinite(lo + hi))

    def price(rep: int) -> float:
        null, alt = pairs[rep]
        y = response(rep)
        s_alt = _ssr_ws(ws, alt.gammas, y) if alt.slack else alt.ssr
        if s_alt <= 0:
            degenerate[rep] = True
            return 0.0
        s_null = _ssr_ws(ws, null.gammas, y) if null.slack else null.ssr
        return (s_null - s_alt) / (s_alt / ws.dof)

    reads = np.array(sorted({i for a in CRITICAL_LEVELS for i in _quantile_reads(B, 1.0 - a)}))
    while True:
        for rep in np.nonzero(todo)[0]:
            lo[rep] = hi[rep] = price(rep)
        exact |= todo
        # ranks from #{hi_k < lo_i} to B - 1 - #{lo_k > hi_i}
        lowest = np.searchsorted(np.sort(hi), lo, side="left")
        highest = np.searchsorted(np.sort(lo), hi, side="right") - 1
        todo = ~exact & np.any((lowest[:, None] <= reads) & (reads <= highest[:, None]), axis=1)
        if not todo.any():
            break
    return BootstrapTestResult(
        f_statistic=float(f_obs),
        bootstrap_p=float(np.count_nonzero(lo >= f_obs)) / B,
        critical_values={a: float(np.quantile(lo, 1.0 - a)) for a in CRITICAL_LEVELS},
        replications=B,
        seed=int(seed),
        null_model=_MODEL_NAMES[k_null],
        alt_model=_MODEL_NAMES[k_null + 1],
        degenerate_replications=int(np.count_nonzero(degenerate)),
    )


def _quantile_reads(count: int, q: float) -> tuple[int, int]:
    """The two sorted positions ``np.quantile`` (linear method) reads for
    quantile ``q`` of ``count`` values."""
    below = math.floor((count - 1) * q)
    return below, min(below + 1, count - 1)


def threshold_ci(
    panel: PanelDataset,
    spec: ThresholdSpec,
    fit: ThresholdFit,
    alpha: float,
    threshold_index: int = 0,
) -> ThresholdCI:
    """Invert the LR statistic around one estimated threshold (see ``ci_on``)."""
    return ci_on(_Workspace(panel, spec), fit, alpha, threshold_index)


def ci_on(ws: _Workspace, fit: ThresholdFit, alpha: float, threshold_index: int = 0) -> ThresholdCI:
    """Invert the LR statistic around one estimated threshold on the
    workspace the fit was estimated on.

    LR(gamma) = (S(gamma) - S(gamma_hat)) / sigma2_hat over the fit's SSR
    profile (conditional on the other thresholds for multi-threshold fits).
    The reported interval is the hull of the non-rejection set. Because the
    SSR is a step function of gamma that only changes at observed threshold
    values, every accepted candidate's non-rejection region extends up to
    the next observed value; the upper endpoint accounts for that, so a
    sharply identified fit still yields an interval of positive width.

    The profile's screened entries are re-evaluated by pivoted QR only where
    their slack leaves the side of c(alpha) in doubt, so ``lower`` and
    ``upper`` are those of the full pivoted profile for any alpha.
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
    ssrs = [s for _, s in profile]
    if fit.ssr_profile_slacks:
        # A screened entry is unclear when the LR of any SSR within its slack
        # (padded by a few ulps for the rounding of s +- slack) could fall on
        # either side of c(alpha); only those are re-evaluated exactly.
        values = np.array(ssrs)
        slack = np.array(fit.ssr_profile_slacks[threshold_index])
        pad = slack + 4.0 * np.finfo(float).eps * (np.abs(values) + slack)
        clear = ((values + pad - fit.ssr) / fit.sigma2 <= c_alpha) | (
            (values - pad - fit.ssr) / fit.sigma2 > c_alpha)
        fixed = fit.gammas[:threshold_index] + fit.gammas[threshold_index + 1:]
        for i in np.nonzero((slack > 0) & ~clear)[0]:
            ssrs[i] = _ssr_ws(ws, (*fixed, profile[i][0]))
    lr_profile = tuple((g, (s - fit.ssr) / fit.sigma2) for (g, _), s in zip(profile, ssrs))
    accepted = [g for g, v in lr_profile if v <= c_alpha]
    accepted.append(gamma_hat)
    hi = max(accepted)
    nxt = np.searchsorted(ws.q_sorted, hi, side="right")
    upper = float(ws.q_sorted[nxt]) if nxt < ws.n_obs else float(hi)
    return ThresholdCI(
        level=1.0 - alpha,
        lower=float(min(accepted)),
        upper=upper,
        critical_value=c_alpha,
        lr_profile=lr_profile,
    )
