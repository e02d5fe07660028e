"""Pre-estimation diagnostics: regime descriptives, correlations, panel unit roots.

The panel unit-root test is Im-Pesaran-Shin: per-unit augmented
Dickey-Fuller t statistics (lag order chosen by AIC up to ``max_lag``) are
averaged across units and standardized with moments of the per-unit
statistic. Rather than interpolating published moment tables, the moments
are simulated once per (T, deterministic, max_lag) configuration from
driftless random walks with a fixed internal seed and cached, so the
reference distribution matches the exact sample length in use.

References
----------
Im, K. S., Pesaran, M. H., & Shin, Y. (2003). Testing for unit roots in
    heterogeneous panels. Journal of Econometrics, 115(1), 53-74.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_int
from .panel import PanelDataset

DEFAULT_MAX_LAG = 3
DEFAULT_MOMENT_DRAWS = 50_000
_MOMENT_SEED = 912_662_041  # fixed internal seed for the moment tables
_MOMENT_CHUNK = 512  # random walks per batch in the moment simulation

DETERMINISTIC_CHOICES = ("intercept", "intercept+trend")


def _normal_cdf(z: float) -> float:
    """Phi(z) = erfc(-z / sqrt(2)) / 2, computed with ``math``."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


class VarStats(NamedTuple):
    mean: float
    std: float
    min: float
    max: float
    n_obs: int


@dataclass(frozen=True)
class RegimeDescriptives:
    """Pooled and regime-conditional summaries of every panel variable.

    ``low`` covers observations with threshold value <= gamma, ``high`` the
    complement; an empty regime is reported as ``None``.
    """

    threshold_var: str
    gamma: float
    pooled: dict[str, VarStats]
    low: dict[str, VarStats] | None
    high: dict[str, VarStats] | None


def _stats_over(values: np.ndarray) -> VarStats:
    n = values.size
    std = float(np.std(values, ddof=1)) if n > 1 else 0.0
    return VarStats(float(values.mean()), std, float(values.min()), float(values.max()), n)


def regime_descriptives(
    panel: PanelDataset, threshold_var: str, gamma: float
) -> RegimeDescriptives:
    """Mean, sample SD, min, max and count per variable, pooled and by regime."""
    mask = panel.values(threshold_var) <= gamma
    low_n = int(mask.sum())
    high_n = mask.size - low_n
    pooled = {v: _stats_over(panel.values(v).ravel()) for v in panel.variable_names}
    low = (
        {v: _stats_over(panel.values(v)[mask]) for v in panel.variable_names}
        if low_n else None
    )
    high = (
        {v: _stats_over(panel.values(v)[~mask]) for v in panel.variable_names}
        if high_n else None
    )
    return RegimeDescriptives(threshold_var, float(gamma), pooled, low, high)


def correlation_matrix(panel: PanelDataset, vars: Sequence[str]) -> np.ndarray:
    """Pearson correlations over pooled observations, unit diagonal."""
    names = list(vars)
    if len(names) < 2:
        raise DataError("correlation matrix needs at least 2 variables")
    data = np.vstack([panel.values(v).ravel() for v in names])
    sd = data.std(axis=1)
    flat = np.nonzero(sd == 0.0)[0]
    if flat.size:
        raise DataError(f"variable {names[int(flat[0])]!r} has zero variance")
    corr = np.corrcoef(data)
    np.fill_diagonal(corr, 1.0)
    return corr


@dataclass(frozen=True)
class IpsResult:
    """t-bar statistic with its standardized value and one-sided p-value."""

    t_bar: float
    statistic: float
    p_value: float
    per_unit_t: tuple[float, ...]
    lags: tuple[int, ...]
    deterministic: str
    moment_mean: float
    moment_var: float


def _adf_batch(
    Y: np.ndarray, deterministic: str, max_lag: int
) -> tuple[np.ndarray, np.ndarray]:
    """ADF t statistics and AIC-selected lag orders for each row of ``Y``.

    All candidate lag orders are compared on the observations left after
    dropping ``max_lag`` initial differences, so AIC values are comparable;
    the first minimum wins, and the reported statistic is from the selected
    model on that same sample. The (B, nobs, K) design and its Gram
    matrices are built once; each lag order solves their leading k x k
    blocks for all series at once.
    """
    n_series, t_len = Y.shape
    dy = np.diff(Y, axis=1)
    n_dy = t_len - 1
    nobs = n_dy - max_lag
    base_k = 3 if deterministic == "intercept+trend" else 2
    X = np.empty((n_series, nobs, base_k + max_lag))
    X[:, :, 0] = Y[:, max_lag:n_dy]
    X[:, :, 1] = 1.0
    if base_k == 3:
        X[:, :, 2] = np.arange(nobs, dtype=float)
    for j in range(1, max_lag + 1):
        X[:, :, base_k + j - 1] = dy[:, max_lag - j:n_dy - j]
    target = dy[:, max_lag:, None]
    Xt = X.transpose(0, 2, 1)
    gram = Xt @ X
    best_aic = np.full(n_series, np.inf)
    lags = np.zeros(n_series, dtype=np.intp)
    beta0 = np.empty(n_series)
    ssr = np.empty(n_series)
    for p in range(max_lag + 1):
        k = base_k + p
        # X'y is formed per order from the leading k rows of X' rather than
        # sliced from the full product, so BLAS rounds it as in a k-column
        # fit of the series alone.
        beta = np.linalg.solve(gram[:, :k, :k], Xt[:, :k] @ target)
        resid = target - X[:, :, :k] @ beta
        ssr_p = (resid.transpose(0, 2, 1) @ resid)[:, 0, 0]
        aic = nobs * np.log(ssr_p / nobs) + 2 * k
        better = aic < best_aic
        best_aic[better] = aic[better]
        lags[better] = p
        beta0[better] = beta[better, 0, 0]
        ssr[better] = ssr_p[better]
    t = np.empty(n_series)
    for p in np.unique(lags):
        rows = np.nonzero(lags == p)[0]
        k = base_k + int(p)
        e0 = np.zeros((rows.size, k, 1))
        e0[:, 0] = 1.0
        gram_inv_00 = np.linalg.solve(gram[rows, :k, :k], e0)[:, 0, 0]
        t[rows] = beta0[rows] / np.sqrt(ssr[rows] / (nobs - k) * gram_inv_00)
    return t, lags


@lru_cache(maxsize=64)
def _ips_moments(
    t_len: int, deterministic: str, max_lag: int, draws: int, seed: int
) -> tuple[float, float]:
    """Simulated mean and variance of the per-unit ADF t under the unit-root null.

    Walks are drawn ``_MOMENT_CHUNK`` at a time in the generator's one-walk
    order and fitted alone, so the moments do not depend on the chunk; the
    working set is one chunk's ADF stacks (1.7 MB at T = 40) plus 8 B a draw.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, t_len, DETERMINISTIC_CHOICES.index(deterministic), max_lag])
    )
    ts = np.empty(draws)
    for start in range(0, draws, _MOMENT_CHUNK):
        rows = min(_MOMENT_CHUNK, draws - start)
        walks = np.cumsum(rng.standard_normal((rows, t_len)), axis=1)
        ts[start:start + rows], _ = _adf_batch(walks, deterministic, max_lag)
    return float(ts.mean()), float(ts.var(ddof=1))


def ips_test(
    panel: PanelDataset,
    var: str,
    deterministic: str = "intercept",
    max_lag: int = DEFAULT_MAX_LAG,
    seed: int = _MOMENT_SEED,
    *,
    moment_draws: int = DEFAULT_MOMENT_DRAWS,
) -> IpsResult:
    """Im-Pesaran-Shin panel unit-root test for one variable.

    Small standardized statistics (large negative) reject the unit-root
    null; the p-value is the one-sided normal left tail, ``_normal_cdf(z)``.
    """
    if deterministic not in DETERMINISTIC_CHOICES:
        raise ConfigError(
            f"deterministic must be one of {DETERMINISTIC_CHOICES}, got {deterministic!r}"
        )
    check_int(max_lag, "max_lag", 0)
    check_int(moment_draws, "moment_draws", 2)
    check_int(seed, "seed", 0)
    data = panel.values(var)
    t_len = panel.n_periods
    # The max-lag ADF model fits base_k + max_lag regressors to the
    # T - 1 - max_lag differences and needs a residual degree of freedom.
    base_k = 3 if deterministic == "intercept+trend" else 2
    if t_len - max_lag - 2 < 3 or t_len - 1 - 2 * max_lag - base_k < 1:
        raise DataError(
            f"T={t_len} too small for {deterministic} ADF regressions with max_lag={max_lag}"
        )
    flat = np.nonzero(np.ptp(data, axis=1) == 0.0)[0]
    if flat.size:
        raise DataError(
            f"unit {panel.unit_ids[int(flat[0])]!r} has a constant series for {var!r}"
        )
    per_unit, lags = _adf_batch(np.asarray(data, dtype=float), deterministic, max_lag)
    mean, var_ = _ips_moments(t_len, deterministic, max_lag, moment_draws, seed)
    t_bar = float(np.mean(per_unit))
    z = math.sqrt(per_unit.size) * (t_bar - mean) / math.sqrt(var_)
    return IpsResult(
        t_bar=t_bar,
        statistic=z,
        p_value=_normal_cdf(z),
        per_unit_t=tuple(per_unit.tolist()),
        lags=tuple(lags.tolist()),
        deterministic=deterministic,
        moment_mean=mean,
        moment_var=var_,
    )
