"""OLS and two-stage least squares for the regime equation.

The 2SLS instrument set is the design's exogenous columns, then the
excluded instruments: each instrument not among them. ``_stack`` builds it
and every design, checking each column's length against the response's.
Standard errors are homoskedastic by default (HC0 behind a flag); p-values
use the large-sample normal and chi-square references, computed with
``math`` (no scipy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ._linalg import pivoted_lstsq
from .errors import ConfigError, EstimationError, check_list
from .panel import PanelDataset
from .threshold import ThresholdFit, ThresholdSpec, _Workspace


class SarganTest(NamedTuple):
    statistic: float
    p_value: float
    df: int


class WaldTest(NamedTuple):
    statistic: float
    p_value: float
    df: int


@dataclass(frozen=True)
class RegressionResult:
    """Labeled coefficients with inference summaries for OLS or 2SLS."""

    coefficients: dict[str, float]
    std_errors: dict[str, float]
    p_values: dict[str, float]
    r_squared: float
    rmse: float
    sargan: SarganTest | None
    wald: WaldTest
    n_obs: int
    estimator: str
    ssr: float
    residuals: np.ndarray = field(repr=False)


def _stack(X: Mapping[str, np.ndarray], rows: int) -> tuple[np.ndarray, list[str]]:
    """The columns of ``X`` side by side and their names; each must have ``rows`` rows."""
    names = list(X)
    if not names:
        raise EstimationError("empty design")
    cols = [np.asarray(X[n], dtype=float).ravel() for n in names]
    for n, c in zip(names, cols):
        if c.shape[0] != rows:
            raise EstimationError(f"column {n!r} has {c.shape[0]} rows, y has {rows}")
    return np.column_stack(cols), names


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square with integer ``df`` >= 1 degrees
    of freedom; 1 for x < 0, as for a statistic rounded below zero, 0 at
    +inf, and NaN for NaN.

    Closed forms in h = x/2: for even df, e^-h * sum_{k < df/2} h^k / k!;
    for odd df, erfc(sqrt(h)) + sum_{k=1}^{(df-1)/2} e^-h h^(k-1/2) / G(k+1/2).
    Each term is formed in log space, so a tail a double can hold does not
    underflow with e^-h (past x of about 1490). df = 2 gives exp(-x/2) and
    df = 1 gives erfc(sqrt(x/2)) exactly.
    """
    h = 0.5 * float(x)
    if h <= 0:
        return 1.0
    if h == math.inf:
        return 0.0
    log_h = math.log(h)
    if df % 2:
        tail, powers = math.erfc(math.sqrt(h)), [k - 0.5 for k in range(1, df // 2 + 1)]
    else:
        tail, powers = math.exp(-h), range(1, df // 2)
    for a in powers:
        tail += math.exp(a * log_h - h - math.lgamma(a + 1.0))
    return tail


def _wald_all_slopes(beta: np.ndarray, cov: np.ndarray, constant: np.ndarray) -> WaldTest:
    slopes = np.flatnonzero(~constant)
    if not slopes.size:
        return WaldTest(0.0, 1.0, 0)
    b = beta[slopes]
    sub = cov[np.ix_(slopes, slopes)]
    stat = float(b @ np.linalg.solve(sub, b))
    return WaldTest(stat, _chi2_sf(stat, len(slopes)), len(slopes))


def _package(
    y: np.ndarray,
    M: np.ndarray,
    names: list[str],
    beta: np.ndarray,
    residuals: np.ndarray,
    design_for_cov: np.ndarray,
    estimator: str,
    sargan: SarganTest | None,
    robust: bool,
) -> RegressionResult:
    n, k = M.shape
    ssr = float(residuals @ residuals)
    dof = n - k
    if dof <= 0:
        raise EstimationError(f"no residual degrees of freedom (n={n}, k={k})")
    sigma2 = ssr / dof
    gram_inv = np.linalg.inv(design_for_cov.T @ design_for_cov)
    if robust:
        meat = design_for_cov.T @ (design_for_cov * residuals[:, None] ** 2)
        cov = gram_inv @ meat @ gram_inv
    else:
        cov = sigma2 * gram_inv
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, np.inf)
    pvals = [math.erfc(abs(v) / math.sqrt(2.0)) for v in z.tolist()]
    constant = np.ptp(M, axis=0) == 0
    tss = float(np.sum((y - y.mean()) ** 2)) if constant.any() else float(y @ y)
    r2 = 1.0 - ssr / tss if tss > 0 else float("nan")
    return RegressionResult(
        coefficients={nm: float(b) for nm, b in zip(names, beta)},
        std_errors={nm: float(s) for nm, s in zip(names, se)},
        p_values={nm: float(p) for nm, p in zip(names, pvals)},
        r_squared=r2,
        rmse=float(np.sqrt(ssr / dof)),
        sargan=sargan,
        wald=_wald_all_slopes(beta, cov, constant),
        n_obs=n,
        estimator=estimator,
        ssr=ssr,
        residuals=residuals,
    )


def ols(y, X: Mapping[str, np.ndarray], *, robust: bool = False) -> RegressionResult:
    """Ordinary least squares on a named column mapping.

    Raises on rank deficiency, naming the offending column. R-squared is
    centered when the design contains a constant column, uncentered
    otherwise; RMSE is sqrt(SSR / (n - k)).
    """
    yv = np.asarray(y, dtype=float).ravel()
    M, names = _stack(X, yv.shape[0])
    res = pivoted_lstsq(M, yv, on_deficient="raise", names=names)
    return _package(yv, M, names, res.beta, res.residuals, M, "OLS", None, robust)


def two_sls(
    y,
    X: Mapping[str, np.ndarray],
    endogenous: Sequence[str],
    Z: Mapping[str, np.ndarray],
    *,
    robust: bool = False,
) -> RegressionResult:
    """Two-stage least squares with Sargan overidentification test.

    The exogenous columns of ``X`` join the instruments of ``Z``; an
    instrument named like one of them is that column, not an excluded one.
    Standard errors use residuals from the original (not projected)
    regressors. The Sargan statistic is n times the R-squared of the 2SLS
    residuals regressed on the full instrument set, chi-square with
    (#excluded instruments - #endogenous) degrees of freedom, reported only
    when over-identified.
    """
    yv = np.asarray(y, dtype=float).ravel()
    endog = list(dict.fromkeys(endogenous))
    unknown = [e for e in endog if e not in X]
    if unknown:
        raise EstimationError(f"endogenous names not in design: {', '.join(unknown)}")
    exogenous = {n: v for n, v in X.items() if n not in endog}
    excluded = {n: v for n, v in Z.items() if n not in exogenous}
    if len(excluded) < len(endog):
        raise EstimationError(f"under-identified: {len(excluded)} excluded instruments for "
                              f"{len(endog)} endogenous regressors")
    M, names = _stack(X, yv.shape[0])
    Zfull, znames = _stack({**exogenous, **excluded}, yv.shape[0])
    M_hat = M.copy()
    for e in endog:
        j = names.index(e)
        first = pivoted_lstsq(Zfull, M[:, j], on_deficient="raise", names=znames)
        M_hat[:, j] = Zfull @ first.beta
    second = pivoted_lstsq(M_hat, yv, on_deficient="raise", names=names)
    residuals = yv - M @ second.beta
    df = len(excluded) - len(endog)
    sargan = _sargan(residuals, Zfull, df) if df > 0 else None
    return _package(yv, M, names, second.beta, residuals, M_hat, "2SLS", sargan, robust)


def _sargan(residuals: np.ndarray, Zfull: np.ndarray, df: int) -> SarganTest:
    aux = pivoted_lstsq(Zfull, residuals, on_deficient="drop")
    rss0 = float(residuals @ residuals)
    stat = len(residuals) * (1.0 - aux.ssr / rss0) if rss0 > 0 else 0.0
    return SarganTest(float(stat), _chi2_sf(stat, df), df)


def estimate_regime_equation(
    panel: PanelDataset,
    spec: ThresholdSpec,
    fit: ThresholdFit,
    estimator: str = "OLS",
    instruments: Sequence[str] | None = None,
    *,
    robust: bool = False,
) -> RegressionResult:
    """Estimate the regime equation at the fitted thresholds (see
    ``regime_equation_on``)."""
    return regime_equation_on(_Workspace(panel, spec), fit, estimator, instruments, robust=robust)


def regime_equation_on(
    ws: _Workspace,
    fit: ThresholdFit,
    estimator: str = "OLS",
    instruments: Sequence[str] | None = None,
    *,
    robust: bool = False,
) -> RegressionResult:
    """Estimate the regime equation at the fitted thresholds on the
    workspace's estimation sample.

    Assembles the pooled design (constant, optional dependent-variable lag,
    regime-interacted slopes, optional intercept shifts, invariant controls)
    and runs OLS or 2SLS. Under 2SLS the regime-interacted slope columns are
    treated as endogenous and each supplied instrument is interacted with
    the regime indicators so every endogenous column has regime-specific
    instruments.
    """
    estimator = estimator.upper()
    if estimator not in ("OLS", "2SLS"):
        raise ConfigError(f"estimator must be OLS or 2SLS, got {estimator!r}")
    roles, panel, gammas = ws.spec.roles, ws.panel, fit.gammas
    regime = np.sum(ws.q[:, None] > np.asarray(gammas)[None, :], axis=1)
    indicators = [(regime == r).astype(float) for r in range(len(gammas) + 1)]
    X: dict[str, np.ndarray] = {"C": np.ones(ws.n_obs)}
    if ws.lag is not None:
        X[f"{roles.dependent} (-1)"] = panel.values(ws.lag).ravel()
    slope_labels: list[str] = []
    for r, ind in enumerate(indicators, start=1):
        for v in roles.regime_varying:
            label = f"{v} (beta{r})"
            X[label] = panel.values(v).ravel() * ind
            slope_labels.append(label)
    if ws.spec.include_intercept_shift:
        for k, g in enumerate(gammas, start=1):
            X[f"shift{k}"] = (ws.q <= g).astype(float)
    for v in roles.invariant_controls:
        X[v] = panel.values(v).ravel()
    y = panel.values(roles.dependent).ravel()
    if estimator == "OLS":
        return ols(y, X, robust=robust)
    instruments = check_list(instruments or roles.instruments, "instruments", str)
    if not instruments:
        raise ConfigError("2SLS requires at least one instrument")
    Z: dict[str, np.ndarray] = {}
    for z in instruments:
        zvals = panel.values(z).ravel()
        for r, ind in enumerate(indicators, start=1):
            Z[f"{z} (regime{r})"] = zvals * ind
    return two_sls(y, X, slope_labels, Z, robust=robust)
