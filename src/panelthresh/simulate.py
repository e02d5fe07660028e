"""Synthetic panels with planted thresholds and the Monte Carlo harnesses.

Every generator is driven by numpy's PCG64 through ``SeedSequence``, with
per-trial streams derived from (master seed, trial index); summaries record
the generator name so results are reproducible across machines and
scheduling orders.

``dummy_ols_oracle`` is an independent normal-equations solver (explicit
Gaussian elimination) kept free of the main least-squares path; it exists
so tests can cross-check coefficients and SSR against a second route.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import _normal_cdf
from .errors import (ConfigError, EstimationError, check_flag, check_int, check_list,
                     check_number, check_str)
from .inference import ci_on, regime_count_on
from .panel import PanelDataset, VariableRole
from .threshold import ThresholdSpec, build_scan, estimate_on, run_indexed

RNG_DESCRIPTOR = {
    "generator": "numpy PCG64 via SeedSequence([seed, index])",
    "numpy": np.__version__,
}

MIN_TRIALS = 50


@dataclass(frozen=True)
class ThresholdDGP:
    """Data-generating process for a balanced panel with regime-switching slopes.

    The first regime-varying regressor is the threshold variable itself when
    ``threshold_in_regressors`` is set (the default), matching the common
    empirical shape where the switching variable also carries the switching
    slope. With ``endogeneity_rho`` nonzero the threshold variable's
    innovation is correlated with the error and two valid, relevant
    instruments ``z1``/``z2`` are emitted alongside.
    """

    n_units: int
    n_periods: int
    gamma0: float | tuple[float, ...]
    beta_low: tuple[float, ...]
    beta_high: tuple[float, ...]
    delta0: float = 0.0
    theta0: float | None = None
    fixed_effect_sd: float = 1.0
    noise_sd: float = 1.0
    threshold_dist: str = "uniform(0,1)"
    endogeneity_rho: float = 0.0
    seed: int = 0
    beta_regimes: tuple[tuple[float, ...], ...] | None = None
    control_betas: tuple[float, ...] = ()
    threshold_in_regressors: bool = True

    def __post_init__(self):
        check_int(self.n_units, "n_units", 2)
        check_int(self.n_periods, "n_periods", 3)
        check_int(self.seed, "seed", 0)
        for name in ("delta0", "fixed_effect_sd", "noise_sd", "endogeneity_rho"):
            check_number(getattr(self, name), name)
        if self.theta0 is not None:
            check_number(self.theta0, "theta0")
        for name in ("beta_low", "beta_high", "control_betas"):
            object.__setattr__(self, name, check_list(getattr(self, name), name, float))
        if isinstance(self.gamma0, (list, tuple)):
            object.__setattr__(self, "gamma0", check_list(self.gamma0, "gamma0", float))
        else:
            check_number(self.gamma0, "gamma0")
        if self.beta_regimes is not None:
            object.__setattr__(self, "beta_regimes", tuple(
                check_list(b, f"beta_regimes[{i}]", float)
                for i, b in enumerate(check_list(self.beta_regimes, "beta_regimes", list))))
        check_flag(self.threshold_in_regressors, "threshold_in_regressors")
        if self.noise_sd < 0 or self.fixed_effect_sd < 0:
            raise ConfigError("standard deviations must be nonnegative")
        if not -1.0 <= self.endogeneity_rho <= 1.0:
            raise ConfigError(f"endogeneity_rho must be in [-1, 1], got {self.endogeneity_rho}")
        if self.theta0 is not None and not -1.0 < self.theta0 < 1.0:
            raise ConfigError(f"theta0 must be in (-1, 1), got {self.theta0}")
        if len(self.beta_low) != len(self.beta_high) or not self.beta_low:
            raise ConfigError("beta_low and beta_high must be equal-length, nonempty vectors")
        _parse_dist(check_str(self.threshold_dist, "threshold_dist"))
        if self.beta_regimes is not None:
            if len(self.beta_regimes) != len(self.gammas0) + 1:
                raise ConfigError(
                    f"beta_regimes needs {len(self.gammas0) + 1} vectors, got {len(self.beta_regimes)}"
                )
            if any(len(b) != len(self.beta_low) for b in self.beta_regimes):
                raise ConfigError("beta_regimes vectors must match beta_low length")
        elif len(self.gammas0) != 1:
            raise ConfigError("multi-threshold generation requires explicit beta_regimes")

    @property
    def gammas0(self) -> tuple[float, ...]:
        g = self.gamma0
        return tuple(float(v) for v in g) if isinstance(g, tuple) else (float(g),)

    @property
    def regime_betas(self) -> tuple[tuple[float, ...], ...]:
        if self.beta_regimes is not None:
            return self.beta_regimes
        return (self.beta_low, self.beta_high)


@dataclass(frozen=True)
class TruthRecord:
    """Planted parameters emitted alongside a simulated panel."""

    gammas: tuple[float, ...]
    betas_by_regime: tuple[tuple[float, ...], ...]
    delta: float
    theta: float | None
    roles: VariableRole
    rng: dict[str, str] = field(default_factory=lambda: dict(RNG_DESCRIPTOR))


def _parse_dist(descriptor: str) -> tuple[str, float, float]:
    m = re.fullmatch(
        r"\s*(uniform|lognormal)\s*\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)\s*",
        descriptor,
    )
    if not m:
        raise ConfigError(
            f"threshold_dist must look like 'uniform(a,b)' or 'lognormal(mu,sigma)', got {descriptor!r}"
        )
    kind = m.group(1)
    try:
        a, b = float(m.group(2)), float(m.group(3))
    except ValueError:
        a = b = math.nan
    if not math.isfinite(a) or not math.isfinite(b):
        raise ConfigError(f"threshold_dist must be a distribution of finite numbers, got {descriptor!r}")
    if kind == "uniform" and not (b > a and math.isfinite(b - a)):
        raise ConfigError(f"uniform bounds must satisfy a < b with b - a finite, got {descriptor!r}")
    if kind == "lognormal" and b <= 0:
        raise ConfigError(f"lognormal sigma must be positive, got {descriptor!r}")
    return kind, a, b


def _from_gaussian(kind: str, a: float, b: float, g: np.ndarray) -> np.ndarray:
    if kind == "uniform":
        return a + (b - a) * np.frompyfunc(_normal_cdf, 1, 1)(g).astype(float)
    return np.exp(a + b * g)


def simulate_threshold_panel(dgp: ThresholdDGP) -> tuple[PanelDataset, TruthRecord]:
    """Draw one balanced panel from the DGP plus its truth record.

    Identical seeds produce identical panels bit for bit. With a dynamic
    coefficient the recursion is warmed up over 50 burn-in periods that are
    discarded.
    """
    rng = np.random.default_rng(np.random.SeedSequence([dgp.seed]))
    n, t_keep = dgp.n_units, dgp.n_periods
    burn = 50 if dgp.theta0 is not None else 0
    t_gen = t_keep + burn
    k1 = len(dgp.beta_low)
    kind, a, b = _parse_dist(dgp.threshold_dist)

    fe = rng.normal(0.0, dgp.fixed_effect_sd, size=n)
    eta = rng.standard_normal((n, t_gen))
    eps = dgp.noise_sd * eta

    instruments: dict[str, np.ndarray] = {}
    if dgp.endogeneity_rho != 0.0:
        rho = dgp.endogeneity_rho
        v = rng.standard_normal((n, t_gen))
        z1 = rng.standard_normal((n, t_gen))
        z2 = rng.standard_normal((n, t_gen))
        u_q = rho * eta + math.sqrt(1.0 - rho * rho) * v
        q = _from_gaussian(kind, a, b, (z1 + z2 + u_q) / math.sqrt(3.0))
        instruments = {"z1": z1, "z2": z2}
    else:
        if kind == "uniform":
            q = rng.uniform(a, b, size=(n, t_gen))
        else:
            q = rng.lognormal(a, b, size=(n, t_gen))
    if not np.all(np.isfinite(q)):
        raise ConfigError(f"threshold_dist must be a distribution of finite draws, got "
                          f"{dgp.threshold_dist!r}, which drew a non-finite threshold")

    rv_names = ["q"] if dgp.threshold_in_regressors else []
    regressors: dict[str, np.ndarray] = {}
    for j in range(len(rv_names) + 1, k1 + 1):
        rv_names.append(f"x{j}")
        regressors[f"x{j}"] = rng.standard_normal((n, t_gen))
    x = np.stack([regressors.get(name, q) for name in rv_names], axis=2)

    controls: dict[str, np.ndarray] = {}
    kc = len(dgp.control_betas)
    c = np.empty((n, t_gen, kc))
    for j in range(kc):
        c[:, :, j] = rng.standard_normal((n, t_gen))
        controls[f"c{j + 1}"] = c[:, :, j]

    gammas = dgp.gammas0
    regime = np.sum(q[:, :, None] > np.asarray(gammas)[None, None, :], axis=2)
    betas = np.asarray(dgp.regime_betas)
    slope = np.einsum("ntk,ntk->nt", x, betas[regime])
    shift = dgp.delta0 * np.sum(q[:, :, None] <= np.asarray(gammas)[None, None, :], axis=2)
    ctrl = np.einsum("ntk,k->nt", c, np.asarray(dgp.control_betas)) if kc else 0.0
    structural = slope + shift + ctrl

    if dgp.theta0 is None:
        y = fe[:, None] + structural + eps
    else:
        y = np.empty((n, t_gen))
        prev = fe / (1.0 - dgp.theta0)
        for s in range(t_gen):
            prev = fe + dgp.theta0 * prev + structural[:, s] + eps[:, s]
            y[:, s] = prev

    keep = slice(burn, t_gen)
    variables = {"y": y[:, keep], "q": q[:, keep]}
    variables.update({k: v[:, keep] for k, v in regressors.items()})
    variables.update({k: v[:, keep] for k, v in controls.items()})
    variables.update({k: v[:, keep] for k, v in instruments.items()})
    panel = PanelDataset(
        unit_ids=[f"u{i + 1}" for i in range(n)],
        periods=[str(s + 1) for s in range(t_keep)],
        variables=variables,
        metadata={"seed": str(dgp.seed), **RNG_DESCRIPTOR},
    )
    roles = VariableRole(
        dependent="y",
        threshold="q",
        regime_varying=tuple(rv_names),
        invariant_controls=tuple(controls),
        instruments=tuple(instruments),
    )
    truth = TruthRecord(
        gammas=gammas,
        betas_by_regime=dgp.regime_betas,
        delta=dgp.delta0,
        theta=dgp.theta0,
        roles=roles,
    )
    return panel, truth


def benchmark_dgp(
    contrast: float = 0.3,
    noise_sd: float = 1.0,
    seed: int = 42,
    gamma0: float = 12.741,
    base_slope: float = 0.2,
) -> ThresholdDGP:
    """Small-panel benchmark: 8 units x 36 periods, lognormal threshold variable.

    The threshold variable doubles as the switching regressor; its lognormal
    parameters put roughly 55-60% of the observations below ``gamma0`` with
    regime means around 8 and 25. ``contrast`` is the high-minus-low slope
    difference.
    """
    return ThresholdDGP(
        n_units=8,
        n_periods=36,
        gamma0=gamma0,
        beta_low=(base_slope,),
        beta_high=(base_slope + contrast,),
        delta0=0.0,
        fixed_effect_sd=1.0,
        noise_sd=noise_sd,
        threshold_dist="lognormal(2.45,0.75)",
        seed=seed,
    )


def default_spec(truth: TruthRecord, **overrides) -> ThresholdSpec:
    """A ThresholdSpec matching a simulated panel's roles."""
    kwargs = {
        "roles": truth.roles,
        "include_intercept_shift": True,
        "dynamic_lag": truth.theta is not None,
        "num_thresholds": len(truth.gammas),
    }
    kwargs.update(overrides)
    return ThresholdSpec(**kwargs)


def dummy_ols_oracle(y, X) -> tuple[np.ndarray, float]:
    """Normal-equations OLS by explicit Gaussian elimination, for tests only.

    Solves (X'X) b = X'y with partial pivoting written out longhand, so its
    arithmetic shares nothing with the QR path used by the estimators.
    Limited to small instances (at most 50 columns).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[1] > 50:
        raise EstimationError("oracle accepts 2-D designs with at most 50 columns")
    k = X.shape[1]
    aug = np.empty((k, k + 1))
    for i in range(k):
        for j in range(k):
            aug[i, j] = float(X[:, i] @ X[:, j])
        aug[i, k] = float(X[:, i] @ y)
    scale = np.abs(aug[:, :k]).max()
    if scale == 0.0:
        raise EstimationError("singular normal equations")
    for col in range(k):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot_row, col]) < 1e-12 * scale:
            raise EstimationError("singular normal equations")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        for row in range(col + 1, k):
            factor = aug[row, col] / aug[col, col]
            aug[row, col:] -= factor * aug[col, col:]
    beta = np.zeros(k)
    for col in range(k - 1, -1, -1):
        beta[col] = (aug[col, k] - aug[col, col + 1:k] @ beta[col + 1:]) / aug[col, col]
    resid = y - X @ beta
    return beta, float(resid @ resid)


@dataclass(frozen=True)
class MonteCarloSummary:
    """Outcome of one simulation study, deterministic per master seed."""

    experiment: str
    trials: int
    metrics: dict[str, float]
    master_seed: int
    rng: dict[str, str] = field(default_factory=lambda: dict(RNG_DESCRIPTOR))


def _trial_seeds(master_seed: int, trial: int) -> tuple[int, int]:
    state = np.random.SeedSequence([master_seed, trial]).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def monte_carlo(
    experiment: str,
    trials: int,
    dgp: ThresholdDGP,
    *,
    master_seed: int = 0,
    spec_overrides: dict | None = None,
    alpha: float = 0.05,
    replications: int = 199,
    threads: int = 1,
) -> MonteCarloSummary:
    """Run a named simulation study and summarize it.

    ``recovery``: fraction of trials whose estimated threshold lands within
    one grid step of the planted one, plus bias and RMSE of the estimate.
    ``size`` / ``power``: rejection rate at ``alpha`` of the bootstrap test of
    ``num_thresholds - 1`` thresholds against ``num_thresholds`` (the DGP
    decides which one it is): the linearity test by default, the 1-vs-2 or
    2-vs-3 test with ``num_thresholds`` 2 or 3. ``coverage``: rate at which
    the LR confidence set at ``alpha`` covers the planted threshold.
    Metrics carry Monte Carlo standard errors. ``spec_overrides`` may set
    any ``ThresholdSpec`` field; ``num_thresholds`` defaults to 1, and
    ``recovery`` and ``coverage`` take no other value.
    """
    rate = {"recovery": "hit_rate", "size": "rejection_rate", "power": "rejection_rate",
            "coverage": "coverage_rate"}.get(experiment)
    if rate is None:
        raise ConfigError(f"unknown experiment {experiment!r}")
    check_int(trials, "trials", MIN_TRIALS)
    check_int(master_seed, "master_seed", 0)
    check_int(threads, "threads", 1)
    if not 0.0 < check_number(alpha, "alpha") < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha!r}")
    overrides = {"num_thresholds": 1, **(spec_overrides or {})}
    if rate != "rejection_rate" and overrides["num_thresholds"] != 1:
        raise ConfigError(f"experiment {experiment!r} fits one threshold (estimate_single), "
                          f"got num_thresholds={overrides['num_thresholds']!r}")

    def trial_outcome(trial: int) -> tuple[bool, float]:
        """The trial's indicator and, for recovery, its estimation error."""
        panel_seed, test_seed = _trial_seeds(master_seed, trial)
        panel, truth = simulate_threshold_panel(replace(dgp, seed=panel_seed))
        spec = default_spec(truth, **overrides)
        scan = build_scan(panel, spec)
        if rate == "rejection_rate":
            res = regime_count_on(scan, spec.num_thresholds - 1, replications, test_seed)
            return res.bootstrap_p <= alpha, 0.0
        fit, gamma0 = estimate_on(scan), truth.gammas[0]
        if rate == "coverage_rate":
            ci = ci_on(scan.ws, fit, alpha)
            return ci.lower <= gamma0 <= ci.upper, 0.0
        grid = np.array([g for g, _ in fit.ssr_profile])
        below = np.nonzero(grid <= gamma0)[0]
        idx0 = int(below[-1]) if below.size else 0
        idx_hat = int(np.searchsorted(grid, fit.gammas[0]))
        return abs(idx_hat - idx0) <= 1, fit.gammas[0] - gamma0

    outcomes = run_indexed(trials, threads, trial_outcome)
    p = float(np.mean([hit for hit, _ in outcomes]))
    metrics = {rate: p, f"{rate}_mc_se": math.sqrt(p * (1.0 - p) / trials)}
    if rate == "hit_rate":
        errs = np.array([err for _, err in outcomes])
        metrics.update(bias=float(errs.mean()), rmse=float(np.sqrt(np.mean(errs**2))))
    else:
        metrics["alpha"] = alpha
    if rate == "rejection_rate":
        metrics["replications"] = float(replications)
    return MonteCarloSummary(
        experiment=experiment,
        trials=trials,
        metrics=metrics,
        master_seed=int(master_seed),
    )
