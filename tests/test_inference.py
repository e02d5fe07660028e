from __future__ import annotations

import math
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from panelthresh import (
    ConfigError,
    EstimationError,
    ThresholdDGP,
    ThresholdSpec,
    VariableRole,
    additional_threshold_test,
    benchmark_dgp,
    candidate_grid,
    critical_value,
    default_spec,
    estimate_single,
    fit_at,
    linearity_test,
    monte_carlo,
    simulate_threshold_panel,
    threshold_ci,
)

from panelthresh._linalg import pivoted_lstsq
from panelthresh import inference, threshold
from panelthresh.inference import (
    CRITICAL_LEVELS, BootstrapTestResult, _rep_rng, ci_on, regime_count_on,
)
from panelthresh.threshold import (
    SSRScan, _fit_ws, _ssr_ws, _Workspace, build_scan, observed_stages, run_indexed,
    sequential_estimates,
)

from conftest import conditional_profile, make_panel, profile_argmin

# Frozen oracle values for -2 log(1 - sqrt(1 - alpha)), computed with
# 30-digit mpmath arithmetic.
CRIT_005 = 7.3522766941557432
CRIT_010 = 5.9394780114581793
CRIT_001 = 10.591615878240853


class TestCriticalValue:
    def test_alpha_005(self):
        assert abs(critical_value(0.05) - CRIT_005) < 1e-12
        assert abs(critical_value(0.05) - 7.3523) < 5e-4

    def test_alpha_010(self):
        assert abs(critical_value(0.10) - CRIT_010) < 1e-12
        assert abs(critical_value(0.10) - 5.9395) < 5e-4

    def test_alpha_001(self):
        assert abs(critical_value(0.01) - CRIT_001) < 1e-12

    def test_monotone_to_zero(self):
        alphas = [0.2, 0.4, 0.6, 0.8, 0.95, 0.999, 0.99999]
        values = [critical_value(a) for a in alphas]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                critical_value(bad)


def reference_stages(ws, grid, y):
    """The sequential estimator written out over full pivoted profiles:
    (sorted thresholds, SSR) for 1 up to 3 thresholds, stopping at the first
    stage without an admissible split."""
    out = []
    profile = conditional_profile(ws, grid, (), y)
    g1, s = profile_argmin(profile)
    out.append(((g1,), s))
    profile = conditional_profile(ws, grid, (g1,), y)
    if not profile:
        return out
    g2, s = profile_argmin(profile)
    profile = conditional_profile(ws, grid, (g2,), y)
    if profile:
        g1, s = profile_argmin(profile)
    out.append((tuple(sorted((g1, g2))), s))
    profile = conditional_profile(ws, grid, out[-1][0], y)
    if profile:
        g3, s = profile_argmin(profile)
        out.append((tuple(sorted((*out[-1][0], g3))), s))
    return out


def reference_bootstrap(ws, resid_null, resid_alt, ssr_pair, B, seed):
    """F* of each fixed-regressor replication from ``ssr_pair(y*)`` = (S_null,
    S_alt) or None, scored 0 when degenerate; returns (F* list, degenerate count)."""
    n, t = ws.n_units, ws.n_periods
    fitted_null = ws.y.reshape(n, t) - resid_null.reshape(n, t)
    f_boot, degenerate = [], 0
    for rep in range(B):
        draw = _rep_rng(seed, rep).integers(0, n, size=n)
        y = fitted_null + resid_alt[draw]
        pair = ssr_pair((y - y.mean(axis=1, keepdims=True)).ravel())
        if pair is None or pair[1] <= 0:
            degenerate += 1
            f_boot.append(0.0)
        else:
            f_boot.append((pair[0] - pair[1]) / (pair[1] / (n * (t - 1))))
    return f_boot, degenerate


def all_exact_regime_count(scan, k_null, B, seed):
    """``regime_count_on`` with both SSRs of every F* priced by pivoted QR at
    the replication's own sequential estimates: the reference that screened
    pricing must equal bitwise."""
    ws = scan.ws
    stages = observed_stages(scan, k_null + 1)
    null_fit, alt_fit = (_fit_ws(ws, g) for g in [(), *stages][k_null:k_null + 2])
    f_obs = (null_fit.ssr - alt_fit.ssr) / (alt_fit.ssr / ws.dof)
    fitted_null = ws.y - null_fit.residuals.ravel()
    picks = [_rep_rng(seed, rep).integers(0, ws.n_units, size=ws.n_units) for rep in range(B)]

    def response(rep):
        return ws._demean_cols(fitted_null + alt_fit.residuals[picks[rep]].ravel())

    found = sequential_estimates(scan, k_null + 1, B, response)

    def price(rep):
        chain = [stage.gammas for stage in found[rep]]
        if len(chain) <= k_null + 1:
            return None
        y = response(rep)
        s_alt = _ssr_ws(ws, chain[k_null + 1], y)
        if s_alt <= 0:
            return None
        return (_ssr_ws(ws, chain[k_null], y) - s_alt) / (s_alt / ws.dof)

    draws = [price(rep) for rep in range(B)]
    f_boot = np.array([0.0 if f is None else f for f in draws])
    return BootstrapTestResult(
        f_statistic=float(f_obs),
        bootstrap_p=float(np.count_nonzero(f_boot >= f_obs)) / B,
        critical_values={a: float(np.quantile(f_boot, 1.0 - a)) for a in CRITICAL_LEVELS},
        replications=B,
        seed=int(seed),
        null_model=["linear", "1 threshold", "2 thresholds"][k_null],
        alt_model=["1 threshold", "2 thresholds", "3 thresholds"][k_null],
        degenerate_replications=sum(f is None for f in draws),
    )


def assert_matches_reference(res, f_boot):
    assert res.bootstrap_p == np.mean(np.array(f_boot) >= res.f_statistic)
    for a, cv in res.critical_values.items():
        assert cv == pytest.approx(np.quantile(f_boot, 1.0 - a), rel=1e-9)


def test_run_indexed_starts_at_most_count_workers(monkeypatch):
    pool_sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(threshold, "ThreadPoolExecutor", RecordingPool)
    barrier = threading.Barrier(3, timeout=10)
    idents = []

    def worker(i):
        barrier.wait()  # all three items run at once, each on its own thread
        idents.append(threading.get_ident())
        return i * i

    assert run_indexed(3, 8, worker) == [0, 1, 4]
    assert pool_sizes == [3] and len(set(idents)) == 3


@pytest.fixture(scope="module")
def fitted():
    dgp = benchmark_dgp(contrast=0.6, noise_sd=2.0, seed=17)
    panel, truth = simulate_threshold_panel(dgp)
    spec = default_spec(truth, max_grid_points=120)
    fit = estimate_single(panel, spec)
    return panel, truth, spec, fit


class TestLinearityTest:
    def test_deterministic_same_seed(self, fitted):
        panel, _, spec, _ = fitted
        a = linearity_test(panel, spec, B=99, seed=5)
        b = linearity_test(panel, spec, B=99, seed=5)
        assert a == b

    def test_thread_invariant(self, fitted):
        panel, _, spec, _ = fitted
        a = linearity_test(panel, spec, B=120, seed=5)
        b = linearity_test(panel, spec, B=120, seed=5, threads=4)
        assert a == b

    def test_statistic_nonnegative_and_p_times_b_integer(self, fitted):
        panel, _, spec, _ = fitted
        res = linearity_test(panel, spec, B=99, seed=2)
        assert res.f_statistic >= 0.0
        assert abs(res.bootstrap_p * res.replications - round(res.bootstrap_p * 99)) < 1e-9

    def test_critical_values_monotone(self, fitted):
        panel, _, spec, _ = fitted
        res = linearity_test(panel, spec, B=199, seed=3)
        assert res.critical_values[0.10] <= res.critical_values[0.05] <= res.critical_values[0.01]

    def test_minimum_replications(self, fitted):
        panel, _, spec, _ = fitted
        with pytest.raises(ConfigError, match="99"):
            linearity_test(panel, spec, B=50, seed=0)

    @pytest.mark.parametrize("call, argument, value", [
        ("linearity_test", "B", 99.5), ("linearity_test", "B", "99"),
        ("linearity_test", "seed", 1.5), ("linearity_test", "seed", True),
        ("additional_threshold_test", "B", 99.5), ("additional_threshold_test", "B", "99"),
        ("additional_threshold_test", "seed", 1.5), ("additional_threshold_test", "seed", True),
        ("critical_value", "alpha", "0.05"), ("threshold_ci", "alpha", "0.05"),
        *(("threshold_ci", "threshold_index", value) for value in (0.5, True, "0")),
        *((call, "threads", value) for call in ("linearity_test", "additional_threshold_test")
          for value in (1.5, 0, "2", True)),
    ])
    def test_mistyped_argument_is_a_config_error(
        self, fitted, monkeypatch, call, argument, value
    ):
        # A float is not truncated, a string not parsed, True not read as 1
        # and no thread count below 1 taken: each is a ConfigError naming the
        # argument, before any scan.
        panel, _, spec, fit = fitted

        def scanned(*args, **kwargs):
            raise AssertionError("a scan ran")

        monkeypatch.setattr(SSRScan, "locate", scanned)
        calls = {
            "linearity_test": lambda **kw: linearity_test(panel, spec, **{"B": 99, **kw}),
            "additional_threshold_test":
                lambda **kw: additional_threshold_test(panel, spec, 1, **{"B": 99, **kw}),
            "critical_value": critical_value,
            "threshold_ci": lambda **kw: threshold_ci(panel, spec, fit, **{"alpha": 0.05, **kw}),
        }
        with pytest.raises(ConfigError, match=rf"^{argument} must be an? (integer|number)"):
            calls[call](**{argument: value})

    def test_replications_and_seed_checked_before_any_scan(self, fitted, monkeypatch):
        panel, _, spec, _ = fitted

        def scanned(*args, **kwargs):
            raise AssertionError("a scan ran")

        monkeypatch.setattr(SSRScan, "locate", scanned)
        with pytest.raises(ConfigError, match="at least 99"):
            linearity_test(panel, spec, B=10)
        with pytest.raises(ConfigError, match="seed"):
            additional_threshold_test(panel, spec, 1, B=99, seed=-1)

    def test_strong_contrast_rejects(self, fitted):
        panel, _, spec, _ = fitted
        res = linearity_test(panel, spec, B=199, seed=4)
        assert res.bootstrap_p <= 0.01

    def test_matches_pivoted_reference(self):
        # Every replication re-run through the written-out reference: the
        # linear SSR by pivoted least squares on the linear design, the
        # one-threshold SSR from the full pivoted profile.
        rng = np.random.default_rng(3)
        n, t = 4, 10
        panel = make_panel({
            "y": rng.standard_normal((n, t)),
            "q": rng.uniform(0.0, 1.0, (n, t)),
            "x": rng.standard_normal((n, t)),
            "c": rng.standard_normal((n, t)),
        })
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]), trim_fraction=0.2)
        res = linearity_test(panel, spec, B=99, seed=4)
        assert (res.null_model, res.alt_model) == ("linear", "1 threshold")

        ws = _Workspace(panel, spec)
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
        X0 = np.column_stack([ws.rv_full_dem, ws.controls_dem])
        linear = pivoted_lstsq(X0, ws.y)
        (gamma_hat,), s1 = reference_stages(ws, grid, None)[0]
        assert res.f_statistic == (linear.ssr - s1) / (s1 / (n * (t - 1)))

        def ssr_pair(ystar):
            return pivoted_lstsq(X0, ystar).ssr, reference_stages(ws, grid, ystar)[0][1]

        f_boot, degenerate = reference_bootstrap(
            ws, linear.residuals, _fit_ws(ws, (gamma_hat,)).residuals, ssr_pair, 99, 4,
        )
        assert res.degenerate_replications == degenerate
        assert_matches_reference(res, f_boot)

    def test_rank_deficient_linear_design_named(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 12))
        panel = make_panel({
            "y": rng.standard_normal((6, 12)), "q": rng.uniform(0.0, 1.0, (6, 12)),
            "x": x, "c": 2.0 * x,
        })
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
        with pytest.raises(EstimationError, match=r"rank-deficient regressor matrix \((x|c)\)"):
            linearity_test(panel, spec, B=99, seed=0)

    @pytest.mark.slow
    def test_large_b_stability(self, fitted):
        # Under the null the p-value stabilizes as B grows; two seeds with
        # B=2000 may differ only by Monte Carlo noise.
        dgp = benchmark_dgp(contrast=0.0, noise_sd=1.0, seed=23)
        panel, truth = simulate_threshold_panel(dgp)
        spec = default_spec(truth, max_grid_points=120)
        p1 = linearity_test(panel, spec, B=2000, seed=1).bootstrap_p
        p2 = linearity_test(panel, spec, B=2000, seed=2).bootstrap_p
        assert abs(p1 - p2) < 0.03


class TestAdditionalThresholdTest:
    def test_nonnegative_by_nesting(self, fitted):
        panel, _, spec, _ = fitted
        res = additional_threshold_test(panel, spec, k_null=1, B=99, seed=6)
        assert res.f_statistic >= 0.0
        assert res.null_model == "1 threshold"
        assert res.alt_model == "2 thresholds"

    def test_two_planted_thresholds_reject(self):
        dgp = ThresholdDGP(
            n_units=8, n_periods=36, gamma0=(10.0, 30.0),
            beta_low=(0.2,), beta_high=(0.8,),
            beta_regimes=((0.2,), (0.9,), (1.8,)),
            noise_sd=0.8, threshold_dist="lognormal(2.45,0.75)", seed=29,
        )
        panel, truth = simulate_threshold_panel(dgp)
        spec = default_spec(truth, num_thresholds=1, max_grid_points=80)
        res = additional_threshold_test(panel, spec, k_null=1, B=99, seed=7)
        assert res.bootstrap_p <= 0.05

    def test_k_null_validation(self, fitted):
        panel, _, spec, _ = fitted
        for k_null in (0, 3):
            with pytest.raises(ConfigError, match="k_null must be 1 or 2"):
                additional_threshold_test(panel, spec, k_null=k_null, B=99, seed=0)

    @pytest.mark.parametrize("k_null", [-1, 3, 5])
    def test_regime_count_on_rejects_k_null_before_any_scan(self, fitted, monkeypatch, k_null):
        panel, _, spec, _ = fitted
        scan = build_scan(panel, spec)

        def scanned(*args, **kwargs):
            raise AssertionError("a scan ran")

        monkeypatch.setattr(SSRScan, "locate", scanned)
        with pytest.raises(ConfigError, match="k_null must be 0, 1 or 2"):
            regime_count_on(scan, k_null, 99, 0)

    def test_deterministic(self, fitted):
        panel, _, spec, _ = fitted
        a = additional_threshold_test(panel, spec, k_null=1, B=99, seed=8)
        b = additional_threshold_test(panel, spec, k_null=1, B=99, seed=8, threads=3)
        assert a == b

    def test_degenerate_replications_counted(self):
        # 4x10 noise panel with trim 0.2: every regime needs 8 of the 40
        # observations, so many replications' two-threshold estimates leave
        # no room for a third. Those score F* = 0 and are counted. The
        # reference re-runs every replication through the pivoted profile
        # path with the sequential estimator written out.
        rng = np.random.default_rng(0)
        n, t = 4, 10
        panel = make_panel({
            "y": rng.standard_normal((n, t)),
            "q": rng.uniform(0.0, 1.0, (n, t)),
            "x": rng.standard_normal((n, t)),
        })
        spec = ThresholdSpec(VariableRole("y", "q", ["x"]), num_thresholds=2, trim_fraction=0.2)
        res = additional_threshold_test(panel, spec, k_null=2, B=99, seed=1)
        assert res == additional_threshold_test(panel, spec, k_null=2, B=99, seed=1, threads=2)
        assert (res.null_model, res.alt_model) == ("2 thresholds", "3 thresholds")

        ws = _Workspace(panel, spec)
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
        (null_gammas, s_null), (alt_gammas, s_alt) = reference_stages(ws, grid, None)[1:]
        assert res.f_statistic == (s_null - s_alt) / (s_alt / (n * (t - 1)))

        def ssr_pair(ystar):
            found = reference_stages(ws, grid, ystar)
            return None if len(found) < 3 else (found[1][1], found[2][1])

        f_boot, degenerate = reference_bootstrap(
            ws, _fit_ws(ws, null_gammas).residuals, _fit_ws(ws, alt_gammas).residuals,
            ssr_pair, 99, 1,
        )
        assert 0 < res.degenerate_replications == degenerate < 99
        assert_matches_reference(res, f_boot)

    def test_no_degenerate_replications_on_regular_panel(self, fitted):
        panel, _, spec, _ = fitted
        res = additional_threshold_test(panel, spec, k_null=1, B=99, seed=6)
        assert res.degenerate_replications == 0

    @pytest.mark.slow
    def test_two_vs_three_keeps_null_on_two_threshold_data(self):
        # Two-threshold data: the 2-vs-3 test should keep the null most of
        # the time. Under a correctly sized test any single dataset has
        # p <= 0.10 with probability 0.10, so this is a Monte Carlo size
        # check: p > 0.10 in at least 85% of trials. At nominal size it fails
        # with probability about 1%; at a true 10% size of 20% it fails with
        # probability about 95%. The size claim holds for the full
        # observed-value grid only (a thinned grid over-sizes the sequential
        # test); with fewer observations than the default grid cap, no
        # trial's grid is thinned.
        dgp = ThresholdDGP(
            n_units=8, n_periods=36, gamma0=(8.0, 25.0),
            beta_low=(0.2,), beta_high=(0.8,),
            beta_regimes=((0.2,), (1.0,), (2.0,)),
            noise_sd=0.8, threshold_dist="uniform(1,45)",
        )
        assert dgp.n_units * dgp.n_periods < ThresholdSpec.max_grid_points
        trials = 200
        s = monte_carlo("size", trials, dgp, master_seed=406, alpha=0.10, replications=99,
                        threads=2, spec_overrides={"num_thresholds": 3})
        keep = trials - round(s.metrics["rejection_rate"] * trials)
        assert keep >= 170, f"kept the two-threshold null in only {keep}/{trials}"


@pytest.mark.slow
class TestRegimeCountCalibration:
    """Monte Carlo behavior of the 1-vs-2 threshold test."""

    def test_accepts_single_threshold_null(self):
        # Single-threshold data: the test should keep the null most of the
        # time (p > 0.10 in at least 85% of trials). The full observed-value
        # grid matters here: a thinned grid leaves the first threshold
        # estimate off by several observations, which a spurious second
        # threshold then mops up.
        trials = 100
        s = monte_carlo("size", trials, benchmark_dgp(contrast=0.8, noise_sd=1.0),
                        master_seed=404, alpha=0.10, replications=99,
                        spec_overrides={"num_thresholds": 2})
        keep = trials - round(s.metrics["rejection_rate"] * trials)
        assert keep >= 85, f"accepted the single-threshold null in only {keep}/{trials}"

    def test_power_against_two_thresholds(self):
        dgp = ThresholdDGP(
            n_units=8, n_periods=36, gamma0=(10.0, 30.0),
            beta_low=(0.2,), beta_high=(0.8,),
            beta_regimes=((0.2,), (1.0,), (2.0,)),
            noise_sd=0.8, threshold_dist="lognormal(2.45,0.75)",
        )
        trials = 60
        s = monte_carlo("power", trials, dgp, master_seed=405, alpha=0.05, replications=99,
                        spec_overrides={"num_thresholds": 2})
        reject = round(s.metrics["rejection_rate"] * trials)
        assert reject >= 0.9 * trials, f"rejected in only {reject}/{trials}"


class TestThresholdCI:
    def test_lr_zero_at_estimate(self, fitted):
        panel, _, spec, fit = fitted
        ci = threshold_ci(panel, spec, fit, 0.05)
        lr = dict(ci.lr_profile)
        assert lr[fit.gammas[0]] == 0.0
        assert ci.lower <= fit.gammas[0] <= ci.upper

    def test_nested_in_alpha(self, fitted):
        panel, _, spec, fit = fitted
        wide = threshold_ci(panel, spec, fit, 0.05)
        narrow = threshold_ci(panel, spec, fit, 0.10)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper

    def test_profile_points_inside_reported_set_accepted(self, fitted):
        panel, _, spec, fit = fitted
        ci = threshold_ci(panel, spec, fit, 0.05)
        inside = [
            v for g, v in ci.lr_profile if ci.lower < g < ci.upper and v <= ci.critical_value
        ]
        assert inside, "non-rejection set should contain interior profile points"

    def test_missing_profile_errors(self, fitted):
        panel, _, spec, fit = fitted
        pinned = fit_at(panel, spec, fit.gammas)
        with pytest.raises(EstimationError, match="profile"):
            threshold_ci(panel, spec, pinned, 0.05)

    def test_paper_shaped_format(self, fitted):
        # Structural check: a point estimate inside a finite interval at the
        # 95% level, reported with the closed-form critical value.
        panel, _, spec, fit = fitted
        ci = threshold_ci(panel, spec, fit, 0.05)
        assert ci.level == 0.95
        assert np.isfinite(ci.lower) and np.isfinite(ci.upper) and ci.lower < ci.upper
        assert abs(ci.critical_value - CRIT_005) < 1e-12

    def test_forced_straddle_reevaluates_only_unclear_entries(self, fitted, monkeypatch):
        # c(alpha) is set to the LR of a screened entry, so that entry's slack
        # interval straddles the cut point and the side it falls on is
        # unknown until it is re-evaluated by pivoted QR. Only such entries
        # are, and the endpoints are those of the full pivoted profile.
        panel, _, spec, fit = fitted
        profile, slacks = fit.ssr_profiles[0], fit.ssr_profile_slacks[0]

        def lr(s):
            return (s - fit.ssr) / fit.sigma2

        screened = [i for i, slack in enumerate(slacks) if slack > 0.0]
        i = min(screened, key=lambda k: abs(lr(profile[k][1]) - CRIT_005))
        alpha = 1.0 - (1.0 - math.exp(-lr(profile[i][1]) / 2.0)) ** 2
        cut = critical_value(alpha)
        unclear = {
            g for (g, s), slack in zip(profile, slacks)
            if slack > 0.0 and lr(s - slack) <= cut < lr(s + slack)
        }
        assert profile[i][0] in unclear and len(unclear) < len(screened) // 10
        called = []
        exact = threshold._ssr_ws
        monkeypatch.setattr(
            threshold, "_ssr_ws",
            lambda ws, gammas, *a: called.append(gammas) or exact(ws, gammas, *a),
        )
        ci = threshold_ci(panel, spec, fit, alpha)
        assert sorted(g for (g,) in called) == sorted(unclear)
        ws = _Workspace(panel, spec)
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
        pivoted = replace(
            fit, ssr_profiles=(tuple(conditional_profile(ws, grid, ())),), ssr_profile_slacks=(),
        )
        ref = threshold_ci(panel, spec, pivoted, alpha)
        assert (ci.lower, ci.upper) == (ref.lower, ref.upper)
        assert dict(ci.lr_profile)[profile[i][0]] == dict(ref.lr_profile)[profile[i][0]]

    def test_conditional_ci_per_threshold_in_multi_fit(self):
        from panelthresh import estimate_multiple

        dgp = ThresholdDGP(
            n_units=8, n_periods=36, gamma0=(8.0, 25.0),
            beta_low=(0.2,), beta_high=(0.8,),
            beta_regimes=((0.2,), (1.0,), (2.0,)),
            noise_sd=0.8, threshold_dist="uniform(1,45)", seed=64,
        )
        panel, truth = simulate_threshold_panel(dgp)
        spec = default_spec(truth, num_thresholds=2)
        fit = estimate_multiple(panel, spec)
        for j in range(2):
            ci = threshold_ci(panel, spec, fit, 0.05, threshold_index=j)
            assert ci.lower <= fit.gammas[j] <= ci.upper
        with pytest.raises(EstimationError, match="out of range"):
            threshold_ci(panel, spec, fit, 0.05, threshold_index=2)


def test_ci_on_equals_threshold_ci_on_a_dynamic_lag_panel():
    # The wrapper derives the lagged sample again; the core reads the scan's
    # workspace. Both invert the same profile on the same observed values.
    panel, truth = simulate_threshold_panel(ThresholdDGP(
        n_units=10, n_periods=30, gamma0=(0.3, 0.7), beta_low=(1.0,), beta_high=(2.0,),
        beta_regimes=((1.0,), (2.5,), (0.5,)), theta0=0.4, seed=21,
    ))
    spec = default_spec(truth)
    assert spec.dynamic_lag
    scan = build_scan(panel, spec)
    fit = threshold.estimate_on(scan)
    for j in range(2):
        for alpha in (0.05, 0.1, 0.5):
            assert ci_on(scan.ws, fit, alpha, j) == threshold_ci(panel, spec, fit, alpha, j)


class TestGroupedBootstrap:
    """The bootstrap runs step by step over all replications, grouped by
    their fixed thresholds: one factor per group, freed with the group."""

    @staticmethod
    def _problem(seed=12):
        # Replications on this panel scatter over about 95 fixed sets. Other
        # seeds give the benchmark's test-mid panels.
        dgp = ThresholdDGP(
            n_units=8, n_periods=40, gamma0=(0.3, 0.7),
            beta_low=(1.0, 0.5), beta_high=(2.0, -0.5),
            beta_regimes=((1.0, 0.5), (2.0, -0.5), (0.5, 1.0)),
            control_betas=(0.5,), seed=seed,
        )
        panel, truth = simulate_threshold_panel(dgp)
        return panel, default_spec(truth, num_thresholds=2)

    def test_each_step_factors_each_fixed_set_once(self, monkeypatch):
        # Run one replication at a time, a sequential estimate's scans are
        # its steps in order: first threshold, second, refinement, third.
        # The grouped bootstrap factors each distinct (step, fixed set) pair
        # of those once, besides the unconditional factor built with the
        # scan and the observed fit's own conditional sets.
        panel, spec = self._problem()
        ws = _Workspace(panel, spec)
        scanned = []
        locate = SSRScan.locate
        monkeypatch.setattr(
            SSRScan, "locate",
            lambda self, fixed, *a: scanned.append(fixed) or locate(self, fixed, *a),
        )
        single = build_scan(panel, spec)
        (observed,) = threshold.sequential_estimates(single, 3)
        observed_sets = Counter(fixed for fixed in scanned if fixed)
        pairs = set()

        def record_steps(ystar):
            scanned.clear()
            threshold.sequential_estimates(single, 3, 1, lambda i: ystar)
            pairs.update(enumerate(scanned))

        reference_bootstrap(
            ws, _fit_ws(ws, observed[2].gammas).residuals, _fit_ws(ws, observed[3].gammas).residuals,
            record_steps, 99, 4,
        )
        calls = Counter()
        factor = SSRScan._factor
        monkeypatch.setattr(
            SSRScan, "_factor", lambda self, fixed: calls.update([fixed]) or factor(self, fixed)
        )
        regime_count_on(build_scan(panel, spec), 2, 99, 4)
        per_step = Counter(fixed for step, fixed in pairs if step)
        assert sum(per_step.values()) > 50
        assert calls == Counter({(): 1}) + observed_sets + per_step

    @pytest.mark.parametrize("k_null", [0, 1, 2])
    def test_each_replication_prices_two_exact_ssrs(self, monkeypatch, k_null):
        # The scans locate thresholds and price both SSRs of each F*; at most
        # two pivoted SSRs per replication follow, and only for the few whose
        # F* interval could move the p-value or a critical value (2 positions
        # for each of 3 levels, plus any straddling the observed F). On this
        # panel no scan leaves more than one candidate that may hold the
        # minimum and no replication is degenerate, so those are all the
        # pivoted SSRs a bootstrap makes.
        panel, spec = self._problem()
        scan = build_scan(panel, spec)
        calls = []
        for module in (threshold, inference):
            exact = module._ssr_ws
            monkeypatch.setattr(
                module, "_ssr_ws",
                lambda *a, exact=exact, **k: calls.append(1) or exact(*a, **k),
            )
        assert regime_count_on(scan, k_null, 99, 4).degenerate_replications == 0
        assert len(calls) <= 2 * (6 + 2)
        calls.clear()
        assert regime_count_on(scan, k_null, 999, 4).degenerate_replications == 0
        assert len(calls) <= 0.05 * 2 * 999

    def test_replications_are_priced_on_the_calling_thread(self, monkeypatch):
        # Threads spread a step's groups only; every pricing SSR is made in
        # order on the thread that runs the test.
        panel, spec = self._problem()
        scan = build_scan(panel, spec)
        idents = []
        exact = inference._ssr_ws
        monkeypatch.setattr(
            inference, "_ssr_ws",
            lambda *a, **k: idents.append(threading.get_ident()) or exact(*a, **k),
        )
        regime_count_on(scan, 2, 99, 4, threads=3)
        assert idents and idents == [threading.get_ident()] * len(idents)

    @pytest.mark.parametrize("k_null", [0, 1, 2])
    @pytest.mark.parametrize("panel_seed, seed", [(12, 4), (2, 2), (11, 11)])
    def test_screened_pricing_equals_all_exact_pricing(self, panel_seed, seed, k_null):
        # B = 99 and B = 999 read different order statistics for the
        # critical values.
        scan = build_scan(*self._problem(panel_seed))
        for B in (99, 999):
            assert regime_count_on(scan, k_null, B, seed) == all_exact_regime_count(
                scan, k_null, B, seed)

    @staticmethod
    def _widen_slacks(monkeypatch):
        """Multiply every screen bound ``SSRScan._factor`` gives by 1e9."""
        factor = SSRScan._factor

        def widened(self, fixed):
            *arrays, bound, z_bound = factor(self, fixed)
            return (*arrays, bound * 1e9, np.asarray(z_bound * 1e9))

        monkeypatch.setattr(SSRScan, "_factor", widened)

    @pytest.mark.parametrize("k_null", [0, 1, 2])
    def test_widened_slacks_price_more_and_change_nothing(self, monkeypatch, k_null):
        # Every screen bound x 1e9: locate re-evaluates every candidate, so
        # the candidates' records turn exact, but the linear model's slack
        # outgrows every F*, so every linearity replication straddles the
        # observed F and is priced. A 60-point grid keeps those
        # re-evaluations to seconds.
        panel, spec = self._problem()
        spec = replace(spec, max_grid_points=60)
        reference = all_exact_regime_count(build_scan(panel, spec), k_null, 99, 4)
        self._widen_slacks(monkeypatch)
        calls = []
        exact = inference._ssr_ws
        monkeypatch.setattr(
            inference, "_ssr_ws", lambda *a, **k: calls.append(a[1]) or exact(*a, **k))
        assert regime_count_on(build_scan(panel, spec), k_null, 99, 4) == reference
        if k_null == 0:
            assert calls == [()] * 99

    def test_widened_slacks_leave_the_fit_and_its_confidence_sets(self, monkeypatch):
        # The one rule at the estimate's and the confidence sets' decisions:
        # with every screen bound x 1e9 the sequential argmins, the SSR and
        # each profile's minimum are the plain scan's, the profiles turn
        # exact, and the confidence sets keep their ends. So do they for the
        # plain fit with its profile slacks x 1e9, whose screened entries CI
        # inversion then re-evaluates wherever they straddle c(alpha).
        panel, spec = self._problem()
        spec = replace(spec, max_grid_points=60)
        scan = build_scan(panel, spec)
        plain = threshold.estimate_on(scan)
        loose = replace(plain, ssr_profile_slacks=tuple(
            tuple(s * 1e9 for s in slacks) for slacks in plain.ssr_profile_slacks))
        calls = []
        exact = threshold._ssr_ws
        monkeypatch.setattr(
            threshold, "_ssr_ws", lambda *a, **k: calls.append(1) or exact(*a, **k))
        self._widen_slacks(monkeypatch)
        fit = threshold.estimate_on(build_scan(panel, spec))
        assert (fit.gammas, fit.ssr) == (plain.gammas, plain.ssr)
        for profile, slacks, reference in zip(
                fit.ssr_profiles, fit.ssr_profile_slacks, plain.ssr_profiles):
            assert min(s for _, s in profile) == min(s for _, s in reference)
            assert set(slacks) == {0.0}
        for alpha in (0.10, 0.05, 0.01):
            for j in range(2):
                calls.clear()
                ref = ci_on(scan.ws, plain, alpha, j)
                plain_calls = len(calls)
                ci = ci_on(scan.ws, fit, alpha, j)
                assert (ci.lower, ci.upper) == (ref.lower, ref.upper)
                calls.clear()
                ci = ci_on(scan.ws, loose, alpha, j)
                assert (ci.lower, ci.upper) == (ref.lower, ref.upper)
                assert len(calls) > plain_calls

    def test_replication_straddling_the_observed_f_is_priced(self, monkeypatch):
        # The least F* at or above the observed F (of 1 vs 2 here, p about
        # 0.95) gets an S_alt slack that puts the observed F inside its
        # interval, far from the ranks the critical values read: the straddle
        # alone prices it, and the p-value counts it.
        panel, spec = self._problem()
        scan = build_scan(panel, spec)
        reference = all_exact_regime_count(scan, 2, 99, 4)
        f_obs, sequential = reference.f_statistic, inference.sequential_estimates
        straddled = []

        def with_straddle(scan, k, count, response, **kwargs):
            chains = sequential(scan, k, count, response, **kwargs)
            f_star = {}
            for rep, chain in enumerate(chains):
                s_null, s_alt = (_ssr_ws(scan.ws, stage.gammas, response(rep))
                                 for stage in chain[2:4])
                f_star[rep] = (s_null - s_alt) / (s_alt / scan.ws.dof)
            rep = min((r for r, f in f_star.items() if f >= f_obs), key=f_star.get)
            null, alt = chains[rep][2:4]
            # S_alt + slack / 2 would put F* below the observed F
            s_null = _ssr_ws(scan.ws, null.gammas, response(rep))
            slack = 2.0 * (s_null / (1.0 + f_obs / scan.ws.dof) - alt.ssr) + 1e-9 * alt.ssr
            chains[rep][3] = alt._replace(slack=slack)
            straddled.append(alt.gammas)
            return chains

        monkeypatch.setattr(inference, "sequential_estimates", with_straddle)
        calls = []
        exact = inference._ssr_ws
        monkeypatch.setattr(
            inference, "_ssr_ws", lambda *a, **k: calls.append(a[1]) or exact(*a, **k))
        assert regime_count_on(scan, 2, 99, 4) == reference
        assert straddled[0] in calls

    def test_threads_give_the_one_thread_result(self):
        # Three threads switching every microsecond share one scan and give
        # the one-thread test.
        panel, spec = self._problem()
        scan = build_scan(panel, spec)
        serial = regime_count_on(scan, 2, 99, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = regime_count_on(scan, 2, 99, 4, threads=3)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("threads", [1, 3])
    def test_holds_a_few_factors_per_thread(self, threads):
        # A 1-vs-2 bootstrap holds one conditional factor per running group,
        # plus _factor's temporaries (about 5.5 factors' nbytes on one
        # thread here). Keeping every fixed set, about 90 here, would cost
        # about 93 factors' nbytes.
        panel, spec = self._problem()
        probe = build_scan(panel, spec)
        one = sum(a.nbytes for a in probe._factor((float(probe.grid[len(probe.grid) // 2]),)))
        tracemalloc.start()
        try:
            scan = build_scan(panel, spec)
            built, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            regime_count_on(scan, 1, 99, 4, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - built < 8 * threads * one
