from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

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
    simulate_threshold_panel,
    threshold_ci,
)

from panelthresh._linalg import pivoted_lstsq
from panelthresh.inference import _rep_rng, run_indexed
from panelthresh.threshold import (
    _argmin, _conditional_profile, _demean_rows, _fit_ws, _Workspace,
)

from conftest import make_panel

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
    profile = _conditional_profile(ws, grid, (), y)
    g1, s = _argmin(profile)
    out.append(((g1,), s))
    profile = _conditional_profile(ws, grid, (g1,), y)
    if not profile:
        return out
    g2, s = _argmin(profile)
    profile = _conditional_profile(ws, grid, (g2,), y)
    if profile:
        g1, s = _argmin(profile)
    out.append((tuple(sorted((g1, g2))), s))
    profile = _conditional_profile(ws, grid, out[-1][0], y)
    if profile:
        g3, s = _argmin(profile)
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
        pair = ssr_pair(_demean_rows(fitted_null + resid_alt[draw]).ravel())
        if pair is None or pair[1] <= 0:
            degenerate += 1
            f_boot.append(0.0)
        else:
            f_boot.append((pair[0] - pair[1]) / (pair[1] / (n * (t - 1))))
    return f_boot, degenerate


def assert_matches_reference(res, f_boot):
    assert res.bootstrap_p == np.mean(np.array(f_boot) >= res.f_statistic)
    for a, cv in res.critical_values.items():
        assert cv == pytest.approx(np.quantile(f_boot, 1.0 - a), rel=1e-9)


def test_run_indexed_starts_at_most_count_workers(monkeypatch):
    from panelthresh import inference

    pool_sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(inference, "ThreadPoolExecutor", RecordingPool)
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

    def test_rank_deficient_linear_design_named_before_replication_check(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 12))
        panel = make_panel({
            "y": rng.standard_normal((6, 12)), "q": rng.uniform(0.0, 1.0, (6, 12)),
            "x": x, "c": 2.0 * x,
        })
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
        with pytest.raises(EstimationError, match=r"rank-deficient regressor matrix \((x|c)\)"):
            linearity_test(panel, spec, B=50, seed=0)

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
        # test), so every trial also checks that the grid is not thinned.
        keep = 0
        trials = 200
        for trial in range(trials):
            seeds = np.random.SeedSequence([406, trial]).generate_state(2, np.uint64)
            dgp = ThresholdDGP(
                n_units=8, n_periods=36, gamma0=(8.0, 25.0),
                beta_low=(0.2,), beta_high=(0.8,),
                beta_regimes=((0.2,), (1.0,), (2.0,)),
                noise_sd=0.8, threshold_dist="uniform(1,45)", seed=int(seeds[0]),
            )
            panel, truth = simulate_threshold_panel(dgp)
            spec = default_spec(truth, num_thresholds=2)
            q = panel.values(truth.roles.threshold).ravel()
            lo, hi = np.quantile(q, [spec.trim_fraction, 1.0 - spec.trim_fraction])
            distinct = np.unique(q)
            trimmed = distinct[(distinct >= lo) & (distinct <= hi)]
            grid = candidate_grid(q, spec.trim_fraction, spec.max_grid_points)
            assert np.array_equal(grid, trimmed), f"grid thinned in trial {trial}"
            res = additional_threshold_test(
                panel, spec, k_null=2, B=99, seed=int(seeds[1]), threads=2
            )
            assert res.null_model == "2 thresholds" and res.alt_model == "3 thresholds"
            assert res.f_statistic >= 0.0
            keep += res.bootstrap_p > 0.10
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
        keep = 0
        trials = 100
        for trial in range(trials):
            seeds = np.random.SeedSequence([404, trial]).generate_state(2, np.uint64)
            panel, truth = simulate_threshold_panel(
                benchmark_dgp(contrast=0.8, noise_sd=1.0, seed=int(seeds[0]))
            )
            spec = default_spec(truth)
            res = additional_threshold_test(panel, spec, k_null=1, B=99, seed=int(seeds[1]))
            keep += res.bootstrap_p > 0.10
        assert keep >= 85, f"accepted the single-threshold null in only {keep}/{trials}"

    def test_power_against_two_thresholds(self):
        reject = 0
        trials = 60
        for trial in range(trials):
            seeds = np.random.SeedSequence([405, trial]).generate_state(2, np.uint64)
            dgp = ThresholdDGP(
                n_units=8, n_periods=36, gamma0=(10.0, 30.0),
                beta_low=(0.2,), beta_high=(0.8,),
                beta_regimes=((0.2,), (1.0,), (2.0,)),
                noise_sd=0.8, threshold_dist="lognormal(2.45,0.75)", seed=int(seeds[0]),
            )
            panel, truth = simulate_threshold_panel(dgp)
            spec = default_spec(truth, num_thresholds=1)
            res = additional_threshold_test(panel, spec, k_null=1, B=99, seed=int(seeds[1]))
            reject += res.bootstrap_p <= 0.05
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
