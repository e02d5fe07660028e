from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelthresh import (
    ConfigError,
    EstimationError,
    ThresholdDGP,
    ThresholdSpec,
    VariableRole,
    candidate_grid,
    default_spec,
    dummy_ols_oracle,
    estimate_multiple,
    estimate_single,
    fit_at,
    ols,
    simulate_threshold_panel,
    ssr_at,
    within_transform,
)

from conftest import make_panel


def _quantile_oracle(sorted_vals, p):
    """Positional quantile with linear interpolation, written out longhand."""
    h = (len(sorted_vals) - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo])


class TestCandidateGrid:
    def test_uniform_1_to_100(self):
        q = np.arange(1.0, 101.0)
        grid = candidate_grid(q, 0.05, 400)
        lo = _quantile_oracle(sorted(q), 0.05)
        hi = _quantile_oracle(sorted(q), 0.95)
        expected = [v for v in q if lo <= v <= hi]
        assert expected[0] == 6.0 and expected[-1] == 95.0 and len(expected) == 90
        np.testing.assert_array_equal(grid, expected)

    def test_degenerate_all_equal(self):
        with pytest.raises(EstimationError, match="degenerate threshold variable"):
            candidate_grid(np.full(50, 7.0), 0.05, 400)

    def test_empty_after_trimming(self):
        # two distinct values, but the rare one falls outside the trim band
        q = np.concatenate([np.full(99, 1.0), [2.0]])
        with pytest.raises(EstimationError, match="empty grid after trimming"):
            candidate_grid(q, 0.05, 400)

    def test_thinning_to_cap(self, rng):
        q = rng.uniform(0, 1, 1000)
        q = np.unique(q)
        assert q.size == 1000
        grid = candidate_grid(q, 0.05, 400)
        assert grid.size == 400
        assert np.all(np.isin(grid, q))
        assert np.all(np.diff(grid) > 0)

    def test_trim_bounds_validated(self):
        with pytest.raises(ConfigError):
            candidate_grid(np.arange(10.0), 0.5, 100)


def _noiseless_dgp(**kwargs):
    base = dict(
        n_units=4,
        n_periods=12,
        gamma0=0.5,
        beta_low=(0.0,),
        beta_high=(1.0,),
        noise_sd=0.0,
        fixed_effect_sd=1.0,
        threshold_dist="uniform(0,1)",
        seed=101,
    )
    base.update(kwargs)
    return ThresholdDGP(**base)


class TestFitAt:
    def test_noiseless_identification(self):
        panel, truth = simulate_threshold_panel(_noiseless_dgp())
        spec = default_spec(truth)
        fit = fit_at(panel, spec, [0.5])
        assert abs(fit.betas_by_regime[0][0] - 0.0) < 1e-8
        assert abs(fit.betas_by_regime[1][0] - 1.0) < 1e-8
        assert fit.ssr < 1e-16

    def test_empty_lower_regime_errors(self):
        panel, truth = simulate_threshold_panel(_noiseless_dgp(noise_sd=0.5))
        spec = default_spec(truth)
        q_min = panel.values("q").min()
        with pytest.raises(EstimationError, match="below the floor"):
            fit_at(panel, spec, [q_min - 1.0])

    def test_matches_dummy_variable_oracle(self, rng):
        # LSDV oracle: explicit unit dummies on the raw data instead of the
        # within transform; slopes and SSR must agree.
        n, t = 2, 4
        q = rng.uniform(0, 1, (n, t))
        gamma = float(np.median(q))  # even split keeps both regimes viable
        x = rng.standard_normal((n, t))
        y = np.where(q <= gamma, 0.3 * x, 1.7 * x) + rng.standard_normal((n, t)) * 0.1
        panel = make_panel({"y": y, "q": q, "x": x})
        spec = ThresholdSpec(
            VariableRole("y", "q", ["x"]), include_intercept_shift=True, trim_fraction=0.1
        )
        fit = fit_at(panel, spec, [gamma])

        mask = (q <= gamma).ravel().astype(float)
        dummies = np.zeros((n * t, n))
        for i in range(n):
            dummies[i * t:(i + 1) * t, i] = 1.0
        design = np.column_stack([
            x.ravel() * mask,
            x.ravel() * (1.0 - mask),
            mask,
            dummies,
        ])
        beta, ssr = dummy_ols_oracle(y.ravel(), design)
        assert abs(fit.betas_by_regime[0][0] - beta[0]) < 1e-10
        assert abs(fit.betas_by_regime[1][0] - beta[1]) < 1e-10
        assert fit.delta is not None and abs(fit.delta[0] - beta[2]) < 1e-10
        assert abs(fit.ssr - ssr) < 1e-10 * max(1.0, ssr)

    def test_regime_counts_sum(self):
        panel, truth = simulate_threshold_panel(_noiseless_dgp(noise_sd=0.2))
        spec = default_spec(truth)
        fit = fit_at(panel, spec, [0.5])
        assert sum(fit.regime_counts) == panel.n_units * panel.n_periods
        assert fit.sigma2 == fit.ssr / (panel.n_units * (panel.n_periods - 1))


class TestEstimateSingle:
    def test_noiseless_snaps_to_largest_observed_below(self):
        panel, truth = simulate_threshold_panel(_noiseless_dgp(n_periods=20))
        spec = default_spec(truth)
        fit = estimate_single(panel, spec)
        q = panel.values("q").ravel()
        grid = candidate_grid(q, spec.trim_fraction, spec.max_grid_points)
        expected = grid[grid <= 0.5].max()
        assert fit.gammas[0] == expected

    def test_ssr_is_profile_minimum_bitwise(self):
        panel, truth = simulate_threshold_panel(_noiseless_dgp(noise_sd=0.4, seed=7))
        spec = default_spec(truth)
        fit = estimate_single(panel, spec)
        assert fit.ssr == min(s for _, s in fit.ssr_profile)

    def test_coefficients_match_fit_at_bitwise(self):
        panel, truth = simulate_threshold_panel(_noiseless_dgp(noise_sd=0.4, seed=9))
        spec = default_spec(truth)
        fit = estimate_single(panel, spec)
        pinned = fit_at(panel, spec, fit.gammas)
        for a, b in zip(fit.betas_by_regime, pinned.betas_by_regime):
            assert np.array_equal(a, b)
        assert fit.ssr == pinned.ssr

    def test_linear_data_still_returns(self):
        panel, truth = simulate_threshold_panel(
            _noiseless_dgp(beta_low=(0.8,), beta_high=(0.8,), noise_sd=0.3, seed=3)
        )
        spec = default_spec(truth)
        fit = estimate_single(panel, spec)
        assert len(fit.gammas) == 1 and len(fit.ssr_profile) > 10

    def test_requires_single_threshold_spec(self):
        panel, truth = simulate_threshold_panel(_noiseless_dgp(noise_sd=0.3))
        spec = default_spec(truth, num_thresholds=2)
        with pytest.raises(ConfigError):
            estimate_single(panel, spec)


class TestSsrInvariants:
    def test_piecewise_constant_between_observed(self, rng):
        panel, truth = simulate_threshold_panel(_noiseless_dgp(noise_sd=0.5, seed=31))
        spec = default_spec(truth)
        q = np.unique(panel.values("q").ravel())
        # two gammas strictly inside the same inter-observation gap
        j = q.size // 2
        g1 = q[j] + 0.25 * (q[j + 1] - q[j])
        g2 = q[j] + 0.75 * (q[j + 1] - q[j])
        assert ssr_at(panel, spec, [g1]) == ssr_at(panel, spec, [g2])
        # and at the observed value itself (left-closed step)
        assert ssr_at(panel, spec, [q[j]]) == ssr_at(panel, spec, [g1])

    def test_extreme_gamma_equals_linear_model(self, rng):
        panel, truth = simulate_threshold_panel(_noiseless_dgp(noise_sd=0.5, seed=32))
        spec = default_spec(truth)
        q = panel.values("q")
        dem = within_transform(panel, ["y", "q"])
        linear = ols(
            dem.values("y").ravel(),
            {"q": dem.values("q").ravel()},
        )
        s0 = linear.ssr
        for gamma in (q.min() - 1.0, q.max() + 1.0):
            s1 = ssr_at(panel, spec, [gamma])
            assert abs(s1 - s0) < 1e-10 * max(1.0, s0)


def test_regime_slopes_match_separate_regressions_when_units_do_not_straddle(rng):
    # Exact only when each unit stays in one regime: the within transform
    # then coincides with per-regime demeaning and the interacted columns
    # are orthogonal across regimes.
    t = 8
    q = np.vstack([np.full(t, v) for v in (0.2, 0.8, 0.3, 0.9)])
    x = rng.standard_normal((4, t))
    y = np.where(q <= 0.5, 1.0 * x, 2.5 * x) + rng.standard_normal((4, t)) * 0.3
    panel = make_panel({"y": y, "q": q, "x": x})
    spec = ThresholdSpec(
        VariableRole("y", "q", ["x"]), include_intercept_shift=False, trim_fraction=0.1
    )
    fit = fit_at(panel, spec, [0.5])
    yd = (y - y.mean(axis=1, keepdims=True)).ravel()
    xd = (x - x.mean(axis=1, keepdims=True)).ravel()
    mask = (q <= 0.5).ravel()
    b_low = float(xd[mask] @ yd[mask] / (xd[mask] @ xd[mask]))
    b_high = float(xd[~mask] @ yd[~mask] / (xd[~mask] @ xd[~mask]))
    assert abs(fit.betas_by_regime[0][0] - b_low) < 1e-10
    assert abs(fit.betas_by_regime[1][0] - b_high) < 1e-10


def test_threshold_variable_affine_equivariance(rng):
    # q rescaled by a*q + b (a > 0, exactly representable): the estimate maps
    # along, while SSR, slopes, and regime assignment stay put. q is kept
    # out of the regressor set so slopes are comparable.
    n, t = 4, 10
    q = rng.integers(1, 40, size=(n, t)).astype(float)
    q += rng.integers(0, 4, size=(n, t)) * 0.25  # exact binary fractions
    x = rng.standard_normal((n, t))
    y = np.where(q <= 18.0, 0.5 * x, 2.0 * x) + rng.standard_normal((n, t)) * 0.2
    panel = make_panel({"y": y, "q": q, "x": x})
    a, b = 2.0, 3.0
    panel2 = make_panel({"y": y, "q": a * q + b, "x": x})
    spec = ThresholdSpec(VariableRole("y", "q", ["x"]), trim_fraction=0.1)
    fit = estimate_single(panel, spec)
    fit2 = estimate_single(panel2, spec)
    assert fit2.gammas[0] == a * fit.gammas[0] + b
    assert fit2.ssr == fit.ssr
    assert fit2.regime_counts == fit.regime_counts
    for u, v in zip(fit.betas_by_regime, fit2.betas_by_regime):
        assert np.array_equal(u, v)


def _two_threshold_panel(seed=5, noise=0.5):
    dgp = ThresholdDGP(
        n_units=6,
        n_periods=30,
        gamma0=(10.0, 30.0),
        beta_low=(0.2,),
        beta_high=(0.8,),
        beta_regimes=((0.2,), (0.9,), (1.8,)),
        noise_sd=noise,
        threshold_dist="uniform(0,45)",
        seed=seed,
    )
    return simulate_threshold_panel(dgp)


class TestEstimateMultiple:
    def test_recovers_two_strong_thresholds(self):
        panel, truth = _two_threshold_panel()
        spec = default_spec(truth, num_thresholds=2)
        fit = estimate_multiple(panel, spec)
        grid = candidate_grid(panel.values("q").ravel(), spec.trim_fraction, spec.max_grid_points)
        for est, true in zip(fit.gammas, truth.gammas):
            below = grid[grid <= true]
            idx0 = grid.tolist().index(below.max())
            idx_hat = grid.tolist().index(est)
            assert abs(idx_hat - idx0) <= 1

    def test_ssr_monotone_in_thresholds(self):
        panel, truth = _two_threshold_panel(seed=6)
        spec1 = default_spec(truth, num_thresholds=1)
        spec2 = default_spec(truth, num_thresholds=2)
        fit1 = estimate_single(panel, spec1)
        fit2 = estimate_multiple(panel, spec2)
        assert fit2.ssr <= fit1.ssr + 1e-9 * (1.0 + fit1.ssr)

    def test_refinement_never_increases_ssr(self):
        from panelthresh.threshold import _argmin, _conditional_profile, _Workspace

        panel, truth = _two_threshold_panel(seed=8)
        spec = default_spec(truth, num_thresholds=2)
        ws = _Workspace(panel, spec)
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
        g1, _ = _argmin(_conditional_profile(ws, grid, ()))
        g2, s_unrefined = _argmin(_conditional_profile(ws, grid, (g1,)))
        fit = estimate_multiple(panel, spec)
        assert fit.ssr <= s_unrefined + 1e-9 * (1.0 + s_unrefined)

    def test_profiles_attached_per_threshold(self):
        panel, truth = _two_threshold_panel(seed=9)
        spec = default_spec(truth, num_thresholds=2)
        fit = estimate_multiple(panel, spec)
        assert len(fit.ssr_profiles) == 2
        # the profile evaluated at the estimate reproduces the fit SSR exactly
        for j, profile in enumerate(fit.ssr_profiles):
            at_estimate = dict(profile)[fit.gammas[j]]
            assert at_estimate == fit.ssr

    def test_no_admissible_split_errors(self):
        panel, truth = simulate_threshold_panel(_noiseless_dgp(noise_sd=0.3, n_periods=6))
        spec = default_spec(truth, num_thresholds=3, trim_fraction=0.3)
        with pytest.raises(EstimationError, match="no admissible"):
            estimate_multiple(panel, spec)


class TestSpecValidation:
    def test_trim_fraction_range(self):
        roles = VariableRole("y", "q", ["x"])
        with pytest.raises(ConfigError):
            ThresholdSpec(roles, trim_fraction=0.45)
        with pytest.raises(ConfigError):
            ThresholdSpec(roles, trim_fraction=0.0)

    def test_num_thresholds_range(self):
        roles = VariableRole("y", "q", ["x"])
        with pytest.raises(ConfigError):
            ThresholdSpec(roles, num_thresholds=4)

    def test_dynamic_lag_changes_sample(self):
        panel, truth = simulate_threshold_panel(
            _noiseless_dgp(noise_sd=0.3, theta0=0.4, n_periods=16)
        )
        spec = default_spec(truth)
        assert spec.dynamic_lag
        fit = estimate_single(panel, spec)
        assert fit.n_periods_used == panel.n_periods - 1
        assert "y_lag1" in fit.control_betas


def _scan_panel(rng, n=6, t=30, x_scale=1.0, control=None):
    """Two-threshold-ish panel with a regressor x and a control c."""
    q = rng.uniform(0.0, 1.0, (n, t))
    x = rng.standard_normal((n, t)) + 1.0
    c = rng.standard_normal((n, t)) if control is None else control(x, rng)
    regime = (q > 0.35).astype(float) + (q > 0.7)
    y = (x * (1.0 + 0.8 * regime) + 0.4 * regime + 0.5 * c
         + rng.standard_normal((n, t)) + rng.standard_normal((n, 1)))
    return make_panel({"y": y, "q": q, "x": x * x_scale, "c": c})


def _reference(ws, grid, fixed, y):
    from panelthresh.threshold import _argmin, _conditional_profile

    profile = _conditional_profile(ws, grid, fixed, y)
    return _argmin(profile) if profile else None


class TestSSRScan:
    """The screened scan returns the pivoted reference's (argmin, SSR) bitwise."""

    @staticmethod
    def _check_sequence(panel, spec, rng, responses=3):
        from panelthresh.threshold import SSRScan, _Workspace

        ws = _Workspace(panel, spec)
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
        scan = SSRScan(ws, grid)
        n, t = ws.n_units, ws.n_periods
        ys = [None]
        for _ in range(responses - 1):
            draw = ws.y.reshape(n, t)[rng.integers(0, n, n)] + rng.standard_normal((n, t))
            ys.append((draw - draw.mean(axis=1, keepdims=True)).ravel())
        for y in ys:
            fixed: tuple[float, ...] = ()
            for _ in range(3):
                ref = _reference(ws, grid, fixed, y)
                assert scan.scan(fixed, y) == ref
                if ref is None:
                    break
                gammas = sorted((*fixed, ref[0]))
                X, _ = ws.design(gammas)
                # unit-norm columns span the same space, so the SSR is unchanged
                X = X / np.linalg.norm(X, axis=0)
                _, oracle_ssr = dummy_ols_oracle(ws.y if y is None else y, X)
                assert ref[1] == pytest.approx(oracle_ssr, rel=1e-7)
                fixed = tuple(gammas)

    @pytest.mark.parametrize("shift", [True, False])
    def test_plain_with_and_without_intercept_shift(self, rng, shift):
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]), include_intercept_shift=shift)
        self._check_sequence(_scan_panel(rng), spec, rng)

    def test_two_regime_varying_without_controls(self, rng):
        panel = _scan_panel(rng)
        spec = ThresholdSpec(VariableRole("y", "q", ["x", "c"]))
        self._check_sequence(panel, spec, rng)

    def test_dynamic_lag(self, rng):
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]), dynamic_lag=True)
        self._check_sequence(_scan_panel(rng), spec, rng)

    def test_regressors_scaled_by_1e6(self, rng):
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
        self._check_sequence(_scan_panel(rng, x_scale=1e6), spec, rng)

    def test_nearly_collinear_control(self, rng):
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
        panel = _scan_panel(rng, control=lambda x, r: x + 1e-5 * r.standard_normal(x.shape))
        self._check_sequence(panel, spec, rng)

    @pytest.mark.parametrize("band_x", [0.0, 1e-12, 1e-14])
    def test_flat_profile_band(self, rng, band_x):
        # Without intercept shifts, moving the threshold across observations
        # with x = 0 leaves the design unchanged, so the profile is flat over
        # the band q in [0.4, 0.6] around the true threshold: exact ties,
        # which break toward the first candidate. With x of 1e-12 or 1e-14
        # there the profile varies across the band at the rounding level of
        # either path, so only exact re-evaluation of every near-tied
        # candidate orders it as the reference does.
        from panelthresh.threshold import SSRScan, _conditional_profile, _Workspace

        n, t = 6, 30
        q = rng.uniform(0.0, 1.0, (n, t))
        band = np.abs(q - 0.5) <= 0.1
        x = np.where(band, band_x, 1.0 + np.abs(rng.standard_normal((n, t))))
        y = np.where(q <= 0.5, x, 3.0 * x) + 0.1 * rng.standard_normal((n, t))
        spec = ThresholdSpec(VariableRole("y", "q", ["x"]), include_intercept_shift=False)
        ws = _Workspace(make_panel({"y": y, "q": q, "x": x}), spec)
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
        profile = _conditional_profile(ws, grid, (), None)
        best = min(s for _, s in profile)
        assert sum(abs(s - best) <= 1e-12 * best for _, s in profile) > 5
        scan = SSRScan(ws, grid)
        for y_r in (None, *(ws.y + 1e-3 * rng.standard_normal(ws.n_obs) for _ in range(5))):
            if y_r is not None:
                y_r = (y_r.reshape(n, t) - y_r.reshape(n, t).mean(axis=1, keepdims=True)).ravel()
            assert scan.scan((), y_r) == _reference(ws, grid, (), y_r)

    def test_screen_reevaluates_few_candidates(self, rng, monkeypatch):
        # On a well-conditioned panel the screen, not the pivoted path, does
        # the scanning: only candidates within rounding of the minimum are
        # re-evaluated.
        from panelthresh import threshold

        calls = []
        exact = threshold._ssr_ws
        monkeypatch.setattr(
            threshold, "_ssr_ws", lambda *a, **k: calls.append(1) or exact(*a, **k)
        )
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
        ws = threshold._Workspace(_scan_panel(rng, n=8, t=40), spec)
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
        scan = threshold.SSRScan(ws, grid)
        g1, _ = scan.scan(())
        g2, _ = scan.scan((g1,))
        scan.scan(tuple(sorted((g1, g2))))
        assert grid.size > 250 and len(calls) <= 6


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    t=st.integers(5, 12),
    n_rv=st.integers(1, 2),
    with_control=st.booleans(),
    shift=st.booleans(),
    log_scale=st.integers(-3, 6),
    n_fixed=st.integers(0, 2),
)
def test_scan_matches_pivoted_reference_property(
    seed, n, t, n_rv, with_control, shift, log_scale, n_fixed
):
    from panelthresh.threshold import SSRScan, _Workspace

    rng = np.random.default_rng(seed)
    variables = {
        "y": rng.standard_normal((n, t)),
        "q": rng.uniform(0.0, 1.0, (n, t)),
        "x1": rng.standard_normal((n, t)) * 10.0**log_scale,
        "x2": rng.standard_normal((n, t)),
        "c": rng.standard_normal((n, t)),
    }
    rv = ["x1", "x2"][:n_rv]
    spec = ThresholdSpec(
        VariableRole("y", "q", rv, ["c"] if with_control else []),
        include_intercept_shift=shift,
        trim_fraction=0.1,
    )
    ws = _Workspace(make_panel(variables), spec)
    grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
    scan = SSRScan(ws, grid)
    fixed = tuple(float(g) for g in rng.choice(grid, size=min(n_fixed, grid.size), replace=False))
    y = rng.standard_normal((ws.n_units, ws.n_periods)) * 10.0 ** rng.integers(-2, 3)
    y = (y - y.mean(axis=1, keepdims=True)).ravel()
    assert scan.scan(fixed, y) == _reference(ws, grid, fixed, y)
    assert scan.scan(fixed) == _reference(ws, grid, fixed, None)


def test_estimate_single_memory_does_not_grow_with_the_grid():
    # Regime columns are rebuilt per candidate instead of cached per grid
    # point; a cache of 400 candidates' columns on this panel costs ~25 MB.
    panel, truth = simulate_threshold_panel(ThresholdDGP(
        n_units=100, n_periods=40, gamma0=0.5, beta_low=(1.0,), beta_high=(2.0,), seed=1,
    ))
    spec = default_spec(truth, num_thresholds=1)
    tracemalloc.start()
    try:
        fit = estimate_single(panel, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fit.ssr_profile) == 400
    assert peak < 8 * 2**20
