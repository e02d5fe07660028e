from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from panelthresh import (
    ConfigError,
    DataError,
    EstimationError,
    ThresholdDGP,
    ThresholdFit,
    ThresholdSpec,
    VariableRole,
    benchmark_dgp,
    candidate_grid,
    default_spec,
    dummy_ols_oracle,
    estimate_multiple,
    estimate_single,
    fit_at,
    ols,
    simulate_threshold_panel,
    ssr_at,
    threshold_ci,
    within_transform,
)
from panelthresh.threshold import _inverse_cholesky, _ssr_ws

from conftest import conditional_profile, make_panel, profile_argmin


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

    def test_dependent_constant_in_the_estimation_sample_errors(self, rng):
        # y varies only in the first period, which the dynamic lag drops: the
        # rule reads the estimation sample, not the panel as given.
        q, x = rng.uniform(0, 1, (3, 12)), rng.standard_normal((3, 12))
        y = np.ones((3, 12))
        y[:, 0] = [0.0, 2.0, 5.0]
        panel = make_panel({"y": y, "q": q, "x": x})
        static = ThresholdSpec(VariableRole("y", "q", ["x"]), trim_fraction=0.1)
        assert fit_at(panel, static, [float(np.median(q))]).ssr > 0
        with pytest.raises(DataError, match="dependent variable 'y' has no within-unit variation"):
            fit_at(panel, replace(static, dynamic_lag=True), [float(np.median(q[:, 1:]))])


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

    def test_no_admissible_candidate_errors(self):
        # 6 observations, floor 3, grid {1, 2}: neither candidate leaves 3 above it
        from panelthresh.threshold import build_scan, estimate_on

        panel = make_panel({"y": [[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]],
                            "q": [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]]})
        scan = build_scan(panel, ThresholdSpec(VariableRole("y", "q", ["q"])))
        assert scan.ws.floor == 3 and scan.grid.tolist() == [1.0, 2.0]
        with pytest.raises(EstimationError,
                           match="^no admissible threshold candidate after trimming$"):
            estimate_on(scan)


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
        from panelthresh.threshold import _Workspace

        panel, truth = _two_threshold_panel(seed=8)
        spec = default_spec(truth, num_thresholds=2)
        ws = _Workspace(panel, spec)
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
        g1, _ = profile_argmin(conditional_profile(ws, grid, ()))
        g2, s_unrefined = profile_argmin(conditional_profile(ws, grid, (g1,)))
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

    @pytest.mark.parametrize("call, argument, value", [
        ("candidate_grid", "max_grid_points", 10.5), ("ThresholdSpec", "trim_fraction", "0.1"),
        # a threshold is a finite number: no string parsed, no flag read as 1
        ("ssr_at", "gammas", ["12"]), ("ssr_at", "gammas", [math.nan]), ("ssr_at", "gammas", 12.0),
        ("fit_at", "gammas", [True]), ("fit_at", "gammas", "12"),
    ])
    def test_mistyped_argument_is_a_config_error(self, call, argument, value):
        def benchmark_inputs():
            panel, truth = simulate_threshold_panel(benchmark_dgp())
            return panel, default_spec(truth)

        calls = {
            "candidate_grid": lambda **kw: candidate_grid(
                np.arange(100.0), **{"trim_fraction": 0.05, "max_grid_points": 400, **kw}),
            "ThresholdSpec": lambda **kw: ThresholdSpec(VariableRole("y", "q", ["x"]), **kw),
            "ssr_at": lambda **kw: ssr_at(*benchmark_inputs(), **kw),
            "fit_at": lambda **kw: fit_at(*benchmark_inputs(), **kw),
        }
        with pytest.raises(ConfigError,
                           match=rf"^{argument} must be an? (integer|number|list of numbers)"):
            calls[call](**{argument: value})

    def test_field_types_checked_for_library_callers(self):
        # numpy integers and bools pass; a numpy bool is no count
        roles = VariableRole("y", "q", ["x"])
        spec = ThresholdSpec(
            roles, dynamic_lag=np.False_, max_grid_points=np.int64(50), num_thresholds=np.int32(2),
        )
        assert spec.max_grid_points == 50 and spec.num_thresholds == 2
        with pytest.raises(ConfigError, match="num_thresholds"):
            ThresholdSpec(roles, num_thresholds=np.True_)

    def test_dynamic_lag_changes_sample(self):
        panel, truth = simulate_threshold_panel(
            _noiseless_dgp(noise_sd=0.3, theta0=0.4, n_periods=16)
        )
        spec = default_spec(truth)
        assert spec.dynamic_lag
        fit = estimate_single(panel, spec)
        assert fit.n_periods_used == panel.n_periods - 1
        assert "y_lag1" in fit.control_betas


def _scan_panel(rng, n=6, t=30, x_scale=1.0, control=None, c_scale=1.0):
    """Two-threshold-ish panel with a regressor x and a control c, each
    rescaled after the response is drawn."""
    q = rng.uniform(0.0, 1.0, (n, t))
    x = rng.standard_normal((n, t)) + 1.0
    c = rng.standard_normal((n, t)) if control is None else control(x, rng)
    regime = (q > 0.35).astype(float) + (q > 0.7)
    y = (x * (1.0 + 0.8 * regime) + 0.4 * regime + 0.5 * c
         + rng.standard_normal((n, t)) + rng.standard_normal((n, 1)))
    return make_panel({"y": y, "q": q, "x": x * x_scale, "c": c * c_scale})


def _reference(ws, grid, fixed, y):
    profile = conditional_profile(ws, grid, fixed, y)
    return profile_argmin(profile) if profile else None


def _flat_band(rng, band_x):
    """Workspace and grid of a 6x30 panel, without intercept shifts, whose x
    is ``band_x`` on the band q in [0.4, 0.6] around its threshold at 0.5."""
    from panelthresh.threshold import _Workspace

    n, t = 6, 30
    q = rng.uniform(0.0, 1.0, (n, t))
    x = np.where(np.abs(q - 0.5) <= 0.1, band_x, 1.0 + np.abs(rng.standard_normal((n, t))))
    y = np.where(q <= 0.5, x, 3.0 * x) + 0.1 * rng.standard_normal((n, t))
    spec = ThresholdSpec(VariableRole("y", "q", ["x"]), include_intercept_shift=False)
    ws = _Workspace(make_panel({"y": y, "q": q, "x": x}), spec)
    return ws, candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)


def _located(scan, fixed, y=None):
    """``scan.locate``'s threshold and the pivoted SSR there: the pair
    ``_reference`` gives, or None."""
    (hit,) = scan.locate(fixed, [scan.ws.y if y is None else y])
    return None if hit is None else (hit.gamma, _ssr_ws(scan.ws, (*fixed, hit.gamma), y))


_SCAN_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    t=st.integers(5, 12),
    n_rv=st.integers(1, 2),
    with_control=st.booleans(),
    shift=st.booleans(),
    log_scale=st.integers(-3, 6),
    n_fixed=st.integers(0, 2),
    offset=st.sampled_from([0.0, 1e2, 1e4]),
    tied_q=st.booleans(),
    collinear_control=st.booleans(),
)
_scan_cases = given(**_SCAN_CASES)


def _random_scan(
    seed, n, t, n_rv, with_control, shift, log_scale, n_fixed, offset, tied_q,
    collinear_control,
):
    """The drawn panel with its workspace, grid and scan, ``n_fixed``
    thresholds drawn from the grid, and the generator for further draws.

    A large regressor offset makes the cumulative columns x * I(q <= b) and
    I(q <= b) nearly collinear, tied q values put several observations on
    one boundary, and a control within 1e-5 of x1 leaves the shared columns
    nearly singular.
    """
    from panelthresh.threshold import SSRScan, _Workspace

    rng = np.random.default_rng(seed)
    x1 = (rng.standard_normal((n, t)) + offset) * 10.0**log_scale
    q = rng.uniform(0.0, 1.0, (n, t))
    variables = {
        "y": rng.standard_normal((n, t)),
        "q": np.round(q, 1) if tied_q else q,
        "x1": x1,
        "x2": rng.standard_normal((n, t)),
        "c": x1 + 1e-5 * rng.standard_normal((n, t))
        if collinear_control else rng.standard_normal((n, t)),
    }
    rv = ["x1", "x2"][:n_rv]
    spec = ThresholdSpec(
        VariableRole("y", "q", rv, ["c"] if with_control else []),
        include_intercept_shift=shift,
        trim_fraction=0.1,
    )
    panel = make_panel(variables)
    ws = _Workspace(panel, spec)
    try:
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
    except EstimationError:
        # rounding can leave a tiny panel with no grid
        assume(not tied_q)
        raise
    fixed = tuple(float(g) for g in rng.choice(grid, size=min(n_fixed, grid.size), replace=False))
    return panel, ws, grid, SSRScan(ws, grid), fixed, rng


def _profile_fit(fixed, profile, slacks, dof):
    """A fit whose threshold at the profile's first minimum carries
    ``profile``, the others held at ``fixed``; only the fields
    ``threshold_ci`` reads are filled in."""
    gamma, ssr = min(profile, key=lambda entry: entry[1])
    gammas = tuple(sorted((*fixed, gamma)))
    j = gammas.index(gamma)
    fit = ThresholdFit(
        gammas=gammas, regime_varying=(), betas_by_regime=(), delta=None, control_betas={},
        ssr=ssr, sigma2=ssr / dof, residuals=np.empty((0, 0)), regime_counts=(),
        n_units=0, n_periods_used=0,
        ssr_profiles=tuple(profile if i == j else () for i in range(len(gammas))),
        ssr_profile_slacks=tuple(slacks if i == j else () for i in range(len(gammas)))
        if slacks else (),
    )
    return fit, j


class TestSSRScan:
    """The screened scan locates the pivoted reference's argmin, and the
    pivoted SSR there is the reference minimum, bitwise."""

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
                assert _located(scan, fixed, y) == ref
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

    @pytest.mark.parametrize("x_scale, c_scale", [(1e-8, 1.0), (1e6, 1e-6)])
    def test_regressors_in_different_units(self, rng, x_scale, c_scale):
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
        self._check_sequence(_scan_panel(rng, x_scale=x_scale, c_scale=c_scale), spec, rng)

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
        from panelthresh.threshold import SSRScan

        ws, grid = _flat_band(rng, band_x)
        n, t = ws.n_units, ws.n_periods
        profile = conditional_profile(ws, grid, (), None)
        best = min(s for _, s in profile)
        assert sum(abs(s - best) <= 1e-12 * best for _, s in profile) > 5
        scan = SSRScan(ws, grid)
        for y_r in (None, *(ws.y + 1e-3 * rng.standard_normal(ws.n_obs) for _ in range(5))):
            if y_r is not None:
                y_r = (y_r.reshape(n, t) - y_r.reshape(n, t).mean(axis=1, keepdims=True)).ravel()
            assert _located(scan, (), y_r) == _reference(ws, grid, (), y_r)

    def test_locate_reevaluates_only_when_several_may_hold_the_minimum(
        self, rng, monkeypatch
    ):
        # Where the screen leaves one candidate that may hold the minimum,
        # every other lies strictly above it, so locate re-evaluates nothing.
        # On the flat band of test_flat_profile_band several tie, and only
        # those are re-evaluated to find the first of them.
        from panelthresh import threshold

        calls = []
        exact = threshold._ssr_ws
        monkeypatch.setattr(
            threshold, "_ssr_ws", lambda *a, **k: calls.append(1) or exact(*a, **k)
        )
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
        ws = threshold._Workspace(_scan_panel(rng, n=8, t=40), spec)
        scan = threshold.SSRScan(
            ws, candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points))
        fixed: tuple[float, ...] = ()
        for _ in range(3):
            _, ssrs, slack, _, _ = scan._screen(scan._factor(fixed), ws.y)
            assert np.count_nonzero(threshold._near_minimum(ssrs, slack)) == 1
            gamma = scan.locate(fixed, [ws.y])[0].gamma
            assert not calls
            assert gamma == _reference(ws, scan.grid, fixed, None)[0]
            fixed = tuple(sorted((*fixed, gamma)))

        ws, grid = _flat_band(rng, 0.0)
        scan = threshold.SSRScan(ws, grid)
        _, ssrs, slack, _, _ = scan._screen(scan._factor(()), ws.y)
        near = np.count_nonzero(threshold._near_minimum(ssrs, slack))
        assert near > 5
        assert [hit.gamma for hit in scan.locate((), [ws.y])] == [_reference(ws, grid, (), None)[0]]
        assert len(calls) == near

        # Each interval is padded by a few ulps (``_padded``): 1 + eps reaches
        # the padded upper end of 1. An infinite or NaN slack and a NaN
        # screened value leave an entry untrusted, and so near, as is every
        # entry when none is trusted.
        near_of = threshold._near_minimum
        assert near_of(np.array([1.0, np.nextafter(1.0, 2.0), 1.5]), np.zeros(3)).tolist() == [
            True, True, False]
        screened = np.array([5.0, 1.0, 3.0, np.nan, 4.0])
        slack = np.array([0.1, 0.1, np.inf, 0.1, np.nan])
        assert near_of(screened, slack).tolist() == [False, True, True, True, True]
        assert near_of(screened, np.full(5, np.inf)).all()

    @staticmethod
    def _reevaluations(rng, monkeypatch, **scales):
        """Grid size and pivoted re-evaluations of the profiles of a
        three-stage sequence on an 8x40 panel: every entry that may hold the
        minimum is re-evaluated there."""
        from panelthresh import threshold

        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
        ws = threshold._Workspace(_scan_panel(rng, n=8, t=40, **scales), spec)
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
        scan = threshold.SSRScan(ws, grid)
        g1 = scan.locate((), [ws.y])[0].gamma
        g2 = scan.locate((g1,), [ws.y])[0].gamma
        calls = []
        exact = threshold._ssr_ws
        monkeypatch.setattr(
            threshold, "_ssr_ws", lambda *a, **k: calls.append(1) or exact(*a, **k)
        )
        for fixed in ((), (g1,), tuple(sorted((g1, g2)))):
            scan.profile(fixed)
        return grid.size, len(calls)

    def test_screen_reevaluates_few_candidates(self, rng, monkeypatch):
        # On a well-conditioned panel the screen, not the pivoted path, does
        # the scanning: only candidates within rounding of the minimum are
        # re-evaluated.
        grid_size, calls = self._reevaluations(rng, monkeypatch)
        assert grid_size > 250 and calls <= 6

    @pytest.mark.parametrize("x_scale, c_scale", [(1e-8, 1.0), (1e6, 1e-6)])
    def test_screen_trust_is_scale_free(self, rng, monkeypatch, x_scale, c_scale):
        # Regressors in other units leave the pivoted rank rule, which works
        # on unit-norm columns, unchanged, so the screen trusts as many
        # candidates as on the unscaled panel.
        grid_size, calls = self._reevaluations(rng, monkeypatch, x_scale=x_scale, c_scale=c_scale)
        assert grid_size > 250 and calls <= 6

    @settings(max_examples=40, deadline=None)
    @_scan_cases
    def test_profile_matches_pivoted_reference_property(self, **case):
        # The scan's profile has the reference's candidates in order, every
        # entry within its slack, the minimum and the kept candidate
        # bitwise, and the same LR confidence-set endpoints at any alpha.
        panel, ws, grid, scan, fixed, rng = _random_scan(**case)
        keep = (float(rng.choice(grid)),)
        profile, slacks = scan.profile(fixed, keep)
        reference = conditional_profile(ws, grid, fixed)
        assert [g for g, _ in profile] == [g for g, _ in reference]
        assert len(slacks) == len(profile)
        if not reference:
            return
        best = min(s for _, s in reference)
        for (g, s), slack, (_, r) in zip(profile, slacks, reference):
            assert abs(s - r) <= slack
            if r == best or g in keep:
                assert s == r and slack == 0.0
        assume(best > 0.0)
        dof = ws.n_units * (ws.n_periods - 1)
        fit, j = _profile_fit(fixed, profile, slacks, dof)
        exact, _ = _profile_fit(fixed, tuple(reference), (), dof)
        for alpha in (0.01, 0.05, 0.10, 0.5):
            ci = threshold_ci(panel, ws.spec, fit, alpha, threshold_index=j)
            ref = threshold_ci(panel, ws.spec, exact, alpha, threshold_index=j)
            assert (ci.lower, ci.upper) == (ref.lower, ref.upper)

    @settings(max_examples=40, deadline=None)
    @_scan_cases
    def test_candidate_gram_matches_explicit_columns_property(self, **case):
        # Each candidate's Gram block, built from cumulative sums over the
        # q-sorted observations, is the Gram of its demeaned cumulative
        # columns u * I(q <= c) built explicitly, at every candidate.
        _, ws, grid, scan, _, _ = _random_scan(**case)
        tol = 1e-12 * scan._raw.max()
        for c, gamma in enumerate(grid):
            rv_cum, ind_cum = ws.cum(gamma)
            cols = np.column_stack([rv_cum, ind_cum]) if ws.spec.include_intercept_shift else rv_cum
            np.testing.assert_allclose(scan._Gcc[c], cols.T @ cols, rtol=0.0, atol=tol)

    def test_screened_profile_entries_match_oracle(self, rng):
        # Screened entries against normal equations solved longhand, to a
        # relative 1e-12 (both sides agree to about 4e-15 on this panel),
        # far inside the slack, which is about 2e-8 of the SSR here.
        from panelthresh.threshold import SSRScan, _Workspace

        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
        ws = _Workspace(_scan_panel(rng, n=8, t=40), spec)
        grid = candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points)
        profile, slacks = SSRScan(ws, grid).profile(())
        screened = [(g, s) for (g, s), slack in zip(profile, slacks) if slack > 0.0]
        assert len(screened) > 250
        for g, s in screened:
            X, _ = ws.design((g,))
            _, oracle_ssr = dummy_ols_oracle(ws.y, X / np.linalg.norm(X, axis=0))
            assert s == pytest.approx(oracle_ssr, rel=1e-12)


class TestFactorPerScan:
    def test_estimate_on_factors_each_conditional_set_per_scan(self, monkeypatch):
        # The scan keeps no factor beyond the unconditional one, built with
        # it: a fit factors a conditional set for each step that scans it and
        # again for each profile that reads it (about 1 ms each on this
        # panel). Here the refinement keeps the first threshold, so at k = 2
        # both sets are factored twice; at k = 3 the pair the third step
        # conditions on is.
        from collections import Counter

        from panelthresh import threshold

        panel, truth = _two_threshold_panel()
        calls = Counter()
        factor = threshold.SSRScan._factor
        monkeypatch.setattr(
            threshold.SSRScan, "_factor",
            lambda self, fixed: calls.update([fixed]) or factor(self, fixed),
        )
        a, b = threshold.estimate_on(
            threshold.build_scan(panel, default_spec(truth, num_thresholds=2))).gammas
        assert calls == Counter({(): 1, (a,): 2, (b,): 2})
        calls.clear()
        fit = threshold.estimate_on(
            threshold.build_scan(panel, default_spec(truth, num_thresholds=3)))
        assert fit.gammas[:2] == (a, b)
        c = fit.gammas[2]
        assert calls == Counter({(): 1, (a,): 1, (b,): 1, (a, b): 2, (a, c): 1, (b, c): 1})


class TestLocateGroup:
    """``locate(fixed, ys)`` screens a group of responses under one factor
    and gives each the threshold it gets alone."""

    @staticmethod
    def _group(rng):
        """A flat-band scan, a fixed set under which its workspace response
        leaves more than 5 candidates that may hold the minimum, and a group
        of that response and two resampled ones."""
        from panelthresh import threshold

        ws, grid = _flat_band(rng, 0.0)
        scan = threshold.SSRScan(ws, grid)
        fixed = (float(grid[np.searchsorted(grid, 0.2)]),)
        _, ssrs, slack, _, _ = scan._screen(scan._factor(fixed), ws.y)
        assert np.count_nonzero(threshold._near_minimum(ssrs, slack)) > 5
        n, t = ws.n_units, ws.n_periods
        ys = [ws.y]
        for _ in range(2):
            draw = ws.y.reshape(n, t)[rng.integers(0, n, n)] + rng.standard_normal((n, t))
            ys.append((draw - draw.mean(axis=1, keepdims=True)).ravel())
        return scan, fixed, ys

    def test_each_member_gets_the_reference_threshold(self, rng):
        scan, fixed, ys = self._group(rng)
        for held in (fixed, ()):
            located = scan.locate(held, (y for y in ys))
            assert [hit.gamma for hit in located] == [
                _reference(scan.ws, scan.grid, held, y)[0] for y in ys]
            assert located == [scan.locate(held, [y])[0] for y in ys]

    def test_one_factor_per_call(self, rng, monkeypatch):
        from collections import Counter

        from panelthresh import threshold

        scan, fixed, ys = self._group(rng)
        calls = Counter()
        factor = threshold.SSRScan._factor
        monkeypatch.setattr(
            threshold.SSRScan, "_factor",
            lambda self, fixed: calls.update([fixed]) or factor(self, fixed),
        )
        scan.locate(fixed, ys)
        assert calls == Counter({fixed: 1})
        scan.locate((), ys)
        assert calls == Counter({fixed: 1})

    def test_empty_group_and_inadmissible_fixed_set(self, rng):
        scan, fixed, ys = self._group(rng)
        assert scan.locate(fixed, []) == []
        # the regime between two adjacent candidates is below the floor
        k = scan.grid.size // 2
        crowded = (float(scan.grid[k]), float(scan.grid[k + 1]))
        assert scan.ws.regime_counts(crowded).min() < scan.ws.floor
        assert scan.locate(crowded, ys) == [None] * len(ys)


class TestInverseCholesky:
    @pytest.mark.parametrize("p", [1, 4, 9])
    @pytest.mark.parametrize("batch", [1, 30])
    def test_matches_inverse_of_lapack_factor(self, rng, p, batch):
        A = rng.standard_normal((batch, p + 3, p)) * 10.0 ** rng.uniform(-3, 3, p)
        G = A.transpose(0, 2, 1) @ A
        inverse, ok = _inverse_cholesky(G)
        expected = np.linalg.inv(np.linalg.cholesky(G))
        assert ok.all()
        err = np.abs(inverse - expected).max(axis=(1, 2)) / np.abs(expected).max(axis=(1, 2))
        assert err.max() < 1e-12

    def test_each_matrix_is_factored_as_if_alone(self, rng):
        # Trust comes from a matrix's own pivots: a positive definite one
        # with lambda_min = 1e-12 keeps its flag next to an indefinite one,
        # and every member gets the bits it gets alone, all finite.
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        batch = np.stack([Q @ np.diag(lam) @ Q.T for lam in
                          ([1.0, 2.0, 3.0, 4.0], [1e-12, 1.0, 2.0, 3.0], [-1.0, 1.0, 2.0, 3.0])])
        inverse, ok = _inverse_cholesky(batch)
        assert ok.tolist() == [True, True, False]
        assert np.isfinite(inverse).all()
        for i in range(len(batch)):
            alone, ok_alone = _inverse_cholesky(batch[i:i + 1])
            assert np.array_equal(alone[0], inverse[i]) and ok_alone[0] == ok[i]


@settings(max_examples=40, deadline=None)
@_scan_cases
def test_scan_matches_pivoted_reference_property(**case):
    _, ws, _, scan, fixed, rng = _random_scan(**case)
    grid = scan.grid
    y = rng.standard_normal((ws.n_units, ws.n_periods)) * 10.0 ** rng.integers(-2, 3)
    y = (y - y.mean(axis=1, keepdims=True)).ravel()
    assert _located(scan, fixed, y) == _reference(ws, grid, fixed, y)
    assert _located(scan, fixed) == _reference(ws, grid, fixed, None)


def _assert_within_slack(ssr, slack, exact):
    """A record's SSR is within its slack of the pivoted one; slack 0 means bitwise."""
    assert abs(ssr - exact) <= slack
    if slack == 0.0:
        assert ssr == exact


@settings(max_examples=40, deadline=None)
@given(**{**_SCAN_CASES, "log_scale": st.integers(-8, 8)})
def test_records_hold_the_exact_ssr_within_their_slack_property(**case):
    # Every locate record and every chain entry, the linear model's and the
    # refinement's included, against the pivoted SSR of its thresholds.
    from panelthresh.threshold import sequential_estimates

    _, ws, _, scan, fixed, rng = _random_scan(**case)
    y = rng.standard_normal((ws.n_units, ws.n_periods)) * 10.0 ** rng.integers(-2, 3)
    for response in (ws.y, (y - y.mean(axis=1, keepdims=True)).ravel()):
        (hit,) = scan.locate(fixed, [response])
        if hit is not None:
            _assert_within_slack(hit.ssr, hit.slack, _ssr_ws(ws, (*fixed, hit.gamma), response))
            _assert_within_slack(hit.fixed_ssr, hit.fixed_slack, _ssr_ws(ws, fixed, response))
        (chain,) = sequential_estimates(scan, 3, 1, lambda i: response)
        assert [len(stage.gammas) for stage in chain] == list(range(len(chain)))
        for stage in chain:
            _assert_within_slack(stage.ssr, stage.slack, _ssr_ws(ws, stage.gammas, response))


def test_linear_entry_is_screened_within_a_small_slack(rng):
    # The linear model's entry comes from the first step's screen with a
    # finite slack, far below its SSR on a well-conditioned panel; only the
    # unconditional factor gives one.
    from panelthresh.threshold import SSRScan, _Workspace, sequential_estimates

    spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
    ws = _Workspace(_scan_panel(rng, n=8, t=40), spec)
    scan = SSRScan(ws, candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points))
    (chain,) = sequential_estimates(scan, 2)
    linear = chain[0]
    assert linear.gammas == () and 0.0 < linear.slack < 1e-8 * linear.ssr
    _assert_within_slack(linear.ssr, linear.slack, _ssr_ws(ws, ()))
    (hit,) = scan.locate(chain[1].gammas, [ws.y])
    assert hit.fixed_slack == math.inf


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


def test_conditional_scan_memory_does_not_grow_with_the_grid():
    # A scan with a fixed threshold needs the shared columns once and one
    # m x m block per candidate. The bound leaves no room for a full p x p
    # Gram per candidate with its partial sums copied, ~28 MB over this
    # panel's full ~5 400-point grid.
    from panelthresh.threshold import build_scan

    panel, truth = simulate_threshold_panel(ThresholdDGP(
        n_units=150, n_periods=40, gamma0=0.5, beta_low=(1.0, 0.5), beta_high=(2.0, -0.5),
        delta0=0.3, control_betas=(0.5,), seed=1,
    ))
    scan = build_scan(panel, default_spec(truth, max_grid_points=10_000))
    assert scan.grid.size > 5000
    g1 = scan.locate((), [scan.ws.y])[0].gamma
    tracemalloc.start()
    try:
        (hit,) = scan.locate((g1,), [scan.ws.y])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hit is not None
    assert peak < 8 * 2**20


def test_full_grid_fit_memory_grows_with_the_panel_not_the_grid():
    # Every unit-sum correction is a cumulative sum over the N*T q-sorted
    # observations, so a full-grid build and fit hold O(N*T*m^2 + C*m*p)
    # floats. Keeping per-unit partial sums at each candidate (C x N x m)
    # would peak at about 120 MB over this panel's ~8 100-point grid.
    from panelthresh.threshold import build_scan, estimate_on

    panel, truth = simulate_threshold_panel(ThresholdDGP(
        n_units=300, n_periods=30, gamma0=0.5, beta_low=(1.0, 0.5), beta_high=(2.0, -0.5),
        delta0=0.3, control_betas=(0.5,), seed=1,
    ))
    spec = default_spec(truth, max_grid_points=300 * 30)
    tracemalloc.start()
    try:
        fit = estimate_on(build_scan(panel, spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fit.ssr_profile) > 8000
    assert peak < 32 * 2**20
