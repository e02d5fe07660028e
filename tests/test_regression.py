from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from panelthresh import (
    ConfigError,
    EstimationError,
    ThresholdDGP,
    default_spec,
    dummy_ols_oracle,
    estimate_regime_equation,
    fit_at,
    ols,
    simulate_threshold_panel,
    two_sls,
)
from panelthresh.regression import regime_equation_on
from panelthresh.threshold import build_scan, estimate_on


class TestOls:
    def test_exact_line(self):
        x = np.arange(1.0, 11.0)
        res = ols(2.0 * x, {"x": x})
        assert abs(res.coefficients["x"] - 2.0) < 1e-12
        assert res.r_squared == pytest.approx(1.0)
        assert res.rmse == pytest.approx(0.0, abs=1e-10)

    def test_intercept_only(self, rng):
        y = rng.standard_normal(25) + 3.0
        res = ols(y, {"C": np.ones(25)})
        assert res.coefficients["C"] == pytest.approx(float(y.mean()), abs=1e-12)
        assert res.wald.df == 0 and res.wald.p_value == 1.0

    def test_matches_normal_equations_oracle(self, rng):
        X = {"C": np.ones(10), "a": rng.standard_normal(10), "b": rng.standard_normal(10)}
        y = rng.standard_normal(10)
        res = ols(y, X)
        beta, ssr = dummy_ols_oracle(y, np.column_stack(list(X.values())))
        for j, name in enumerate(X):
            assert abs(res.coefficients[name] - beta[j]) < 1e-10
        assert abs(res.ssr - ssr) < 1e-10 * max(1.0, ssr)

    def test_rank_deficiency_names_column(self, rng):
        # either member of the collinear pair may be flagged by the pivoting
        x = rng.standard_normal(20)
        with pytest.raises(EstimationError, match=r"rank-deficient.*\b(x|dup)\b"):
            ols(rng.standard_normal(20), {"C": np.ones(20), "x": x, "dup": 2.0 * x})

    def test_pvalues_recomputable_from_std_errors(self, rng):
        X = {"C": np.ones(40), "x": rng.standard_normal(40)}
        y = 0.5 * X["x"] + rng.standard_normal(40)
        res = ols(y, X)
        for name in X:
            z = res.coefficients[name] / res.std_errors[name]
            assert res.p_values[name] == pytest.approx(2 * stats.norm.sf(abs(z)), abs=1e-12)

    def test_wald_equals_q_times_f(self, rng):
        # Homoskedastic identity: W = q * F for the joint zero restriction
        # on all slopes, with F from restricted/unrestricted SSRs.
        n = 60
        X = {"C": np.ones(n), "a": rng.standard_normal(n), "b": rng.standard_normal(n)}
        y = 1.0 + 0.7 * X["a"] - 0.2 * X["b"] + rng.standard_normal(n)
        res = ols(y, X)
        ssr_u = res.ssr
        ssr_r = float(np.sum((y - y.mean()) ** 2))
        q, k = 2, 3
        f_stat = ((ssr_r - ssr_u) / q) / (ssr_u / (n - k))
        assert res.wald.statistic == pytest.approx(q * f_stat, rel=1e-8)

    def test_r_squared_bounds_with_intercept(self, rng):
        X = {"C": np.ones(30), "x": rng.standard_normal(30)}
        res = ols(rng.standard_normal(30), X)
        assert 0.0 <= res.r_squared <= 1.0

    def test_robust_flag_changes_only_inference(self, rng):
        n = 50
        X = {"C": np.ones(n), "x": rng.standard_normal(n)}
        y = X["x"] + rng.standard_normal(n) * (1 + np.abs(X["x"]))
        plain = ols(y, X)
        robust = ols(y, X, robust=True)
        assert plain.coefficients == robust.coefficients
        assert plain.std_errors != robust.std_errors
        # HC0 by hand: (X'X)^-1 (sum_i e_i^2 x_i x_i') (X'X)^-1
        M = np.column_stack(list(X.values()))
        e = y - M @ np.linalg.lstsq(M, y, rcond=None)[0]
        bread = np.linalg.inv(M.T @ M)
        se = np.sqrt(np.diag(bread @ (M.T * e**2) @ M @ bread))
        np.testing.assert_allclose(list(robust.std_errors.values()), se, rtol=1e-10)


def _endogenous_draw(rng, n=400, rho=0.6):
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    v = rng.standard_normal(n)
    u = rho * v + np.sqrt(1 - rho**2) * rng.standard_normal(n)
    x = z1 + z2 + v
    y = 1.0 + 1.0 * x + u
    return y, {"C": np.ones(n), "x": x}, {"z1": z1, "z2": z2}


class TestTwoSls:
    def test_instruments_equal_regressors_is_ols(self, rng):
        y, X, _ = _endogenous_draw(rng)
        base = ols(y, X)
        same = two_sls(y, X, ["x"], {"x": X["x"]})
        for name in X:
            assert abs(same.coefficients[name] - base.coefficients[name]) < 1e-10

    def test_empty_endogenous_reduces_to_ols_bitwise(self, rng):
        y, X, Z = _endogenous_draw(rng)
        base = ols(y, X)
        reduced = two_sls(y, X, [], Z)
        assert reduced.coefficients == base.coefficients
        assert reduced.std_errors == base.std_errors
        assert reduced.ssr == base.ssr
        assert reduced.estimator == "2SLS"

    def test_removes_endogeneity_bias(self, rng):
        y, X, Z = _endogenous_draw(rng, n=2000)
        biased = ols(y, X).coefficients["x"]
        fixed = two_sls(y, X, ["x"], Z).coefficients["x"]
        assert abs(biased - 1.0) > 0.1
        assert abs(fixed - 1.0) < 0.1

    def test_under_identified_errors(self, rng):
        y, X, Z = _endogenous_draw(rng)
        with pytest.raises(EstimationError, match="under-identified"):
            two_sls(y, X, ["x", "C"], {"z1": Z["z1"]})

    def test_sargan_present_iff_overidentified(self, rng):
        y, X, Z = _endogenous_draw(rng)
        over = two_sls(y, X, ["x"], Z)
        just = two_sls(y, X, ["x"], {"z1": Z["z1"]})
        assert over.sargan is not None and over.sargan.df == 1
        assert just.sargan is None

    def test_sargan_invariant_to_instrument_remixing(self, rng):
        y, X, Z = _endogenous_draw(rng)
        s1 = two_sls(y, X, ["x"], Z).sargan.statistic
        mixed = {
            "m1": 2.0 * Z["z1"] + 0.5 * Z["z2"],
            "m2": -1.0 * Z["z1"] + 3.0 * Z["z2"],
        }
        s2 = two_sls(y, X, ["x"], mixed).sargan.statistic
        assert abs(s1 - s2) < 1e-8 * max(1.0, abs(s1))

    def test_r_squared_can_be_negative_never_above_one(self, rng):
        n = 200
        z = rng.standard_normal(n)
        v = rng.standard_normal(n)
        u = 0.95 * v + np.sqrt(1 - 0.95**2) * rng.standard_normal(n)
        x = 0.3 * z + v
        y = 0.2 * x + u
        res = two_sls(y, {"C": np.ones(n), "x": x}, ["x"], {"z": z})
        assert res.r_squared <= 1.0

    def test_wrong_length_instrument_names_the_column(self, rng):
        y, X, Z = _endogenous_draw(rng)
        with pytest.raises(EstimationError, match="column 'z2' has 399 rows, y has 400"):
            two_sls(y, X, ["x"], {"z1": Z["z1"], "z2": Z["z2"][:-1]})

    def test_short_response_errors(self, rng):
        y, X, Z = _endogenous_draw(rng)
        with pytest.raises(EstimationError, match="column 'C' has 400 rows, y has 399"):
            ols(y[:-1], X)
        with pytest.raises(EstimationError, match="column 'C' has 400 rows, y has 399"):
            two_sls(y[:-1], X, ["x"], Z)

    def test_unknown_endogenous_name_errors(self, rng):
        y, X, Z = _endogenous_draw(rng)
        with pytest.raises(EstimationError, match="endogenous names not in design: w$"):
            two_sls(y, X, ["x", "w"], Z)

    def test_instrument_named_like_exogenous_column_is_not_excluded(self, rng):
        # "C" is the design's own column, whatever values the instrument
        # mapping gives it, so z1 alone identifies x: just-identified
        y, X, Z = _endogenous_draw(rng)
        base = two_sls(y, X, ["x"], {"z1": Z["z1"]})
        named = two_sls(y, X, ["x"], {"C": rng.standard_normal(400), "z1": Z["z1"]})
        assert named.sargan is None
        assert named.coefficients == base.coefficients
        assert named.std_errors == base.std_errors
        assert named.ssr == base.ssr
        assert named.residuals.tobytes() == base.residuals.tobytes()

    def test_repeated_endogenous_name_counts_once(self, rng):
        # ["x", "x"] names one endogenous regressor: the fit, its Sargan test
        # (df 1 with two instruments) and just-identification with one
        # instrument are those of ["x"]
        y, X, Z = _endogenous_draw(rng)
        for instruments in (Z, {"z1": Z["z1"]}):
            once = two_sls(y, X, ["x"], instruments)
            twice = two_sls(y, X, ["x", "x"], instruments)
            assert twice.coefficients == once.coefficients
            assert twice.std_errors == once.std_errors
            assert twice.p_values == once.p_values
            assert twice.ssr == once.ssr
            assert twice.sargan == once.sargan
            assert twice.residuals.tobytes() == once.residuals.tobytes()
        assert two_sls(y, X, ["x", "x"], Z).sargan.df == 1
        assert two_sls(y, X, ["x", "x"], {"z1": Z["z1"]}).sargan is None


def _regime_panel(seed=11, rho=0.0, fe_sd=0.0):
    dgp = ThresholdDGP(
        n_units=8,
        n_periods=36,
        gamma0=12.741,
        beta_low=(0.0,),
        beta_high=(0.7,),
        delta0=0.5,
        fixed_effect_sd=fe_sd,
        noise_sd=1.0,
        threshold_dist="lognormal(2.45,0.75)",
        endogeneity_rho=rho,
        control_betas=(0.4, -0.3),
        seed=seed,
    )
    return simulate_threshold_panel(dgp)


class TestEstimateRegimeEquation:
    def test_output_schema_rows(self):
        panel, truth = _regime_panel()
        spec = default_spec(truth)
        fit = fit_at(panel, spec, truth.gammas)
        res = estimate_regime_equation(panel, spec, fit, "OLS")
        expected = {"C", "q (beta1)", "q (beta2)", "shift1", "c1", "c2"}
        assert expected == set(res.coefficients)
        assert res.wald.df >= 1
        assert res.n_obs == 288
        assert np.isfinite(res.rmse) and np.isfinite(res.r_squared)

    def test_ols_recovers_planted_coefficients(self):
        hits_b1 = hits_b2 = 0
        trials = 100
        for trial in range(trials):
            seed = int(np.random.SeedSequence([71, trial]).generate_state(1, np.uint64)[0])
            panel, truth = _regime_panel(seed=seed)
            spec = default_spec(truth)
            fit = fit_at(panel, spec, truth.gammas)
            res = estimate_regime_equation(panel, spec, fit, "OLS")
            for name, true_val, bucket in (
                ("q (beta1)", 0.0, "b1"),
                ("q (beta2)", 0.7, "b2"),
            ):
                ok = abs(res.coefficients[name] - true_val) <= 2.0 * res.std_errors[name]
                if bucket == "b1":
                    hits_b1 += ok
                else:
                    hits_b2 += ok
        assert hits_b1 >= 90, f"beta1 inside 2 SE in only {hits_b1}/{trials}"
        assert hits_b2 >= 90, f"beta2 inside 2 SE in only {hits_b2}/{trials}"

    def test_2sls_with_panel_instruments(self):
        panel, truth = _regime_panel(seed=13, rho=0.6)
        spec = default_spec(truth)
        fit = fit_at(panel, spec, truth.gammas)
        res = estimate_regime_equation(panel, spec, fit, "2SLS", instruments=truth.roles.instruments)
        assert res.estimator == "2SLS"
        assert res.sargan is not None and res.sargan.df == 2
        assert "q (beta1)" in res.coefficients and "q (beta2)" in res.coefficients

    def test_2sls_without_instruments_errors(self):
        panel, truth = _regime_panel(seed=14)
        spec = default_spec(truth)
        fit = fit_at(panel, spec, truth.gammas)
        with pytest.raises(ConfigError, match="instrument"):
            estimate_regime_equation(panel, spec, fit, "2SLS")

    def test_three_regime_labels(self):
        dgp = ThresholdDGP(
            n_units=6, n_periods=30, gamma0=(10.0, 30.0),
            beta_low=(0.2,), beta_high=(0.8,),
            beta_regimes=((0.2,), (0.9,), (1.8,)),
            noise_sd=0.5, threshold_dist="uniform(0,45)", seed=44,
        )
        panel, truth = simulate_threshold_panel(dgp)
        spec = default_spec(truth, num_thresholds=2)
        fit = fit_at(panel, spec, truth.gammas)
        res = estimate_regime_equation(panel, spec, fit, "OLS")
        assert {"q (beta1)", "q (beta2)", "q (beta3)", "shift1", "shift2", "C"} == set(
            res.coefficients
        )

    def test_dynamic_lag_column_matches_hand_built_design(self):
        # dynamic_lag adds y's one-period lag as "y (-1)" after the constant
        # and drops the first period from every column.
        dgp = ThresholdDGP(
            n_units=8, n_periods=36, gamma0=12.741, beta_low=(0.0,), beta_high=(0.7,),
            delta0=0.5, theta0=0.4, threshold_dist="lognormal(2.45,0.75)",
            control_betas=(0.4,), seed=16,
        )
        panel, truth = simulate_threshold_panel(dgp)
        spec = default_spec(truth)
        assert spec.dynamic_lag
        fit = fit_at(panel, spec, truth.gammas)
        res = estimate_regime_equation(panel, spec, fit, "OLS")
        y, q, c1 = (panel.values(v) for v in ("y", "q", "c1"))
        low = (q[:, 1:] <= fit.gammas[0]).ravel().astype(float)
        design = {
            "C": np.ones(low.size),
            "y (-1)": y[:, :-1].ravel(),
            "q (beta1)": q[:, 1:].ravel() * low,
            "q (beta2)": q[:, 1:].ravel() * (1.0 - low),
            "shift1": low,
            "c1": c1[:, 1:].ravel(),
        }
        ref = ols(y[:, 1:].ravel(), design)
        assert res.n_obs == 8 * 35
        assert res.coefficients == ref.coefficients
        assert res.std_errors == ref.std_errors

    def test_core_equals_wrapper_on_a_dynamic_lag_panel(self):
        # regime_equation_on reads the scan's workspace (its lagged panel and
        # lag column); the wrapper builds a workspace of its own.
        dgp = ThresholdDGP(
            n_units=10, n_periods=30, gamma0=0.5, beta_low=(0.0,), beta_high=(0.7,),
            delta0=0.5, theta0=0.4, endogeneity_rho=0.5, control_betas=(0.4,), seed=17,
        )
        panel, truth = simulate_threshold_panel(dgp)
        spec = default_spec(truth)
        scan = build_scan(panel, spec)
        fit = estimate_on(scan)
        for estimator, robust in (("OLS", False), ("OLS", True), ("2SLS", False)):
            core = regime_equation_on(scan.ws, fit, estimator, None, robust=robust)
            ref = estimate_regime_equation(panel, spec, fit, estimator, robust=robust)
            assert "y (-1)" in core.coefficients
            assert core.residuals.tobytes() == ref.residuals.tobytes()
            assert replace(core, residuals=None) == replace(ref, residuals=None)

    def test_sign_pattern_fixture(self):
        # Planted beta1 = 0, beta2 = 0.7: the upper-regime slope should be
        # clearly significant while the lower one is not.
        panel, truth = _regime_panel(seed=15)
        spec = default_spec(truth)
        fit = fit_at(panel, spec, truth.gammas)
        res = estimate_regime_equation(panel, spec, fit, "OLS")
        assert res.p_values["q (beta2)"] < 0.01
        assert res.p_values["q (beta1)"] > res.p_values["q (beta2)"]


def _check_chi2_sf(x: float, df: int, got: float, ref: float) -> None:
    """Exact at the edges and where the tail is one libm call (df = 1 and 2);
    elsewhere within 1e-12 relative of scipy wherever scipy's value is at
    least 1e-300. scipy is not correctly rounded itself: at x = 41.5, df = 2
    it differs from exp(-20.75) by 2e-15 relative."""
    if x <= 0:
        assert got == 1.0
    elif x == math.inf:
        assert got == 0.0
    elif df == 1:
        assert got == math.erfc(math.sqrt(x / 2))
    elif df == 2:
        assert got == math.exp(-x / 2)
    elif ref >= 1e-300:
        assert abs(got - ref) <= 1e-12 * ref
    else:
        assert 0.0 <= got < 1e-299


@pytest.mark.parametrize("x", [-1e-12, -0.0, 0.0, 0.37, 3.0, 41.5, np.inf])
@pytest.mark.parametrize("df", [1, 2, 7])
def test_chi2_sf_matches_scipy_stats(x, df):
    from panelthresh.regression import _chi2_sf

    _check_chi2_sf(x, df, _chi2_sf(x, df), float(stats.chi2.sf(x, df)))


def test_chi2_sf_matches_scipy_stats_on_grid():
    # df 1..40 and x up to 2000, where e^(-x/2) alone underflows past
    # x of about 1490: the log-space terms keep every representable tail.
    from panelthresh.regression import _chi2_sf

    xs = np.concatenate([np.geomspace(1e-10, 1.0, 11), np.linspace(0.0, 2000.0, 4001)])
    for df in range(1, 41):
        for x, ref in zip(xs.tolist(), stats.chi2.sf(xs, df).tolist()):
            _check_chi2_sf(x, df, _chi2_sf(x, df), ref)


def test_chi2_sf_passes_nan_through():
    from panelthresh.regression import _chi2_sf

    assert all(math.isnan(_chi2_sf(math.nan, df)) for df in (1, 2, 7))


class TestDummyOracle:
    def test_identity_design(self):
        y = np.array([3.0, -1.0, 2.0])
        beta, ssr = dummy_ols_oracle(y, np.eye(3))
        np.testing.assert_allclose(beta, y, atol=1e-12)
        assert ssr == pytest.approx(0.0, abs=1e-20)

    def test_y_in_column_space(self, rng):
        X = rng.standard_normal((12, 3))
        y = X @ np.array([1.0, -2.0, 0.5])
        _, ssr = dummy_ols_oracle(y, X)
        assert ssr < 1e-16

    def test_singular_raises(self, rng):
        x = rng.standard_normal(10)
        with pytest.raises(EstimationError, match="singular"):
            dummy_ols_oracle(rng.standard_normal(10), np.column_stack([x, x]))

    def test_column_budget(self, rng):
        with pytest.raises(EstimationError, match="50"):
            dummy_ols_oracle(rng.standard_normal(60), rng.standard_normal((60, 51)))
