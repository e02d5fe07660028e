from __future__ import annotations

import numpy as np
import pytest

from panelthresh import (
    ConfigError,
    ThresholdDGP,
    benchmark_dgp,
    default_spec,
    fit_at,
    monte_carlo,
    simulate_threshold_panel,
)
from panelthresh import simulate


class TestDgpValidation:
    def test_dimension_floor(self):
        with pytest.raises(ConfigError):
            ThresholdDGP(n_units=1, n_periods=10, gamma0=0.5, beta_low=(0.0,), beta_high=(1.0,))

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            ThresholdDGP(
                n_units=4, n_periods=10, gamma0=0.5, beta_low=(0.0,), beta_high=(1.0,),
                endogeneity_rho=1.5,
            )

    def test_dist_descriptor_parse(self):
        with pytest.raises(ConfigError, match="threshold_dist"):
            ThresholdDGP(
                n_units=4, n_periods=10, gamma0=0.5, beta_low=(0.0,), beta_high=(1.0,),
                threshold_dist="cauchy(0,1)",
            )

    def test_multi_threshold_needs_beta_regimes(self):
        with pytest.raises(ConfigError, match="beta_regimes"):
            ThresholdDGP(
                n_units=4, n_periods=10, gamma0=(0.3, 0.6),
                beta_low=(0.0,), beta_high=(1.0,),
            )

    def test_theta_range(self):
        with pytest.raises(ConfigError):
            ThresholdDGP(
                n_units=4, n_periods=10, gamma0=0.5, beta_low=(0.0,), beta_high=(1.0,),
                theta0=1.0,
            )

    @pytest.mark.parametrize("field,value", [
        ("n_units", 4.5), ("n_periods", True), ("seed", 1.0), ("seed", -1),
    ])
    def test_integer_fields_checked(self, field, value):
        kwargs = dict(n_units=4, n_periods=10, gamma0=0.5, beta_low=(0.0,), beta_high=(1.0,))
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ThresholdDGP(**{**kwargs, field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("gamma0", "0.5", "a number"), ("gamma0", ["0.5"], "a list of numbers"),
        ("beta_low", "1", "a list of numbers"), ("beta_high", [True], "a list of numbers"),
        ("beta_regimes", [[0.0], ["1"]], "a list of numbers"),
        ("control_betas", "5", "a list of numbers"), ("delta0", "0.3", "a number"),
        ("theta0", "0.5", "a number"), ("fixed_effect_sd", "1", "a number"),
        ("noise_sd", True, "a number"), ("endogeneity_rho", "0.2", "a number"),
        ("gamma0", float("nan"), "a number"), ("noise_sd", float("inf"), "a number"),
        ("delta0", float("-inf"), "a number"),
        ("gamma0", [0.3, float("nan")], "a list of numbers"),
        ("control_betas", [float("inf")], "a list of numbers"),
        pytest.param("fixed_effect_sd", 10**400, "a number", id="fixed_effect_sd-10**400"),
    ])
    def test_number_fields_checked(self, field, value, message):
        # A string is neither split into characters nor parsed, a boolean is
        # not read as 0 or 1, and NaN, an infinity or an integer too large for
        # a float is no number.
        kwargs = dict(n_units=4, n_periods=10, gamma0=0.5, beta_low=(0.0,), beta_high=(1.0,))
        with pytest.raises(ConfigError, match=rf"{field}(\[\d\])? must be {message}"):
            ThresholdDGP(**{**kwargs, field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("threshold_in_regressors", "false", "true or false"),
        ("threshold_in_regressors", 0, "true or false"),
        ("threshold_dist", 5, "a string"),
        ("threshold_dist", "uniform(1e,2)", "a distribution of finite numbers"),
        ("threshold_dist", "uniform(0,1e400)", "a distribution of finite numbers"),
        ("threshold_dist", "lognormal(800,1)", "a distribution of finite draws"),
    ])
    def test_flag_and_string_fields_checked(self, field, value, message):
        # "false" is not read as true, a number is no distribution, and a
        # distribution's numbers and draws are finite.
        kwargs = dict(n_units=4, n_periods=10, gamma0=0.5, beta_low=(0.0,), beta_high=(1.0,))
        with pytest.raises(ConfigError, match=f"{field} must be {message}"):
            simulate_threshold_panel(ThresholdDGP(**{**kwargs, field: value}))

    def test_list_fields_stored_as_tuples(self):
        def dgp(seq):
            return ThresholdDGP(
                n_units=4, n_periods=10, gamma0=seq([0.3, 0.6]), beta_low=seq([0.0]),
                beta_high=seq([1.0]), beta_regimes=seq([seq([0.0]), seq([1.0]), seq([2.0])]),
                control_betas=seq([0.5]),
            )

        assert dgp(list) == dgp(tuple)
        assert dgp(list).regime_betas == ((0.0,), (1.0,), (2.0,))


class TestSimulateThresholdPanel:
    def test_same_seed_bit_identical(self):
        dgp = benchmark_dgp(seed=77)
        p1, t1 = simulate_threshold_panel(dgp)
        p2, t2 = simulate_threshold_panel(dgp)
        assert p1.equals(p2)
        assert t1.gammas == t2.gammas

    def test_different_seed_differs(self):
        p1, _ = simulate_threshold_panel(benchmark_dgp(seed=1))
        p2, _ = simulate_threshold_panel(benchmark_dgp(seed=2))
        assert not p1.equals(p2)

    def test_truth_roundtrip_zero_noise(self):
        dgp = ThresholdDGP(
            n_units=5, n_periods=20, gamma0=0.5, beta_low=(0.25,), beta_high=(1.5,),
            delta0=0.8, noise_sd=0.0, threshold_dist="uniform(0,1)", seed=55,
        )
        panel, truth = simulate_threshold_panel(dgp)
        spec = default_spec(truth)
        fit = fit_at(panel, spec, truth.gammas)
        assert abs(fit.betas_by_regime[0][0] - 0.25) < 1e-8
        assert abs(fit.betas_by_regime[1][0] - 1.5) < 1e-8
        assert fit.delta is not None and abs(fit.delta[0] - 0.8) < 1e-8

    def test_endogeneity_emits_instruments(self):
        dgp = ThresholdDGP(
            n_units=4, n_periods=12, gamma0=0.5, beta_low=(0.0,), beta_high=(1.0,),
            endogeneity_rho=0.6, seed=5,
        )
        panel, truth = simulate_threshold_panel(dgp)
        assert {"z1", "z2"} <= set(panel.variable_names)
        assert truth.roles.instruments == ("z1", "z2")
        # instruments are relevant for the threshold variable
        q = panel.values("q").ravel()
        z1 = panel.values("z1").ravel()
        assert abs(np.corrcoef(q, z1)[0, 1]) > 0.2

    def test_controls_emitted(self):
        dgp = ThresholdDGP(
            n_units=4, n_periods=12, gamma0=0.5, beta_low=(0.0,), beta_high=(1.0,),
            control_betas=(0.5, -0.5), seed=6,
        )
        panel, truth = simulate_threshold_panel(dgp)
        assert {"c1", "c2"} <= set(panel.variable_names)
        assert truth.roles.invariant_controls == ("c1", "c2")

    def test_dynamic_lag_generation(self):
        dgp = ThresholdDGP(
            n_units=4, n_periods=15, gamma0=0.5, beta_low=(0.2,), beta_high=(1.0,),
            theta0=0.5, noise_sd=0.1, seed=8,
        )
        panel, truth = simulate_threshold_panel(dgp)
        assert panel.n_periods == 15
        assert truth.theta == 0.5

    def test_benchmark_preset_shape(self):
        panel, truth = simulate_threshold_panel(benchmark_dgp(seed=42))
        assert (panel.n_units, panel.n_periods) == (8, 36)
        q = panel.values("q")
        low = q[q <= 12.741]
        high = q[q > 12.741]
        # lognormal calibration: regime means near 8 and 25, majority below
        assert 0.45 <= low.size / q.size <= 0.70
        assert 5.0 <= low.mean() <= 11.0
        assert 18.0 <= high.mean() <= 34.0

    @pytest.mark.parametrize("dist, a, b", [("uniform(1,5)", 1.0, 5.0),
                                            ("uniform(-0.3,0.7)", -0.3, 0.7)])
    def test_endogenous_uniform_threshold_stays_in_bounds(self, dist, a, b):
        dgp = ThresholdDGP(
            n_units=50, n_periods=40, gamma0=0.5 * (a + b), beta_low=(0.0,), beta_high=(1.0,),
            threshold_dist=dist, endogeneity_rho=0.9, seed=5,
        )
        q = simulate_threshold_panel(dgp)[0].values("q")
        assert a <= q.min() and q.max() <= b

    @pytest.mark.parametrize("which", ["benchmark", "test_mid", "endogenous"])
    def test_threshold_variable_bitwise_equals_stream_rebuild(self, which):
        # The threshold variable rebuilt from the DGP's own stream, with the
        # stdlib normal CDF erfc(-g / sqrt(2)) / 2 on the endogenous path:
        # simulated panels (and so the benchmark's inputs) are fixed bit for
        # bit by the seed.
        import math

        dgp = {
            "benchmark": benchmark_dgp(seed=42),
            # the two-threshold 8x40 panel of the benchmark's test-mid workload
            "test_mid": ThresholdDGP(
                n_units=8, n_periods=40, gamma0=(0.3, 0.7), beta_low=(1.0, 0.5),
                beta_high=(2.0, -0.5), beta_regimes=((1.0, 0.5), (2.0, -0.5), (0.5, 1.0)),
                control_betas=(0.5,), seed=2,
            ),
            "endogenous": ThresholdDGP(
                n_units=6, n_periods=30, gamma0=3.0, beta_low=(0.0,), beta_high=(1.0,),
                threshold_dist="uniform(1,5)", endogeneity_rho=0.6, seed=13,
            ),
        }[which]
        rng = np.random.default_rng(np.random.SeedSequence([dgp.seed]))
        shape = (dgp.n_units, dgp.n_periods)
        rng.normal(0.0, dgp.fixed_effect_sd, size=dgp.n_units)
        eta = rng.standard_normal(shape)
        if which == "endogenous":
            v, z1, z2 = (rng.standard_normal(shape) for _ in range(3))
            u_q = 0.6 * eta + math.sqrt(1.0 - 0.36) * v
            g = (z1 + z2 + u_q) / math.sqrt(3.0)
            cdf = [0.5 * math.erfc(-x / math.sqrt(2.0)) for x in g.ravel().tolist()]
            expected = 1.0 + 4.0 * np.array(cdf).reshape(shape)
        elif which == "benchmark":
            expected = rng.lognormal(2.45, 0.75, size=shape)
        else:
            expected = rng.uniform(0.0, 1.0, size=shape)
        panel, _ = simulate_threshold_panel(dgp)
        assert panel.values("q").tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k1", [1, 2, 3])
    @pytest.mark.parametrize("threshold_in_regressors", [True, False])
    def test_regressors_after_q_are_the_next_normal_draws(self, k1, threshold_in_regressors):
        # The replay above, continued past q: each regressor other than q is
        # the next standard-normal (n, T) block, in name order, then the control.
        dgp = ThresholdDGP(
            n_units=5, n_periods=12, gamma0=0.5, beta_low=(0.5,) * k1, beta_high=(1.5,) * k1,
            control_betas=(0.3,), threshold_in_regressors=threshold_in_regressors, seed=21,
        )
        rng = np.random.default_rng(np.random.SeedSequence([dgp.seed]))
        shape = (dgp.n_units, dgp.n_periods)
        rng.normal(0.0, dgp.fixed_effect_sd, size=dgp.n_units)
        rng.standard_normal(shape)
        q = rng.uniform(0.0, 1.0, size=shape)
        panel, truth = simulate_threshold_panel(dgp)
        first = 2 if threshold_in_regressors else 1
        names = [f"x{j}" for j in range(first, k1 + 1)]
        assert truth.roles.regime_varying == ("q",) * (first - 1) + tuple(names)
        assert panel.values("q").tobytes() == q.tobytes()
        for name in names + ["c1"]:
            assert panel.values(name).tobytes() == rng.standard_normal(shape).tobytes()

    def test_rng_metadata_recorded(self):
        panel, truth = simulate_threshold_panel(benchmark_dgp(seed=3))
        assert "PCG64" in panel.metadata["generator"] or "PCG64" in truth.rng["generator"]


class TestMonteCarlo:
    def test_trials_floor(self):
        with pytest.raises(ConfigError, match="49"):
            monte_carlo("recovery", 49, benchmark_dgp())

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            monte_carlo("bias", 50, benchmark_dgp())

    def test_recovery_metrics_and_determinism(self):
        dgp = benchmark_dgp(contrast=0.5, noise_sd=1.0)
        s1 = monte_carlo("recovery", 50, dgp, master_seed=9)
        s2 = monte_carlo("recovery", 50, dgp, master_seed=9, threads=4)
        assert s1.metrics == s2.metrics
        assert {"hit_rate", "hit_rate_mc_se", "bias", "rmse"} <= set(s1.metrics)
        assert s1.rng["generator"].startswith("numpy PCG64")

    @pytest.mark.parametrize("call, argument, value", [
        ("monte_carlo", "trials", 60.5), ("monte_carlo", "master_seed", -1),
        ("monte_carlo", "threads", 1.5), ("monte_carlo", "threads", 0),
        ("monte_carlo", "threads", "2"), ("monte_carlo", "threads", True),
    ])
    def test_mistyped_argument_is_a_config_error(self, call, argument, value):
        # A fractional trial count, a negative master seed and a thread count
        # that is not a positive integer are ConfigErrors naming the argument,
        # not a TypeError or ValueError mid-run.
        kwargs = {"trials": 50, "master_seed": 0, argument: value}
        with pytest.raises(ConfigError, match=rf"^{argument} must be an integer"):
            getattr(simulate, call)("recovery", kwargs.pop("trials"), benchmark_dgp(), **kwargs)

    @pytest.mark.parametrize("alpha", ["abc", 0.0, 1.0, True, float("nan")])
    def test_alpha_validated(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            monte_carlo("size", 50, benchmark_dgp(), alpha=alpha)

    def test_spec_overrides_take_precedence(self):
        # num_thresholds defaults to 1 but may be overridden: size runs the
        # 1-vs-2 test on a two-threshold spec, and recovery refuses one.
        dgp = benchmark_dgp(contrast=0.0)
        overrides = {"num_thresholds": 2}
        s = monte_carlo("size", 50, dgp, master_seed=11, replications=99, threads=2,
                        spec_overrides=overrides)
        assert 0.0 <= s.metrics["rejection_rate"] <= 1.0
        with pytest.raises(ConfigError, match="estimate_single"):
            monte_carlo("recovery", 50, dgp, spec_overrides=overrides)

    @pytest.mark.parametrize("experiment", ["recovery", "coverage"])
    def test_single_threshold_experiments_refuse_more_before_simulating(
        self, monkeypatch, experiment
    ):
        def simulated(*args, **kwargs):
            raise AssertionError("a panel was simulated")

        monkeypatch.setattr(simulate, "simulate_threshold_panel", simulated)
        with pytest.raises(ConfigError, match=f"experiment '{experiment}'.*num_thresholds=2"):
            monte_carlo(experiment, 50, benchmark_dgp(), spec_overrides={"num_thresholds": 2})

    def test_coverage_experiment_runs(self):
        dgp = benchmark_dgp(contrast=0.5, noise_sd=2.0)
        s = monte_carlo("coverage", 50, dgp, master_seed=10)
        assert 0.0 <= s.metrics["coverage_rate"] <= 1.0

    @pytest.mark.slow
    def test_size_experiment_near_nominal(self):
        dgp = benchmark_dgp(contrast=0.0, noise_sd=1.0)
        s = monte_carlo("size", 100, dgp, master_seed=11, replications=99)
        assert 0.0 <= s.metrics["rejection_rate"] <= 0.15
