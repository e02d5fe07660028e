from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from panelthresh import (
    ConfigError,
    DataError,
    correlation_matrix,
    ips_test,
    regime_descriptives,
)

from panelthresh import diagnostics
from panelthresh.diagnostics import (
    DETERMINISTIC_CHOICES,
    _MOMENT_CHUNK,
    _MOMENT_SEED,
    _adf_batch,
    _ips_moments,
    _normal_cdf,
)

from conftest import make_panel

MOMENT_DRAWS = 3000  # enough precision for direction/invariance checks


class TestRegimeDescriptives:
    def test_hand_computed_six_cells(self):
        q = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        v = np.array([[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]])
        panel = make_panel({"q": q, "v": v})
        desc = regime_descriptives(panel, "q", 3.0)
        low = desc.low["v"]
        high = desc.high["v"]
        assert low.n_obs == 3 and high.n_obs == 3
        assert low.mean == pytest.approx(20.0, abs=1e-12)
        assert high.mean == pytest.approx(50.0, abs=1e-12)
        assert low.std == pytest.approx(10.0, abs=1e-12)  # sample sd of {10,20,30}
        assert desc.pooled["v"].mean == pytest.approx(35.0, abs=1e-12)
        assert desc.pooled["v"].min == 10.0 and desc.pooled["v"].max == 60.0

    def test_counts_sum_to_pooled(self, rng):
        panel = make_panel({"q": rng.uniform(0, 1, (4, 9)), "v": rng.standard_normal((4, 9))})
        desc = regime_descriptives(panel, "q", 0.4)
        assert desc.low["v"].n_obs + desc.high["v"].n_obs == desc.pooled["v"].n_obs

    def test_empty_upper_regime_absent(self, rng):
        q = rng.uniform(0, 1, (3, 5))
        panel = make_panel({"q": q, "v": rng.standard_normal((3, 5))})
        desc = regime_descriptives(panel, "q", float(q.max()))
        assert desc.high is None
        assert desc.low["v"].n_obs == desc.pooled["v"].n_obs
        assert desc.low["v"].mean == pytest.approx(desc.pooled["v"].mean, abs=1e-15)

    def test_min_le_mean_le_max(self, rng):
        panel = make_panel({"q": rng.uniform(0, 1, (4, 6)), "v": rng.standard_normal((4, 6))})
        desc = regime_descriptives(panel, "q", 0.5)
        for stats_map in (desc.pooled, desc.low, desc.high):
            s = stats_map["v"]
            assert s.min <= s.mean <= s.max


class TestCorrelationMatrix:
    def test_self_correlation_one(self, rng):
        x = rng.standard_normal((3, 8))
        panel = make_panel({"x": x, "y": rng.standard_normal((3, 8))})
        corr = correlation_matrix(panel, ["x", "y"])
        assert corr[0, 0] == 1.0 and corr[1, 1] == 1.0

    def test_anticorrelation_minus_one(self, rng):
        x = rng.standard_normal((3, 8))
        panel = make_panel({"x": x, "negx": -x})
        corr = correlation_matrix(panel, ["x", "negx"])
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_symmetric_positive_semidefinite(self, rng):
        mats = {f"v{k}": rng.standard_normal((5, 12)) for k in range(8)}
        panel = make_panel(mats)
        corr = correlation_matrix(panel, list(mats))
        assert corr.shape == (8, 8)
        np.testing.assert_allclose(corr, corr.T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(corr)
        assert eigvals.min() > -1e-8

    def test_zero_variance_named(self, rng):
        panel = make_panel({"flat": np.full((3, 4), 2.0), "x": rng.standard_normal((3, 4))})
        with pytest.raises(DataError, match="flat"):
            correlation_matrix(panel, ["flat", "x"])

    def test_needs_two_variables(self, rng):
        panel = make_panel({"x": rng.standard_normal((3, 4))})
        with pytest.raises(DataError, match="at least 2"):
            correlation_matrix(panel, ["x"])


def _series_panel(data):
    return make_panel({"v": data})


class TestIpsTest:
    def test_stationary_direction_fixture(self, rng):
        # Strongly stationary white noise: large negative statistic,
        # rejection at 1% with either deterministic specification.
        data = rng.standard_normal((8, 36))
        panel = _series_panel(data)
        for det in ("intercept", "intercept+trend"):
            res = ips_test(panel, "v", det, moment_draws=MOMENT_DRAWS)
            assert res.statistic < 0
            assert res.p_value < 0.01

    def test_affine_invariance(self, rng):
        data = rng.standard_normal((6, 30))
        a, b = 7.5, -3.0
        r1 = ips_test(_series_panel(data), "v", "intercept", moment_draws=MOMENT_DRAWS)
        r2 = ips_test(_series_panel(a * data + b), "v", "intercept", moment_draws=MOMENT_DRAWS)
        assert abs(r1.statistic - r2.statistic) < 1e-8
        assert abs(r1.t_bar - r2.t_bar) < 1e-8

    def test_random_walk_usually_keeps_null(self, rng):
        walks = np.cumsum(rng.standard_normal((8, 36)), axis=1)
        res = ips_test(_series_panel(walks), "v", "intercept", moment_draws=MOMENT_DRAWS)
        assert np.isfinite(res.statistic)
        assert 0.0 <= res.p_value <= 1.0

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 1.0])
    def test_p_value_matches_scipy_ndtr(self, rho, rng):
        # The p-value is erfc(-z / sqrt(2)) / 2 from math. It agrees with
        # scipy's ndtr of the same statistic within 1e-12 relative, out to
        # the far left tail that 40 units of white noise reach.
        from scipy.special import ndtr

        shocks = rng.standard_normal((40, 36))
        data = np.empty_like(shocks)
        data[:, 0] = shocks[:, 0]
        for j in range(1, data.shape[1]):
            data[:, j] = rho * data[:, j - 1] + shocks[:, j]
        res = ips_test(_series_panel(data), "v", "intercept", moment_draws=MOMENT_DRAWS)
        ref = float(ndtr(res.statistic))
        assert ref > 0.0 and abs(res.p_value - ref) <= 1e-12 * ref

    def test_normal_cdf_matches_scipy_ndtr(self, rng):
        # The one normal CDF (IPS p-values, simulate's uniform threshold on
        # the endogenous path) against scipy's ndtr as an outside reference,
        # on a grid over [-38, 38] and on standard normal draws: within
        # 4.5e-16 absolute everywhere, and 1e-12 relative wherever ndtr is at
        # least 1e-300 (the relative error grows in the far left tail).
        from scipy.special import ndtr

        z = np.concatenate([np.linspace(-38.0, 38.0, 200_001), rng.standard_normal(100_000)])
        got = np.frompyfunc(_normal_cdf, 1, 1)(z).astype(float)
        ref = ndtr(z)
        assert np.all(np.abs(got - ref) <= 4.5e-16)
        tail = ref >= 1e-300
        assert np.all(np.abs(got[tail] - ref[tail]) <= 1e-12 * ref[tail])

    def test_t_too_small(self, rng):
        panel = _series_panel(rng.standard_normal((4, 7)))
        with pytest.raises(DataError, match="too small"):
            ips_test(panel, "v", "intercept", max_lag=3)

    @pytest.mark.parametrize("t_len,deterministic", [
        (8, "intercept"), (9, "intercept"),
        (8, "intercept+trend"), (9, "intercept+trend"), (10, "intercept+trend"),
    ])
    def test_no_residual_dof_at_max_lag_rejected(self, t_len, deterministic, rng):
        # The max-lag model has T - 1 - 3 observations for 2 + 3 regressors
        # (3 + 3 with the trend): none of these leaves a residual degree of
        # freedom, so the moments would be degenerate.
        panel = _series_panel(rng.standard_normal((4, t_len)))
        with pytest.raises(DataError, match="too small"):
            ips_test(panel, "v", deterministic, moment_draws=MOMENT_DRAWS)

    @pytest.mark.parametrize("t_len,deterministic", [(10, "intercept"), (11, "intercept+trend")])
    def test_one_residual_dof_at_max_lag_accepted(self, t_len, deterministic, rng):
        panel = _series_panel(rng.standard_normal((4, t_len)))
        res = ips_test(panel, "v", deterministic, moment_draws=MOMENT_DRAWS)
        assert math.isfinite(res.statistic) and res.moment_var > 0

    def test_constant_series_rejected(self, rng):
        data = rng.standard_normal((3, 20))
        data[1] = 4.2
        with pytest.raises(DataError, match="constant series"):
            ips_test(_series_panel(data), "v", "intercept", moment_draws=MOMENT_DRAWS)

    def test_deterministic_choice_validated(self, rng):
        panel = _series_panel(rng.standard_normal((3, 20)))
        with pytest.raises(ConfigError, match="deterministic"):
            ips_test(panel, "v", "trend-only")

    def test_lag_selection_bounded(self, rng):
        panel = _series_panel(rng.standard_normal((4, 30)))
        res = ips_test(panel, "v", "intercept", max_lag=3, moment_draws=MOMENT_DRAWS)
        assert all(0 <= p <= 3 for p in res.lags)
        assert len(res.per_unit_t) == 4
        assert res.t_bar == pytest.approx(float(np.mean(res.per_unit_t)), abs=1e-12)

    @pytest.mark.parametrize("call, argument, value", [
        ("ips_test", "max_lag", 1.5), ("ips_test", "moment_draws", 100.5),
        ("ips_test", "seed", -1),
    ])
    def test_mistyped_argument_is_a_config_error(self, rng, call, argument, value):
        panel = _series_panel(rng.standard_normal((3, 20)))
        with pytest.raises(ConfigError, match=rf"^{argument} must be an integer"):
            {"ips_test": ips_test}[call](panel, "v", "intercept", **{argument: value})

    @pytest.mark.parametrize("draws", [1, 0, -5])
    def test_fewer_than_two_draws_rejected(self, draws, rng):
        panel = _series_panel(rng.standard_normal((3, 20)))
        with pytest.raises(ConfigError, match="moment_draws"):
            ips_test(panel, "v", "intercept", moment_draws=draws)

    def test_per_unit_results_match_reference(self, rng):
        data = np.cumsum(rng.standard_normal((5, 30)), axis=1)
        res = ips_test(_series_panel(data), "v", "intercept+trend", moment_draws=MOMENT_DRAWS)
        ref = [_adf_reference(y, "intercept+trend", 3) for y in data]
        np.testing.assert_allclose(res.per_unit_t, [r[0] for r in ref], rtol=1e-12, atol=0)
        assert res.lags == tuple(r[1] for r in ref)
        assert all(type(p) is int for p in res.lags)
        assert all(type(t) is float for t in res.per_unit_t)


def _adf_reference(y: np.ndarray, deterministic: str, max_lag: int) -> tuple[float, int]:
    """One-series ADF fit, kept as the reference for the batched kernel.

    Every lag order 0..max_lag is fitted on the sample left after dropping
    ``max_lag`` initial differences; the first AIC minimum wins and t is
    beta[0] / sqrt(sigma2 * inv(X'X)[0, 0]) of the selected model.
    """
    t_len = y.shape[0]
    dy = np.diff(y)
    nobs = dy.shape[0] - max_lag
    target = dy[max_lag:]
    base_cols = [y[max_lag:t_len - 1], np.ones(nobs)]
    if deterministic == "intercept+trend":
        base_cols.append(np.arange(nobs, dtype=float))
    lag_cols = [dy[max_lag - j:dy.shape[0] - j] for j in range(1, max_lag + 1)]
    X_full = np.column_stack(base_cols + lag_cols)
    base_k = len(base_cols)
    best_aic = math.inf
    best = None
    for p in range(max_lag + 1):
        X = X_full[:, : base_k + p]
        gram = X.T @ X
        beta = np.linalg.solve(gram, X.T @ target)
        resid = target - X @ beta
        ssr = float(resid @ resid)
        k = base_k + p
        aic = nobs * math.log(ssr / nobs) + 2 * k
        if aic < best_aic:
            best_aic = aic
            best = (p, gram, ssr, beta, k)
    p, gram, ssr, beta, k = best
    gram_inv_00 = np.linalg.solve(gram, np.eye(k)[:, 0])[0]
    return float(beta[0] / math.sqrt(ssr / (nobs - k) * gram_inv_00)), p


def _reference_moments(t_len, deterministic, max_lag, draws, seed=_MOMENT_SEED):
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, t_len, DETERMINISTIC_CHOICES.index(deterministic), max_lag])
    )
    ts = np.array([
        _adf_reference(np.cumsum(rng.standard_normal(t_len)), deterministic, max_lag)[0]
        for _ in range(draws)
    ])
    return float(ts.mean()), float(ts.var(ddof=1))


def _series(kind, rng, n, t_len):
    if kind == "random_walk":
        return np.cumsum(rng.standard_normal((n, t_len)), axis=1)
    if kind == "white_noise":
        return rng.standard_normal((n, t_len))
    trend = np.arange(t_len, dtype=float)
    return 5.0 + rng.uniform(0.2, 2.0, (n, 1)) * trend + rng.standard_normal((n, t_len))


class TestAdfBatch:
    @pytest.mark.parametrize("kind", ["random_walk", "white_noise", "trending"])
    @pytest.mark.parametrize("deterministic", ["intercept", "intercept+trend"])
    @pytest.mark.parametrize("max_lag", [0, 1, 2, 3])
    def test_matches_per_series_reference(self, kind, deterministic, max_lag, rng):
        Y = _series(kind, rng, 60, 30)
        t, lags = _adf_batch(Y, deterministic, max_lag)
        ref = [_adf_reference(y, deterministic, max_lag) for y in Y]
        np.testing.assert_allclose(t, [r[0] for r in ref], rtol=1e-12, atol=0)
        assert lags.tolist() == [r[1] for r in ref]
        assert all(0 <= p <= max_lag for p in lags)

    @pytest.mark.parametrize("deterministic", ["intercept", "intercept+trend"])
    def test_single_series(self, deterministic, rng):
        y = np.cumsum(rng.standard_normal(25))
        t, lags = _adf_batch(y[None, :], deterministic, 2)
        ref_t, ref_p = _adf_reference(y, deterministic, 2)
        assert t.shape == (1,) and lags.shape == (1,)
        assert t[0] == pytest.approx(ref_t, rel=1e-12, abs=0)
        assert int(lags[0]) == ref_p

    def test_moments_with_partial_last_chunk(self):
        # Two chunks, the second holding 37 walks: the chunked draw must
        # consume the generator exactly as one walk at a time.
        draws = _MOMENT_CHUNK + 37
        got = _ips_moments(12, "intercept", 1, draws, 17)
        want = _reference_moments(12, "intercept", 1, draws, seed=17)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_moments_do_not_depend_on_the_chunk_size(self, monkeypatch):
        # Every chunk size draws the walks in the same order and fits each
        # walk alone, so the moments agree to the bit.
        moments = set()
        for chunk in (1, 7, 512, 4096):
            monkeypatch.setattr(diagnostics, "_MOMENT_CHUNK", chunk)
            _ips_moments.cache_clear()
            mean, var = _ips_moments(20, "intercept+trend", 2, 300, 5)
            moments.add((mean.hex(), var.hex()))
        _ips_moments.cache_clear()
        assert len(moments) == 1

    @pytest.mark.parametrize("kind", ["random_walk", "white_noise", "trending"])
    @pytest.mark.parametrize("deterministic", ["intercept", "intercept+trend"])
    def test_rows_fitted_alone(self, kind, deterministic, rng):
        # Each row of a batch gets the bits it gets in a batch of one.
        Y = _series(kind, rng, 40, 30)
        t, lags = _adf_batch(Y, deterministic, 3)
        for i in range(Y.shape[0]):
            t_i, lag_i = _adf_batch(Y[i:i + 1], deterministic, 3)
            assert t_i[0].hex() == t[i].hex() and lag_i[0] == lags[i]

    def test_moment_simulation_memory_does_not_grow_with_draws(self):
        # Only the draws' t statistics (8 bytes each) grow with the draw
        # count; the walks and their ADF stacks are held one chunk at a time.
        # A 4 096-walk chunk holds about 7 MB at 2 000 draws and 13 MB at 20 000.
        _ips_moments.cache_clear()
        _ips_moments(12, "intercept", 1, 2, 0)  # the first call imports numpy.random
        peaks = {}
        for draws in (2_000, 20_000):
            _ips_moments.cache_clear()
            tracemalloc.start()
            try:
                _ips_moments(40, "intercept", 3, draws, 11)
                _, peaks[draws] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        _ips_moments.cache_clear()
        assert peaks[20_000] - peaks[2_000] <= 8 * 18_000 + 64 * 2**10
        assert peaks[2_000] < 2.5 * 2**20

    # Moments of the former one-walk-at-a-time simulation (hex, so the pin
    # carries every bit); they guard the order the generator is consumed in.
    @pytest.mark.parametrize("t_len, deterministic, draws, mean_hex, var_hex", [
        (36, "intercept", 50_000, "-0x1.94688f53abba2p+0", "0x1.f08b14939955ep-1"),
        (40, "intercept", 5_000, "-0x1.8f7de91c551fep+0", "0x1.ee63bf3485605p-1"),
        (40, "intercept+trend", 5_000, "-0x1.26df2474e2878p+1", "0x1.b26e51f5d95e1p-1"),
    ])
    def test_moments_pinned(self, t_len, deterministic, draws, mean_hex, var_hex):
        mean, var = _ips_moments(t_len, deterministic, 3, draws, _MOMENT_SEED)
        assert mean == pytest.approx(float.fromhex(mean_hex), rel=1e-12, abs=0)
        assert var == pytest.approx(float.fromhex(var_hex), rel=1e-12, abs=0)
