"""The numpy least-squares kernel against a scipy pivoted-QR reference."""

from __future__ import annotations

import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from conftest import make_panel
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panelthresh import EstimationError, ThresholdSpec, VariableRole, fit_at, ssr_at
from panelthresh import _linalg
from panelthresh._linalg import RANK_TOL, pivoted_lstsq


def _scipy_reference(X: np.ndarray, y: np.ndarray) -> tuple[int, tuple[int, ...], float]:
    """Rank, dropped columns and SSR of scipy's pivoted QR on unit-norm
    columns, under the same ``RANK_TOL`` rule."""
    norms = np.linalg.norm(X, axis=0)
    scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
    Q, R, piv = scipy.linalg.qr(X * scale, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        below = np.nonzero(diag < RANK_TOL * diag[0])[0]
        rank = int(below[0]) if below.size else diag.size
    beta = np.zeros(X.shape[1])
    if rank:
        coef = scipy.linalg.solve_triangular(R[:rank, :rank], Q[:, :rank].T @ y)
        beta[piv[:rank]] = coef * scale[piv[:rank]]
    residuals = y - X @ beta
    return rank, tuple(int(i) for i in piv[rank:]), float(residuals @ residuals)


def _planted_design(n, kinds, log_scales, seed):
    """An n×k design whose column j is of ``kinds[j]``: standard normal, an
    exact (rescaled) duplicate of an earlier column, exactly zero, or an
    earlier column plus 1e-5-relative noise; then column j is multiplied by
    10**log_scales[j]. Also returns each column's dependency group (a
    duplicate shares its source's group; every zero column is in group -1)."""
    rng = np.random.default_rng(seed)
    base = np.zeros((n, len(kinds)))
    groups: list[int] = []
    for j, kind in enumerate(kinds):
        src = int(rng.integers(j)) if j else None
        if kind == "zero":
            groups.append(-1)
        elif kind == "duplicate" and src is not None:
            base[:, j] = base[:, src]
            groups.append(groups[src])
        elif kind == "collinear" and src is not None:
            base[:, j] = base[:, src] + 1e-5 * rng.standard_normal(n)
            groups.append(j)
        else:
            base[:, j] = rng.standard_normal(n)
            groups.append(j)
    X = base * 10.0 ** np.asarray(log_scales, dtype=float)
    return X, rng.standard_normal(n), groups


def _ssr_close(ssr: float, ref: float, y: np.ndarray) -> bool:
    """Within 1e-10 relative; an exact fit's SSR is rounding only, so it
    gets an absolute floor of 1e-20 y'y."""
    return abs(ssr - ref) <= 1e-10 * max(ref, 1e-10 * float(y @ y))


KINDS = st.sampled_from(["normal", "duplicate", "zero", "collinear"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 12),
    wide=st.booleans(),
    n_extra=st.integers(3, 40),
    kinds=st.lists(KINDS, min_size=12, max_size=12),
    log_scales=st.lists(st.integers(-8, 8), min_size=12, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=6, wide=False, n_extra=10, kinds=["normal"] * 12, log_scales=[0] * 12, seed=1)
@example(k=6, wide=False, n_extra=10, kinds=["normal", "duplicate"] * 6, log_scales=[0] * 12, seed=2)
def _check_against_scipy(k, wide, n_extra, kinds, log_scales, seed, branches):
    wide = wide and k > 1
    n = k - 1 - n_extra % (k - 1) if wide else k + n_extra
    if wide:
        # With one or two residual degrees of freedom a 1e-5-collinear pair
        # amplifies the SSR's rounding (about eps·cond·|y|/|r|) past 1e-10
        # for any backward-stable solver, so wide designs plant none.
        kinds = ["normal" if kind == "collinear" else kind for kind in kinds]
    X, y, groups = _planted_design(n, kinds[:k], log_scales[:k], seed)
    ref_rank, ref_dropped, ref_ssr = _scipy_reference(X, y)
    with mock.patch.object(_linalg, "_pivoted_qr", wraps=_linalg._pivoted_qr) as spy:
        res = pivoted_lstsq(X, y, on_deficient="drop")
    branches.add("pivot" if spy.called else "certificate")
    assert res.rank == ref_rank
    assert _ssr_close(res.ssr, ref_ssr, y)
    assert np.all(res.beta[list(res.dropped)] == 0.0)
    if n < k:
        return
    # Exact duplicates tie, so which member drops is up to rounding: compare
    # how many columns of each dependency group drop, and that count itself.
    expected = Counter({-1: groups.count(-1)})
    expected.update({g: c - 1 for g, c in Counter(groups).items() if g >= 0 and c > 1})
    expected = +expected
    assert Counter(groups[j] for j in res.dropped) == expected
    assert Counter(groups[j] for j in ref_dropped) == expected
    if res.rank < k:
        names = [f"v{j}" for j in range(k)]
        with pytest.raises(EstimationError, match="rank-deficient") as err:
            pivoted_lstsq(X, y, names=names)
        named = int(re.search(r"\(v(\d+)\)", str(err.value)).group(1))
        assert expected[groups[named]] > 0


def test_kernel_matches_scipy_reference_on_planted_designs():
    branches: set[str] = set()
    _check_against_scipy(branches=branches)
    assert branches == {"certificate", "pivot"}


class TestBranches:
    def _spy(self):
        return mock.patch.object(_linalg, "_pivoted_qr", wraps=_linalg._pivoted_qr)

    def test_well_conditioned_design_skips_the_pivot_search(self, rng):
        X = rng.standard_normal((50, 4)) * [1e8, 1.0, 1e-8, 3.0]
        X[:, 3] = X[:, 1] * 3.0 + 1e-5 * rng.standard_normal(50)
        y = rng.standard_normal(50)
        with self._spy() as spy:
            res = pivoted_lstsq(X, y)
        assert not spy.called and res.rank == 4 and res.dropped == ()
        assert _ssr_close(res.ssr, _scipy_reference(X, y)[2], y)

    @pytest.mark.parametrize("deficiency", ["zero", "duplicate", "wide"])
    def test_deficient_design_takes_the_pivot_search(self, rng, deficiency):
        n = 3 if deficiency == "wide" else 50
        X, y = rng.standard_normal((n, 4)), rng.standard_normal(n)
        if deficiency == "zero":
            X[:, 2] = 0.0
        elif deficiency == "duplicate":
            X[:, 3] = 2.0 * X[:, 0]
        with self._spy() as spy:
            res = pivoted_lstsq(X, y, on_deficient="drop")
        assert spy.called and res.rank == 3
        if deficiency == "zero":
            assert res.dropped == (2,) and res.beta[2] == 0.0
        rank, _, ssr = _scipy_reference(X, y)
        assert rank == res.rank and _ssr_close(res.ssr, ssr, y)

    def test_all_zero_design_has_rank_zero(self):
        y = np.arange(5.0)
        res = pivoted_lstsq(np.zeros((5, 2)), y, on_deficient="drop")
        assert res.rank == 0 and res.dropped == (0, 1) and res.ssr == float(y @ y)


class TestColumnScale:
    def test_scaled_design_keeps_every_column(self, rng):
        X, y = rng.standard_normal((300, 3)), rng.standard_normal(300)
        y += X @ [1.0, -2.0, 0.5]
        plain = pivoted_lstsq(X, y)
        scaled = pivoted_lstsq(X * [1e6, 1.0, 1e-6], y)
        assert scaled.rank == 3
        assert scaled.ssr == pytest.approx(plain.ssr, rel=1e-12)
        np.testing.assert_allclose(scaled.beta * [1e6, 1.0, 1e-6], plain.beta, rtol=1e-9)

    def test_panel_fit_does_not_depend_on_column_scale(self):
        rng = np.random.default_rng(20261018)
        x, c = rng.standard_normal((10, 30)), rng.standard_normal((10, 30))
        variables = {
            "q": rng.uniform(0.0, 1.0, (10, 30)),
            "y": 0.8 * x - 0.6 * c + rng.standard_normal((10, 30)),
        }
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]), include_intercept_shift=True)
        plain = make_panel({**variables, "x": x, "c": c})
        scaled = make_panel({**variables, "x": x * 1e6, "c": c * 1e-6})
        ssr = ssr_at(plain, spec, [0.4])
        assert ssr_at(scaled, spec, [0.4]) == pytest.approx(ssr, rel=1e-12)
        fit = fit_at(scaled, spec, [0.4])
        assert fit.ssr == pytest.approx(ssr, rel=1e-12)
        assert fit.control_betas["c"] * 1e-6 == pytest.approx(fit_at(plain, spec, [0.4]).control_betas["c"])

    def test_time_invariant_control_is_still_named(self, rng):
        # The within transform removes it exactly, so it drops at any scale.
        variables = {
            "y": rng.standard_normal((6, 20)),
            "q": rng.uniform(0.0, 1.0, (6, 20)),
            "x": rng.standard_normal((6, 20)),
            "c": np.repeat(rng.uniform(0.1, 0.2, (6, 1)), 20, axis=1),
        }
        spec = ThresholdSpec(VariableRole("y", "q", ["x"], ["c"]))
        panel = make_panel(variables)
        with pytest.raises(EstimationError, match=r"rank-deficient regressor matrix \(c\)"):
            fit_at(panel, spec, [0.5])
        without = ThresholdSpec(VariableRole("y", "q", ["x"], []))
        assert ssr_at(panel, spec, [0.5]) == pytest.approx(ssr_at(panel, without, [0.5]), rel=1e-12)
