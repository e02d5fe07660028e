"""Threshold estimation by sequential least squares over a trimmed grid.

The estimator follows Hansen (1999): the fixed effects are removed by the
within transform, the slope vector is profiled over candidate thresholds
drawn from the observed values of the threshold variable, and the estimate
is the SSR minimizer. Additional thresholds are estimated sequentially,
conditional on the ones already found, with one refinement pass for the
first threshold.

Because the SSR is piecewise constant between adjacent observed values of
the threshold variable, restricting candidates to observed values loses
nothing.

References
----------
Bai, J. and Perron, P. (2003). Computation and analysis of multiple
    structural change models. Journal of Applied Econometrics, 18(1), 1-22.
Hansen, B. E. (1999). Threshold effects in non-dynamic panels: estimation,
    testing, and inference. Journal of Econometrics, 93(2), 345-368.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._linalg import RANK_TOL, pivoted_lstsq
from .errors import ConfigError, EstimationError
from .panel import PanelDataset, VariableRole, make_lag

DEFAULT_TRIM = 0.05
DEFAULT_MAX_GRID = 400


@dataclass(frozen=True)
class ThresholdSpec:
    """Declarative description of one threshold-regression problem.

    ``include_intercept_shift`` adds a regime intercept-shift term (one
    common coefficient per threshold, not unit-specific). ``dynamic_lag``
    adds the one-period lag of the dependent variable as a regressor; the
    lag is built before demeaning, so the within estimate carries the usual
    small-T dynamic-panel bias and IV estimation of the regime equation is
    the bias-aware route.
    """

    roles: VariableRole
    include_intercept_shift: bool = True
    dynamic_lag: bool = False
    trim_fraction: float = DEFAULT_TRIM
    max_grid_points: int = DEFAULT_MAX_GRID
    num_thresholds: int = 1

    def __post_init__(self):
        for name in ("include_intercept_shift", "dynamic_lag"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in ("max_grid_points", "num_thresholds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 0.0 < self.trim_fraction < 0.45:
            raise ConfigError(f"trim_fraction must be in (0, 0.45), got {self.trim_fraction}")
        if self.max_grid_points < 2:
            raise ConfigError(f"max_grid_points must be >= 2, got {self.max_grid_points}")
        if self.num_thresholds not in (1, 2, 3):
            raise ConfigError(f"num_thresholds must be 1, 2 or 3, got {self.num_thresholds}")


@dataclass(frozen=True)
class ThresholdFit:
    """Estimated thresholds with regime-wise coefficients and SSR profile.

    ``betas_by_regime[r]`` holds the slopes on ``regime_varying`` (in that
    order) for regime ``r``, regimes numbered from the lowest threshold
    segment upward. ``delta`` holds the intercept-shift coefficients on the
    cumulative indicators I(q <= gamma_k), ``None`` when disabled.
    ``ssr_profiles[j]`` is the (candidate, SSR) profile for threshold ``j``
    conditional on the other thresholds at their estimates.
    """

    gammas: tuple[float, ...]
    regime_varying: tuple[str, ...]
    betas_by_regime: tuple[np.ndarray, ...]
    delta: tuple[float, ...] | None
    control_betas: dict[str, float]
    ssr: float
    sigma2: float
    residuals: np.ndarray
    regime_counts: tuple[int, ...]
    n_units: int
    n_periods_used: int
    ssr_profiles: tuple[tuple[tuple[float, float], ...], ...] = field(default=())

    @property
    def ssr_profile(self) -> tuple[tuple[float, float], ...]:
        """Profile for the first threshold (the only one in single-threshold fits)."""
        return self.ssr_profiles[0] if self.ssr_profiles else ()

    @property
    def n_obs(self) -> int:
        return self.n_units * self.n_periods_used


def observation_floor(trim_fraction: float, n_obs: int) -> int:
    """Minimum observations any regime must keep.

    max(5, ceil(trim_fraction * n_obs)); on toy panels with fewer than 10
    observations the absolute part degrades to n_obs // 2 so a split is
    still expressible.
    """
    return max(min(5, n_obs // 2), math.ceil(trim_fraction * n_obs))


def candidate_grid(
    q_values, trim_fraction: float, max_grid_points: int
) -> np.ndarray:
    """Distinct observed threshold values between the trim quantiles.

    If more than ``max_grid_points`` survive, the survivors are thinned to
    evenly spaced quantiles of themselves; every candidate is always an
    observed value.
    """
    if not 0.0 < trim_fraction < 0.45:
        raise ConfigError(f"trim_fraction must be in (0, 0.45), got {trim_fraction}")
    if max_grid_points < 2:
        raise ConfigError(f"max_grid_points must be >= 2, got {max_grid_points}")
    q = np.asarray(q_values, dtype=float).ravel()
    distinct = np.unique(q)
    if distinct.size < 2:
        raise EstimationError("degenerate threshold variable (all values equal)")
    lo, hi = np.quantile(q, [trim_fraction, 1.0 - trim_fraction])
    survivors = distinct[(distinct >= lo) & (distinct <= hi)]
    if survivors.size < 2:
        raise EstimationError("empty grid after trimming")
    if survivors.size > max_grid_points:
        idx = np.round(np.linspace(0, survivors.size - 1, max_grid_points)).astype(int)
        survivors = survivors[idx]
    return survivors


def estimation_panel(panel: PanelDataset, spec: ThresholdSpec) -> tuple[PanelDataset, str | None]:
    """The panel a spec is estimated on, and the name of its lag column.

    With ``dynamic_lag`` the dependent variable's one-period lag is added as
    ``<dependent>_lag1`` and the first period is dropped; otherwise the panel
    comes back unchanged, without a lag column.
    """
    if not spec.dynamic_lag:
        return panel, None
    return make_lag(panel, spec.roles.dependent, 1), f"{spec.roles.dependent}_lag1"


def _demean_rows(mat: np.ndarray) -> np.ndarray:
    return mat - mat.mean(axis=1, keepdims=True)


class _Workspace:
    """Estimation-ready arrays for one (panel, spec) pair.

    Applies the dynamic-lag truncation and flattens matrices unit-major.
    Regime columns are assembled as differences of the demeaned cumulative
    columns I(q <= c) * x, recomputed on each use so the workspace stays
    read-only and its memory does not grow with the number of candidates.
    """

    def __init__(self, panel: PanelDataset, spec: ThresholdSpec):
        roles = spec.roles
        roles.validate(panel)
        est_panel, lag = estimation_panel(panel, spec)
        controls = list(roles.invariant_controls)
        if lag is not None:
            controls.append(lag)
        self.panel = est_panel
        self.spec = spec
        self.n_units = est_panel.n_units
        self.n_periods = est_panel.n_periods
        self.n_obs = self.n_units * self.n_periods
        self.floor = observation_floor(spec.trim_fraction, self.n_obs)
        self.y = _demean_rows(est_panel.values(roles.dependent)).ravel()
        self.q = est_panel.values(roles.threshold).ravel()
        self.rv_names = roles.regime_varying
        self.rv_raw = np.column_stack([est_panel.values(v).ravel() for v in self.rv_names])
        self.rv_full_dem = self._demean_cols(self.rv_raw)
        self.control_names = tuple(controls)
        if controls:
            self.controls_dem = self._demean_cols(
                np.column_stack([est_panel.values(v).ravel() for v in controls])
            )
        else:
            self.controls_dem = np.empty((self.n_obs, 0))

    def _demean_cols(self, cols: np.ndarray) -> np.ndarray:
        shaped = cols.reshape(self.n_units, self.n_periods, -1)
        return (shaped - shaped.mean(axis=1, keepdims=True)).reshape(self.n_obs, -1)

    def cum(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """Demeaned x * I(q <= gamma) columns and the demeaned indicator."""
        mask = (self.q <= gamma).astype(float)[:, None]
        return self._demean_cols(self.rv_raw * mask), self._demean_cols(mask)[:, 0]

    def regime_counts(self, gammas: Sequence[float]) -> np.ndarray:
        regime = np.sum(self.q[:, None] > np.asarray(gammas)[None, :], axis=1)
        return np.bincount(regime, minlength=len(gammas) + 1)

    def design(self, gammas: Sequence[float]) -> tuple[np.ndarray, list[str]]:
        """Regressor matrix at the given strictly-sorted thresholds.

        Regime columns are differences of cumulative columns, so a scan and a
        one-off fit at the same thresholds build bit-identical designs. With
        no thresholds it is the linear model's design, its columns named
        plainly.
        """
        gs = list(gammas)
        if any(b <= a for a, b in zip(gs, gs[1:])):
            raise EstimationError(f"thresholds must be strictly increasing, got {gs}")
        k1 = len(self.rv_names)
        cums = [self.cum(g) for g in gs]
        blocks: list[np.ndarray] = []
        names: list[str] = []
        prev = np.zeros((self.n_obs, k1))
        for r, (rv_cum, _) in enumerate(cums, start=1):
            blocks.append(rv_cum - prev)
            names.extend(f"{v}:regime{r}" for v in self.rv_names)
            prev = rv_cum
        blocks.append(self.rv_full_dem - prev)
        names.extend(f"{v}:regime{len(gs) + 1}" if gs else v for v in self.rv_names)
        if self.spec.include_intercept_shift:
            for k, (_, ind_cum) in enumerate(cums, start=1):
                blocks.append(ind_cum[:, None])
                names.append(f"shift{k}")
        if self.controls_dem.shape[1]:
            blocks.append(self.controls_dem)
            names.extend(self.control_names)
        return np.hstack(blocks), names


def _fit_ws(ws: _Workspace, gammas: Sequence[float]) -> ThresholdFit:
    spec = ws.spec
    counts = ws.regime_counts(gammas)
    low = np.nonzero(counts < ws.floor)[0]
    if low.size:
        r = int(low[0])
        raise EstimationError(
            f"regime {r + 1} has {int(counts[r])} observations, "
            f"below the floor of {ws.floor}"
        )
    X, names = ws.design(gammas)
    res = pivoted_lstsq(X, ws.y, on_deficient="raise", names=names)
    k1 = len(ws.rv_names)
    n_regimes = len(gammas) + 1
    betas = tuple(res.beta[r * k1:(r + 1) * k1].copy() for r in range(n_regimes))
    offset = n_regimes * k1
    delta: tuple[float, ...] | None = None
    if spec.include_intercept_shift:
        delta = tuple(float(b) for b in res.beta[offset:offset + len(gammas)])
        offset += len(gammas)
    control_betas = {name: float(b) for name, b in zip(ws.control_names, res.beta[offset:])}
    sigma2 = res.ssr / (ws.n_units * (ws.n_periods - 1))
    return ThresholdFit(
        gammas=tuple(float(g) for g in gammas),
        regime_varying=ws.rv_names,
        betas_by_regime=betas,
        delta=delta,
        control_betas=control_betas,
        ssr=res.ssr,
        sigma2=sigma2,
        residuals=res.residuals.reshape(ws.n_units, ws.n_periods),
        regime_counts=tuple(int(c) for c in counts),
        n_units=ws.n_units,
        n_periods_used=ws.n_periods,
    )


def _ssr_ws(ws: _Workspace, gammas: Sequence[float], y: np.ndarray | None = None) -> float:
    """SSR at arbitrary thresholds; collapsed or collinear columns are dropped."""
    X, _ = ws.design(gammas)
    return pivoted_lstsq(X, ws.y if y is None else y, on_deficient="drop").ssr


def _conditional_profile(
    ws: _Workspace,
    grid: np.ndarray,
    fixed: tuple[float, ...],
    y: np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """(candidate, SSR) over grid candidates admissible jointly with ``fixed``."""
    profile: list[tuple[float, float]] = []
    for c in grid:
        c = float(c)
        if c in fixed:
            continue
        gammas = tuple(sorted((*fixed, c)))
        if np.min(ws.regime_counts(gammas)) < ws.floor:
            continue
        profile.append((c, _ssr_ws(ws, gammas, y)))
    return profile


def _argmin(profile: list[tuple[float, float]]) -> tuple[float, float]:
    """First minimum of a profile: the reference search ``SSRScan`` reproduces."""
    best = profile[0]
    for entry in profile[1:]:
        if entry[1] < best[1]:
            best = entry
    return best


def fit_at(panel: PanelDataset, spec: ThresholdSpec, gammas: Sequence[float]) -> ThresholdFit:
    """Fit the regime regression at pinned threshold values.

    Builds the within-transformed design (regime-interacted slopes, optional
    intercept shifts, invariant controls, optional dependent-variable lag),
    solves it by rank-revealing least squares, and packages the full fit.
    The returned fit has an empty SSR profile.
    """
    if not 1 <= len(gammas) <= 3:
        raise EstimationError(f"expected 1 to 3 thresholds, got {len(gammas)}")
    return _fit_ws(_Workspace(panel, spec), gammas)


def ssr_at(panel: PanelDataset, spec: ThresholdSpec, gammas: Sequence[float]) -> float:
    """SSR of the threshold design at arbitrary gammas (no regime floor).

    Regimes emptied by extreme thresholds contribute all-zero columns that
    are dropped, so the fit degrades gracefully to the nested model instead
    of erroring; useful for profile diagnostics at the grid edges.
    """
    return _ssr_ws(_Workspace(panel, spec), sorted(float(g) for g in gammas))


def estimate_single(panel: PanelDataset, spec: ThresholdSpec) -> ThresholdFit:
    """Grid-search the single SSR-minimizing threshold.

    Returns the fit at the minimizer with the full profile attached. Ties
    break toward the smallest candidate.
    """
    if spec.num_thresholds != 1:
        raise ConfigError(f"estimate_single requires num_thresholds=1, got {spec.num_thresholds}")
    return estimate_on(build_scan(panel, spec))


def estimate_multiple(panel: PanelDataset, spec: ThresholdSpec) -> ThresholdFit:
    """Sequential estimation of two or three thresholds (see ``estimate_on``)."""
    if spec.num_thresholds not in (2, 3):
        raise ConfigError(
            f"estimate_multiple requires num_thresholds in {{2, 3}}, got {spec.num_thresholds}"
        )
    return estimate_on(build_scan(panel, spec))


def build_scan(panel: PanelDataset, spec: ThresholdSpec) -> SSRScan:
    """Workspace, trimmed candidate grid and screened scan of one (panel, spec)
    problem; the scan carries the other two, and every stage of a run shares it."""
    ws = _Workspace(panel, spec)
    return SSRScan(ws, candidate_grid(ws.q, spec.trim_fraction, spec.max_grid_points))


def estimate_on(scan: SSRScan) -> ThresholdFit:
    """Sequential estimate of the spec's 1 to 3 thresholds on a built scan.

    The first threshold is the SSR minimizer over the grid; each further
    threshold minimizes the SSR conditional on the ones already found. After
    the second threshold is located, the first is re-estimated once holding
    the second fixed. The profile of each threshold conditional on the
    others at their estimates (sorted order; the full profile for a single
    threshold) is attached for confidence-set construction.
    """
    ws, k = scan.ws, scan.ws.spec.num_thresholds
    stages = sequential_estimates(scan, k)
    if len(stages) < k:
        raise EstimationError(no_split_message(len(stages)))
    gammas, _ = stages[-1]
    profiles = tuple(
        tuple(_conditional_profile(ws, scan.grid, gammas[:j] + gammas[j + 1:]))
        for j in range(k)
    )
    return replace(_fit_ws(ws, gammas), ssr_profiles=profiles)


def no_split_message(found: int) -> str:
    """Error text for a sequential estimate that stopped after ``found`` stages."""
    if found == 0:
        return "no admissible threshold candidate after trimming"
    return f"no admissible {found + 1}-threshold split"


def sequential_estimates(
    scan: SSRScan, k: int, y: np.ndarray | None = None
) -> list[tuple[tuple[float, ...], float]]:
    """Sequential (sorted thresholds, SSR) for 1 up to ``k`` thresholds.

    Entry j is the (j + 1)-threshold stage: the unconditional minimizer;
    then the second threshold given the first, followed by one refinement
    pass for the first given the second; then the third given both. The
    list stops early at the first stage without an admissible split.
    """
    hit = scan.scan((), y)
    if hit is None:
        return []
    g1, s = hit
    stages = [((g1,), s)]
    if k >= 2:
        hit = scan.scan((g1,), y)
        if hit is None:
            return stages
        g2, s = hit
        rescan = scan.scan((g2,), y)
        if rescan is not None:
            g1, s = rescan
        stages.append((tuple(sorted((g1, g2))), s))
    if k == 3:
        hit = scan.scan(stages[-1][0], y)
        if hit is None:
            return stages
        g3, s = hit
        stages.append((tuple(sorted((*stages[-1][0], g3))), s))
    return stages


class SSRScan:
    """Screened SSR scan over a candidate grid, conditional on fixed thresholds.

    The design at boundaries b_1 < ... < b_k spans the same column space as
    the demeaned cumulative columns u * I(q <= b_j), with u = [x, 1] (u = x
    without intercept shifts), next to the demeaned x and controls. So every
    scan splits a candidate's columns into a shared matrix Z (the cumulative
    columns of the fixed thresholds, then the demeaned x and controls) and
    the candidate's own m columns, and factors the equilibrated Gram of Z
    once. Because sum demean(a) * demean(b) = sum a * b - sum_i S_a,i *
    S_b,i / T, with S_i the per-unit sums, each candidate's block and its
    cross moments with Z follow from q-sorted cumulative sums and per-unit
    partial sums S(gamma), built once here (C x N x m floats): the
    cumulative-moment device of Bai and Perron (2003) for break dates. Per
    candidate only the m x m Schur complement of its own block is factored;
    with Z's factor it gives the Cholesky factor of the Gram ordered [Z,
    candidate]. A response then costs one cumulative sum of u * y, one
    product with Z and batched m x m solves. The scan without fixed
    thresholds (Z = [x, controls]) is factored at construction.

    The normal-equation SSRs only screen the grid. Every candidate whose
    screened SSR lies within a conditioning-based error bound of the
    minimum, and every candidate whose Gram matrix is too ill-conditioned to
    bound, is re-evaluated by the pivoted-QR path, so the returned argmin,
    its tie-break (first, i.e. smallest, candidate) and its SSR are bitwise
    those of ``_argmin(_conditional_profile(ws, grid, fixed, y))``.

    Read-only after construction, so threads may share one instance.
    """

    def __init__(self, ws: _Workspace, grid: np.ndarray):
        self.ws = ws
        self.grid = np.asarray(grid, dtype=float)
        n_units, t = ws.n_units, ws.n_periods
        u = ws.rv_raw
        if ws.spec.include_intercept_shift:
            u = np.column_stack([u, np.ones(ws.n_obs)])
        self._order = np.argsort(ws.q, kind="stable")
        self._q_sorted = ws.q[self._order]
        self._n_le = np.searchsorted(self._q_sorted, self.grid, side="right")
        self._u_sorted = u[self._order]
        # S(gamma): an observation enters from the first candidate >= its q on
        C, m = self.grid.size, u.shape[1]
        cell = np.searchsorted(self.grid, ws.q) * n_units + np.repeat(np.arange(n_units), t)
        S = np.stack(
            [np.bincount(cell, weights=u[:, j], minlength=(C + 1) * n_units) for j in range(m)],
            axis=-1,
        )
        self._S = np.cumsum(S.reshape(C + 1, n_units, m)[:C], axis=0)
        us = self._u_sorted
        M = self._cumulative(us[:, :, None] * us[:, None, :])
        self._Gcc = M - np.einsum("cnj,cnk->cjk", self._S, self._S) / t
        self._raw = np.diagonal(M, axis1=1, axis2=2).copy()
        self._unconditional = self._factor(())

    def _cumulative(self, sorted_rows: np.ndarray) -> np.ndarray:
        """Sums of q-sorted rows over q <= each candidate."""
        return np.cumsum(sorted_rows, axis=0)[self._n_le - 1]

    def _admissible(self, fixed: tuple[float, ...]) -> np.ndarray:
        """Indices of the candidates whose regimes all clear the floor jointly
        with the fixed thresholds (a fixed value itself leaves an empty regime)."""
        fixed_le = np.searchsorted(self._q_sorted, fixed, side="right")
        n_le = np.column_stack([np.tile(fixed_le, (self.grid.size, 1)), self._n_le])
        counts = np.diff(np.sort(n_le, axis=1), axis=1, prepend=0, append=self.ws.n_obs)
        return np.nonzero(counts.min(axis=1) >= self.ws.floor)[0]

    def shared_columns(self, fixed: tuple[float, ...]) -> np.ndarray:
        """Z: the demeaned cumulative columns u * I(q <= b) of each fixed b,
        then the demeaned x and controls (for no b, the linear model's design)."""
        ws, blocks = self.ws, []
        for b in fixed:
            rv_cum, ind_cum = ws.cum(b)
            blocks.append(rv_cum)
            if ws.spec.include_intercept_shift:
                blocks.append(ind_cum[:, None])
        return np.hstack([*blocks, ws.rv_full_dem, ws.controls_dem])

    def _factor(self, fixed: tuple[float, ...]):
        """The response-free part of a scan: the admissible candidates and the
        factors giving each one's screened SSR, y'y - |P'y|^2 - |R rc - K P'y|^2
        with rc its cross moments with y, plus a bound on |screened SSR -
        pivoted SSR| per unit of y'y. The bound is infinite where a factor
        fails or the conditioning leaves the first-order bound meaningless."""
        ws, t = self.ws, self.ws.n_periods
        rows = self._admissible(fixed)
        Z = self.shared_columns(fixed)
        z_sums = Z.reshape(ws.n_units, t, -1).sum(axis=1)
        cross = self._cumulative(self._u_sorted[:, :, None] * Z[self._order][:, None, :])
        cross = (cross - np.swapaxes(self._S, 1, 2) @ z_sums / t)[rows]
        Gzz, Gcc = Z.T @ Z, self._Gcc[rows]
        nz = np.sqrt(np.diag(Gzz))
        nc = np.sqrt(np.maximum(np.diagonal(Gcc, axis1=1, axis2=2), 0.0))
        dz, dc = 1.0 / np.where(nz > 0, nz, 1.0), 1.0 / np.where(nc > 0, nc, 1.0)
        # The equilibrated Gram is L L' with L = [[Lz, 0], [W, L_H]].
        Lz, z_factored = _cholesky((Gzz * dz[:, None] * dz)[None])
        lz_inv = _lower_inverse(Lz)[0]
        W = (dc[:, :, None] * cross * dz) @ lz_inv.T
        L_H, factored = _cholesky(Gcc * dc[:, :, None] * dc[:, None, :] - W @ W.transpose(0, 2, 1))
        lh_inv = _lower_inverse(L_H)
        K = lh_inv @ W
        # trace(G^-1) = ||L^-1||_F^2 >= ||G^-1||, from the blocks of L^-1
        trace = (np.sum(lz_inv * lz_inv) + np.einsum("cij,cij->c", K @ lz_inv, K @ lz_inv)
                 + np.einsum("cij,cij->c", lh_inv, lh_inv))
        # First-order bound: the cumulative sums and unit-sum corrections
        # carry absolute errors of about acc * sqrt(raw_a * raw_b), so the
        # equilibrated Gram is off by about acc * p * rho in norm, amplified
        # by ||G^-1||; the pivoted reference adds its own error of order
        # acc * sqrt(condition). Z'Z comes from Z itself (raw = its
        # diagonal), the candidate blocks from uncentered cumulative sums.
        kb, p = len(fixed) + 1, Z.shape[1] + nc.shape[1]
        acc = (ws.n_obs + ws.n_units + t + p**3) * np.finfo(float).eps
        kappa = p * np.maximum(1.0, np.max(self._raw[rows] * dc * dc, axis=1)) * trace
        ok = np.all(nc > 0, axis=1) & np.all(nz > 0) & z_factored[0] & factored
        ok &= acc * kappa < 1e-2
        # The pivoted path keeps every column when sigma_min of the design
        # clears RANK_TOL times its largest column norm by a wide margin;
        # the design is the basis times a transform with inverse norm <= kb + 1.
        sigma_min = np.minimum(nz.min(), nc.min(axis=1)) / np.sqrt(trace) / (kb + 1)
        ok &= sigma_min > 20.0 * RANK_TOL * np.maximum(nz.max(), nc.max(axis=1))
        bound = 8.0 * acc * (kappa + 4.0 * kb * p * np.sqrt(kappa))
        P = (Z * dz) @ lz_inv.T
        return rows, P, lh_inv * dc[:, None, :], K, np.where(ok, bound, np.inf)

    def scan(
        self, fixed: tuple[float, ...], y: np.ndarray | None = None
    ) -> tuple[float, float] | None:
        """(argmin candidate, min SSR) jointly admissible with ``fixed``.

        ``fixed`` holds threshold values; ``y`` defaults to the workspace
        response. None when no candidate is admissible.
        """
        ws = self.ws
        y = ws.y if y is None else y
        rows, P, R, K, bound = self._factor(fixed) if fixed else self._unconditional
        if not rows.size:
            return None
        sums = y.reshape(ws.n_units, ws.n_periods).sum(axis=1)
        rc = self._cumulative(self._u_sorted * y[self._order, None])
        rc -= sums @ self._S / ws.n_periods
        sz = P.T @ y
        sc = R @ rc[rows, :, None] - K @ sz[:, None]
        yy = float(y @ y)
        screened = yy - sz @ sz - np.einsum("cij,cij->c", sc, sc)
        slack = bound * yy
        trusted = np.isfinite(screened + slack)
        ceiling = np.min(np.where(trusted, screened + slack, np.inf))
        floor = np.where(trusted, screened - slack, -np.inf)
        best = None
        for c in rows[floor <= ceiling]:
            cand = float(self.grid[c])
            ssr = _ssr_ws(ws, tuple(sorted((*fixed, cand))), y)
            if best is None or ssr < best[1]:
                best = (cand, ssr)
        return best


def _cholesky(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched lower Cholesky factors and the mask of matrices that have one.

    The rare matrices that are not clearly positive definite (rank-deficient
    candidates) get the identity instead.
    """
    try:
        return np.linalg.cholesky(G), np.ones(len(G), dtype=bool)
    except np.linalg.LinAlgError:
        ok = np.linalg.eigvalsh(G)[:, 0] > 1e-10
        return np.linalg.cholesky(np.where(ok[:, None, None], G, np.eye(G.shape[1]))), ok


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Batched inverse of lower-triangular matrices by forward substitution."""
    linv = np.zeros_like(L)
    for i in range(L.shape[1]):
        linv[:, i, :i] = -np.einsum("ck,ckj->cj", L[:, i, :i], linv[:, :i, :i])
        linv[:, i, i] = 1.0
        linv[:, i, :i + 1] /= L[:, i, i, None]
    return linv
