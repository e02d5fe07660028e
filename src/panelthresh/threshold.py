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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from ._linalg import RANK_TOL, pivoted_lstsq
from .errors import ConfigError, DataError, EstimationError, check_flag, check_int, check_number
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
            check_flag(getattr(self, name), name)
        if not 0.0 < check_number(self.trim_fraction, "trim_fraction") < 0.45:
            raise ConfigError(f"trim_fraction must be in (0, 0.45), got {self.trim_fraction}")
        check_int(self.max_grid_points, "max_grid_points", 2)
        if check_int(self.num_thresholds, "num_thresholds") not in (1, 2, 3):
            raise ConfigError(f"num_thresholds must be 1, 2 or 3, got {self.num_thresholds}")


@dataclass(frozen=True)
class ThresholdFit:
    """Estimated thresholds with regime-wise coefficients and SSR profile.

    ``betas_by_regime[r]`` holds the slopes on ``regime_varying`` (in that
    order) for regime ``r``, regimes numbered from the lowest threshold
    segment upward. ``delta`` holds the intercept-shift coefficients on the
    cumulative indicators I(q <= gamma_k), ``None`` when disabled.
    ``ssr_profiles[j]`` is the (candidate, SSR) profile for threshold ``j``
    conditional on the other thresholds at their estimates, taken from the
    screened scan (``SSRScan.profile``). Its entries within the screen's
    error bound of the minimum, at the fitted threshold and wherever the
    screen could not be trusted are the exact pivoted-QR SSRs, with slack 0
    in ``ssr_profile_slacks[j]``. Every other entry is a screened SSR: it
    differs from the pivoted one by at most its slack, a conditioning-based
    bound on the screen's rounding error, and lies strictly above the
    minimum.
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
    ssr_profile_slacks: tuple[tuple[float, ...], ...] = field(default=())

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
    if not 0.0 < check_number(trim_fraction, "trim_fraction") < 0.45:
        raise ConfigError(f"trim_fraction must be in (0, 0.45), got {trim_fraction}")
    check_int(max_grid_points, "max_grid_points", 2)
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


class _Workspace:
    """Estimation-ready arrays for one (panel, spec) pair.

    The one place that decides the estimation sample: with ``dynamic_lag`` the
    dependent variable's one-period lag is added as ``<dependent>_lag1`` and the
    first period is dropped. That panel is kept as ``panel`` and the lag
    column's name as ``lag`` (None without the lag); the matrices are flattened
    unit-major, q sorted once (``order``, ``q_sorted``) for the one regime count
    (``regime_counts``) every floor check reads, and ``dof`` = N(T - 1) divides
    every sigma2_hat. Regime columns are differences of the demeaned cumulative
    columns I(q <= c) * x, recomputed on each use so the workspace stays
    read-only and its size does not grow with the number of candidates.
    """

    def __init__(self, panel: PanelDataset, spec: ThresholdSpec):
        roles = spec.roles
        roles.validate(panel)
        self.lag = f"{roles.dependent}_lag1" if spec.dynamic_lag else None
        self.panel = est_panel = make_lag(panel, roles.dependent, 1) if self.lag else panel
        controls = list(roles.invariant_controls)
        if self.lag:
            controls.append(self.lag)
        self.spec = spec
        self.n_units = est_panel.n_units
        self.n_periods = est_panel.n_periods
        self.n_obs = self.n_units * self.n_periods
        self.dof = self.n_units * (self.n_periods - 1)
        self.floor = observation_floor(spec.trim_fraction, self.n_obs)
        values = est_panel.values(roles.dependent)
        if np.all(np.ptp(values, axis=1) == 0):
            raise DataError(f"dependent variable {roles.dependent!r} has no within-unit variation")
        self.y = self._demean_cols(values.ravel())
        self.q = est_panel.values(roles.threshold).ravel()
        self.order = np.argsort(self.q, kind="stable")
        self.q_sorted = self.q[self.order]
        self.rv_names = roles.regime_varying
        self.rv_raw = np.column_stack([est_panel.values(v).ravel() for v in self.rv_names])
        self.rv_full_dem = self._demean_cols(self.rv_raw, exact_constants=True)
        self.control_names = tuple(controls)
        if controls:
            self.controls_dem = self._demean_cols(
                np.column_stack([est_panel.values(v).ravel() for v in controls]),
                exact_constants=True,
            )
        else:
            self.controls_dem = np.empty((self.n_obs, 0))

    def _demean_cols(self, cols: np.ndarray, exact_constants: bool = False) -> np.ndarray:
        """Within-demeaned columns, in the shape of ``cols``. With
        ``exact_constants``, a series that is constant over a unit's periods
        demeans to exact zeros there, not to the rounding noise of its mean,
        which the scale-free rank rule would keep as a column."""
        shaped = cols.reshape(self.n_units, self.n_periods, -1)
        dem = shaped - shaped.mean(axis=1, keepdims=True)
        if exact_constants:
            dem.transpose(0, 2, 1)[np.all(shaped == shaped[:, :1], axis=1)] = 0.0
        return dem.reshape(cols.shape)

    def cum(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """Demeaned x * I(q <= gamma) columns and the demeaned indicator."""
        mask = (self.q <= gamma).astype(float)[:, None]
        return self._demean_cols(self.rv_raw * mask), self._demean_cols(mask)[:, 0]

    def regime_counts(self, gammas) -> np.ndarray:
        """Regime sizes at ``gammas``: one set of thresholds, or one set per row."""
        n_le = np.searchsorted(self.q_sorted, np.sort(gammas, axis=-1), side="right")
        return np.diff(n_le, axis=-1, prepend=0, append=self.n_obs)

    def design(self, gammas: Sequence[float]) -> tuple[np.ndarray, list[str]]:
        """Regressor matrix at the given strictly-sorted thresholds.

        Regime columns are differences of cumulative columns. Every exact SSR
        and every fit builds its design here, so the same thresholds always
        give a bit-identical design and SSR. With no thresholds it is the
        linear model's design, its columns named plainly.
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
    if counts.min() < ws.floor:
        r = int(np.argmax(counts < ws.floor))
        raise EstimationError(
            f"regime {r + 1} has {counts[r]} observations, below the floor of {ws.floor}")
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
    return ThresholdFit(
        gammas=tuple(float(g) for g in gammas),
        regime_varying=ws.rv_names,
        betas_by_regime=betas,
        delta=delta,
        control_betas=control_betas,
        ssr=res.ssr,
        sigma2=res.ssr / ws.dof,
        residuals=res.residuals.reshape(ws.n_units, ws.n_periods),
        regime_counts=tuple(int(c) for c in counts),
        n_units=ws.n_units,
        n_periods_used=ws.n_periods,
    )


def _ssr_ws(ws: _Workspace, gammas: Sequence[float], y: np.ndarray | None = None) -> float:
    """SSR at arbitrary thresholds, in any order (no thresholds: the linear
    model); collapsed or collinear columns are dropped."""
    X, _ = ws.design(sorted(gammas))
    return pivoted_lstsq(X, ws.y if y is None else y, on_deficient="drop").ssr


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
    return _ssr_ws(_Workspace(panel, spec), [float(g) for g in gammas])


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
    threshold) is attached for confidence-set construction. Each comes from
    the scan: exact at its minimum and at the fitted threshold, screened
    within the slack attached beside it elsewhere (see ``ThresholdFit``).
    """
    k = scan.ws.spec.num_thresholds
    gammas = observed_stages(scan, k)[-1]
    profiles, slacks = zip(*(scan.profile(gammas[:j] + gammas[j + 1:], gammas[j:j + 1])
                             for j in range(k)))
    return replace(_fit_ws(scan.ws, gammas), ssr_profiles=profiles, ssr_profile_slacks=slacks)


def observed_stages(scan: SSRScan, depth: int) -> list[tuple[float, ...]]:
    """The workspace response's ``depth`` sequential stages; an EstimationError if fewer exist."""
    (chain,) = sequential_estimates(scan, depth)
    stages = [stage.gammas for stage in chain[1:]]
    if len(stages) < depth:
        raise EstimationError(f"no admissible {len(stages) + 1}-threshold split" if stages
                              else "no admissible threshold candidate after trimming")
    return stages


def run_indexed(count: int, threads: int, worker: Callable[[int], Any]) -> list:
    """``[worker(0), ..., worker(count - 1)]``, mapped over a pool of
    ``min(threads, count)`` threads from two threads up; each result lands at
    its own index, whatever the thread count."""
    threads = min(threads, count)
    if threads <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(count)))


class Located(NamedTuple):
    """One response's ``SSRScan.locate`` result under a fixed set: the
    located candidate ``gamma``, and ``ssr``, the SSR of the fixed set joined
    by it, within ``slack`` of the pivoted-QR value (slack 0: bitwise
    ``_ssr_ws``). ``fixed_ssr`` is the screened SSR of the fixed set's own
    model, within ``fixed_slack`` (infinite unless the set is empty)."""

    gamma: float
    ssr: float
    slack: float
    fixed_ssr: float
    fixed_slack: float


class Stage(NamedTuple):
    """One model of a sequential chain: its sorted thresholds and its SSR,
    within ``slack`` of ``_ssr_ws`` there (slack 0: bitwise that value)."""

    gammas: tuple[float, ...]
    ssr: float
    slack: float


def sequential_estimates(
    scan: SSRScan, k: int, count: int = 1,
    response: Callable[[int], np.ndarray] | None = None, *, threads: int = 1,
) -> list[list[Stage]]:
    """The sequential chain of each of ``count`` responses ``response(i)``
    (by default the workspace response), for 0 up to ``k`` thresholds.

    Entry j of a chain is the j-threshold model. Entry 0 is the linear model,
    priced from the first step's own screen (``Located.fixed_ssr`` under no
    fixed thresholds). Entry j >= 1 is the minimizer given the thresholds of
    entry j - 1, with the SSR of the record that located it; the
    two-threshold entry is the refinement pass's, which re-estimates the
    first threshold given the second. A chain stops early at the first step
    without an admissible split.

    The responses go through one scan step at a time (first threshold,
    second, refinement, third), grouped by their fixed thresholds. Each group
    is one ``run_indexed`` task, one ``locate`` call over its members'
    responses in order. So a step factors each fixed set once, and at most
    ``threads`` conditional factors are alive at once.
    """
    response = response or (lambda i: scan.ws.y)

    def step(fixed_of: dict[int, tuple[float, ...]]) -> dict[int, Located | None]:
        groups: dict[tuple[float, ...], list[int]] = {}
        for i, fixed in fixed_of.items():
            groups.setdefault(fixed, []).append(i)
        sets, members = list(groups), list(groups.values())
        found = run_indexed(
            len(sets), threads, lambda g: scan.locate(sets[g], map(response, members[g])))
        return {i: hit for group, hits in zip(members, found) for i, hit in zip(group, hits)}

    chains: list[list[Stage]] = [[] for _ in range(count)]
    live = dict.fromkeys(range(count), ())
    for stage in range(k):
        hits = {i: hit for i, hit in step(live).items() if hit is not None}
        if stage == 0:
            for i, hit in hits.items():
                chains[i].append(Stage((), hit.fixed_ssr, hit.fixed_slack))
        if stage == 1:
            refined = step({i: (hit.gamma,) for i, hit in hits.items()})
        for i, hit in hits.items():
            # refined[i] is found: the pair it was refined from cleared the floor.
            held, hit = ((hit.gamma,), refined[i]) if stage == 1 else (live[i], hit)
            live[i] = tuple(sorted((*held, hit.gamma)))
            chains[i].append(Stage(live[i], hit.ssr, hit.slack))
        live = {i: live[i] for i in hits}
    return chains


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
    cross moments with Z are cumulative sums over the q-sorted observations
    (the cumulative-moment device of Bai and Perron (2003) for break dates):
    an entering observation adds u s' + s u' + u u' to sum_i S_i S_i', with
    s its unit's sum of u before it, and u z' to a cross moment, with z
    demeaned. So a scan holds O(N*T*m^2 + C*m*p) floats for C candidates and
    p columns. Per candidate only the m x m Schur complement of its own
    block is factored (``_inverse_cholesky``, as Z's is), giving the factor
    of the Gram ordered [Z, candidate]. A response then costs one cumulative
    sum of u * demeaned y, one product with Z and batched m x m solves.

    A factor depends only on its fixed thresholds, not on the response, so
    ``locate`` takes one fixed set and a group of responses, and screens
    them all under that set's one factor, as ``sequential_estimates`` does
    per group of a step. The factor without fixed thresholds (Z = [x,
    controls]) is made at construction and reused.

    The normal-equation SSRs only screen the grid (``_screen``); only
    ``_resolve`` re-evaluates entries, by pivoted QR (``_ssr_ws``). An entry
    may hold the minimum when its screened SSR is within a conditioning-based
    error bound of the minimum, or when the bound does not cover it (a Gram
    too ill-conditioned, or a design the pivoted rank rule might cut, judged
    per regressor so that units do not matter). ``locate`` re-evaluates
    those only when there are several: a lone one is the minimum, every
    other lying strictly above it. So its argmin and tie-break (the first
    candidate) are bitwise those of ``profile_argmin(conditional_profile(ws,
    grid, fixed, y))`` in ``tests/conftest.py``, and its record (``Located``)
    keeps the winner's screened SSR, or its pivoted one when the winner was
    re-evaluated. ``profile`` re-evaluates
    all of them, and those at ``keep``, and returns every entry.

    Nothing changes after construction, and the unconditional factor's
    arrays are read-only, so threads may share one instance.
    """

    def __init__(self, ws: _Workspace, grid: np.ndarray):
        self.ws = ws
        self.grid = np.asarray(grid, dtype=float)
        n_units, t = ws.n_units, ws.n_periods
        u = ws.rv_raw
        if ws.spec.include_intercept_shift:
            u = np.column_stack([u, np.ones(ws.n_obs)])
        self._n_le = np.searchsorted(ws.q_sorted, self.grid, side="right")
        self._u_sorted = us = u[ws.order]
        # s: each observation's unit sum of u over the observations sorted
        # before it. Entering it grows sum_i S_i S_i' by u s' + s u' + u u'.
        by_unit = np.argsort(ws.order // t, kind="stable")
        within = us[by_unit].reshape(n_units, t, -1)
        s = np.empty_like(us)
        s[by_unit] = (np.cumsum(within, axis=1) - within).reshape(us.shape)
        uu, ub = us[:, :, None] * us[:, None, :], us[:, :, None] * s[:, None, :]
        sums = self._cumulative(np.stack([uu, uu + ub + ub.transpose(0, 2, 1)], axis=1))
        M = sums[:, 0]
        self._Gcc = M - sums[:, 1] / t
        self._raw = np.diagonal(M, axis1=1, axis2=2).copy()
        self._unconditional = self._factor(())
        for a in self._unconditional:
            a.flags.writeable = False

    def _cumulative(self, sorted_rows: np.ndarray) -> np.ndarray:
        """Sums of q-sorted rows over q <= each candidate."""
        return np.cumsum(sorted_rows, axis=0)[self._n_le - 1]

    def _factor_of(self, fixed: tuple[float, ...]):
        """``_factor(fixed)``: the one built at construction for no fixed
        thresholds, a new one otherwise."""
        return self._factor(fixed) if fixed else self._unconditional

    def _factor(self, fixed: tuple[float, ...]):
        """The response-free part of a scan: the admissible candidates and the
        factors giving each one's screened SSR, y'y - |P'y|^2 - |R rc - K P'y|^2
        with rc its cross moments with y, plus a bound on |screened SSR -
        pivoted SSR| per unit of y'y. The bound is infinite where a pivot is
        not positive or the conditioning leaves the first-order bound
        meaningless. The result depends only on ``fixed``, in the order given
        (Z's columns follow it).

        Last comes the bound of the fixed set's own model, Z alone, screened
        as y'y - |P'y|^2; it is the candidates' argument with m = 0. Z'Z is
        made from Z itself, so each entry is off by acc * sqrt(raw_a * raw_b)
        with raw its diagonal (raw * dz^2 = 1), the equilibrated Gram by
        acc * p_z in norm, and |P'y|^2 <= y'y by acc * p_z * ||G^-1|| * y'y
        at first order, with ||G^-1|| <= trace(G^-1) = ||Lz^-1||_F^2. So
        kappa_z = p_z * ||Lz^-1||_F^2 is the candidates' kappa with m = 0,
        the pivoted reference adds acc * sqrt(kappa_z) per column (kb = 1),
        and the bound is 8 * acc * (kappa_z + 4 * p_z * sqrt(kappa_z)) per
        unit of y'y, acc also taken with m = 0. First order holds only when
        Z factored, every nz > 0 and acc * kappa_z < 1e-2. For no fixed
        thresholds Z is bitwise the linear design ``design(())``, whose
        unit-norm columns are the equilibrated basis itself (M = I below),
        with sigma_min >= 1 / ||Lz^-1||_F; the pivoted path keeps every
        column when that clears 40 * RANK_TOL. With fixed thresholds Z's
        cumulative columns are not the design's regime columns, and the
        bound is left infinite."""
        ws, blocks = self.ws, []
        # Candidates clearing the floor with ``fixed`` (a fixed value leaves an empty regime)
        sets = np.column_stack([np.tile(fixed, (self.grid.size, 1)), self.grid])
        rows = np.nonzero(ws.regime_counts(sets).min(axis=1) >= ws.floor)[0]
        # Z: the demeaned cumulative columns u * I(q <= b) of each fixed b, then
        # the demeaned x and controls (for no b, the linear model's design).
        for b in fixed:
            rv_cum, ind_cum = ws.cum(b)
            blocks += [rv_cum, ind_cum[:, None]] if ws.spec.include_intercept_shift else [rv_cum]
        Z = np.hstack([*blocks, ws.rv_full_dem, ws.controls_dem])
        cross = self._cumulative(self._u_sorted[:, :, None] * Z[ws.order][:, None, :])[rows]
        Gzz, Gcc = Z.T @ Z, self._Gcc[rows]
        nz = np.sqrt(np.diag(Gzz))
        nc = np.sqrt(np.maximum(np.diagonal(Gcc, axis1=1, axis2=2), 0.0))
        dz, dc = 1.0 / np.where(nz > 0, nz, 1.0), 1.0 / np.where(nc > 0, nc, 1.0)
        # The equilibrated Gram is L L' with L = [[Lz, 0], [W, L_H]].
        (lz_inv,), z_factored = _inverse_cholesky((Gzz * dz[:, None] * dz)[None])
        W = (dc[:, :, None] * cross * dz) @ lz_inv.T
        schur = Gcc * dc[:, :, None] * dc[:, None, :] - W @ W.transpose(0, 2, 1)
        lh_inv, factored = _inverse_cholesky(schur)
        K = lh_inv @ W
        KL = K @ lz_inv
        # trace(G^-1) = ||L^-1||_F^2 >= ||G^-1||, from the blocks of L^-1
        trace_z = np.sum(lz_inv * lz_inv)
        trace = (trace_z + np.einsum("cij,cij->c", KL, KL)
                 + np.einsum("cij,cij->c", lh_inv, lh_inv))
        # First-order bound: each moment is a running sum over at most N*T
        # observations of terms made in at most T + 4 rounded steps, whose
        # absolute values sum to at most 2 sqrt(raw_a * raw_b) (those of
        # u s' + s u' + u u' to sum_i A_i B_i / T, A_i unit i's sum of |a|,
        # by Cauchy-Schwarz within and across units). So each entry is off
        # by acc * sqrt(raw_a * raw_b), the equilibrated Gram by acc * p * rho
        # in norm, amplified by ||G^-1||; the pivoted reference adds acc *
        # sqrt(condition). Z'Z comes from Z itself (raw = its diagonal).
        kb, p = len(fixed) + 1, Z.shape[1] + nc.shape[1]
        runs = 2 * (ws.n_obs + ws.n_periods + 4)
        acc = (runs + p**3) * np.finfo(float).eps
        kappa = p * np.maximum(1.0, np.max(self._raw[rows] * dc * dc, axis=1)) * trace
        ok = np.all(nc > 0, axis=1) & np.all(nz > 0) & z_factored[0] & factored
        ok &= acc * kappa < 1e-2
        # The pivoted path keeps every column when sigma_min of the unit-norm
        # design clears RANK_TOL widely (each pivot is >= sigma_min, the first
        # is 1). That design is B M: B the equilibrated basis, sigma_min(B) >=
        # 1 / sqrt(trace), and M = D^-1 A S, with D the basis norms, A the
        # basis-to-design transform and S the design's inverse column norms.
        # A maps a regressor's cumulative columns at the kb boundaries and its
        # full column to its kb + 1 regime columns and keeps shifts and
        # controls, so M is block diagonal, with ||M_v^-1|| <= 2 (kb + 1)
        # ratio_v (ratio_v: largest over smallest of those basis norms; A^-1
        # sums regime columns, and a regime column has at most twice the
        # largest norm) and 1 elsewhere: no regressor is compared with another.
        k1, m = len(ws.rv_names), nc.shape[1]
        own = nz[np.arange(kb)[:, None] * m + np.arange(k1)]
        hi = np.maximum(own.max(axis=0), nc[:, :k1])
        lo = np.minimum(own.min(axis=0), nc[:, :k1])
        ratio = np.max(hi / np.where(lo > 0, lo, 1.0), axis=1)
        ok &= 1.0 / np.sqrt(trace) / (kb + 1) > 40.0 * RANK_TOL * ratio
        bound = 8.0 * acc * (kappa + 4.0 * kb * p * np.sqrt(kappa))
        P = (Z * dz) @ lz_inv.T
        pz = Z.shape[1]
        acc_z = (runs + pz**3) * np.finfo(float).eps
        kappa_z = pz * trace_z
        z_ok = (not fixed and np.all(nz > 0) and z_factored[0] and acc_z * kappa_z < 1e-2
                and 1.0 / np.sqrt(trace_z) > 40.0 * RANK_TOL)
        z_bound = 8.0 * acc_z * (kappa_z + 4.0 * pz * np.sqrt(kappa_z)) if z_ok else np.inf
        return (rows, P, lh_inv * dc[:, None, :], K, np.where(ok, bound, np.inf),
                np.array(z_bound))

    def _screen(self, factor, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The candidates admissible under ``factor`` (a ``_factor`` result),
        their screened SSRs for response ``y`` and each one's slack, a bound
        on its distance from the pivoted SSR."""
        return self._screen_with_fixed(factor, y)[:3]

    def _screen_with_fixed(self, factor, y: np.ndarray):
        """``_screen``'s three results, then the screened SSR of the fixed
        set's own model, y'y - |P'y|^2 (the first term of every candidate's
        SSR), and its slack."""
        rows, P, R, K, bound, z_bound = factor
        rc = self._cumulative(self._u_sorted * self.ws._demean_cols(y)[self.ws.order, None])
        sz = P.T @ y
        sc = R @ rc[rows, :, None] - K @ sz[:, None]
        yy = float(y @ y)
        fixed_ssr = yy - sz @ sz
        ssrs = fixed_ssr - np.einsum("cij,cij->c", sc, sc)
        return self.grid[rows], ssrs, bound * yy, float(fixed_ssr), float(z_bound * yy)

    def _resolve(self, fixed: tuple[float, ...], cands: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pivoted-QR SSRs for ``y`` at each of ``cands`` joined to ``fixed``."""
        return np.array([_ssr_ws(self.ws, (*fixed, float(c)), y) for c in cands])

    def locate(self, fixed: tuple[float, ...], ys: Iterable[np.ndarray]) -> list[Located | None]:
        """For each response of ``ys``, in order, the record of the first
        candidate of least pivoted SSR among those jointly admissible with
        ``fixed``, None when none is. Every response is screened under
        ``fixed``'s one factor and read only when its turn comes, so ``ys``
        may be lazy.

        A record's SSR is the winner's screened value with its slack, or,
        when several candidates may hold the minimum and were re-evaluated,
        the winner's pivoted SSR with slack 0. It also carries the screened
        SSR of ``fixed``'s own model (``Located``)."""
        factor, found = self._factor_of(fixed), []
        for y in ys:
            cands, ssrs, slack, fixed_ssr, fixed_slack = self._screen_with_fixed(factor, y)
            near = np.nonzero(_near_minimum(ssrs, slack))[0]
            if near.size > 1:
                ssrs[near], slack[near] = self._resolve(fixed, cands[near], y), 0.0
                near = near[[np.argmin(ssrs[near])]]
            found.append(Located(float(cands[near[0]]), float(ssrs[near[0]]), float(slack[near[0]]),
                                 fixed_ssr, fixed_slack) if near.size else None)
        return found

    def profile(
        self, fixed: tuple[float, ...], keep: Sequence[float] = ()
    ) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...]]:
        """(candidate, SSR) of every candidate admissible jointly with
        ``fixed``, in grid order, and each entry's slack, for the workspace
        response. Every entry that may hold the minimum and those at
        ``keep`` are re-evaluated: bitwise the pivoted-QR values of
        ``conditional_profile`` (``tests/conftest.py``), with slack 0; every
        other entry is screened, within its slack of the pivoted value.
        """
        cands, ssrs, slack = self._screen(self._factor_of(fixed), self.ws.y)
        exact = _near_minimum(ssrs, slack) | np.isin(cands, keep)
        ssrs[exact] = self._resolve(fixed, cands[exact], self.ws.y)
        slack[exact] = 0.0
        return tuple(zip(cands.tolist(), ssrs.tolist())), tuple(slack.tolist())


def _near_minimum(screened: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Mask of the screened entries that may hold the minimum: each one whose
    interval screened +- slack reaches the lowest upper end, and each
    untrusted one (infinite or non-finite slack)."""
    trusted = np.isfinite(screened + slack)
    ceiling = np.min(np.where(trusted, screened + slack, np.inf), initial=np.inf)
    return np.where(trusted, screened - slack, -np.inf) <= ceiling


def _inverse_cholesky(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L^-1 for each G = L L' of a batch (read from G's upper triangle), and
    the mask of those whose pivots are all positive: row reduction of [G | I]
    to [L' | L^-1] (outer-product form, Golub and Van Loan section 4.2). Step
    j divides row j by the root of its pivot and subtracts its multiples from
    the rows below, elementwise over the batch (last) axis, so a matrix gets
    the same bits in any batch. A pivot that is not positive is read as 1,
    keeping the entries finite, and stays on L's diagonal to clear the flag.
    """
    n, p = G.shape[:2]
    B = np.empty((p, 2 * p, n))
    B[:, :p] = G.transpose(1, 2, 0)
    B[:, p:] = np.eye(p)[:, :, None]
    for j in range(p):
        pivot = B[j, j]
        B[j, j:] /= np.sqrt(np.where(pivot > 0, pivot, 1.0))
        B[j + 1:, j + 1:] -= B[j, j + 1:p, None] * B[j, None, j + 1:]
    return B[:, p:].transpose(2, 0, 1).copy(), np.all(np.diagonal(B) > 0, axis=1)
