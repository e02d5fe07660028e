"""Balanced-panel data model and deterministic transforms.

A :class:`PanelDataset` stores named N x T variable matrices (units in rows,
periods in columns) and is immutable after construction, so datasets can be
shared freely across threads. Every transform returns a new dataset.

The fixed-effect (within) transform subtracts each unit's own time mean.
Some textbook presentations typeset the demeaned variable with a plus sign;
subtraction is the operation that actually eliminates unit intercepts, and it
is what :func:`within_transform` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, check_int, check_list, check_number, check_str


def _as_matrix(name: str, values, units: Sequence[str], periods: Sequence[str]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (len(units), len(periods)):
        raise DataError(
            f"variable {name!r} has shape {arr.shape}, expected ({len(units)}, {len(periods)})"
        )
    if not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise DataError(f"variable {name!r} has a non-finite value at unit {units[i]!r}, "
                        f"period {periods[j]!r}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PanelDataset:
    """Balanced N x T panel of named numeric variables.

    Invariants enforced at construction: every matrix is exactly N x T with
    N >= 2 and T >= 2, all values are finite, and unit/period labels are
    unique. Variable matrices are stored read-only.
    """

    unit_ids: tuple[str, ...]
    periods: tuple[str, ...]
    variables: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

    def __init__(
        self,
        unit_ids: Sequence,
        periods: Sequence,
        variables: Mapping[str, object],
        metadata: Mapping[str, str] | None = None,
    ):
        units = tuple(str(u) for u in unit_ids)
        pers = tuple(str(p) for p in periods)
        if len(units) < 2 or len(pers) < 2:
            raise DataError(f"panel must have N >= 2 and T >= 2, got N={len(units)}, T={len(pers)}")
        if len(set(units)) != len(units):
            raise DataError("duplicate unit labels")
        if len(set(pers)) != len(pers):
            raise DataError("duplicate period labels")
        mats = {str(k): _as_matrix(str(k), v, units, pers) for k, v in variables.items()}
        object.__setattr__(self, "unit_ids", units)
        object.__setattr__(self, "periods", pers)
        object.__setattr__(self, "variables", mats)
        object.__setattr__(self, "metadata", dict(metadata or {}))

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(self.variables)

    def values(self, name: str) -> np.ndarray:
        """Read-only N x T matrix for one variable."""
        try:
            return self.variables[name]
        except KeyError:
            raise DataError(f"unknown variable {name!r}") from None

    def with_variable(self, name: str, values) -> "PanelDataset":
        """New dataset with one variable added or replaced."""
        merged = dict(self.variables)
        merged[name] = values
        return PanelDataset(self.unit_ids, self.periods, merged, self.metadata)

    def equals(self, other: "PanelDataset") -> bool:
        return (
            self.unit_ids == other.unit_ids
            and self.periods == other.periods
            and set(self.variables) == set(other.variables)
            and all(np.array_equal(self.variables[k], other.variables[k]) for k in self.variables)
        )


@dataclass(frozen=True)
class VariableRole:
    """Which variable plays which part in a threshold regression.

    ``threshold`` may also appear in ``regime_varying`` (the threshold
    variable can be its own regime-switching regressor); ``dependent`` must
    not appear in any other role, and no regressor may be named twice.
    """

    dependent: str
    threshold: str
    regime_varying: tuple[str, ...]
    invariant_controls: tuple[str, ...] = ()
    instruments: tuple[str, ...] = ()

    def __init__(
        self,
        dependent: str,
        threshold: str,
        regime_varying: Iterable[str],
        invariant_controls: Iterable[str] = (),
        instruments: Iterable[str] = (),
    ):
        object.__setattr__(self, "dependent", str(dependent))
        object.__setattr__(self, "threshold", str(threshold))
        object.__setattr__(self, "regime_varying", tuple(regime_varying))
        object.__setattr__(self, "invariant_controls", tuple(invariant_controls))
        object.__setattr__(self, "instruments", tuple(instruments))
        others = (
            {self.threshold}
            | set(self.regime_varying)
            | set(self.invariant_controls)
            | set(self.instruments)
        )
        if self.dependent in others:
            raise DataError(f"dependent variable {self.dependent!r} also appears in another role")
        if not self.regime_varying:
            raise DataError("at least one regime-varying regressor is required")
        regressors = [*self.regime_varying, *self.invariant_controls]
        repeated = [n for n in dict.fromkeys(regressors) if regressors.count(n) > 1]
        if repeated:
            raise DataError(f"regressor {repeated[0]!r} is named more than once in "
                            "regime_varying and invariant_controls")

    def validate(self, panel: PanelDataset) -> None:
        """Check that every named variable resolves in ``panel``."""
        names = [self.dependent, self.threshold, *self.regime_varying,
                 *self.invariant_controls, *self.instruments]
        missing = sorted({n for n in names if n not in panel.variables})
        if missing:
            raise DataError(f"variables not in panel: {', '.join(missing)}")


def within_transform(panel: PanelDataset, vars: Sequence[str]) -> PanelDataset:
    """Subtract each unit's time mean from the listed variables.

    Idempotent and linear; untouched variables are copied through. After the
    transform every listed variable has zero time mean within each unit, which
    removes unit-specific intercepts from any regression on the result.
    """
    for name in check_list(vars, "vars", str):
        panel.values(name)
    out = dict(panel.variables)
    for name in vars:
        mat = panel.variables[name]
        out[name] = mat - mat.mean(axis=1, keepdims=True)
    return PanelDataset(panel.unit_ids, panel.periods, out, panel.metadata)


def make_lag(panel: PanelDataset, var: str, k: int) -> PanelDataset:
    """Add ``<var>_lag<k>`` and truncate the panel to its last T - k periods.

    The lag is taken within each unit; all other variables are truncated to
    the same periods so the output stays balanced and aligned.
    """
    if check_int(k, "k") < 1:
        raise DataError(f"lag order must be positive, got {k}")
    if k >= panel.n_periods:
        raise DataError(f"lag order {k} leaves no observations (T={panel.n_periods})")
    source = panel.values(var)
    new_name = f"{var}_lag{k}"
    if new_name in panel.variables:
        raise DataError(f"variable {new_name!r} already exists")
    out = {name: mat[:, k:] for name, mat in panel.variables.items()}
    out[new_name] = source[:, : panel.n_periods - k]
    return PanelDataset(panel.unit_ids, panel.periods[k:], out, panel.metadata)


def period_average(panel: PanelDataset, k: int) -> PanelDataset:
    """Replace the periods with non-overlapping k-period block means.

    The output has floor(T / k) periods; a trailing block shorter than ``k``
    is dropped so every retained mean averages the same number of cells.
    ``k = 1`` returns the panel unchanged.
    """
    if check_int(k, "k") < 1:
        raise DataError(f"block length must be positive, got {k}")
    if k > panel.n_periods:
        raise DataError(f"block length {k} exceeds T={panel.n_periods}")
    if k == 1:
        return panel
    m = panel.n_periods // k
    if m < 2:
        raise DataError(
            f"block length {k} leaves {m} period(s); a panel needs at least 2"
        )
    labels = tuple(
        f"{panel.periods[j * k]}-{panel.periods[j * k + k - 1]}" for j in range(m)
    )
    out = {
        name: mat[:, : m * k].reshape(panel.n_units, m, k).mean(axis=2)
        for name, mat in panel.variables.items()
    }
    return PanelDataset(panel.unit_ids, labels, out, panel.metadata)


def regime_indicator(panel: PanelDataset, threshold_var: str, gamma: float) -> np.ndarray:
    """N x T binary matrix: 1 where the threshold variable is <= gamma.

    Ties at ``gamma`` fall in the lower regime; the complement matrix is
    1 minus the result, so the two partition the panel exactly.
    """
    q = panel.values(threshold_var)
    return (q <= check_number(gamma, "gamma")).astype(float)


def composite_index(
    panel: PanelDataset,
    components: Sequence[str],
    weights: Sequence[float],
    name: str,
) -> PanelDataset:
    """Add a weighted average of the component variables.

    Weights are rescaled to sum to one, so only their ratios matter. The
    name must be new and the components must not be empty.
    """
    if check_str(name, "name") in panel.variables:
        raise DataError(f"variable {name!r} already exists")
    if not check_list(components, "components", str):
        raise DataError("components must not be empty")
    if len(components) != len(check_list(weights, "weights", float)):
        raise DataError(
            f"{len(components)} components but {len(weights)} weights"
        )
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise DataError("weights must sum to a positive value")
    w = w / total
    acc = np.zeros((panel.n_units, panel.n_periods))
    for wi, comp in zip(w, components):
        acc = acc + wi * panel.values(comp)
    return panel.with_variable(name, acc)
