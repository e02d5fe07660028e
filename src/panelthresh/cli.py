"""Command-line front end: CSV ingestion, JSON config, pipeline, reports.

The ``report`` subcommand runs the full pipeline and emits a deterministic,
schema-versioned JSON report plus a markdown report with five table blocks
(regime descriptives, correlations, panel unit roots, threshold inference,
regime regression). Given the same config and seed the JSON output is byte
identical regardless of the thread budget; each stage's wall time and the
process's peak RSS after it, which are not reproducible, go to a
``*.timings.json`` sidecar. Each pipeline stage returns a JSON-ready block;
``fit``, ``test``, ``ci`` and ``diagnose`` run a subset of the stages, and
every output, the report's blocks included, is assembled from the blocks by
``_command_payload``. The bootstraps run last, so a stage that rejects the
data stops the run before them.

Exit codes: 0 success, 2 config error, 3 data error, 4 estimation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__
from .diagnostics import (
    DEFAULT_MAX_LAG,
    DEFAULT_MOMENT_DRAWS,
    DETERMINISTIC_CHOICES,
    correlation_matrix,
    ips_test,
    regime_descriptives,
)
from .errors import (ConfigError, DataError, EstimationError, check_flag, check_int, check_list,
                     check_number, check_str)
from .inference import DEFAULT_REPLICATIONS, MIN_REPLICATIONS, ci_on, regime_count_on
from .panel import (
    PanelDataset,
    VariableRole,
    composite_index,
    make_lag,
    period_average,
    within_transform,
)
from .regression import regime_equation_on
from .simulate import MIN_TRIALS, RNG_DESCRIPTOR, ThresholdDGP, monte_carlo
from .threshold import SSRScan, ThresholdFit, ThresholdSpec, build_scan, estimate_on

SCHEMA_VERSION = 1
MIN_TRIALS_DEFAULT = 100

REPORT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["schema_version", "generator", "seed", "config", "panel", "blocks"],
    "properties": {
        "schema_version": {"type": "integer"},
        "generator": {
            "type": "object",
            "required": ["package", "version", "rng"],
        },
        "seed": {"type": "integer"},
        "config": {"type": "object"},
        "panel": {
            "type": "object",
            "required": ["n_units", "n_periods", "variables"],
        },
        "blocks": {
            "type": "object",
            "required": [
                "descriptives",
                "correlation",
                "unit_roots",
                "threshold",
                "regression",
            ],
        },
    },
}


# ---------------------------------------------------------------------------
# CSV ingestion and emission


def _label_key(label: str):
    """Numbers first, in numeric order, equal values ("1", "01") by their
    text; then every other label, "nan" included, by its text. A total
    order, so the sorted labels do not depend on the order they arrive in."""
    try:
        value = float(label)
    except ValueError:
        value = math.nan
    return (1, 0.0, label) if math.isnan(value) else (0, value, label)


def ingest_csv(path, unit_col: str, time_col: str) -> PanelDataset:
    """Read a long-format CSV (one row per unit-period) into a PanelDataset.

    Strict dialect: comma separator, ``.`` decimal point, UTF-8 (a leading
    byte-order mark is skipped), header row required. Non-UTF-8 text,
    missing cells, duplicate (unit, time) pairs and non-numeric values are
    rejected with the offending location named, the first fault in file
    order. Units and periods are ordered by ``_label_key``: numbers first,
    in numeric order with equal values ("1", "01") by their text, then the
    others ("nan" among them) by their text, whatever the row order or the
    hash seed. Rows go to label-to-index dicts, per-row index lists and one
    flat float64 buffer, scattered into the N x T matrices once sorted.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    unit_index, time_index, row_units, row_times = {}, {}, [], []
    seen = defaultdict(bytearray)  # seen[unit][period] is 1 once the pair is read
    values = array("d")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            repeated = [h for i, h in enumerate(header) if h in header[:i]]
            if repeated:
                raise DataError(f"{path}: column {repeated[0]!r} appears more than once in header")
            for required in (unit_col, time_col):
                if required not in header:
                    raise DataError(f"{path}: column {required!r} not in header {header}")
            value_cols = [h for h in header if h not in (unit_col, time_col)]
            if not value_cols:
                raise DataError(
                    f"{path}: no variable columns besides {unit_col!r} and {time_col!r}")
            u_idx, t_idx = header.index(unit_col), header.index(time_col)
            v_idx = [header.index(v) for v in value_cols]
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                unit, period = row[u_idx].strip(), row[t_idx].strip()
                u = unit_index.setdefault(unit, len(unit_index))
                t = time_index.setdefault(period, len(time_index))
                marks = seen[u]
                marks.extend(bytes(max(0, t + 1 - len(marks))))
                if marks[t]:
                    raise DataError(f"{path}: duplicate (unit, time) pair {(unit, period)}")
                marks[t] = 1
                for col, j in zip(value_cols, v_idx):
                    try:
                        values.append(float(row[j]))
                    except ValueError:
                        raise DataError(
                            f"{path}:{lineno}: non-numeric value {row[j]!r} in column {col!r}"
                        ) from None
                row_units.append(u)
                row_times.append(t)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read input ({exc.strerror})") from None
    units, periods = sorted(unit_index, key=_label_key), sorted(time_index, key=_label_key)
    rows = np.argsort([unit_index[u] for u in units])[row_units]
    cols = np.argsort([time_index[t] for t in periods])[row_times]
    if len(row_units) != len(units) * len(periods):
        filled = np.zeros((len(units), len(periods)), dtype=bool)
        filled[rows, cols] = True
        missing = [(units[i], periods[j]) for i, j in np.argwhere(~filled)]
        shown = ", ".join(str(m) for m in missing[:10])
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise DataError(f"{path}: unbalanced panel, missing cells: {shown}{more}")
    data = np.empty((len(value_cols), len(units), len(periods)))
    data[:, rows, cols] = np.frombuffer(values).reshape(len(row_units), len(value_cols)).T
    return PanelDataset(units, periods, dict(zip(value_cols, data)), {"source": str(path)})


def write_csv(panel: PanelDataset, path) -> None:
    """Write a PanelDataset back to long-format CSV (floats at full precision)."""
    names = list(panel.variable_names)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", *names])
        for i, u in enumerate(panel.unit_ids):
            for j, t in enumerate(panel.periods):
                writer.writerow([u, t, *(repr(float(panel.variables[v][i, j])) for v in names)])


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one pipeline run."""

    input_path: str
    unit_col: str
    time_col: str
    spec: ThresholdSpec
    replications: int
    alphas: tuple[float, ...]
    seed: int
    transforms: tuple[dict[str, Any], ...]
    estimator: str
    output_json: str
    output_markdown: str
    regime_count_test: bool
    ips_max_lag: int
    ips_moment_draws: int
    diagnostics_vars: tuple[str, ...]
    raw: dict[str, Any] = field(repr=False, default_factory=dict)

    @property
    def roles(self) -> VariableRole:
        return self.spec.roles

    @property
    def instruments(self) -> tuple[str, ...]:
        return self.spec.roles.instruments

    def build_spec(self) -> ThresholdSpec:
        return self.spec


def _read_json(path) -> Any:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # a directory, not UTF-8, not JSON
        raise ConfigError(f"{path}: not readable as UTF-8 JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object, got {type(raw).__name__}")
    return raw


def load_config(path) -> RunConfig:
    return parse_config(_read_json(path))


def _section(raw: Mapping[str, Any], name: str, known) -> dict[str, Any]:
    """``raw[name]`` (empty when absent), every key of it one of ``known``."""
    section = raw.get(name, {})
    if not isinstance(section, Mapping):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    return dict(section)


# Each transform op's required and optional fields besides ``op``, and how it applies.
_TRANSFORMS = {
    "within": ((), ("vars",), lambda panel, t: within_transform(
        panel, tuple(t.get("vars", panel.variable_names)))),
    "lag": (("var",), ("k",), lambda panel, t: make_lag(panel, str(t["var"]), int(t.get("k", 1)))),
    "period_average": (("k",), (), lambda panel, t: period_average(panel, int(t["k"]))),
    "composite_index": (("components", "name"), ("weights",), lambda panel, t: composite_index(
        panel, tuple(t["components"]), tuple(t.get("weights", (1.0,) * len(t["components"]))),
        str(t["name"]))),
}


def _transform(t: Mapping[str, Any]):
    """The ``_TRANSFORMS`` entry of ``t``'s op, or a ConfigError naming the op."""
    op = t.get("op")
    if not isinstance(op, str) or op not in _TRANSFORMS:
        raise ConfigError(f"unknown transform op {op!r}")
    return _TRANSFORMS[op]


def _check_transform(index: int, t: Mapping[str, Any]) -> None:
    required, optional, _ = _transform(t)
    where = f"transforms[{index}] ({t['op']})"
    missing = [name for name in required if name not in t]
    if missing:
        raise ConfigError(f"{where} missing fields: {missing}")
    unknown = set(t) - {"op", *required, *optional}
    if unknown:
        raise ConfigError(f"{where} unknown fields: {sorted(unknown)}")
    if "k" in t:
        check_int(t["k"], f"{where} k", 1)
    for key in ("var", "name"):
        if key in t:
            check_str(t[key], f"{where} {key}")
    for key, kind in (("vars", str), ("components", str), ("weights", float)):
        if key in t:
            check_list(t[key], f"{where} {key}", kind)


def parse_config(raw: Mapping[str, Any]) -> RunConfig:
    """Validate a config mapping; every problem is a ConfigError."""
    def need(section: Mapping, key: str, where: str):
        if key not in section:
            raise ConfigError(f"config missing {where}{key!r}")
        return section[key]

    unknown = set(raw) - {"input_path", "csv", "roles", "spec", "inference", "transforms",
                          "estimator", "diagnostics", "output", "instruments", "simulate"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    input_path = check_str(need(raw, "input_path", ""), "input_path")
    csv_section = _section(raw, "csv", ("unit", "time"))
    unit_col = check_str(csv_section.get("unit", "unit"), "csv.unit")
    time_col = check_str(csv_section.get("time", "time"), "csv.time")
    if unit_col == time_col:
        raise ConfigError(f"csv.unit and csv.time name the same column {unit_col!r}")
    need(raw, "roles", "")
    roles_raw = _section(raw, "roles", (
        "dependent", "threshold", "regime_varying", "invariant_controls", "instruments"))
    need(roles_raw, "regime_varying", "roles.")
    names = {key: check_list(roles_raw.get(key, ()), f"roles.{key}", str)
             for key in ("regime_varying", "invariant_controls", "instruments")}
    if "instruments" in raw:  # a top-level list overrides the roles' own
        names["instruments"] = check_list(raw["instruments"], "instruments", str)
    try:
        roles = VariableRole(
            check_str(need(roles_raw, "dependent", "roles."), "roles.dependent"),
            check_str(need(roles_raw, "threshold", "roles."), "roles.threshold"),
            **names,
        )
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    spec_raw = _section(raw, "spec", {f.name for f in fields(ThresholdSpec)} - {"roles"})
    inference_raw = _section(raw, "inference", (
        "replications", "alphas", "seed", "regime_count_test"))
    replications = check_int(inference_raw.get("replications", DEFAULT_REPLICATIONS),
                             "inference.replications", MIN_REPLICATIONS)
    alphas = check_list(inference_raw.get("alphas", (0.05,)), "inference.alphas", float)
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise ConfigError(f"alpha levels must lie in (0, 1), got {alphas}")
    for i, alpha in enumerate(alphas):
        if alpha in alphas[:i]:
            raise ConfigError(f"inference.alphas names {alpha!r} more than once")
    seed = check_int(inference_raw.get("seed", 0), "inference.seed", 0)
    regime_count_test = check_flag(
        inference_raw.get("regime_count_test", True), "inference.regime_count_test")
    transforms = tuple(dict(t) for t in check_list(raw.get("transforms", ()), "transforms", dict))
    for index, t in enumerate(transforms):
        _check_transform(index, t)
    estimator = check_str(raw.get("estimator", "OLS"), "estimator").upper()
    if estimator in ("SGMM", "GMM", "SYSTEM-GMM"):
        raise ConfigError("system GMM is out of scope for this package; use estimator '2SLS' "
                          "(see README non-goals)")
    if estimator not in ("OLS", "2SLS"):
        raise ConfigError(f"estimator must be OLS or 2SLS, got {estimator!r}")
    if estimator == "2SLS" and not roles.instruments:
        raise ConfigError("estimator 2SLS requires instruments")
    output = _section(raw, "output", ("json", "markdown"))
    diag = _section(raw, "diagnostics", ("ips_moment_draws", "max_lag", "variables"))
    ips_moment_draws = check_int(diag.get("ips_moment_draws", DEFAULT_MOMENT_DRAWS),
                                 "diagnostics.ips_moment_draws", 2)
    max_lag = check_int(diag.get("max_lag", DEFAULT_MAX_LAG), "diagnostics.max_lag", 0)
    role_vars = list(dict.fromkeys(
        [roles.dependent, roles.threshold, *roles.regime_varying, *roles.invariant_controls]
    ))
    diagnostics_vars = check_list(diag.get("variables", role_vars), "diagnostics.variables", str)
    if len(diagnostics_vars) < 2:
        raise ConfigError(f"diagnostics.variables needs at least 2 names, got {diagnostics_vars}")
    for i, name in enumerate(diagnostics_vars):
        if name in diagnostics_vars[:i]:
            raise ConfigError(f"diagnostics.variables names {name!r} more than once")
    return RunConfig(
        input_path=input_path,
        unit_col=unit_col,
        time_col=time_col,
        spec=ThresholdSpec(roles=roles, **spec_raw),
        replications=replications,
        alphas=alphas,
        seed=seed,
        transforms=transforms,
        estimator=estimator,
        output_json=check_str(output.get("json", "report.json"), "output.json"),
        output_markdown=check_str(output.get("markdown", "report.md"), "output.markdown"),
        regime_count_test=regime_count_test,
        ips_max_lag=max_lag,
        ips_moment_draws=ips_moment_draws,
        diagnostics_vars=diagnostics_vars,
        raw=dict(raw),
    )


def apply_transforms(panel: PanelDataset, transforms: Sequence[Mapping[str, Any]]) -> PanelDataset:
    """Apply the configured transform list in order."""
    for t in transforms:
        *_, apply = _transform(t)
        panel = apply(panel, t)
    return panel


# ---------------------------------------------------------------------------
# Report assembly


def dumps_report(report: Mapping[str, Any]) -> str:
    """Canonical JSON serialization: sorted keys, stable float repr."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _peak_rss_mb() -> float | None:
    """This process's RSS high-water mark in MB: ``VmHWM``, which restarts at
    ``exec``, or None where ``/proc/self/status`` cannot be read."""
    try:
        status = Path("/proc/self/status").read_text(encoding="ascii")
        return round(int(status.split("VmHWM:")[1].split()[0]) / 1024.0, 1)
    except (OSError, IndexError, ValueError):
        return None


class _StageClock:
    """The one stage record: each stage's wall time and this process's peak
    RSS after it; ``peak_rss_mb["start"]`` is read when the clock is made."""

    def __init__(self):
        self.record = {"timings_ms": {}, "peak_rss_mb": {"start": _peak_rss_mb()}}
        self._t0 = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.record["timings_ms"][stage] = round((now - self._t0) * 1000.0, 3)
        self.record["peak_rss_mb"][stage] = _peak_rss_mb()
        self._t0 = now


@dataclass
class _Session:
    """One run's panel and estimation scan (workspace, grid and scan, built
    once), shared by every stage; the estimation stage records the fit.
    Estimation, bootstrap, confidence sets and the regime regression read the
    workspace's estimation sample; descriptives, correlations and unit roots
    describe the whole transformed panel."""

    config: RunConfig
    panel: PanelDataset
    scan: SSRScan
    threads: int
    fit: ThresholdFit | None = None


def _estimate(s: _Session) -> dict[str, Any]:
    """Records the fit for the later stages; returns the ``fit`` block."""
    fit = s.fit = estimate_on(s.scan)
    return {
        "gammas": list(fit.gammas),
        "regime_varying": list(fit.regime_varying),
        "betas_by_regime": [list(map(float, b)) for b in fit.betas_by_regime],
        "delta": list(fit.delta) if fit.delta is not None else None,
        "control_betas": fit.control_betas,
        "ssr": fit.ssr,
        "sigma2": fit.sigma2,
        "regime_counts": list(fit.regime_counts),
    }


def _bootstrap_block(test, **extra) -> dict[str, Any]:
    """The keys of a linearity and a regime-count block, then ``extra``."""
    shared = ("f_statistic", "bootstrap_p", "replications", "degenerate_replications")
    return {**{key: getattr(test, key) for key in shared}, **extra}


def _linearity(s: _Session) -> dict[str, Any]:
    lin = regime_count_on(s.scan, 0, s.config.replications, s.config.seed, threads=s.threads)
    return _bootstrap_block(
        lin, seed=lin.seed,
        critical_values={f"{int(a * 100)}%": v for a, v in lin.critical_values.items()})


def _regime_count(s: _Session) -> dict[str, Any] | None:
    """None when the config switches the test off; a skip note for three
    thresholds (there is no 3-vs-4 test) or when the data admit no further
    split."""
    if not s.config.regime_count_test:
        return None
    k = s.scan.ws.spec.num_thresholds
    if k == 3:
        return {"skipped": "no 3-vs-4 threshold test"}
    try:
        extra = regime_count_on(s.scan, k, s.config.replications, s.config.seed, threads=s.threads)
    except EstimationError as exc:
        return {"skipped": str(exc)}
    return _bootstrap_block(extra, null_model=extra.null_model, alt_model=extra.alt_model)


def _confidence_sets(s: _Session) -> list[dict[str, Any]]:
    cis = []
    for j in range(len(s.fit.gammas)):
        for alpha in s.config.alphas:
            ci = ci_on(s.scan.ws, s.fit, alpha, threshold_index=j)
            cis.append({
                "threshold_index": j,
                "alpha": alpha,
                "level": ci.level,
                "lower": ci.lower,
                "upper": ci.upper,
                "critical_value": ci.critical_value,
            })
    return cis


def _descriptives(s: _Session) -> dict[str, Any]:
    desc = regime_descriptives(s.panel, s.config.roles.threshold, s.fit.gammas[0])

    def stats_block(stats_map):
        return None if stats_map is None else {v: st._asdict() for v, st in stats_map.items()}

    return {
        "threshold_var": desc.threshold_var,
        "gamma": desc.gamma,
        "pooled": stats_block(desc.pooled),
        "low_regime": stats_block(desc.low),
        "high_regime": stats_block(desc.high),
    }


def _correlation(s: _Session) -> dict[str, Any]:
    variables = s.config.diagnostics_vars
    return {"variables": list(variables),
            "matrix": correlation_matrix(s.panel, variables).tolist()}


def _unit_roots(s: _Session) -> dict[str, dict[str, Any]]:
    """IPS t-bar, standardized statistic and p-value per deterministic choice and variable."""
    unit_roots: dict[str, dict[str, Any]] = {}
    for det in DETERMINISTIC_CHOICES:
        per_var = {}
        for v in s.config.diagnostics_vars:
            res = ips_test(s.panel, v, deterministic=det, max_lag=s.config.ips_max_lag,
                           moment_draws=s.config.ips_moment_draws)
            per_var[v] = {"t_bar": res.t_bar, "statistic": res.statistic, "p_value": res.p_value}
        unit_roots[det] = per_var
    return unit_roots


def _regression(s: _Session) -> dict[str, Any]:
    reg = regime_equation_on(s.scan.ws, s.fit, s.config.estimator)
    return {
        "estimator": reg.estimator,
        "coefficients": {
            name: {
                "estimate": reg.coefficients[name],
                "std_error": reg.std_errors[name],
                "p_value": reg.p_values[name],
            }
            for name in reg.coefficients
        },
        "r_squared": reg.r_squared,
        "rmse": reg.rmse,
        "sargan": reg.sargan._asdict() if reg.sargan else None,
        "wald": reg.wald._asdict(),
        "n_obs": reg.n_obs,
        "n_units": s.panel.n_units,
    }


# The pipeline's stages in run order, the bootstraps last; each returns one JSON-ready block.
_STAGES = {
    "threshold_estimation": _estimate,
    "descriptives": _descriptives,
    "correlation": _correlation,
    "unit_roots": _unit_roots,
    "regression": _regression,
    "confidence_sets": _confidence_sets,
    "linearity_test": _linearity,
    "regime_count_test": _regime_count,
}

# The stages each subcommand runs, a subset of ``report``'s.
_COMMAND_STAGES = {
    "fit": ("threshold_estimation",),
    "test": ("linearity_test", "regime_count_test"),
    "ci": ("threshold_estimation", "confidence_sets"),
    "diagnose": ("threshold_estimation", "descriptives", "correlation", "unit_roots"),
    "report": tuple(_STAGES),
}


def _run_stages(config: RunConfig, stages: Sequence[str], *, threads: int = 1):
    """Ingest, transform, build the estimation scan once, then run ``stages``
    in order; returns (transformed panel, {stage: block}, stage clock)."""
    clock = _StageClock()
    panel = ingest_csv(config.input_path, config.unit_col, config.time_col)
    clock.lap("ingest")
    panel = apply_transforms(panel, config.transforms)
    config.roles.validate(panel)
    missing = sorted(set(config.diagnostics_vars) - set(panel.variables))
    if missing:
        raise DataError(f"variables not in panel: {', '.join(missing)}")
    clock.lap("transforms")
    session = _Session(config, panel, build_scan(panel, config.build_spec()), threads)
    clock.lap("workspace")
    blocks = {}
    for stage in stages:
        blocks[stage] = _STAGES[stage](session)
        clock.lap(stage)
    return panel, blocks, clock


def run_pipeline(config: RunConfig, *, threads: int = 1):
    """Execute the full pipeline; returns (report dict, markdown str, stage record).

    Stage order: ingest, transforms, workspace (the shared estimation scan),
    threshold estimation, regime descriptives, correlations, panel unit
    roots, regime regression, confidence sets, linearity test, regime-count
    test. The bootstraps come last, after every stage that can reject the data.
    """
    panel, blocks, clock = _run_stages(config, _COMMAND_STAGES["report"], threads=threads)
    report = {
        "schema_version": SCHEMA_VERSION,
        "generator": {"package": "panelthresh", "version": __version__, "rng": RNG_DESCRIPTOR},
        "seed": config.seed,
        "config": config.raw,
        "panel": {"n_units": panel.n_units, "n_periods": panel.n_periods,
                  "variables": list(panel.variable_names)},
        "blocks": _command_payload("report", blocks),
    }
    markdown = render_markdown(report)
    clock.lap("render")
    return report, markdown, clock.record


def _command_payload(command: str, blocks: Mapping[str, Any]) -> dict[str, Any]:
    """Every output's JSON, assembled from the stage blocks of ``command``:
    the stdout of ``fit``, ``test``, ``ci`` and ``diagnose``, and the
    ``blocks`` of the ``report``."""
    fit = blocks.get("threshold_estimation")
    if command == "fit":
        return fit
    if command == "ci":
        return {"gammas": fit["gammas"], "confidence_sets": blocks["confidence_sets"]}
    if command == "test":  # the regime-count block is None when the config switches it off
        tests = {"linearity": blocks["linearity_test"], "regime_count": blocks["regime_count_test"]}
        return {key: block for key, block in tests.items() if block is not None}
    diagnostics = {key: blocks[key] for key in ("descriptives", "correlation", "unit_roots")}
    if command == "diagnose":
        return {"gamma": fit["gammas"][0], **diagnostics}
    return {
        **diagnostics,
        "threshold": {
            **{key: fit[key] for key in ("gammas", "ssr", "sigma2", "regime_counts")},
            "confidence_sets": blocks["confidence_sets"],
            "linearity": blocks["linearity_test"],
            "regime_count_test": blocks["regime_count_test"],
        },
        "regression": blocks["regression"],
    }


def _fmt(x: Any) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def render_markdown(report: Mapping[str, Any]) -> str:
    """Markdown report with the five table blocks in pipeline order."""
    blocks = report["blocks"]
    out: list[str] = [
        "# Panel threshold regression report",
        "",
        f"Generated by panelthresh {report['generator']['version']} "
        f"(seed {report['seed']}, schema v{report['schema_version']}).",
        "",
    ]

    desc = blocks["descriptives"]
    gamma = desc["gamma"]
    out += [f"## 1. Regime descriptives (threshold variable `{desc['threshold_var']}`, gamma = {_fmt(gamma)})", ""]
    out += [f"| Variable | Statistic | Pooled | <= {_fmt(gamma)} | > {_fmt(gamma)} |",
            "|---|---|---|---|---|"]
    pooled = desc["pooled"]
    for v in pooled:
        for stat in ("mean", "std", "min", "max"):
            low = desc["low_regime"][v][stat] if desc["low_regime"] else None
            high = desc["high_regime"][v][stat] if desc["high_regime"] else None
            out.append(
                f"| {v} | {stat} | {_fmt(pooled[v][stat])} | {_fmt(low)} | {_fmt(high)} |"
            )
    n_low = next(iter(desc["low_regime"].values()))["n_obs"] if desc["low_regime"] else 0
    n_high = next(iter(desc["high_regime"].values()))["n_obs"] if desc["high_regime"] else 0
    n_all = next(iter(pooled.values()))["n_obs"]
    out += [f"| N | count | {n_all} | {n_low} | {n_high} |", ""]

    corr = blocks["correlation"]
    names = corr["variables"]
    out += ["## 2. Correlation matrix", "", "| |" + "|".join(names) + "|",
            "|---|" + "|".join("---" for _ in names) + "|"]
    matrix = corr["matrix"]
    for i, v in enumerate(names):
        row = [_fmt(float(matrix[i][j])) for j in range(len(names))]
        out.append(f"| {v} |" + "|".join(row) + "|")
    out.append("")

    out += ["## 3. Panel unit roots (Im-Pesaran-Shin)", "",
            "| Variable | Intercept: stat (p) | Intercept+trend: stat (p) |",
            "|---|---|---|"]
    ur = blocks["unit_roots"]
    for v in names:
        cells = []
        for det in DETERMINISTIC_CHOICES:
            entry = ur.get(det, {}).get(v)
            cells.append(
                f"{_fmt(entry['statistic'])} ({_fmt(entry['p_value'])})" if entry else "-"
            )
        out.append(f"| {v} | {cells[0]} | {cells[1]} |")
    out.append("")

    th = blocks["threshold"]
    lin = th["linearity"]
    out += ["## 4. Threshold inference", "", "| | |", "|---|---|"]
    out.append(f"| Thresholds (gamma) | {', '.join(_fmt(g) for g in th['gammas'])} |")
    for ci in th["confidence_sets"]:
        out.append(
            f"| {ci['level'] * 100:.6g}% CI (threshold {ci['threshold_index'] + 1}) "
            f"| [{_fmt(ci['lower'])} - {_fmt(ci['upper'])}] |"
        )
    out.append(f"| Linearity F (bootstrap) | {_fmt(lin['f_statistic'])} |")
    for level in ("10%", "5%", "1%"):
        out.append(f"| CV {level} | {_fmt(lin['critical_values'][level])} |")
    out.append(f"| Bootstrap replications | {lin['replications']} |")
    out.append(f"| Bootstrap p-value | {_fmt(lin['bootstrap_p'])} |")
    rc = th["regime_count_test"]
    if rc is None:
        out.append("| Regime-count F (p-value) | not run |")
    elif "skipped" in rc:
        out.append(f"| Regime-count F (p-value) | skipped: {rc['skipped']} |")
    else:
        out.append(
            f"| Regime-count F (p-value) | {_fmt(rc['f_statistic'])} ({_fmt(rc['bootstrap_p'])}) |"
        )
    out.append("")

    reg = blocks["regression"]
    out += [f"## 5. Regime regression ({reg['estimator']})", "",
            "| Variable | Coefficient | p-value |", "|---|---|---|"]
    for name, entry in reg["coefficients"].items():
        out.append(f"| {name} | {_fmt(entry['estimate'])} | {_fmt(entry['p_value'])} |")
    out.append(f"| RMSE | {_fmt(reg['rmse'])} | |")
    out.append(f"| R-squared | {_fmt(reg['r_squared'])} | |")
    if reg["sargan"]:
        out.append(
            f"| Sargan (df={reg['sargan']['df']}) | {_fmt(reg['sargan']['statistic'])} "
            f"({_fmt(reg['sargan']['p_value'])}) | |"
        )
    out.append(
        f"| Wald joint (df={reg['wald']['df']}) | {_fmt(reg['wald']['statistic'])} "
        f"({_fmt(reg['wald']['p_value'])}) | |"
    )
    out.append(f"| Observations | {reg['n_obs']} | |")
    out.append(f"| Units | {reg['n_units']} | |")
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Subcommands


def _resolve(output_dir: str | None, path: str) -> Path:
    """``path``, under ``output_dir`` when one is given and ``path`` is
    relative, with its parent directory made or a ConfigError naming it."""
    p = Path(path)
    if output_dir and not p.is_absolute():
        p = Path(output_dir) / p
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output path {p}: cannot make its directory ({exc.strerror})") from None
    return p


def _cmd_report(config: RunConfig, args) -> int:
    json_path = _resolve(args.output_dir, config.output_json)
    md_path = _resolve(args.output_dir, config.output_markdown)
    sidecar_path = json_path.with_name(json_path.name + ".timings.json")
    if md_path.resolve() in (json_path.resolve(), sidecar_path.resolve()):
        raise ConfigError(f"output.markdown {md_path} is also the JSON report or its timings")
    report, markdown, record = run_pipeline(config, threads=args.threads)
    json_path.write_text(dumps_report(report), encoding="utf-8")
    md_path.write_text(markdown, encoding="utf-8")
    sidecar_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"report written: {json_path} {md_path}")
    return 0


def _cmd_simulate(config_raw: Mapping[str, Any], args) -> int:
    if not config_raw.get("simulate"):
        raise ConfigError("simulate subcommand needs a 'simulate' section in the config")
    sim = _section(config_raw, "simulate", (
        "experiment", "trials", "dgp", "master_seed", "alpha", "replications"))
    try:
        dgp = ThresholdDGP(**sim.get("dgp", {}))
    except TypeError as exc:
        raise ConfigError(f"invalid dgp section: {exc}") from None
    master_seed = sim.get("master_seed", 0) if args.seed is None else args.seed
    out = _resolve(args.output_dir, "simulate.json") if args.output_dir else None
    summary = monte_carlo(
        check_str(sim.get("experiment", "recovery"), "simulate.experiment"),
        check_int(sim.get("trials", MIN_TRIALS_DEFAULT), "simulate.trials", MIN_TRIALS),
        dgp,
        master_seed=check_int(master_seed, "simulate.master_seed", 0),
        alpha=check_number(sim.get("alpha", 0.05), "simulate.alpha"),
        replications=check_int(sim.get("replications", 199), "simulate.replications",
                               MIN_REPLICATIONS),
        threads=args.threads,
    )
    text = dumps_report(asdict(summary))
    if out:
        out.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelthresh",
        description="Panel threshold regression: estimation, bootstrap tests, "
                    "confidence sets, diagnostics, IV regime regression.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="parallelism budget")
    parser.add_argument("--output-dir", default=None, help="directory for output files")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("fit", "estimate the threshold(s) and regime coefficients"),
        ("test", "bootstrap linearity and regime-count tests"),
        ("ci", "likelihood-ratio confidence sets for the threshold(s)"),
        ("diagnose", "regime descriptives, correlations, panel unit roots"),
        ("simulate", "run a Monte Carlo study from the config's simulate section"),
        ("report", "full pipeline: JSON + markdown reports"),
    ):
        sub.add_parser(name, help=descr)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.seed is not None:
            check_int(args.seed, "--seed", 0)
        raw = _read_json(args.config)
        if args.command == "simulate":
            return _cmd_simulate(raw, args)
        config = parse_config(raw)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.command == "report":
            return _cmd_report(config, args)
        _, blocks, _ = _run_stages(config, _COMMAND_STAGES[args.command], threads=args.threads)
        print(dumps_report(_command_payload(args.command, blocks)), end="")
        return 0
    except (ConfigError, DataError, EstimationError) as exc:
        print(f"{exc.label} error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
