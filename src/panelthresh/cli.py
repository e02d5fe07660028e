"""Command-line front end: CSV ingestion, JSON config, pipeline, reports.

The ``report`` subcommand runs the full pipeline and emits a deterministic,
schema-versioned JSON report plus a markdown report with five table blocks
(regime descriptives, correlations, panel unit roots, threshold inference,
regime regression). Given the same config and seed the JSON output is byte
identical regardless of the thread budget; per-stage wall times, which are
inherently non-reproducible, go to a ``*.timings.json`` sidecar.

Exit codes: 0 success, 2 config error, 3 data error, 4 estimation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
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
from .errors import ConfigError, DataError, EstimationError
from .inference import DEFAULT_REPLICATIONS, MIN_REPLICATIONS, regime_count_on, threshold_ci
from .panel import (
    PanelDataset,
    VariableRole,
    composite_index,
    make_lag,
    period_average,
    within_transform,
)
from .regression import estimate_regime_equation
from .simulate import RNG_DESCRIPTOR, ThresholdDGP, monte_carlo
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
    try:
        return (0, float(label), "")
    except ValueError:
        return (1, 0.0, label)


def ingest_csv(path, unit_col: str, time_col: str) -> PanelDataset:
    """Read a long-format CSV (one row per unit-period) into a PanelDataset.

    Strict dialect: comma separator, ``.`` decimal point, UTF-8, header row
    required. Missing cells, duplicate (unit, time) pairs and non-numeric
    values are rejected with the offending location named. Units and periods
    are ordered numerically when their labels parse as numbers,
    lexicographically otherwise.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for required in (unit_col, time_col):
            if required not in header:
                raise DataError(f"{path}: column {required!r} not in header {header}")
        value_cols = [h for h in header if h not in (unit_col, time_col)]
        if not value_cols:
            raise DataError(f"{path}: no variable columns besides {unit_col!r} and {time_col!r}")
        u_idx, t_idx = header.index(unit_col), header.index(time_col)
        v_idx = [header.index(v) for v in value_cols]
        cells: dict[tuple[str, str], list[float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            key = (row[u_idx].strip(), row[t_idx].strip())
            if key in cells:
                raise DataError(f"{path}: duplicate (unit, time) pair {key}")
            parsed = []
            for col, j in zip(value_cols, v_idx):
                try:
                    parsed.append(float(row[j]))
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: non-numeric value {row[j]!r} in column {col!r}"
                    ) from None
            cells[key] = parsed
    units = sorted({k[0] for k in cells}, key=_label_key)
    periods = sorted({k[1] for k in cells}, key=_label_key)
    missing = [(u, t) for u in units for t in periods if (u, t) not in cells]
    if missing:
        shown = ", ".join(str(m) for m in missing[:10])
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise DataError(f"{path}: unbalanced panel, missing cells: {shown}{more}")
    variables = {}
    for j, name in enumerate(value_cols):
        mat = np.array([[cells[(u, t)][j] for t in periods] for u in units])
        variables[name] = mat
    return PanelDataset(units, periods, variables, metadata={"source": str(path)})


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
    roles: VariableRole
    spec_fields: dict[str, Any]
    replications: int
    alphas: tuple[float, ...]
    seed: int
    transforms: tuple[dict[str, Any], ...]
    estimator: str
    instruments: tuple[str, ...]
    output_json: str
    output_markdown: str
    regime_count_test: bool
    ips_max_lag: int
    ips_moment_draws: int
    diagnostics_vars: tuple[str, ...]
    raw: dict[str, Any] = field(repr=False, default_factory=dict)

    def build_spec(self) -> ThresholdSpec:
        return ThresholdSpec(roles=self.roles, **self.spec_fields)


def _read_json(path) -> Any:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def load_config(path) -> RunConfig:
    return parse_config(_read_json(path))


def parse_config(raw: Mapping[str, Any]) -> RunConfig:
    """Validate a config mapping; every problem is a ConfigError."""
    try:
        return _parse_config(raw)
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from None


def _config_int(value: Any, name: str, low: int) -> int:
    """``value`` when it is a JSON integer >= ``low``; floats, strings and
    booleans are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _parse_config(raw: Mapping[str, Any]) -> RunConfig:
    def need(section: Mapping, key: str, where: str):
        if key not in section:
            raise ConfigError(f"config missing {where}{key!r}")
        return section[key]

    input_path = str(need(raw, "input_path", ""))
    csv_section = raw.get("csv", {})
    unit_col = str(csv_section.get("unit", "unit"))
    time_col = str(csv_section.get("time", "time"))
    roles_raw = need(raw, "roles", "")
    try:
        roles = VariableRole(
            dependent=need(roles_raw, "dependent", "roles."),
            threshold=need(roles_raw, "threshold", "roles."),
            regime_varying=tuple(need(roles_raw, "regime_varying", "roles.")),
            invariant_controls=tuple(roles_raw.get("invariant_controls", ())),
            instruments=tuple(roles_raw.get("instruments", ())),
        )
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    spec_raw = dict(raw.get("spec", {}))
    unknown = set(spec_raw) - {f.name for f in fields(ThresholdSpec)} - {"roles"}
    if unknown:
        raise ConfigError(f"unknown spec fields: {sorted(unknown)}")
    inference_raw = dict(raw.get("inference", {}))
    replications = _config_int(
        inference_raw.get("replications", DEFAULT_REPLICATIONS), "inference.replications",
        MIN_REPLICATIONS,
    )
    alphas = tuple(float(a) for a in inference_raw.get("alphas", (0.05,)))
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise ConfigError(f"alpha levels must lie in (0, 1), got {alphas}")
    seed = _config_int(inference_raw.get("seed", 0), "inference.seed", 0)
    regime_count_test = inference_raw.get("regime_count_test", True)
    if not isinstance(regime_count_test, bool):
        raise ConfigError(
            f"inference.regime_count_test must be true or false, got {regime_count_test!r}"
        )
    transforms = tuple(dict(t) for t in raw.get("transforms", ()))
    for t in transforms:
        op = t.get("op")
        if op not in ("within", "lag", "period_average", "composite_index"):
            raise ConfigError(f"unknown transform op {op!r}")
    estimator = str(raw.get("estimator", "OLS")).upper()
    if estimator in ("SGMM", "GMM", "SYSTEM-GMM"):
        raise ConfigError(
            "system GMM is out of scope for this package; use estimator '2SLS' "
            "(see README non-goals)"
        )
    if estimator not in ("OLS", "2SLS"):
        raise ConfigError(f"estimator must be OLS or 2SLS, got {estimator!r}")
    instruments = tuple(raw.get("instruments", roles.instruments))
    if estimator == "2SLS" and not instruments:
        raise ConfigError("estimator 2SLS requires instruments")
    output = dict(raw.get("output", {}))
    diag = dict(raw.get("diagnostics", {}))
    ips_moment_draws = _config_int(
        diag.get("ips_moment_draws", DEFAULT_MOMENT_DRAWS), "diagnostics.ips_moment_draws", 2
    )
    max_lag = _config_int(diag.get("max_lag", DEFAULT_MAX_LAG), "diagnostics.max_lag", 0)
    role_vars = list(dict.fromkeys(
        [roles.dependent, roles.threshold, *roles.regime_varying, *roles.invariant_controls]
    ))
    diagnostics_vars = tuple(diag.get("variables", role_vars))
    ThresholdSpec(roles=roles, **spec_raw)  # validates the spec fields
    return RunConfig(
        input_path=input_path,
        unit_col=unit_col,
        time_col=time_col,
        roles=roles,
        spec_fields=spec_raw,
        replications=replications,
        alphas=alphas,
        seed=seed,
        transforms=transforms,
        estimator=estimator,
        instruments=instruments,
        output_json=str(output.get("json", "report.json")),
        output_markdown=str(output.get("markdown", "report.md")),
        regime_count_test=regime_count_test,
        ips_max_lag=max_lag,
        ips_moment_draws=ips_moment_draws,
        diagnostics_vars=diagnostics_vars,
        raw=dict(raw),
    )


def apply_transforms(panel: PanelDataset, transforms: Sequence[Mapping[str, Any]]) -> PanelDataset:
    """Apply the configured transform list in order."""
    for t in transforms:
        op = t["op"]
        if op == "within":
            panel = within_transform(panel, tuple(t.get("vars", panel.variable_names)))
        elif op == "lag":
            panel = make_lag(panel, str(t["var"]), int(t.get("k", 1)))
        elif op == "period_average":
            panel = period_average(panel, int(t["k"]))
        elif op == "composite_index":
            components = tuple(t["components"])
            weights = tuple(t.get("weights", (1.0,) * len(components)))
            panel = composite_index(panel, components, weights, str(t["name"]))
        else:
            raise ConfigError(f"unknown transform op {op!r}")
    return panel


# ---------------------------------------------------------------------------
# Report assembly


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def dumps_report(report: Mapping[str, Any]) -> str:
    """Canonical JSON serialization: sorted keys, stable float repr."""
    return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"


class _StageClock:
    def __init__(self):
        self.timings_ms: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.timings_ms[stage] = round((now - self._t0) * 1000.0, 3)
        self._t0 = now


@dataclass
class _Session:
    """One run's panel and estimation scan (workspace, grid and scan, built
    once), shared by every stage; the estimation stage records the fit."""

    config: RunConfig
    panel: PanelDataset
    scan: SSRScan
    threads: int
    fit: ThresholdFit | None = None


def _estimate(s: _Session) -> ThresholdFit:
    s.fit = estimate_on(s.scan)
    return s.fit


def _linearity(s: _Session) -> dict[str, Any]:
    lin = regime_count_on(s.scan, 0, s.config.replications, s.config.seed, threads=s.threads)
    return {
        "f_statistic": lin.f_statistic,
        "bootstrap_p": lin.bootstrap_p,
        "critical_values": {f"{int(a * 100)}%": v for a, v in lin.critical_values.items()},
        "replications": lin.replications,
        "seed": lin.seed,
    }


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
        extra = regime_count_on(
            s.scan, k, s.config.replications, s.config.seed, threads=s.threads,
        )
    except EstimationError as exc:
        return {"skipped": str(exc)}
    return {
        "f_statistic": extra.f_statistic,
        "bootstrap_p": extra.bootstrap_p,
        "null_model": extra.null_model,
        "alt_model": extra.alt_model,
        "replications": extra.replications,
    }


def _confidence_sets(s: _Session) -> list[dict[str, Any]]:
    cis = []
    for j in range(len(s.fit.gammas)):
        for alpha in s.config.alphas:
            ci = threshold_ci(s.panel, s.scan.ws.spec, s.fit, alpha, threshold_index=j)
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
    return {"variables": list(variables), "matrix": correlation_matrix(s.panel, variables)}


def _unit_roots(s: _Session) -> dict[str, dict[str, Any]]:
    """IPS t-bar, standardized statistic and p-value per deterministic choice and variable."""
    unit_roots: dict[str, dict[str, Any]] = {}
    for det in DETERMINISTIC_CHOICES:
        per_var = {}
        for v in s.config.diagnostics_vars:
            res = ips_test(
                s.panel, v, deterministic=det, max_lag=s.config.ips_max_lag,
                moment_draws=s.config.ips_moment_draws,
            )
            per_var[v] = {
                "t_bar": res.t_bar,
                "statistic": res.statistic,
                "p_value": res.p_value,
            }
        unit_roots[det] = per_var
    return unit_roots


def _regression(s: _Session) -> dict[str, Any]:
    reg = estimate_regime_equation(
        s.panel, s.scan.ws.spec, s.fit, estimator=s.config.estimator,
        instruments=s.config.instruments or None,
    )
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
        "sargan": (
            {"statistic": reg.sargan.statistic, "p_value": reg.sargan.p_value,
             "df": reg.sargan.df}
            if reg.sargan else None
        ),
        "wald": {"statistic": reg.wald.statistic, "p_value": reg.wald.p_value,
                 "df": reg.wald.df},
        "n_obs": reg.n_obs,
        "n_units": s.panel.n_units,
    }


# The pipeline's stages in run order; each builds one block of the report.
_STAGES = {
    "threshold_estimation": _estimate,
    "linearity_test": _linearity,
    "regime_count_test": _regime_count,
    "confidence_sets": _confidence_sets,
    "descriptives": _descriptives,
    "correlation": _correlation,
    "unit_roots": _unit_roots,
    "regression": _regression,
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
    in order; returns (panel, {stage: block}, stage clock)."""
    clock = _StageClock()
    panel = ingest_csv(config.input_path, config.unit_col, config.time_col)
    clock.lap("ingest")
    panel = apply_transforms(panel, config.transforms)
    config.roles.validate(panel)
    clock.lap("transforms")
    session = _Session(config, panel, build_scan(panel, config.build_spec()), threads)
    clock.lap("workspace")
    blocks = {}
    for stage in stages:
        blocks[stage] = _STAGES[stage](session)
        clock.lap(stage)
    return panel, blocks, clock


def run_pipeline(config: RunConfig, *, threads: int = 1):
    """Execute the full pipeline; returns (report dict, markdown str, timings).

    Stage order: ingest, transforms, workspace (the shared estimation scan),
    threshold estimation, linearity test, regime-count test, confidence
    sets, regime descriptives, correlations, panel unit roots, regime
    regression.
    """
    panel, blocks, clock = _run_stages(config, _COMMAND_STAGES["report"], threads=threads)
    fit = blocks["threshold_estimation"]
    report = {
        "schema_version": SCHEMA_VERSION,
        "generator": {"package": "panelthresh", "version": __version__, "rng": RNG_DESCRIPTOR},
        "seed": config.seed,
        "config": config.raw,
        "panel": {
            "n_units": panel.n_units,
            "n_periods": panel.n_periods,
            "variables": list(panel.variable_names),
        },
        "blocks": {
            "descriptives": blocks["descriptives"],
            "correlation": blocks["correlation"],
            "unit_roots": blocks["unit_roots"],
            "threshold": {
                "gammas": list(fit.gammas),
                "ssr": fit.ssr,
                "sigma2": fit.sigma2,
                "regime_counts": list(fit.regime_counts),
                "confidence_sets": blocks["confidence_sets"],
                "linearity": blocks["linearity_test"],
                "regime_count_test": blocks["regime_count_test"],
            },
            "regression": blocks["regression"],
        },
    }
    markdown = render_markdown(report)
    clock.lap("render")
    return report, markdown, clock.timings_ms


def _command_payload(command: str, blocks: Mapping[str, Any]) -> dict[str, Any]:
    """The stdout JSON of the ``fit``, ``test``, ``ci`` and ``diagnose``
    subcommands, from the blocks of their stages."""
    fit = blocks.get("threshold_estimation")
    if command == "fit":
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
    if command == "test":
        payload = {"linearity": blocks["linearity_test"]}
        if blocks["regime_count_test"] is not None:
            payload["regime_count"] = blocks["regime_count_test"]
        return payload
    if command == "ci":
        return {"gammas": list(fit.gammas), "confidence_sets": blocks["confidence_sets"]}
    return {
        "gamma": fit.gammas[0],
        "descriptives": blocks["descriptives"],
        "correlation": blocks["correlation"],
        "unit_roots": blocks["unit_roots"],
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
            f"| {int(ci['level'] * 100)}% CI (threshold {ci['threshold_index'] + 1}) "
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
    p = Path(path)
    if output_dir and not p.is_absolute():
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        return out / p
    return p


def _cmd_report(config: RunConfig, args) -> int:
    report, markdown, timings = run_pipeline(config, threads=args.threads)
    json_path = _resolve(args.output_dir, config.output_json)
    md_path = _resolve(args.output_dir, config.output_markdown)
    json_path.write_text(dumps_report(report), encoding="utf-8")
    md_path.write_text(markdown, encoding="utf-8")
    sidecar = json_path.with_name(json_path.name + ".timings.json")
    sidecar.write_text(json.dumps({"timings_ms": timings}, indent=2) + "\n", encoding="utf-8")
    print(f"report written: {json_path} {md_path}")
    return 0


def _cmd_simulate(config_raw: Mapping[str, Any], args) -> int:
    sim = config_raw.get("simulate")
    if not sim:
        raise ConfigError("simulate subcommand needs a 'simulate' section in the config")
    dgp_raw = dict(sim.get("dgp", {}))
    for tuple_field in ("beta_low", "beta_high", "control_betas"):
        if tuple_field in dgp_raw:
            dgp_raw[tuple_field] = tuple(dgp_raw[tuple_field])
    if "beta_regimes" in dgp_raw and dgp_raw["beta_regimes"] is not None:
        dgp_raw["beta_regimes"] = tuple(tuple(b) for b in dgp_raw["beta_regimes"])
    if "gamma0" in dgp_raw and isinstance(dgp_raw["gamma0"], list):
        dgp_raw["gamma0"] = tuple(dgp_raw["gamma0"])
    try:
        dgp = ThresholdDGP(**dgp_raw)
    except TypeError as exc:
        raise ConfigError(f"invalid dgp section: {exc}") from None
    master_seed = sim.get("master_seed", 0) if args.seed is None else args.seed
    summary = monte_carlo(
        str(sim.get("experiment", "recovery")),
        _config_int(sim.get("trials", MIN_TRIALS_DEFAULT), "simulate.trials", 1),
        dgp,
        master_seed=_config_int(master_seed, "simulate.master_seed", 0),
        alpha=float(sim.get("alpha", 0.05)),
        replications=_config_int(
            sim.get("replications", 199), "simulate.replications", MIN_REPLICATIONS
        ),
        threads=args.threads,
    )
    payload = {
        "experiment": summary.experiment,
        "trials": summary.trials,
        "metrics": summary.metrics,
        "master_seed": summary.master_seed,
        "rng": summary.rng,
    }
    text = dumps_report(payload)
    if args.output_dir:
        out = _resolve(args.output_dir, "simulate.json")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
