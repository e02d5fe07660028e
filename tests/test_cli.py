from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from panelthresh import DataError, benchmark_dgp, simulate_threshold_panel
from panelthresh.cli import (
    REPORT_SCHEMA,
    apply_transforms,
    dumps_report,
    ingest_csv,
    load_config,
    main,
    parse_config,
    run_pipeline,
    write_csv,
)

from conftest import make_panel


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    from dataclasses import replace

    root = tmp_path_factory.mktemp("data")
    # 8 variables: y, q, and six controls
    dgp = replace(
        benchmark_dgp(contrast=0.6, noise_sd=2.0, seed=99),
        control_betas=(0.3, -0.2, 0.1, 0.0, 0.25, -0.15),
    )
    panel, truth = simulate_threshold_panel(dgp)
    path = root / "panel.csv"
    write_csv(panel, path)
    return path, panel


def base_config(path, **overrides):
    cfg = {
        "input_path": str(path),
        "csv": {"unit": "unit", "time": "time"},
        "roles": {"dependent": "y", "threshold": "q", "regime_varying": ["q"]},
        "spec": {"num_thresholds": 1, "trim_fraction": 0.05, "max_grid_points": 80},
        "inference": {"replications": 99, "alphas": [0.05], "seed": 31,
                      "regime_count_test": False},
        "estimator": "OLS",
        "diagnostics": {"ips_moment_draws": 1500},
        "output": {"json": "report.json", "markdown": "report.md"},
    }
    cfg.update(overrides)
    return cfg


class TestIngest:
    def test_round_trip_identical(self, panel_csv, tmp_path):
        path, original = panel_csv
        first = ingest_csv(path, "unit", "time")
        back = tmp_path / "back.csv"
        write_csv(first, back)
        second = ingest_csv(back, "unit", "time")
        assert first.equals(second)
        assert first.unit_ids == second.unit_ids and first.periods == second.periods

    def test_full_precision_round_trip(self, panel_csv):
        path, original = panel_csv
        loaded = ingest_csv(path, "unit", "time")
        for name in original.variable_names:
            np.testing.assert_array_equal(loaded.values(name), original.values(name))

    def test_shape_consumed(self, panel_csv):
        # 8 units x 36 periods x 8 variables from 288 long-format rows
        path, _ = panel_csv
        panel = ingest_csv(path, "unit", "time")
        assert (panel.n_units, panel.n_periods) == (8, 36)
        assert panel.n_units * panel.n_periods == 288
        assert len(panel.variable_names) == 8

    def test_missing_cell_named(self, tmp_path):
        p = tmp_path / "gap.csv"
        rows = ["unit,time,v"]
        for u in ("a", "b"):
            for t in ("1", "2", "3"):
                if (u, t) != ("b", "2"):
                    rows.append(f"{u},{t},1.5")
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"\('b', '2'\)"):
            ingest_csv(p, "unit", "time")

    def test_duplicate_pair_named(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("unit,time,v\na,1,1.0\na,1,2.0\nb,1,3.0\nb,2,4.0\na,2,0.0\n")
        with pytest.raises(DataError, match=r"duplicate.*\('a', '1'\)"):
            ingest_csv(p, "unit", "time")

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("unit,time,v\na,1,1.0\na,2,oops\nb,1,3.0\nb,2,4.0\n")
        with pytest.raises(DataError, match=r"bad.csv:3.*oops.*'v'"):
            ingest_csv(p, "unit", "time")

    def test_missing_required_column(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("id,time,v\na,1,1.0\n")
        with pytest.raises(DataError, match="'unit'"):
            ingest_csv(p, "unit", "time")


class TestConfig:
    def test_2sls_without_instruments_rejected_at_validation(self, panel_csv):
        path, _ = panel_csv
        cfg = base_config(path, estimator="2SLS")
        from panelthresh import ConfigError
        with pytest.raises(ConfigError, match="instrument"):
            parse_config(cfg)

    def test_unknown_transform_rejected(self, panel_csv):
        path, _ = panel_csv
        cfg = base_config(path, transforms=[{"op": "difference"}])
        from panelthresh import ConfigError
        with pytest.raises(ConfigError, match="difference"):
            parse_config(cfg)

    def test_bad_alpha_rejected(self, panel_csv):
        path, _ = panel_csv
        cfg = base_config(path)
        cfg["inference"]["alphas"] = [1.5]
        from panelthresh import ConfigError
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(cfg)

    def test_sgmm_pointer(self, panel_csv):
        path, _ = panel_csv
        cfg = base_config(path, estimator="SGMM")
        from panelthresh import ConfigError
        with pytest.raises(ConfigError, match="out of scope"):
            parse_config(cfg)

    @pytest.mark.parametrize("draws", [1, 0, -5])
    def test_too_few_ips_moment_draws_rejected(self, panel_csv, draws):
        path, _ = panel_csv
        cfg = base_config(path, diagnostics={"ips_moment_draws": draws})
        from panelthresh import ConfigError
        with pytest.raises(ConfigError, match="ips_moment_draws"):
            parse_config(cfg)

    @pytest.mark.parametrize("section, key, value", [
        ("inference", "regime_count_test", "false"),
        ("inference", "regime_count_test", 0),
        ("inference", "regime_count_test", None),
        ("inference", "replications", 99.9),
        ("inference", "replications", "150"),
        ("inference", "seed", True),
        ("inference", "seed", 2.7),
        ("inference", "seed", -1),
        ("diagnostics", "ips_moment_draws", 100.5),
        ("diagnostics", "max_lag", -1),
        ("diagnostics", "max_lag", 2.5),
        ("diagnostics", "max_lag", "3"),
        ("diagnostics", "max_lag", True),
        ("spec", "dynamic_lag", "false"),
        ("spec", "dynamic_lag", 1),
        ("spec", "include_intercept_shift", "false"),
        ("spec", "include_intercept_shift", None),
        ("spec", "max_grid_points", 100.5),
        ("spec", "max_grid_points", True),
        ("spec", "num_thresholds", 1.0),
        ("spec", "num_thresholds", "2"),
    ])
    def test_mistyped_regime_switch_or_lag_rejected(self, panel_csv, section, key, value):
        path, _ = panel_csv
        cfg = base_config(path)
        cfg[section][key] = value
        from panelthresh import ConfigError
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg)

    def test_transforms_applied_in_order(self, rng):
        panel = make_panel({
            "y": rng.standard_normal((3, 10)),
            "a": rng.standard_normal((3, 10)),
            "b": rng.standard_normal((3, 10)),
        })
        out = apply_transforms(panel, [
            {"op": "composite_index", "components": ["a", "b"], "name": "idx"},
            {"op": "lag", "var": "y", "k": 1},
            {"op": "period_average", "k": 3},
        ])
        assert "idx" in out.variable_names
        assert "y_lag1" in out.variable_names
        assert out.n_periods == 3  # (10 - 1) // 3

    def test_composite_default_weights_equal(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        panel = make_panel({"a": a, "b": b})
        out = apply_transforms(panel, [
            {"op": "composite_index", "components": ["a", "b"], "name": "idx"},
        ])
        np.testing.assert_allclose(out.values("idx"), (a + b) / 2.0, atol=1e-12)


@pytest.fixture(scope="module")
def report(panel_csv):
    path, _ = panel_csv
    config = parse_config(base_config(path))
    return run_pipeline(config, threads=1)


class TestPipeline:
    def test_all_five_blocks_present(self, report):
        rep, markdown, timings = report
        assert set(rep["blocks"]) == {
            "descriptives", "correlation", "unit_roots", "threshold", "regression",
        }

    def test_schema_validates(self, report):
        jsonschema = pytest.importorskip("jsonschema")
        rep, _, _ = report
        parsed = json.loads(dumps_report(rep))
        jsonschema.validate(parsed, REPORT_SCHEMA)
        assert parsed["schema_version"] == 1

    def test_report_carries_seed_config_version(self, report):
        rep, _, _ = report
        assert rep["seed"] == 31
        assert rep["generator"]["package"] == "panelthresh"
        assert rep["config"]["estimator"] == "OLS"

    def test_markdown_blocks_and_threshold_rows(self, report):
        _, markdown, _ = report
        for heading in (
            "## 1. Regime descriptives",
            "## 2. Correlation matrix",
            "## 3. Panel unit roots",
            "## 4. Threshold inference",
            "## 5. Regime regression",
        ):
            assert heading in markdown
        for row in (
            "| Thresholds (gamma) |",
            "| Linearity F (bootstrap) |",
            "| CV 10% |",
            "| CV 5% |",
            "| CV 1% |",
            "| Bootstrap replications | 99 |",
            "| Bootstrap p-value |",
        ):
            assert row in markdown, row

    def test_per_stage_timings_collected(self, report):
        _, _, timings = report
        assert {"ingest", "threshold_estimation", "linearity_test", "unit_roots"} <= set(timings)


class TestMainExitCodes:
    def _write_config(self, tmp_path, cfg):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_fit_exit_zero(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path))
        assert main(["--config", str(cfg_path), "fit"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["gammas"]) == 1

    def test_ci_exit_zero(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path))
        assert main(["--config", str(cfg_path), "ci"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["confidence_sets"][0]["level"] == 0.95

    def test_test_exit_zero(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path))
        assert main(["--config", str(cfg_path), "test"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["linearity"]["replications"] == 99

    def test_config_error_exit_two(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path, estimator="2SLS"))
        assert main(["--config", str(cfg_path), "fit"]) == 2

    def test_mistyped_spec_field_exit_two(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg = base_config(path)
        cfg["spec"]["max_grid_points"] = 100.5
        cfg_path = self._write_config(tmp_path, cfg)
        assert main(["--config", str(cfg_path), "fit"]) == 2
        assert "max_grid_points must be an integer" in capsys.readouterr().err

    def test_threads_below_one_exit_two(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path))
        assert main(["--config", str(cfg_path), "--threads", "0", "fit"]) == 2
        assert "--threads must be >= 1" in capsys.readouterr().err

    def test_data_error_exit_three(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("unit,time,y,q\na,1,1.0,2.0\na,2,1.0,2.0\nb,1,1.0,2.0\n")
        cfg_path = self._write_config(tmp_path, base_config(bad))
        assert main(["--config", str(cfg_path), "fit"]) == 3

    def test_estimation_error_exit_four(self, tmp_path, rng):
        # constant threshold variable: degenerate grid
        y = rng.standard_normal((3, 12))
        panel = make_panel({"y": y, "q": np.full((3, 12), 5.0)})
        p = tmp_path / "degenerate.csv"
        write_csv(panel, p)
        cfg_path = self._write_config(tmp_path, base_config(p))
        assert main(["--config", str(cfg_path), "fit"]) == 4

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "fit"]) == 2

    @staticmethod
    def _simulate_config(master_seed):
        return {
            "simulate": {
                "experiment": "recovery",
                "trials": 50,
                "master_seed": master_seed,
                "dgp": {
                    "n_units": 8, "n_periods": 36, "gamma0": 12.741,
                    "beta_low": [0.2], "beta_high": [0.7],
                    "noise_sd": 1.0, "threshold_dist": "lognormal(2.45,0.75)",
                },
            }
        }

    def test_simulate_subcommand(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, self._simulate_config(4))
        assert main(["--config", str(cfg_path), "simulate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "recovery"
        assert 0.0 <= payload["metrics"]["hit_rate"] <= 1.0

    def test_simulate_negative_master_seed_exit_two(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, self._simulate_config(-1))
        assert main(["--config", str(cfg_path), "simulate"]) == 2
        assert "simulate.master_seed" in capsys.readouterr().err

    def test_diagnose_subcommand(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path))
        assert main(["--config", str(cfg_path), "diagnose"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "correlation" in payload and "unit_roots" in payload

    def test_report_writes_files_and_sidecar(self, panel_csv, tmp_path):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path))
        out_dir = tmp_path / "out"
        assert main([
            "--config", str(cfg_path), "--output-dir", str(out_dir), "report",
        ]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report["blocks"]) >= {"descriptives", "threshold"}
        assert (out_dir / "report.md").exists()
        sidecar = json.loads((out_dir / "report.json.timings.json").read_text())
        assert "timings_ms" in sidecar

    def test_seed_override_changes_report_seed(self, panel_csv, tmp_path):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path))
        out_dir = tmp_path / "seeded"
        assert main([
            "--config", str(cfg_path), "--seed", "777", "--output-dir", str(out_dir), "report",
        ]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["seed"] == 777


def _main_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def stage_config(panel_csv, tmp_path_factory):
    path, _ = panel_csv
    cfg = base_config(path)
    cfg["inference"]["regime_count_test"] = True
    cfg_path = tmp_path_factory.mktemp("stages") / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


class TestSubcommandsAreStageSubsets:
    def test_blocks_equal_the_report_blocks(self, stage_config, tmp_path):
        argv = ["--config", str(stage_config), "--seed", "5"]
        out = {c: json.loads(_main_stdout([*argv, c])) for c in ("fit", "test", "ci", "diagnose")}
        _main_stdout([*argv, "--output-dir", str(tmp_path), "report"])
        blocks = json.loads((tmp_path / "report.json").read_text())["blocks"]
        th = blocks["threshold"]
        assert "f_statistic" in th["regime_count_test"] and th["linearity"]["seed"] == 5
        fit_keys = ("gammas", "ssr", "sigma2", "regime_counts")
        assert {k: out["fit"][k] for k in fit_keys} == {k: th[k] for k in fit_keys}
        assert out["test"] == {"linearity": th["linearity"], "regime_count": th["regime_count_test"]}
        assert out["ci"] == {"gammas": th["gammas"], "confidence_sets": th["confidence_sets"]}
        assert out["diagnose"] == {
            "gamma": th["gammas"][0],
            "descriptives": blocks["descriptives"],
            "correlation": blocks["correlation"],
            "unit_roots": blocks["unit_roots"],
        }

    def test_test_runs_no_estimator(self, stage_config, monkeypatch):
        from panelthresh import threshold

        def estimator_ran(*args, **kwargs):
            raise AssertionError("the estimator ran")

        monkeypatch.setattr(threshold, "_conditional_profile", estimator_ran)
        payload = json.loads(_main_stdout(["--config", str(stage_config), "test"]))
        assert set(payload) == {"linearity", "regime_count"}
        with pytest.raises(AssertionError, match="estimator ran"):
            main(["--config", str(stage_config), "fit"])

    def test_one_workspace_and_scan_per_run(self, stage_config, monkeypatch):
        from panelthresh import threshold

        built = []
        for cls in (threshold._Workspace, threshold.SSRScan):
            def counted(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        run_pipeline(load_config(stage_config))
        assert sorted(built) == ["SSRScan", "_Workspace"]


@pytest.fixture(scope="module")
def three_threshold_config(tmp_path_factory):
    from panelthresh import ThresholdDGP

    root = tmp_path_factory.mktemp("three")
    panel, _ = simulate_threshold_panel(ThresholdDGP(
        n_units=8, n_periods=40, gamma0=(0.25, 0.5, 0.75), beta_low=(1.0,), beta_high=(2.0,),
        beta_regimes=((1.0,), (2.5,), (0.0,), (3.0,)), noise_sd=0.3, seed=8,
    ))
    write_csv(panel, root / "panel.csv")
    cfg = base_config(root / "panel.csv")
    cfg["spec"] = {"num_thresholds": 3}
    cfg["inference"] = {"replications": 99, "seed": 3}
    cfg["diagnostics"] = {"ips_moment_draws": 200}
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


class TestThreeThresholds:
    """No 3-vs-4 test exists, so the default regime-count stage skips with a note."""

    def test_test_skips_regime_count(self, three_threshold_config):
        payload = json.loads(_main_stdout(["--config", str(three_threshold_config), "test"]))
        assert payload["regime_count"] == {"skipped": "no 3-vs-4 threshold test"}
        assert payload["linearity"]["replications"] == 99

    def test_report_completes_with_skip(self, three_threshold_config, tmp_path):
        _main_stdout(["--config", str(three_threshold_config), "--output-dir", str(tmp_path),
                      "report"])
        th = json.loads((tmp_path / "report.json").read_text())["blocks"]["threshold"]
        assert len(th["gammas"]) == 3
        assert th["regime_count_test"] == {"skipped": "no 3-vs-4 threshold test"}
        markdown = (tmp_path / "report.md").read_text()
        assert "| Regime-count F (p-value) | skipped: no 3-vs-4 threshold test |" in markdown


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs most of a second to import; the package needs only
    # scipy.special's ndtr and chdtrc.
    import panelthresh

    src = str(Path(panelthresh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import panelthresh.cli, sys; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"
