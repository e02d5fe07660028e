from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from panelthresh import (ConfigError, DataError, ThresholdDGP, benchmark_dgp,
                         simulate_threshold_panel, within_transform)
from panelthresh.cli import (
    REPORT_SCHEMA,
    _label_key,
    _StageClock,
    apply_transforms,
    dumps_report,
    ingest_csv,
    load_config,
    main,
    parse_config,
    render_markdown,
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

    def test_byte_order_mark_skipped(self, panel_csv, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a leading byte-order mark.
        path, _ = panel_csv
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert ingest_csv(marked, "unit", "time").equals(ingest_csv(path, "unit", "time"))

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

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # A duplicate pair on line 3 comes before a non-numeric cell on line 5.
        p = tmp_path / "two_faults.csv"
        p.write_text("unit,time,v\na,1,1.0\na,1,2.0\nb,1,3.0\nb,2,oops\na,2,0.0\n")
        with pytest.raises(DataError, match=r"duplicate.*\('a', '1'\)"):
            ingest_csv(p, "unit", "time")

    def test_short_row_names_its_line(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("unit,time,v\na,1,1.0\na,2,2.0\nb,1\nb,2,4.0\n")
        with pytest.raises(DataError, match=r"short.csv:4: expected 3 fields, got 2"):
            ingest_csv(p, "unit", "time")

    def test_missing_cells_listed_in_unit_then_period_order(self, tmp_path):
        # 3 units x 6 periods with 6 cells present, written in reverse order:
        # the 12 missing cells are named in label order, the first 10 shown.
        units, periods = ("b", "a", "10"), ("5", "1", "20", "x", "3", "2")
        present = [(u, t) for i, u in enumerate(units) for j, t in enumerate(periods)
                   if (i + j) % 3 == 0]
        p = tmp_path / "holes.csv"
        p.write_text("unit,time,v\n" + "".join(f"{u},{t},1.0\n" for u, t in reversed(present)))
        shown = ("('10', '2'), ('10', '5'), ('10', '20'), ('10', 'x'), ('a', '1'), "
                 "('a', '3'), ('a', '5'), ('a', 'x'), ('b', '1'), ('b', '2')")
        with pytest.raises(DataError) as err:
            ingest_csv(p, "unit", "time")
        assert str(err.value) == f"{p}: unbalanced panel, missing cells: {shown} and 2 more"

    @pytest.mark.parametrize("header, name", [
        ("unit,time,y,q,y", "y"), ("unit,time,y,q,unit", "unit"), ("unit,time,y,q,time", "time"),
    ])
    def test_duplicate_column_named(self, tmp_path, header, name):
        # The last column repeats a name: the file is rejected, not read with
        # that column's values (9, 8, 7, 6) dropped.
        p = tmp_path / "dupcol.csv"
        p.write_text(f"{header}\na,1,1.0,0.1,9\na,2,2.0,0.2,8\nb,1,3.0,0.3,7\nb,2,4.0,0.4,6\n")
        with pytest.raises(DataError, match=f"column '{name}' appears more than once"):
            ingest_csv(p, "unit", "time")

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("unit,time,v\na,1,1.0\na,2,oops\nb,1,3.0\nb,2,4.0\n")
        with pytest.raises(DataError, match=r"bad.csv:3.*oops.*'v'"):
            ingest_csv(p, "unit", "time")

    def test_label_order_is_total(self):
        # "nan" parses to a float that compares false with everything, and
        # "1" and "01" parse to one value: neither may leave the order to the
        # order the labels arrive in.
        labels = ["10", "2", "01", "1", "nan", "b", "a"]
        orders = {tuple(sorted(p, key=_label_key)) for p in itertools.permutations(labels)}
        assert orders == {("01", "1", "2", "10", "a", "b", "nan")}

    def test_unit_order_independent_of_hash_seed(self, tmp_path):
        # Labels are collected in a set, whose order follows string hashing.
        import panelthresh

        p = tmp_path / "labels.csv"
        units = ["1", "01", "nan", "2", "3", "4", "5", "6"]
        p.write_text("unit,time,v\n" + "".join(
            f"{u},{t},{k}.5\n" for k, u in enumerate(units) for t in (1, 2)))
        src = str(Path(panelthresh.__file__).resolve().parents[1])
        code = ("from panelthresh.cli import ingest_csv\n"
                f"print(ingest_csv({str(p)!r}, 'unit', 'time').unit_ids)")
        orders = set()
        for seed in ("0", "1", "2", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            orders.add(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, env=env, check=True).stdout.strip())
        assert orders == {"('01', '1', '2', '3', '4', '5', '6', 'nan')"}

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

    @pytest.mark.parametrize("key, fault", [
        ("input_path", {"input_path": ["a.csv"]}),
        ("csv.unit", {"csv": {"unit": ["u"]}}),
        ("csv.time", {"csv": {"time": 3}}),
        ("roles.dependent", {"roles": {"dependent": ["y"]}}),
        ("roles.threshold", {"roles": {"threshold": {"a": 1}}}),
        ("estimator", {"estimator": ["2sls"]}),
        ("output.json", {"output": {"json": 3}}),
        ("output.markdown", {"output": {"markdown": None}}),
        ("transforms[0] (lag) var", {"transforms": [{"op": "lag", "var": ["y"]}]}),
        ("transforms[0] (composite_index) name",
         {"transforms": [{"op": "composite_index", "components": ["q"], "name": 1}]}),
    ], ids=["input_path", "csv_unit", "csv_time", "dependent", "threshold", "estimator",
            "output_json", "output_markdown", "lag_var", "composite_index_name"])
    def test_single_name_key_must_be_a_string(self, panel_csv, key, fault):
        # A list, number or object is a config error naming the key, not a
        # name such as "['y']" that fails later, at ingest.
        path, _ = panel_csv
        cfg = base_config(path)
        for section, value in fault.items():
            cfg[section] = {**cfg[section], **value} if isinstance(value, dict) else value
        from panelthresh import ConfigError
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be a string")):
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

    def test_within_matches_within_transform(self, rng):
        panel = make_panel({"y": rng.standard_normal((3, 5)), "a": rng.standard_normal((3, 5))})
        listed = apply_transforms(panel, [{"op": "within", "vars": ["a"]}])
        assert listed.equals(within_transform(panel, ("a",)))
        every = apply_transforms(panel, [{"op": "within"}])
        assert every.equals(within_transform(panel, ("y", "a")))

    @pytest.mark.parametrize("op", ["bogus", ["lag"], {"op": "lag"}, None])
    def test_apply_transforms_rejects_an_unknown_op(self, rng, op):
        # A direct caller, whose transforms parse_config has not checked.
        panel = make_panel({"y": rng.standard_normal((3, 5))})
        with pytest.raises(ConfigError, match=re.escape(f"unknown transform op {op!r}")):
            apply_transforms(panel, [{"op": op}])


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

    def test_markdown_labels_each_confidence_level(self, report):
        # A level whose percentage is not a whole number keeps its digits:
        # 97.5% and 97% are two rows, and 1 - 0.55 reads 45%, not 44%.
        rep, _, _ = report
        th = rep["blocks"]["threshold"]
        alphas = [0.025, 0.03, 0.55, 0.01, 0.05, 0.1, 0.2]
        sets = [{**th["confidence_sets"][0], "alpha": a, "level": 1.0 - a} for a in alphas]
        markdown = render_markdown(
            {**rep, "blocks": {**rep["blocks"], "threshold": {**th, "confidence_sets": sets}}})
        labels = re.findall(r"^\| (\S+) CI \(threshold 1\) \|", markdown, re.MULTILINE)
        assert labels == ["97.5%", "97%", "45%", "99%", "95%", "90%", "80%"]

    def test_per_stage_timings_collected(self, report):
        _, _, timings = report
        assert ({"ingest", "threshold_estimation", "linearity_test", "unit_roots"}
                <= set(timings["timings_ms"]))

    def test_stage_clock_peaks_are_null_without_proc(self, monkeypatch):
        def unreadable(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(Path, "read_text", unreadable)
        clock = _StageClock()
        clock.lap("ingest")
        assert clock.record["peak_rss_mb"] == {"start": None, "ingest": None}
        assert list(clock.record["timings_ms"]) == ["ingest"]

    def test_config_echo_round_trips(self, report, panel_csv):
        # The report echoes its config verbatim, booleans included, so the
        # echo parses back to the same run.
        path, _ = panel_csv
        rep, _, _ = report
        echoed = json.loads(dumps_report(rep))["config"]
        assert echoed == base_config(path)
        assert parse_config(echoed) == parse_config(base_config(path))


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

    @pytest.mark.parametrize("op", [["lag"], {"op": "lag"}], ids=["list", "object"])
    def test_non_string_transform_op_exit_two(self, panel_csv, tmp_path, capsys, op):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path, transforms=[{"op": op}]))
        assert main(["--config", str(cfg_path), "fit"]) == 2
        err = capsys.readouterr().err
        assert f"config error: unknown transform op {op!r}" in err, err

    def test_mistyped_spec_field_exit_two(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg = base_config(path)
        cfg["spec"]["max_grid_points"] = 100.5
        cfg_path = self._write_config(tmp_path, cfg)
        assert main(["--config", str(cfg_path), "fit"]) == 2
        assert "max_grid_points must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fault, code, message", [
        ("fit", {"csv": {"units": "unit"}}, 2, "unknown csv fields: ['units']"),
        ("fit", {"roles": {"instrument": ["z"]}}, 2, "unknown roles fields: ['instrument']"),
        ("fit", {"inference": {"replicatons": 199}}, 2, "['replicatons']"),
        ("fit", {"inference": {"alpha": 0.1}}, 2, "unknown inference fields: ['alpha']"),
        ("fit", {"inference": {"regime_count": False}}, 2, "['regime_count']"),
        ("fit", {"diagnostics": {"maxlag": 2}}, 2, "unknown diagnostics fields: ['maxlag']"),
        ("fit", {"output": {"jsn": "out.json"}}, 2, "unknown output fields: ['jsn']"),
        ("simulate", {"simulate": {"replicatons": 99}}, 2, "unknown simulate fields"),
        ("fit", {"transforms": [{"op": "lag"}]}, 2, "transforms[0] (lag) missing fields"),
        ("fit", {"transforms": [{"op": "period_average"}]}, 2, "missing fields: ['k']"),
        ("fit", {"transforms": [{"op": "lag", "var": "y", "k": "two"}]}, 2, "k must be"),
        ("fit", {"transforms": [{"op": "lag", "var": "y", "k": 1.7}]}, 2, "k must be"),
        ("fit", {"transforms": [{"op": "within", "var": ["y"]}]}, 2, "unknown fields: ['var']"),
        ("fit", {"instruments": ["z_misspelt"]}, 3, "variables not in panel: z_misspelt"),
        # a string where a list is expected is not split into characters
        ("fit", {"roles": {"regime_varying": "q"}}, 2,
         "roles.regime_varying must be a list of strings"),
        ("fit", {"roles": {"invariant_controls": "c1"}}, 2,
         "roles.invariant_controls must be a list of strings"),
        ("fit", {"roles": {"instruments": "c2"}}, 2,
         "roles.instruments must be a list of strings"),
        ("fit", {"instruments": "c2"}, 2, "instruments must be a list of strings"),
        ("fit", {"diagnostics": {"variables": "yq"}}, 2,
         "diagnostics.variables must be a list of strings"),
        ("fit", {"transforms": [{"op": "within", "vars": "y"}]}, 2,
         "transforms[0] (within) vars must be a list of strings"),
        ("fit", {"transforms": [{"op": "composite_index", "components": "c1", "name": "i"}]}, 2,
         "transforms[0] (composite_index) components must be a list of strings"),
        ("fit", {"transforms": [{"op": "composite_index", "components": ["c1", "c2"],
                                 "weights": "12", "name": "i"}]}, 2,
         "transforms[0] (composite_index) weights must be a list of numbers"),
        ("fit", {"transforms": [{"op": "composite_index", "components": ["c1", "c2"],
                                 "weights": [True, 1], "name": "i"}]}, 2,
         "weights must be a list of numbers"),
        ("fit", {"inference": {"alphas": ["0.05"]}}, 2,
         "inference.alphas must be a list of numbers"),
        ("fit", {"inference": {"alphas": [True]}}, 2,
         "inference.alphas must be a list of numbers"),
        ("fit", {"transforms": "x"}, 2, "transforms must be a list of objects"),
        ("fit", {"transforms": [1]}, 2, "transforms must be a list of objects"),
        ("fit", {"transforms": {"op": "within"}}, 2, "transforms must be a list of objects"),
        ("fit", {"transforms": None}, 2, "transforms must be a list of objects"),
        ("fit", {"spec": {"trim_fraction": "0.1"}}, 2, "trim_fraction must be a number"),
        ("fit", {"spec": {"trim_fraction": None}}, 2, "trim_fraction must be a number"),
        ("report", {"diagnostics": {"variables": ["y"]}}, 2,
         "diagnostics.variables needs at least 2 names"),
        ("report", {"diagnostics": {"variables": ["y", "c1_typo"]}}, 3,
         "variables not in panel: c1_typo"),
        # a column named twice is a config error, not a duplicate-pair data
        # error or a rank deficiency
        ("fit", {"csv": {"time": "unit"}}, 2,
         "config error: csv.unit and csv.time name the same column 'unit'"),
        ("fit", {"roles": {"regime_varying": ["q", "q"]}}, 2,
         "config error: regressor 'q' is named more than once"),
        ("fit", {"roles": {"invariant_controls": ["c1", "c1"]}}, 2,
         "config error: regressor 'c1' is named more than once"),
        ("fit", {"roles": {"regime_varying": ["q", "c1"], "invariant_controls": ["c1"]}}, 2,
         "config error: regressor 'c1' is named more than once"),
        ("fit", {"inferance": {"replications": 199}}, 2, "['inferance']"),
        # one output path for two files would keep only the last one written
        ("report", {"output": {"json": "same.out", "markdown": "same.out"}}, 2,
         "config error: output.markdown same.out is also the JSON report or its timings"),
        ("report", {"output": {"markdown": "report.json.timings.json"}}, 2,
         "output.markdown report.json.timings.json is also the JSON report or its timings"),
        ("report", {"diagnostics": {"variables": ["q", "c1", "q"]}}, 2,
         "config error: diagnostics.variables names 'q' more than once"),
        # a repeated level would print the same confidence set twice
        ("ci", {"inference": {"alphas": [0.05, 0.05, 0.1]}}, 2,
         "config error: inference.alphas names 0.05 more than once"),
    ], ids=["csv", "roles", "replications", "alphas", "regime_count_test", "max_lag", "json",
            "simulate", "lag_var", "period_average_k", "lag_k_string", "lag_k_float",
            "within_vars", "instruments", "regime_varying_string", "controls_string",
            "roles_instruments_string", "instruments_string", "diagnostics_variables_string",
            "within_vars_string", "components_string", "weights_string", "weights_bool",
            "alphas_strings", "alphas_bool", "transforms_string", "transforms_number",
            "transforms_object", "transforms_null", "trim_fraction_string", "trim_fraction_null",
            "diagnostics_variables_one",
            "diagnostics_variables_unknown", "unit_is_time", "regime_varying_twice",
            "controls_twice", "varying_and_control", "top_level_key", "json_is_markdown",
            "markdown_is_sidecar", "diagnostics_variables_twice", "alphas_twice"])
    def test_config_fault_stops_before_any_stage(
        self, panel_csv, tmp_path, capsys, monkeypatch, command, fault, code, message
    ):
        # Misspelled keys, malformed transforms and unknown instruments end
        # the run with a named error before the estimation state is built.
        from panelthresh import cli

        def stage_ran(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(cli, "build_scan", stage_ran)
        monkeypatch.setattr(cli, "monte_carlo", stage_ran)
        path, _ = panel_csv
        if command == "simulate":
            cfg = self._simulate_config(4)
            cfg["simulate"].update(fault["simulate"])
        else:
            cfg = base_config(path)
            for key, value in fault.items():
                if isinstance(value, dict):
                    cfg[key] = {**cfg.get(key, {}), **value}
                else:
                    cfg[key] = value
        cfg_path = self._write_config(tmp_path, cfg)
        assert main(["--config", str(cfg_path), command]) == code
        assert message in capsys.readouterr().err

    def test_negative_seed_flag_stops_before_any_stage(
        self, panel_csv, tmp_path, capsys, monkeypatch
    ):
        from panelthresh import cli

        def stage_ran(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(cli, "build_scan", stage_ran)
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path))
        assert main(["--config", str(cfg_path), "--seed", "-1", "report"]) == 2
        assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_report_notes_a_regime_count_test_without_room(self, tmp_path, rng):
        # 4x10 panel with trim 0.3: every regime keeps at least 12 of the 40
        # observations, so a two-threshold fit leaves no room for a fourth
        # regime and the report carries the skipped 2-vs-3 test's note.
        q = rng.permutation(np.arange(40) + 0.5).reshape(4, 10) / 40
        x = rng.standard_normal((4, 10))
        slope = np.select([q <= 0.33, q <= 0.64], [1.0, 3.0], -1.0)
        y = slope * x + 0.1 * rng.standard_normal((4, 10))
        path = tmp_path / "no_room.csv"
        write_csv(make_panel({"y": y, "q": q, "x": x}), path)
        cfg = base_config(
            path,
            roles={"dependent": "y", "threshold": "q", "regime_varying": ["x"]},
            spec={"num_thresholds": 2, "trim_fraction": 0.3},
            diagnostics={"ips_moment_draws": 200, "max_lag": 1},
        )
        cfg["inference"]["regime_count_test"] = True
        cfg_path = self._write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--output-dir", str(out_dir), "report"]) == 0
        threshold = json.loads((out_dir / "report.json").read_text())["blocks"]["threshold"]
        assert len(threshold["gammas"]) == 2
        assert threshold["regime_count_test"] == {"skipped": "no admissible 3-threshold split"}

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

    def test_non_utf8_csv_exit_three(self, tmp_path, capsys):
        p = tmp_path / "latin1.csv"
        p.write_bytes("unit,time,y,q\na,1,1.0,2.0\nJos\u00e9,1,1.0,2.0\n".encode("latin-1"))
        cfg_path = self._write_config(tmp_path, base_config(p))
        assert main(["--config", str(cfg_path), "fit"]) == 3
        assert f"{p}: not UTF-8 text" in capsys.readouterr().err

    def test_input_directory_exit_three(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, base_config(tmp_path))
        assert main(["--config", str(cfg_path), "fit"]) == 3
        assert f"{tmp_path}: cannot read input" in capsys.readouterr().err

    def test_non_utf8_config_exit_two(self, panel_csv, tmp_path, capsys):
        path, _ = panel_csv
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(base_config(path)), encoding="utf-16")
        assert main(["--config", str(cfg_path), "fit"]) == 2
        assert f"{cfg_path}: not readable as UTF-8 JSON" in capsys.readouterr().err

    def test_config_directory_exit_two(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path), "fit"]) == 2
        assert f"{tmp_path}: not readable as UTF-8 JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("report", "json"), ("report", "markdown"), ("simulate", None),
    ])
    def test_unmakeable_output_path_stops_before_any_stage(
        self, panel_csv, tmp_path, capsys, monkeypatch, command, key
    ):
        # An output path under an existing file ends the run with a config
        # error naming it before any stage runs, not after the bootstrap.
        from panelthresh import cli

        def stage_ran(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(cli, "build_scan", stage_ran)
        monkeypatch.setattr(cli, "monte_carlo", stage_ran)
        path, _ = panel_csv
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        if command == "simulate":
            cfg, out_dir, target = self._simulate_config(4), blocker, blocker / "simulate.json"
        else:
            cfg, out_dir, target = base_config(path), tmp_path, blocker / "r.out"
            cfg["output"][key] = "blocker/r.out"
        cfg_path = self._write_config(tmp_path, cfg)
        assert main(["--config", str(cfg_path), "--output-dir", str(out_dir), command]) == 2
        assert f"output path {target}: cannot make its directory" in capsys.readouterr().err

    def test_estimation_error_exit_four(self, tmp_path, rng):
        # constant threshold variable: degenerate grid
        y = rng.standard_normal((3, 12))
        panel = make_panel({"y": y, "q": np.full((3, 12), 5.0)})
        p = tmp_path / "degenerate.csv"
        write_csv(panel, p)
        cfg_path = self._write_config(tmp_path, base_config(p))
        assert main(["--config", str(cfg_path), "fit"]) == 4

    def test_no_admissible_candidate_exit_four(self, tmp_path, capsys):
        # 6 observations, floor 3, grid {1, 2}: neither candidate leaves 3 above it
        panel = make_panel({"y": [[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]],
                            "q": [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]]})
        p = tmp_path / "tiny.csv"
        write_csv(panel, p)
        cfg_path = self._write_config(tmp_path, base_config(p))
        assert main(["--config", str(cfg_path), "fit"]) == 4
        err = capsys.readouterr().err
        assert "estimation error: no admissible threshold candidate after trimming" in err, err

    def test_report_rejects_data_before_any_bootstrap(self, tmp_path, capsys, monkeypatch):
        # A control constant within one unit fails the unit-root stage; the
        # bootstraps run after it, so no replication is spent on a report
        # that is never written. The estimate itself is fine.
        from dataclasses import replace

        from panelthresh import cli, inference

        def bootstrap_ran(*args, **kwargs):
            raise AssertionError("a bootstrap ran")

        monkeypatch.setattr(cli, "regime_count_on", bootstrap_ran)
        monkeypatch.setattr(inference, "regime_count_on", bootstrap_ran)
        panel, _ = simulate_threshold_panel(
            replace(benchmark_dgp(seed=5), n_units=6, n_periods=30, control_betas=(0.3,)))
        variables = {name: values.copy() for name, values in panel.variables.items()}
        variables["c1"][0] = 1.0
        p = tmp_path / "panel.csv"
        write_csv(make_panel(variables), p)
        cfg = base_config(p)
        cfg["roles"]["invariant_controls"] = ["c1"]
        cfg["inference"].update(replications=199, regime_count_test=True)
        cfg_path = self._write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--output-dir", str(out), "report"]) == 3
        assert "unit 'u1' has a constant series for 'c1'" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert main(["--config", str(cfg_path), "fit"]) == 0

    @pytest.mark.parametrize("command", ["fit", "test", "ci", "diagnose", "report"])
    def test_dependent_without_within_variation_exit_three(self, tmp_path, capsys, command):
        # y is the unit index: the within transform leaves nothing to explain,
        # so every subcommand stops with a data error instead of a zero
        # sigma2_hat, a division by it or an arbitrary threshold.
        panel, _ = simulate_threshold_panel(ThresholdDGP(
            n_units=6, n_periods=30, gamma0=0.5, beta_low=(1.0,), beta_high=(2.0,),
            control_betas=(0.5,), seed=1))
        variables = {**panel.variables, "y": np.repeat(np.arange(6.0)[:, None], 30, axis=1)}
        write_csv(make_panel(variables), tmp_path / "panel.csv")
        cfg_path = self._write_config(tmp_path, base_config(tmp_path / "panel.csv"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--output-dir", str(out), command]) == 3
        err = capsys.readouterr().err
        assert "data error: dependent variable 'y' has no within-unit variation" in err, err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("transform, message", [
        ({"op": "composite_index", "components": ["c2"], "name": "c1"},
         "data error: variable 'c1' already exists"),
        ({"op": "composite_index", "components": [], "name": "idx"},
         "data error: components must not be empty"),
    ], ids=["name_clash", "empty_components"])
    def test_composite_index_fault_exit_three(self, panel_csv, tmp_path, capsys, transform,
                                              message):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path, transforms=[transform]))
        assert main(["--config", str(cfg_path), "fit"]) == 3
        assert message in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "fit"]) == 2

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    @pytest.mark.parametrize("top", [[1, 2], "abc", 5])
    def test_config_not_an_object_exit_two(self, tmp_path, capsys, command, top):
        cfg_path = self._write_config(tmp_path, top)
        assert main(["--config", str(cfg_path), command]) == 2
        err = capsys.readouterr().err
        assert f"top level must be a JSON object, got {type(top).__name__}" in err

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

    @pytest.mark.parametrize("section,key,value,message", [
        ("simulate", "alpha", "abc", "alpha must be a number"),
        ("simulate", "experiment", ["size"], "simulate.experiment must be a string"),
        ("simulate", "trials", 10, "simulate.trials must be an integer >= 50"),
        ("dgp", "n_units", 4.5, "n_units must be an integer"),
        ("dgp", "beta_low", "1", "beta_low must be a list of numbers"),
        ("dgp", "beta_low", [True], "beta_low must be a list of numbers"),
        ("dgp", "control_betas", "5", "control_betas must be a list of numbers"),
        ("dgp", "delta0", "0.3", "delta0 must be a number"),
        ("dgp", "gamma0", "0.5", "gamma0 must be a number"),
        ("dgp", "threshold_in_regressors", "false", "threshold_in_regressors must be true or false"),
        ("dgp", "threshold_dist", 5, "threshold_dist must be a string"),
        ("dgp", "gamma0", math.nan, "gamma0 must be a number, got nan"),
        ("dgp", "noise_sd", math.nan, "noise_sd must be a number, got nan"),
        ("dgp", "noise_sd", math.inf, "noise_sd must be a number, got inf"),
        ("dgp", "beta_low", [-math.inf], "beta_low must be a list of numbers"),
        ("simulate", "alpha", math.nan, "simulate.alpha must be a number, got nan"),
        ("dgp", "threshold_dist", "uniform(1e,2)",
         "threshold_dist must be a distribution of finite numbers"),
        ("dgp", "threshold_dist", "uniform(0,1e400)",
         "threshold_dist must be a distribution of finite numbers"),
        ("dgp", "threshold_dist", "lognormal(800,1)",
         "threshold_dist must be a distribution of finite draws"),
    ])
    def test_simulate_mistyped_field_exit_two(self, tmp_path, capsys, section, key, value, message):
        cfg = self._simulate_config(4)
        (cfg["simulate"] if section == "simulate" else cfg["simulate"]["dgp"])[key] = value
        cfg_path = self._write_config(tmp_path, cfg)
        assert main(["--config", str(cfg_path), "simulate"]) == 2
        assert message in capsys.readouterr().err

    def test_diagnose_without_adf_degrees_of_freedom_exit_three(self, tmp_path, capsys):
        # The 4x10 noise panel of the inference tests under the default
        # max_lag 3: the trend ADF regression has no residual degree of freedom.
        rng = np.random.default_rng(0)
        n, t = 4, 10
        panel = make_panel({
            "y": rng.standard_normal((n, t)),
            "q": rng.uniform(0.0, 1.0, (n, t)),
            "x": rng.standard_normal((n, t)),
        })
        write_csv(panel, tmp_path / "panel.csv")
        cfg = base_config(tmp_path / "panel.csv")
        cfg["roles"]["regime_varying"] = ["x"]
        cfg["spec"] = {"num_thresholds": 2, "trim_fraction": 0.2}
        cfg_path = self._write_config(tmp_path, cfg)
        assert main(["--config", str(cfg_path), "diagnose"]) == 3
        assert "too small for intercept+trend ADF" in capsys.readouterr().err

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
        assert list(sidecar) == ["timings_ms", "peak_rss_mb"]
        # Each stage's peak RSS follows it, in stage order after the clock's
        # start: positive and never falling, or all null without /proc.
        peaks = sidecar["peak_rss_mb"]
        assert list(peaks) == ["start", *sidecar["timings_ms"]]
        values = list(peaks.values())
        if values[0] is None:
            assert set(values) == {None}
        else:
            assert values[0] > 0 and values == sorted(values)

    @pytest.mark.parametrize("output_dir", [False, True])
    def test_report_makes_output_subdirectories(self, panel_csv, tmp_path, monkeypatch,
                                                output_dir):
        # The output paths name subdirectories, made before the files are
        # written, under --output-dir or under the working directory.
        path, _ = panel_csv
        cfg = base_config(path, output={"json": "sub/r.json", "markdown": "sub/deeper/r.md"})
        cfg_path = self._write_config(tmp_path, cfg)
        monkeypatch.chdir(tmp_path)
        flags = ["--output-dir", "out"] if output_dir else []
        assert main(["--config", str(cfg_path), *flags, "report"]) == 0
        root = tmp_path / "out" if output_dir else tmp_path
        assert json.loads((root / "sub" / "r.json").read_text())["blocks"]
        assert (root / "sub" / "deeper" / "r.md").read_text()

    def test_seed_override_changes_report_seed(self, panel_csv, tmp_path):
        path, _ = panel_csv
        cfg_path = self._write_config(tmp_path, base_config(path))
        out_dir = tmp_path / "seeded"
        assert main([
            "--config", str(cfg_path), "--seed", "777", "--output-dir", str(out_dir), "report",
        ]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["seed"] == 777


# Every key of README's example config and of the ``simulate`` section, with
# the Python type of the JSON values it takes.
_CONFIG_KEY_TYPES = {
    "input_path": str, "csv.unit": str, "csv.time": str, "roles.dependent": str,
    "roles.threshold": str, "roles.regime_varying": list, "roles.invariant_controls": list,
    "roles.instruments": list, "spec.num_thresholds": int, "spec.trim_fraction": float,
    "spec.max_grid_points": int, "spec.dynamic_lag": bool, "inference.replications": int,
    "inference.alphas": list, "inference.seed": int, "transforms": list, "estimator": str,
    "diagnostics.max_lag": int, "diagnostics.ips_moment_draws": int, "output.json": str,
    "output.markdown": str, "simulate.experiment": str, "simulate.trials": int,
    "simulate.dgp": dict, "simulate.master_seed": int, "simulate.alpha": float,
    "simulate.replications": int,
}


@settings(max_examples=300, deadline=None, database=None)
@given(key=st.sampled_from(sorted(_CONFIG_KEY_TYPES)),
       value=st.sampled_from(["x", 1.5, True, None, [], {}]))
def test_wrong_typed_config_value_names_its_key(panel_csv, tmp_path_factory, key, value):
    # Whatever the key and the wrong type, the run stops with exit 2 and a
    # message naming the key, never the catch-all "malformed config".
    assume(type(value) is not _CONFIG_KEY_TYPES[key])
    *section, leaf = key.split(".")
    if section == ["simulate"]:
        command, cfg = "simulate", TestMainExitCodes._simulate_config(4)
    else:
        command, cfg = "fit", base_config(panel_csv[0])
    (cfg[section[0]] if section else cfg)[leaf] = value
    cfg_path = tmp_path_factory.getbasetemp() / "wrong_type_config.json"
    cfg_path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg_path), command])
    assert code == 2, err.getvalue()
    assert leaf in err.getvalue() and "malformed config" not in err.getvalue()


# parse_config's keys besides simulate's, whole sections included, with
# every field of a transform entry; ``transforms.F`` puts the value at field
# F of an entry that carries the other fields F's op needs.
_PARSE_KEYS = sorted({key for key in _CONFIG_KEY_TYPES if not key.startswith("simulate.")} | {
    "csv", "roles", "spec", "inference", "diagnostics", "output", "instruments",
    "spec.include_intercept_shift", "inference.regime_count_test", "diagnostics.variables",
    "transforms.op", "transforms.var", "transforms.k", "transforms.vars",
    "transforms.components", "transforms.name", "transforms.weights",
})
_TRANSFORM_BASES = {
    "op": {"var": "y"}, "var": {"op": "lag"}, "k": {"op": "lag", "var": "y"},
    "vars": {"op": "within"}, "components": {"op": "composite_index", "name": "idx"},
    "name": {"op": "composite_index", "components": ["q"]},
    "weights": {"op": "composite_index", "components": ["q"], "name": "idx"},
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([math.nan, math.inf, -math.inf, 10**30, -(2**70)])
    | st.sampled_from(["y", "q", "lag", "within", "OLS"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5,
)


@settings(max_examples=500, deadline=None, database=None)
@given(key=st.sampled_from(_PARSE_KEYS), value=_JSON_VALUES)
def test_parse_config_raises_only_config_errors(panel_csv, key, value):
    # Any JSON value at any key either parses or is a ConfigError that says
    # what is wrong: no other exception and no catch-all message.
    cfg = base_config(panel_csv[0])
    section, _, leaf = key.rpartition(".")
    if section == "transforms":
        cfg["transforms"] = [{**_TRANSFORM_BASES[leaf], leaf: value}]
    elif section:
        cfg[section] = {**cfg.get(section, {}), leaf: value}
    else:
        cfg[leaf] = value
    try:
        parse_config(cfg)
    except ConfigError as exc:
        assert "malformed config" not in str(exc)


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

        monkeypatch.setattr(threshold.SSRScan, "profile", estimator_ran)
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


class TestOneEstimationSample:
    """Confidence sets and the regime regression read the run's workspace:
    one workspace, and one lagged panel, per run."""

    def test_ci_reevaluates_on_the_run_workspace(self, three_threshold_config, tmp_path,
                                                 monkeypatch):
        from panelthresh import threshold

        cfg = json.loads(three_threshold_config.read_text())
        cfg["spec"]["num_thresholds"] = 2
        cfg_path = tmp_path / "two.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["--config", str(cfg_path), "ci"]
        plain = _main_stdout(argv)
        built, screened, reevaluated = [], [], []
        init, profile = threshold._Workspace.__init__, threshold.SSRScan.profile
        exact = threshold._ssr_ws

        def counted(self, *args):
            built.append(1)
            init(self, *args)

        def inflated(self, *args):
            # Every screened entry's side of c(alpha) is left in doubt.
            entries, slacks = profile(self, *args)
            screened.extend(s for s in slacks if s > 0)
            # the CI stage runs after the last profile: count its re-evaluations only
            reevaluated.clear()
            return entries, tuple(math.inf if s > 0 else 0.0 for s in slacks)

        monkeypatch.setattr(threshold._Workspace, "__init__", counted)
        monkeypatch.setattr(threshold.SSRScan, "profile", inflated)
        monkeypatch.setattr(threshold, "_ssr_ws",
                            lambda ws, *args: reevaluated.append(ws) or exact(ws, *args))
        assert _main_stdout(argv) == plain
        assert len(built) == 1
        assert len(reevaluated) == len(screened) > 0

    def test_dynamic_lag_report_lags_once(self, panel_csv, monkeypatch):
        from panelthresh import threshold

        path, _ = panel_csv
        cfg = base_config(path)
        cfg["spec"]["dynamic_lag"] = True
        cfg["inference"]["alphas"] = [0.05, 0.1]
        lagged = []
        make_lag = threshold.make_lag
        monkeypatch.setattr(threshold, "make_lag", lambda panel, var, k: (
            lagged.append((var, k)) or make_lag(panel, var, k)))
        report, _, _ = run_pipeline(parse_config(cfg))
        assert lagged == [("y", 1)]
        assert len(report["blocks"]["threshold"]["confidence_sets"]) == 2
        assert "y (-1)" in report["blocks"]["regression"]["coefficients"]


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs most of a second to import; the package needs no
    # scipy at all.
    import panelthresh

    src = str(Path(panelthresh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import panelthresh.cli, sys; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def test_fit_test_and_ci_load_no_scipy(stage_config, tmp_path):
    # The least-squares kernel is numpy only and every normal or chi-square
    # tail comes from math, so every subcommand runs with scipy unimportable,
    # simulate's endogenous uniform threshold draws (endogeneity_rho != 0)
    # included: a meta-path finder placed first refuses scipy and scipy.*.
    import panelthresh

    src = str(Path(panelthresh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    sim_configs = []
    for rho in (0.0, 0.5):
        sim_configs.append(tmp_path / f"simulate{rho}.json")
        sim_configs[-1].write_text(json.dumps({"simulate": {
            "experiment": "recovery", "trials": 50, "master_seed": 1,
            "dgp": {"n_units": 4, "n_periods": 20, "gamma0": 0.5, "beta_low": [0.2],
                    "beta_high": [0.7], "endogeneity_rho": rho},
        }}))
    code = (
        "import contextlib, io, sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError('blocked scipy')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "from panelthresh.cli import main\n"
        "def scipy_subpackages():\n"
        "    return sorted(m[6:] for m, mod in sys.modules.items() if m.startswith('scipy.')\n"
        "                  and m.count('.') == 1 and hasattr(mod, '__path__') and m[6] != '_')\n"
        "runs = [(c, sys.argv[1], []) for c in ('fit', 'test', 'ci', 'diagnose')]\n"
        "runs += [('report', sys.argv[1], ['--output-dir', sys.argv[2]]),\n"
        "         ('simulate', sys.argv[3], []), ('simulate', sys.argv[4], [])]\n"
        "for command, config, extra in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['--config', config, *extra, command]) == 0\n"
        "    print(command, 'scipy' in sys.modules, scipy_subpackages())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(stage_config), str(tmp_path), *map(str, sim_configs)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip().splitlines() == [
        "fit False []", "test False []", "ci False []", "diagnose False []",
        "report False []", "simulate False []", "simulate False []",
    ]


def test_degenerate_replications_reported(tmp_path):
    # The 4x10, trim-0.2 noise panel of the inference tests: many 2-vs-3
    # replications leave no room for a third threshold and score F* = 0.
    # Both test blocks carry that count, and the report's bytes do not
    # depend on the thread count.
    from panelthresh import ThresholdSpec, VariableRole, additional_threshold_test, linearity_test

    rng = np.random.default_rng(0)
    n, t = 4, 10
    panel = make_panel({
        "y": rng.standard_normal((n, t)),
        "q": rng.uniform(0.0, 1.0, (n, t)),
        "x": rng.standard_normal((n, t)),
    })
    write_csv(panel, tmp_path / "panel.csv")
    cfg = base_config(tmp_path / "panel.csv")
    cfg["roles"]["regime_varying"] = ["x"]
    cfg["spec"] = {"num_thresholds": 2, "trim_fraction": 0.2}
    cfg["inference"] = {"replications": 99, "seed": 1}
    # At T = 10 the default max_lag 3 leaves the trend ADF regression no
    # residual degrees of freedom.
    cfg["diagnostics"] = {"ips_moment_draws": 200, "max_lag": 1}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    spec = ThresholdSpec(VariableRole("y", "q", ["x"]), num_thresholds=2, trim_fraction=0.2)
    extra = additional_threshold_test(panel, spec, k_null=2, B=99, seed=1)
    lin = linearity_test(panel, spec, B=99, seed=1)
    assert extra.degenerate_replications > 0

    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        _main_stdout(["--config", str(cfg_path), "--threads", threads, "--output-dir", str(out),
                      "report"])
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    th = json.loads(reports[0])["blocks"]["threshold"]
    assert th["regime_count_test"]["degenerate_replications"] == extra.degenerate_replications
    assert th["linearity"]["degenerate_replications"] == lin.degenerate_replications


def test_2sls_report_end_to_end(tmp_path):
    # An endogenous threshold variable with the two valid instruments the
    # DGP emits: the report runs 2SLS with instruments interacted by regime
    # (4 excluded, 2 endogenous, so Sargan df 2), and its bytes do not
    # depend on the thread count.
    from panelthresh import ThresholdDGP

    panel, _ = simulate_threshold_panel(ThresholdDGP(
        n_units=8, n_periods=30, gamma0=0.5, beta_low=(1.0,), beta_high=(2.0,),
        endogeneity_rho=0.3, seed=4,
    ))
    write_csv(panel, tmp_path / "panel.csv")
    cfg = base_config(tmp_path / "panel.csv", estimator="2SLS")
    cfg["roles"]["instruments"] = ["z1", "z2"]
    cfg["diagnostics"] = {"ips_moment_draws": 200, "variables": ["y", "q"]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        _main_stdout(["--config", str(cfg_path), "--threads", threads, "--output-dir", str(out),
                      "report"])
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    regression = json.loads(reports[0])["blocks"]["regression"]
    assert regression["estimator"] == "2SLS"
    assert regression["sargan"]["df"] == 2
