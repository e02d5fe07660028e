"""Tests of the benchmark's output oracle and span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

from common import require_src

require_src()

from checks import F_RTOL, compute_oracle, check_output  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402

from panelthresh import benchmark_dgp, simulate_threshold_panel  # noqa: E402
from panelthresh.cli import dumps_report, parse_config, run_pipeline, write_csv  # noqa: E402


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A real report on the 8x36 benchmark panel, with its oracle."""
    tmp = tmp_path_factory.mktemp("small")
    panel, _ = simulate_threshold_panel(benchmark_dgp(contrast=0.5, seed=5))
    write_csv(panel, tmp / "panel.csv")
    config = parse_config({
        "input_path": str(tmp / "panel.csv"),
        "roles": {"dependent": "y", "threshold": "q", "regime_varying": ["q"]},
        "spec": {"num_thresholds": 1},
        "inference": {"replications": 99, "seed": 5, "regime_count_test": False},
        "diagnostics": {"ips_moment_draws": 200},
    })
    report, _, _ = run_pipeline(config)
    return json.loads(dumps_report(report)), compute_oracle(panel, config.build_spec())


def _bytes(report) -> bytes:
    return dumps_report(report).encode()


def test_oracle_accepts_the_real_report(small_run):
    report, oracle = small_run
    assert check_output("report", 0, _bytes(report), oracle, 1) == []
    assert report["blocks"]["threshold"]["gammas"][0] == oracle.gamma


def test_oracle_rejects_a_perturbed_gamma(small_run):
    report, oracle = small_run
    perturbed = oracle.gamma * (1 + 1e-12)
    report = json.loads(json.dumps(report))
    report["blocks"]["threshold"]["gammas"][0] = perturbed
    problems = check_output("report", 0, _bytes(report), oracle, 1)
    assert any("oracle argmin" in p for p in problems)


@pytest.mark.parametrize("command", ["report", "test"])
def test_oracle_rejects_a_perturbed_f(small_run, command):
    report, oracle = small_run
    f = report["blocks"]["threshold"]["linearity"]["f_statistic"]
    for scale, ok in ((1 + F_RTOL / 10, True), (1 + F_RTOL * 10, False)):
        bad = json.loads(json.dumps(report))
        bad["blocks"]["threshold"]["linearity"]["f_statistic"] = f * scale
        output = _bytes(bad if command == "report" else bad["blocks"]["threshold"])
        assert (check_output(command, 0, output, oracle, 1) == []) is ok


def test_oracle_rejects_a_nonzero_exit(small_run):
    report, oracle = small_run
    assert check_output("report", 4, _bytes(report), oracle, 1) == ["exit code 4"]
    assert check_output("test", 1, b"", oracle, 1) == ["exit code 1"]


def test_oracle_rejects_a_report_off_schema(small_run):
    report, oracle = small_run
    bad = {k: v for k, v in report.items() if k != "blocks"}
    assert any("REPORT_SCHEMA" in p for p in check_output("report", 0, _bytes(bad), oracle, 1))


def _span(sid, name, parent, start, end, **attrs):
    return {"id": sid, "name": name, "parent": parent, "run": "r",
            "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_children():
    tracer = Tracer("r")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    own = self_times(tracer.spans)
    assert own[outer["id"]] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))
    assert own[inner["id"]] == inner["end"] - inner["start"]


def test_layer_metrics_split_fixed_and_per_replication_cost():
    B = 100
    spans = [
        _span(0, "run", None, 0.0, 100.0),
        _span(1, "primary", 0, 1.0, 20.0),
        _span(2, "cli.ingest", 1, 1.0, 1.5),
        _span(3, "threshold.estimate", 1, 1.5, 2.5),
        _span(4, "inference.linearity", 1, 2.5, 5.5, reps=B),          # 1 s fixed + 2 s
        _span(5, "inference.regime_count", 1, 5.5, 9.5, reps=B),       # 0 s fixed + 4 s
        _span(6, "inference.ci", 1, 9.5, 9.75),
        _span(7, "diagnostics.unit_roots", 1, 10.0, 16.0),
        _span(8, "diagnostics.ips_test", 7, 10.0, 13.0, deterministic="a", cold=True, repeat=False),
        _span(9, "diagnostics.ips_test", 7, 13.0, 16.0, deterministic="b", cold=True, repeat=False),
        _span(10, "regression.regime_eq", 1, 16.0, 16.5),
        _span(11, "cli.render", 1, 16.5, 20.0),
        _span(12, "extra", 0, 20.0, 40.0),
        _span(13, "inference.linearity", 12, 20.0, 25.0, reps=2 * B),
        _span(14, "inference.regime_count", 12, 25.0, 33.0, reps=2 * B),
        _span(15, "diagnostics.ips_test", 12, 33.0, 33.5, deterministic="a", cold=False, repeat=True),
        _span(16, "diagnostics.ips_test", 12, 33.5, 34.0, deterministic="b", cold=False, repeat=True),
        _span(17, "memory", 0, 40.0, 50.0),
        _span(18, "threshold.estimate", 17, 40.0, 41.0, peak_mb=3.0),
        _span(19, "inference.linearity", 17, 41.0, 44.0, peak_mb=5.0),
        _span(20, "inference.regime_count", 17, 44.0, 48.0, peak_mb=7.0),
    ]
    counts = {"threshold.grid_points": 50, "threshold.distinct_q": 200, "threshold.candidates": 50}
    m = layer_metrics({"spans": spans, "counts": counts}, spawned_at=0.0,
                      baseline_wall_s=19.0, replications=B)
    assert m["inference.linearity_s"] == pytest.approx(3.0)
    assert m["inference.linearity_per_rep_ms"] == pytest.approx(20.0)
    assert m["inference.linearity_fixed_s"] == pytest.approx(1.0)
    assert m["inference.regime_count_fixed_s"] == pytest.approx(0.0)
    assert m["inference.regime_count_peak_mb"] == 7.0
    assert m["threshold.per_candidate_ms"] == pytest.approx(20.0)
    assert m["threshold.grid_coverage"] == pytest.approx(0.25)
    assert m["diagnostics.ips_moments_s"] == pytest.approx(5.0)
    assert m["diagnostics.ips_units_s"] == pytest.approx(1.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
