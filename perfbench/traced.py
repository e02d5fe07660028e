"""Traced run: the stages of ``run_pipeline``, called one by one with spans.

Run by ``run.py`` in a fresh interpreter, so the IPS moment cache starts
cold as it does for a real CLI run:

    python3 perfbench/traced.py --config config.json --command report \
        --threads 1 --reference inv0/report.json --out trace-raw.json

``--reference`` is the output of an untraced run of the same config (the
report JSON, or the ``test`` subcommand's stdout); the render stage renders
it again. Spans are written to ``--out`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import tracemalloc
import uuid
from pathlib import Path

from tracing import Tracer

# Stages of each CLI subcommand, as named in ``run_pipeline``'s order.
PIPELINE = (
    "cli.ingest", "cli.transforms", "threshold.estimate", "inference.linearity",
    "inference.regime_count", "inference.ci", "diagnostics.descriptives",
    "diagnostics.correlation", "diagnostics.unit_roots", "regression.regime_eq",
    "cli.render",
)
COMMAND_STAGES = {
    "report": PIPELINE,
    "test": ("cli.ingest", "cli.transforms", "inference.linearity",
             "inference.regime_count", "cli.render"),
}
MEMORY_STAGES = ("threshold.estimate", "inference.linearity", "inference.regime_count")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--command", required=True, choices=sorted(COMMAND_STAGES))
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = Tracer(uuid.uuid4().hex)
    with tracer.span("run"):
        with tracer.span("startup"):
            import panelthresh as pt
            from panelthresh import cli
            from panelthresh.diagnostics import DETERMINISTIC_CHOICES

            config = cli.load_config(args.config)
            reference = json.loads(Path(args.reference).read_bytes())
        spec = config.build_spec()
        B = config.replications
        state: dict = {}

        def ingest():
            state["panel"] = cli.ingest_csv(config.input_path, config.unit_col, config.time_col)

        def transforms():
            state["panel"] = cli.apply_transforms(state["panel"], config.transforms)
            config.roles.validate(state["panel"])

        def estimate():
            panel = state["panel"]
            if spec.num_thresholds == 1:
                state["fit"] = pt.estimate_single(panel, spec)
            else:
                state["fit"] = pt.estimate_multiple(panel, spec)

        def linearity(reps):
            pt.linearity_test(state["panel"], spec, B=reps, seed=config.seed, threads=args.threads)

        def regime_count(reps):
            # Mirrors run_pipeline: the stage is a no-op when the config
            # switches the test off, and a skipped test is not an error.
            if config.regime_count_test:
                try:
                    pt.additional_threshold_test(
                        state["panel"], spec, k_null=spec.num_thresholds,
                        B=reps, seed=config.seed, threads=args.threads,
                    )
                except pt.EstimationError:
                    pass

        def ci():
            fit = state["fit"]
            for j in range(len(fit.gammas)):
                for alpha in config.alphas:
                    pt.threshold_ci(state["panel"], spec, fit, alpha, threshold_index=j)

        def ips(var, det):
            pt.ips_test(state["panel"], var, deterministic=det, max_lag=config.ips_max_lag,
                        moment_draws=config.ips_moment_draws)

        def unit_roots():
            for det in DETERMINISTIC_CHOICES:
                for k, var in enumerate(config.diagnostics_vars):
                    with tracer.span("diagnostics.ips_test", var=var, deterministic=det,
                                     cold=k == 0, repeat=False):
                        ips(var, det)

        def render():
            if args.command == "report":
                cli.render_markdown(reference)
            cli.dumps_report(reference)

        stage_fns = {
            "cli.ingest": ingest,
            "cli.transforms": transforms,
            "threshold.estimate": estimate,
            "inference.linearity": lambda: linearity(B),
            "inference.regime_count": lambda: regime_count(B),
            "inference.ci": ci,
            "diagnostics.descriptives": lambda: pt.regime_descriptives(
                state["panel"], config.roles.threshold, state["fit"].gammas[0]),
            "diagnostics.correlation": lambda: pt.correlation_matrix(
                state["panel"], config.diagnostics_vars),
            "diagnostics.unit_roots": unit_roots,
            "regression.regime_eq": lambda: pt.estimate_regime_equation(
                state["panel"], spec, state["fit"], estimator=config.estimator,
                instruments=config.instruments or None),
            "cli.render": render,
        }

        def run_stage(name):
            attrs = {"reps": B} if name in ("inference.linearity", "inference.regime_count") else {}
            with tracer.span(name, **attrs):
                stage_fns[name]()

        primary = COMMAND_STAGES[args.command]
        with tracer.span("primary"):
            for name in primary:
                run_stage(name)
        with tracer.span("extra"):
            for name in PIPELINE:
                if name not in primary:
                    run_stage(name)
            with tracer.span("inference.linearity", reps=2 * B):
                linearity(2 * B)
            with tracer.span("inference.regime_count", reps=2 * B):
                regime_count(2 * B)
            first_var = config.diagnostics_vars[0]
            for det in DETERMINISTIC_CHOICES:
                with tracer.span("diagnostics.ips_test", var=first_var, deterministic=det,
                                 cold=False, repeat=True):
                    ips(first_var, det)

        q = state["panel"].values(config.roles.threshold)
        grid_points = pt.candidate_grid(q, spec.trim_fraction, spec.max_grid_points).size
        scans = 1 if spec.num_thresholds == 1 else 2 * spec.num_thresholds + 1
        tracer.counts.update({
            "threshold.grid_points": grid_points,
            "threshold.distinct_q": pt.candidate_grid(q, spec.trim_fraction, q.size).size,
            "threshold.candidates": grid_points * scans,
        })

        with tracer.span("memory"):
            tracemalloc.start()
            try:
                for name in MEMORY_STAGES:
                    tracemalloc.reset_peak()
                    base, _ = tracemalloc.get_traced_memory()
                    with tracer.span(name) as record:
                        stage_fns[name]()
                    _, peak = tracemalloc.get_traced_memory()
                    record["attrs"]["peak_mb"] = (peak - base) / 2**20
            finally:
                tracemalloc.stop()

    Path(args.out).write_text(json.dumps(tracer.document()), encoding="utf-8")


if __name__ == "__main__":
    main()
