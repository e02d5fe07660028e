"""Benchmark of the panelthresh command line, end to end and layer by layer.

    python3 perfbench/run.py --workload report-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

For one workload and seed it simulates the panel, writes it as CSV with a
JSON run config, and recomputes the output oracle (outside every timing).
Then, with ``--trace 0``, it:

- times the set-up a user pays before the first estimate (a fresh
  interpreter importing ``panelthresh.cli`` and loading the config and the
  CSV) ``SETUP_RUNS`` times;
- runs the CLI in a fresh child interpreter, one child at a time, until
  ``--seconds`` have passed, and reports the medians of wall time, CPU time
  and peak RSS per child;
- checks every output against the oracle and against the first run's
  bytes, and, when the workload uses more than one thread, against one run
  at ``--threads 1``.

With ``--trace 1`` it makes ``BASELINE_RUNS`` untraced runs, whose median
wall time is the baseline for the tracing overhead, and then repeats the traced run (``traced.py``) until ``--seconds`` have passed,
reporting the median of each per-layer metric.

Metric names and units come from ``BENCHMARK.json``. Inputs, outputs, the
environment record and the spans go to ``.perfbench_out/<workload>/``. The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

from common import BLAS_PIN, OUT, ROOT, Child, nproc, require_src, spawn

require_src()

from checks import check_output, compute_oracle  # noqa: E402
from tracing import layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

from panelthresh.cli import parse_config  # noqa: E402

SETUP_RUNS = 5
BASELINE_RUNS = 3
RUN_BUDGET_S = 170.0
TRACED_SCRIPT = Path(__file__).resolve().parent / "traced.py"

SETUP_SNIPPET = (
    "import sys\n"
    "import panelthresh.cli as cli\n"
    "config = cli.load_config(sys.argv[1])\n"
    "panel = cli.ingest_csv(config.input_path, config.unit_col, config.time_col)\n"
    "config.roles.validate(cli.apply_transforms(panel, config.transforms))\n"
)


class Run:
    """Every child process of one workload run, with the problems found."""

    def __init__(self, workload, seed: int, threads: int, run_dir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.threads = threads
        self.run_dir = run_dir
        self.deadline = deadline
        self.children: list[tuple[str, Child, list[str]]] = []
        self.first_output: bytes | None = None

    @property
    def failed(self) -> int:
        return sum(1 for _, _, problems in self.children if problems)

    def spawn(self, tag: str, argv: list[str]) -> Child:
        timeout = self.deadline - time.monotonic()
        return spawn(argv, self.run_dir, self.run_dir / f"{tag}.stdout", timeout)

    def record(self, tag: str, child: Child, problems: list[str]) -> None:
        self.children.append((tag, child, problems))
        for p in problems:
            print(f"perfbench: {self.workload.name} {tag}: {p}", file=sys.stderr)

    def setup(self, config_path: Path) -> Child:
        tag = f"setup{len(self.children)}"
        child = self.spawn(tag, [sys.executable, "-c", SETUP_SNIPPET, config_path.name])
        self.record(tag, child, [] if child.returncode == 0 else [f"exit code {child.returncode}"])
        return child

    def cli(self, tag: str, threads: int, oracle, num_thresholds: int) -> Child:
        command = self.workload.command
        child = self.spawn(tag, [
            sys.executable, "-m", "panelthresh.cli", "--config", "config.json",
            "--threads", str(threads), "--output-dir", tag, command,
        ])
        path = self.output_path(tag)
        output = path.read_bytes() if path.exists() else b""
        problems = check_output(command, child.returncode, output, oracle, num_thresholds)
        if not problems:
            if self.first_output is None:
                self.first_output = output
            elif output != self.first_output:
                problems.append("output differs from the first run's bytes")
        self.record(tag, child, problems)
        return child

    def output_path(self, tag: str) -> Path:
        """The run's deterministic output: the report JSON, or ``test``'s stdout."""
        if self.workload.command == "report":
            return self.run_dir / tag / "report.json"
        return self.run_dir / f"{tag}.stdout"


def repeat_for(seconds: float, deadline: float, fn) -> list:
    """Call ``fn`` until ``seconds`` have passed (at least once)."""
    out = []
    start = time.monotonic()
    while not out or (time.monotonic() - start < seconds and time.monotonic() < deadline):
        out.append(fn(len(out)))
    return out


def environment(run: Run) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_pin": BLAS_PIN,
        "threads": run.threads,
        "workload": run.workload.name,
        "seed": run.seed,
        "default_seeds": {name: w.default_seed for name, w in WORKLOADS.items()},
        "platform": platform.platform(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, threads: int,
                 units: dict[str, str]) -> dict:
    run_dir = OUT / workload.name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(workload, seed, threads, run_dir, time.monotonic() + RUN_BUDGET_S)

    panel, config, config_path = write_inputs(workload, seed, run_dir)
    spec = parse_config(config).build_spec()
    oracle = compute_oracle(panel, spec)

    def cli(tag: str, n_threads: int) -> Child:
        return run.cli(tag, n_threads, oracle, spec.num_thresholds)

    samples: dict[str, list[float]] = {}
    if not trace:
        setups = [run.setup(config_path) for _ in range(SETUP_RUNS)]
        timed = repeat_for(seconds, run.deadline, lambda i: cli(f"inv{i}", threads))
        samples = {
            "wall_s": [c.wall_s for c in timed],
            "cpu_s": [c.cpu_s for c in timed],
            "peak_rss_mb": [c.peak_rss_mb for c in timed],
            "setup_s": [c.wall_s for c in setups],
        }
    else:
        baseline_wall_s = statistics.median(
            cli(f"inv{i}", threads).wall_s for i in range(BASELINE_RUNS))

        def traced(i: int) -> dict | None:
            tag = f"traced{i}"
            raw = run_dir / f"{tag}.json"
            child = run.spawn(tag, [
                sys.executable, str(TRACED_SCRIPT), "--config", "config.json",
                "--command", workload.command, "--threads", str(threads),
                "--reference", str(run.output_path("inv0")), "--out", raw.name,
            ])
            if child.returncode != 0:
                run.record(tag, child, [f"exit code {child.returncode}"])
                return None
            run.record(tag, child, [])
            doc = json.loads(raw.read_text(encoding="utf-8"))
            own = self_times(doc["spans"])
            for span in doc["spans"]:
                span["self_s"] = own[span["id"]]
            raw.write_text(json.dumps(doc, indent=1), encoding="utf-8")
            return layer_metrics(doc, child.spawned_at, baseline_wall_s,
                                 config["inference"]["replications"])

        for found in repeat_for(seconds, run.deadline, traced):
            for name, value in (found or {}).items():
                samples.setdefault(name, []).append(value)

    if threads > 1:
        # Results must not depend on the thread budget: compare byte for byte.
        cli("threads1", 1)

    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in units.items() if name in samples
    }
    missing = sorted(set(units) - set(metrics))
    result = {
        "correct": run.failed == 0 and not missing,
        "attempted": len(run.children),
        "failed": run.failed,
        "metrics": metrics,
    }
    (run_dir / "env.json").write_text(json.dumps(environment(run), indent=2) + "\n", encoding="utf-8")
    (run_dir / "result.json").write_text(json.dumps({
        **result,
        "samples": samples,
        "children": [
            {"tag": tag, "returncode": c.returncode, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
             "peak_rss_mb": c.peak_rss_mb, "problems": problems}
            for tag, c, problems in run.children
        ],
        "oracle": {"gamma": oracle.gamma, "f_statistic": oracle.f_statistic},
    }, indent=2) + "\n", encoding="utf-8")

    print(f"{workload.name} seed {seed} threads {threads} trace {int(trace)} -> {run_dir}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6f} {m['unit']:6s} median of {len(samples[name])}")
    if missing:
        print(f"  missing metrics: {', '.join(missing)}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':34s} {frac:14.6f} {'1':6s} {result['failed']} of {result['attempted']} runs")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed for the panel and the bootstrap (default: per workload)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="CLI --threads (default: the workload's, capped at nproc)")
    args = parser.parse_args()
    if args.threads is not None and not 1 <= args.threads <= nproc():
        parser.error(f"--threads must be between 1 and nproc ({nproc()}), got {args.threads}")
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be nonnegative, got {args.seed}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        w = WORKLOADS[name]
        threads = args.threads or min(w.threads, nproc())
        seed = w.default_seed if args.seed is None else args.seed
        results[name] = run_workload(w, seed, seconds, bool(args.trace), threads, units)

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
