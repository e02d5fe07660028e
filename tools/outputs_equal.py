"""Byte-compare every CLI output of two checkouts on the benchmark's workload inputs.

    python3 tools/outputs_equal.py PARENT CHANGE [--run WORKLOAD:SEED ...] [--threads N ...]

For each ``--run`` (default: report-large at seeds 3 and 7, test-mid at
seeds 2 and 11) it writes the workload's ``panel.csv`` and ``config.json``
once, with PARENT's ``perfbench/workloads.write_inputs``. Then it runs
``report``, ``test``, ``fit``, ``ci`` and ``diagnose`` from each checkout at
each ``--threads`` value (default 1 and 2), one fresh interpreter at a time
on the checkout's own ``src``, BLAS pinned to one thread. It compares
``report.json`` and ``report.md`` of ``report`` and the standard output of
the other commands; the report's timings sidecar is not reproducible and
is left out. Then, at each ``--threads`` value, it runs ``simulate`` from
each checkout with the ``recovery`` and the ``size`` experiment on
PARENT's ``benchmark_dgp()`` (8x36, 50 trials, B = 99, master seed 0) and
compares the standard output. It runs ``test`` on test-mid seed 2 with
``inference.replications`` set to 999, whose critical values read other
order statistics than B = 99's, and ``ci`` on report-large seed 3 with
``inference.alphas`` set to [0.10, 0.05, 0.01], three cut points of the
LR profile where the workloads use one, and compares their standard
output. One line per output gives its sha256 and
whether the two checkouts wrote the same bytes. The exit code is 1 when
any output differs or any run fails, else 0. ``compare`` is the check for
one workload and seed; ``tools/bench_pairs.py`` imports it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMANDS = ("report", "test", "fit", "ci", "diagnose")
DEFAULT_RUNS = ("report-large:3", "report-large:7", "test-mid:2", "test-mid:11")
WIDE_B = 999
CI_ALPHAS = [0.10, 0.05, 0.01]
WRITE_INPUTS = ("import sys; from pathlib import Path; from workloads import WORKLOADS, "
                "write_inputs; write_inputs(WORKLOADS[sys.argv[1]], int(sys.argv[2]), "
                "Path(sys.argv[3]))")
WRITE_SIMULATE = ("import dataclasses, json, sys; from panelthresh import benchmark_dgp; "
                  "json.dump({'simulate': {'experiment': sys.argv[1], 'trials': 50, "
                  "'replications': 99, 'master_seed': 0, "
                  "'dgp': dataclasses.asdict(benchmark_dgp())}}, sys.stdout)")


def _same(label: str, parent: bytes, change: bytes) -> bool:
    """Print one output's verdict line; whether the two sides wrote the same bytes."""
    same = change == parent
    digests = hashlib.sha256(parent).hexdigest()[:16]
    if not same:
        digests += " != " + hashlib.sha256(change).hexdigest()[:16]
    print(f"{label}: {'equal' if same else 'DIFFERENT'} {digests}", flush=True)
    return same


def _run(argv: list[str], cwd: Path, pythonpath: list[Path]) -> subprocess.CompletedProcess:
    env = dict(os.environ, **BLAS_PIN, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True)


def _outputs(side: str, checkout: Path, run_dir: Path, command: str,
             threads: int) -> dict[str, bytes]:
    """One CLI run's deterministic outputs, by name; exits on a failed run."""
    out_dir = run_dir / side / f"threads{threads}-{command}"
    argv = [sys.executable, "-m", "panelthresh.cli", "--config", "config.json",
            "--threads", str(threads), "--output-dir", str(out_dir), command]
    proc = _run(argv, run_dir, [checkout / "src"])
    if proc.returncode != 0:
        sys.exit(f"outputs_equal: {command} from {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr.decode(errors='replace')}")
    if command == "report":
        return {name: (out_dir / name).read_bytes() for name in ("report.json", "report.md")}
    return {"stdout": proc.stdout}


def _write_inputs(sides: dict[str, Path], workload: str, seed: int, run_dir: Path) -> None:
    """Write one workload and seed's ``panel.csv`` and ``config.json`` with
    PARENT's ``write_inputs``; exits on failure."""
    proc = _run([sys.executable, "-c", WRITE_INPUTS, workload, str(seed), str(run_dir)],
                run_dir, [sides["parent"] / "perfbench", sides["parent"] / "src"])
    if proc.returncode != 0:
        sys.exit(f"outputs_equal: writing {workload} seed {seed} inputs failed:\n"
                 f"{proc.stderr.decode(errors='replace')}")


def compare(sides: dict[str, Path], workload: str, seed: int, threads: tuple[int, ...] = (1, 2),
            commands: tuple[str, ...] = COMMANDS, inference: dict | None = None) -> int:
    """Print one line per output of ``commands`` on one workload and seed;
    return how many differ.

    ``sides`` maps ``parent`` and ``change`` to their checkouts; exits on a
    failed run. Each ``inference`` entry, when given, is set in the config's
    ``inference`` section first and named in the output labels.
    """
    differ = 0
    edits = "".join(f" {key}={value}" for key, value in (inference or {}).items())
    with tempfile.TemporaryDirectory(prefix="outputs_equal-") as tmp:
        run_dir = Path(tmp)
        _write_inputs(sides, workload, seed, run_dir)
        if inference:
            config = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
            config["inference"].update(inference)
            (run_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        for n in threads:
            for command in commands:
                parent, change = (_outputs(side, checkout, run_dir, command, n)
                                  for side, checkout in sides.items())
                for name, data in parent.items():
                    differ += not _same(f"{workload} seed {seed}{edits} --threads {n} {command} "
                                        f"{name}", data, change[name])
    return differ


def compare_simulate(sides: dict[str, Path], threads: tuple[int, ...] = (1, 2)) -> int:
    """Print one line per ``simulate`` experiment and thread count; return how many differ."""
    differ = 0
    with tempfile.TemporaryDirectory(prefix="outputs_equal-") as tmp:
        for experiment in ("recovery", "size"):
            run_dir = Path(tmp) / experiment
            run_dir.mkdir()
            proc = _run([sys.executable, "-c", WRITE_SIMULATE, experiment], run_dir,
                        [sides["parent"] / "src"])
            if proc.returncode != 0:
                sys.exit(f"outputs_equal: writing the {experiment} simulate config failed:\n"
                         f"{proc.stderr.decode(errors='replace')}")
            (run_dir / "config.json").write_bytes(proc.stdout)
            for n in threads:
                parent, change = (_outputs(side, checkout, run_dir, "simulate", n)["stdout"]
                                  for side, checkout in sides.items())
                differ += not _same(f"simulate {experiment} --threads {n} stdout", parent, change)
    return differ


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--run", action="append", metavar="WORKLOAD:SEED")
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = []
    for item in args.run or DEFAULT_RUNS:
        workload, _, seed = item.partition(":")
        if not workload or not seed.isdigit():
            parser.error(f"--run takes WORKLOAD:SEED, got {item!r}")
        specs.append((workload, int(seed)))
    differ = sum(compare(sides, workload, seed, tuple(args.threads)) for workload, seed in specs)
    differ += compare_simulate(sides, tuple(args.threads))
    differ += compare(sides, "test-mid", 2, tuple(args.threads), ("test",),
                      {"replications": WIDE_B})
    differ += compare(sides, "report-large", 3, tuple(args.threads), ("ci",),
                      {"alphas": CI_ALPHAS})
    print(f"outputs_equal: {differ} output(s) differ")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
