"""Paired benchmark runs of two checkouts, summarised as ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --parent ../parent --change . --label factor_memo \
        --what "one line on the change" --run test-mid:2 --run report-large:3 --pairs 10

For each ``--run WORKLOAD:SEED`` it makes ``--pairs`` pairs of
``python3 perfbench/run.py --workload WORKLOAD --seed SEED`` runs, one from
each checkout, alternating which side runs first, and then one ``--trace 1``
run per side. Each run's end-to-end medians come from the last line of its
standard output; run settings (the measurement window, bounds and units)
are those of each checkout's own ``BENCHMARK.json`` and ``perfbench``.

Per workload and seed the output holds each side's median and quartiles
(linear interpolation) over its run medians, the pairs the change won (a
lower run median wins; ties count for neither), every run median, the
failed child processes against those attempted, and each side's traced
per-layer numbers. ``outputs_equal`` is the verdict of
``tools/outputs_equal.py``'s ``compare`` on the workload's inputs at that
seed: whether the two checkouts write the same bytes for all five CLI
commands at ``--threads`` 1 and 2. Runs are sequential, so the machine's
load is one benchmark at a time.

``machine`` records the first run's environment and the value of
``PYTHONDONTWRITEBYTECODE``, which perfbench's children inherit: when it is
set, no bytecode is cached and every CLI run compiles ``src/`` from source,
inside ``setup_s``.

``paths`` records where each checkout lives. Wall times have been seen to
follow a checkout's location as well as its code, so the script warns
unless the two checkouts are siblings with paths of the same length, the
closest placement it can check (even those have differed by a few percent).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from outputs_equal import compare


def _revision(checkout: Path) -> str:
    """Short commit of a git checkout, marked ``-dirty`` with local edits."""
    out = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=7"],
        capture_output=True, text=True,
    )
    return out.stdout.strip() if out.returncode == 0 else str(checkout)


def _bench(checkout: Path, workload: str, seed: int, trace: bool) -> dict:
    """One perfbench run; its final JSON line, with the run's environment."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"bench_pairs: {' '.join(argv)} in {checkout} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env = checkout / ".perfbench_out" / workload / f"seed{seed}-trace{int(trace)}" / "env.json"
    result["env"] = json.loads(env.read_text(encoding="utf-8"))
    return result


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def _summary(runs: dict[str, list[dict]], traced: dict[str, dict], bounds: dict) -> dict:
    out: dict = {
        "pairs": len(runs["parent"]),
        "all_correct": all(r["correct"] for r in [*runs["parent"], *runs["change"],
                                                   *traced.values()]),
        "failed_children": {
            side: f"{sum(r['failed'] for r in rs)} of {sum(r['attempted'] for r in rs)}"
            for side, rs in runs.items()
        },
        "end_to_end": {},
        "traced": {},
    }
    for name, bound in bounds.items():
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        parent, change = values["parent"], values["change"]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out["end_to_end"][name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "bound": bound,
            "parent": _spread(parent),
            "change": _spread(change),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
            "median_change_pct": round(100.0 * (c_med - p_med) / p_med, 2),
            "parent_runs": [round(v, 4) for v in parent],
            "change_runs": [round(v, 4) for v in change],
        }
    names = [n for n in traced["parent"]["metrics"] if n in traced["change"]["metrics"]]
    for name in names:
        out["traced"][name] = {
            side: round(traced[side]["metrics"][name]["value"], 4) for side in traced
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--what", required=True, help="one line on what the change does")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    specs = []
    for item in args.run:
        workload, _, seed = item.partition(":")
        if not workload or not seed.isdigit():
            parser.error(f"--run takes WORKLOAD:SEED, got {item!r}")
        specs.append((workload, int(seed)))

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    parent, change = sides.values()
    if parent.parent != change.parent or len(str(parent)) != len(str(change)):
        print(f"bench_pairs: warning: {parent} and {change} are not sibling checkouts with "
              "paths of one length; wall times may follow the location", file=sys.stderr)
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc: dict = {
        "label": args.label,
        "what": args.what,
        "parent": _revision(sides["parent"]),
        "change": _revision(sides["change"]),
        "paths": {side: str(path) for side, path in sides.items()},
        "method": (
            f"python3 tools/bench_pairs.py: python3 perfbench/run.py --workload W --seed S at "
            f"BENCHMARK.json's {bench['run_seconds']} s window, run from a checkout of each "
            f"commit; {args.pairs} pairs per workload and seed, the side that runs first "
            "alternating; each run gives one median per metric; median and quartiles (linear "
            "interpolation) are over the run medians per side; a pair is won when the change's "
            "run median is lower, ties count for neither. One --trace 1 run per side gives the "
            "per-layer numbers."
        ),
        "machine": None,
        "workloads": {},
    }
    for workload, seed in specs:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_bench(sides[side], workload, seed, trace=False))
            print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.3f}"
                for side in ("parent", "change")), flush=True)
        outputs_equal = compare(sides, workload, seed) == 0
        print(f"{workload} seed {seed}: outputs_equal {outputs_equal}", flush=True)
        traced = {side: _bench(sides[side], workload, seed, trace=True) for side in sides}
        env = runs["change"][0]["env"]
        doc["machine"] = doc["machine"] or {
            **{key: env[key] for key in (
                "nproc", "python", "numpy", "scipy", "blas", "blas_thread_pin", "platform")},
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        }
        summary = _summary(runs, traced, bounds)
        doc["workloads"][f"{workload}/seed{seed}"] = {
            "seed": seed, "outputs_equal": outputs_equal, **summary}
        # Written after each workload, so finished workloads survive a stopped run.
        path = args.out_dir / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"written: {path}", flush=True)


if __name__ == "__main__":
    main()
