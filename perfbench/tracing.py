"""Spans recorded around the benchmark's calls into each layer, and the
per-layer metrics derived from them.

A span is (id, name, parent, run id, start, end) plus attributes. Spans are
kept in memory and written out once, when the traced run ends. Timestamps
come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which the parent
benchmark process shares, so a span can be set against the moment the
parent spawned the traced interpreter.

The traced run has three phases under its root span:

- ``primary``: the stages of the workload's CLI subcommand, in
  ``run_pipeline`` order, at the configured replication count B. Its end
  against the spawn time is the traced total.
- ``extra``: pipeline stages the subcommand skips, both bootstrap tests again
  at 2B, and one warm repeat of the first ``ips_test`` call per
  deterministic choice.
- ``memory``: the estimation and bootstrap stages again under
  ``tracemalloc``, so allocation tracking never inflates a timed span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

STAGE_PHASES = ("primary", "extra")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.monotonic(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()

    def document(self) -> dict[str, Any]:
        return {"run": self.run_id, "spans": self.spans, "counts": self.counts}


def duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = duration(s) - covered
    return out


def _phase(span: dict[str, Any], by_id: dict[int, dict[str, Any]]) -> str | None:
    """Name of the phase span (a child of the root) that contains ``span``."""
    while span["parent"] is not None:
        parent = by_id[span["parent"]]
        if parent["parent"] is None:
            return span["name"]
        span = parent
    return None


def layer_metrics(doc: dict[str, Any], spawned_at: float, baseline_wall_s: float,
                  replications: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``baseline_wall_s`` is the untraced wall time of the same CLI run;
    ``replications`` is B. Bootstrap stages ran at B and 2B, which splits
    them into a per-replication cost (t(2B) - t(B)) / B and the fixed cost
    t(B) - B * per_rep, because replication r draws from
    ``SeedSequence([seed, r])`` in both calls.
    """
    spans = doc["spans"]
    by_id = {s["id"]: s for s in spans}
    phase = {s["id"]: _phase(s, by_id) for s in spans}

    def find(name: str, *phases: str, **attrs: Any) -> list[dict[str, Any]]:
        return [
            s for s in spans
            if s["name"] == name and phase[s["id"]] in phases
            and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def stage_s(name: str, **attrs: Any) -> float:
        (hit,) = find(name, *STAGE_PHASES, **attrs)
        return duration(hit)

    def peak_mb(name: str) -> float:
        (hit,) = find(name, "memory")
        return hit["attrs"]["peak_mb"]

    metrics: dict[str, float] = {
        "cli.ingest_s": stage_s("cli.ingest"),
        "cli.render_s": stage_s("cli.render"),
    }

    estimate_s = stage_s("threshold.estimate")
    counts = doc["counts"]
    metrics.update({
        "threshold.estimate_s": estimate_s,
        "threshold.per_candidate_ms": 1e3 * estimate_s / counts["threshold.candidates"],
        "threshold.grid_points": counts["threshold.grid_points"],
        "threshold.distinct_q": counts["threshold.distinct_q"],
        "threshold.grid_coverage": counts["threshold.grid_points"] / counts["threshold.distinct_q"],
        "threshold.estimate_peak_mb": peak_mb("threshold.estimate"),
    })

    for test, span_name in (("linearity", "inference.linearity"),
                            ("regime_count", "inference.regime_count")):
        t_b = stage_s(span_name, reps=replications)
        t_2b = stage_s(span_name, reps=2 * replications)
        per_rep = (t_2b - t_b) / replications
        metrics.update({
            f"inference.{test}_s": t_b,
            f"inference.{test}_fixed_s": t_b - replications * per_rep,
            f"inference.{test}_per_rep_ms": 1e3 * per_rep,
            f"inference.{test}_peak_mb": peak_mb(span_name),
        })
    metrics["inference.ci_s"] = stage_s("inference.ci")
    metrics["regression.regime_eq_s"] = stage_s("regression.regime_eq")

    ips_calls = find("diagnostics.ips_test", *STAGE_PHASES, repeat=False)
    moments = 0.0
    for cold in (s for s in ips_calls if s["attrs"]["cold"]):
        (warm,) = find("diagnostics.ips_test", "extra", repeat=True,
                       deterministic=cold["attrs"]["deterministic"])
        moments += duration(cold) - duration(warm)
    metrics["diagnostics.ips_moments_s"] = moments
    metrics["diagnostics.ips_units_s"] = sum(duration(s) for s in ips_calls) - moments

    (primary,) = find("primary", "primary")
    metrics["trace.overhead_s"] = (primary["end"] - spawned_at) - baseline_wall_s
    return metrics
