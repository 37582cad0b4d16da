"""Runs one workload: set-up, timed window, correctness gates, metrics.

With tracing off the result carries the end-to-end metrics.  With tracing on
the first half of the window runs untraced as the reference for
trace.overhead_frac, the second half runs under the tracer, and the result
carries the per-layer metrics.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

SETUP_REPS = 3

# name -> (unit, better); the same set on every workload, bounds in
# BENCHMARK.json.  What each means per workload is in METRICS.md.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "completed_frac": ("frac", "higher"),
    "work_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "rel_l2_err": ("ratio", "lower"),
}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict           # name -> value
    units: dict             # name -> unit
    table: list             # (name, value, unit, note) rows for the printout
    failures: list          # failed correctness gates

    def json(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": self.units[k]}
                            for k, v in self.metrics.items()}}


def measure(wl, seconds: float, tracer=None) -> list:
    """Closed loop: the next operation starts when the previous one ends,
    until `seconds` have passed (at least one operation)."""
    ops = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.new_trace()
        ops.append(wl.run_op(len(ops)))
        if tracer is not None:
            tracer.end_trace()
        if time.perf_counter() - start >= seconds:
            return ops


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
                 size: str = "full", import_s: float = 0.0, spans_path=None,
                 **workload_kw) -> Result:
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, size, work_dir, **workload_kw)
    tracer = tracing.Tracer() if trace else None
    ref = []
    if tracer is not None:
        tracer.install()
    try:
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            wl.warmup()
            reps.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            ref = measure(wl, seconds / 2)
            tracer.install()
            tracer.phase = "measure"
            ops = measure(wl, seconds / 2, tracer)
            tracer.phase = "gate"
        else:
            ops = measure(wl, seconds)
        failures, extras = wl.check(ref + ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(op.attempted for op in ref + ops)
    failed = sum(op.failed for op in ref + ops)
    secs = [op.seconds for op in ops if not op.failed] or [op.seconds for op in ops]
    tail, pct = workloads.tail_percentile(secs)
    metrics = {
        "setup_s": import_s + statistics.median(reps),
        "peak_rss_mb": peak_rss_mb,
        "completed_frac": (attempted - failed) / attempted,
        "work_per_s": sum(op.items for op in ops) / sum(op.seconds for op in ops),
        "op_p50_s": statistics.median(secs),
        "op_tail_s": tail,
        "rel_l2_err": extras.get("rel_l2_err", float("nan")),
    }
    notes = {
        "setup_s": f"{import_s:.3f} s imports + median of {SETUP_REPS} set-ups "
                   f"{[round(r, 3) for r in reps]}",
        "peak_rss_mb": "ru_maxrss of this process",
        "work_per_s": f"{sum(op.items for op in ops)} items in {len(ops)} "
                      f"{wl.op_name}s",
        "op_p50_s": f"{wl.op_name} median of n={len(secs)}",
        "op_tail_s": f"{wl.op_name} p{pct:.1f} of n={len(secs)}",
    }
    errors = dict(Counter(op.error for op in ref + ops if op.failed))
    table = [("failed_frac", failed / attempted, "frac",
              f"{failed} of {attempted} attempted failed {errors}")]
    for k, v in metrics.items():
        alias = wl.aliases.get(k)
        table.append((alias or k, v, END_TO_END[k][0],
                       (f"JSON {k}; " if alias else "") + notes.get(k, "")))
    table += extras.get("rows", [])
    if tracer is not None:
        overhead = statistics.median(op.seconds for op in ops) \
            / statistics.median(op.seconds for op in ref) - 1.0
        metrics = tracer.per_layer_metrics(len(ops), overhead)
        units = {k: tracing.PER_LAYER[k][0] for k in metrics}
        if spans_path is not None:
            tracer.write_spans(spans_path)
    else:
        units = {k: END_TO_END[k][0] for k in metrics}
    return Result(not failures, attempted, failed, metrics, units, table, failures)
