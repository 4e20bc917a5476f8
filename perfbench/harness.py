"""The closed loop that runs a workload's rounds, times its ops and tallies their checks.

One op runs at a time, and the next starts when the previous one returns.
The timed phase is the sum of the ops' own durations: the checks run
between ops and are not timed. A run attempts whole rounds until the timed
phase lasts ``seconds``, it holds ``min_ops`` ops and the workload's minimum
number of rounds (a traced run has no minimum of ops: it reports no percentile).

Untraced, each round runs once and the end-to-end metrics come out. Traced,
each round runs twice on the same inputs, once bare and once under
``tracing``, in alternating order. The traced passes give the per-layer
metrics; the two passes together give the tracing overhead.
"""

from __future__ import annotations

import resource
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import tracing
from .workloads import Op, Outcome

MIN_OPS = 100
WARMUP_OPS = 2


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)

    def add(self, op: Op, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.status == "failed":
            self.failed += 1
            self.failures[f"{op.label}: {outcome.detail}"] += 1
        elif outcome.status == "wrong":
            self.wrong.append(f"{op.label}: {outcome.detail}")


def _run_op(op: Op) -> tuple[float, Outcome]:
    start = time.perf_counter()
    try:
        output = op.call()
    except Exception as err:  # a raising op is a failed op; the loop goes on
        return time.perf_counter() - start, Outcome("failed", f"{type(err).__name__}: {err}")
    elapsed = time.perf_counter() - start
    return elapsed, op.check(output)


def _run_pass(ops: list[Op], tally: Tally, latencies: list[float],
              tracer: tracing.Tracer | None = None) -> float:
    busy = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        elapsed, outcome = _run_op(op)
        latencies.append(elapsed)
        busy += elapsed
        tally.add(op, outcome)
    return busy


def _warm_up(workload) -> None:
    for op in workload.round(0)[:WARMUP_OPS]:
        _run_op(op)


def run_untraced(workload, seconds: float, min_ops: int = MIN_OPS) -> tuple[Tally, dict]:
    """Run whole rounds and return the tally and the end-to-end metrics (less setup_s)."""
    _warm_up(workload)
    tally, latencies = Tally(), []
    busy, r = 0.0, 0
    while busy < seconds or len(latencies) < min_ops or r < workload.min_rounds:
        busy += _run_pass(workload.round(r), tally, latencies)
        r += 1
    ms = np.asarray(latencies) * 1e3
    metrics = {
        "ops_per_s": len(latencies) / busy,
        "op_ms.p50": float(np.percentile(ms, 50)),
        "op_ms.p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, metrics


def run_traced(workload, seconds: float):
    """Run every round bare and traced; return the tally, per-layer metrics and tracer."""
    _warm_up(workload)
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    tally = Tally()
    bare, traced = [], []
    bare_busy = traced_busy = 0.0
    first = None
    r = 0
    while bare_busy + traced_busy < seconds or r < workload.min_rounds:
        ops = workload.round(r)
        for traced_pass in ((False, True) if r % 2 == 0 else (True, False)):
            if not traced_pass:
                bare_busy += _run_pass(ops, tally, bare)
                continue
            instrumentation.install()
            try:
                traced_busy += _run_pass(ops, tally, traced, tracer)
            finally:
                instrumentation.uninstall()
            if first is None:
                first = tracer.snapshot()
                first_ops = len(traced)
        r += 1
    metrics = tracing.layer_metrics(tracer, len(traced), first, first_ops)
    metrics["trace.overhead_pct"] = (traced_busy / bare_busy - 1.0) * 100.0
    return tally, metrics, tracer
