"""Per-layer spans and counts, recorded by wrapping stochord's public functions.

``Instrumentation(tracer).install()`` replaces the public functions and
methods of each stochord module with wrappers that open a span or bump a
count on ``tracer``; ``uninstall()`` puts the originals back. Nothing in
stochord changes: the wrappers sit on the module and class attributes that
callers look up, including the names that ``stochord.bench`` and
``stochord.cli`` imported from other modules.

Spans (inclusive time unless named "self" in ``layer_metrics``):

* ``cli``: ``cli.main``; ``bench``: ``bench.run_scenario``;
* ``orders.grid``: ``Grid.for_models``; ``orders.certify``: ``certify_st``,
  ``certify_hr``, ``certify_rh`` and ``certify_lr``;
* ``systems.tail``: every ``support_upper``;
* ``systems.eval``: the ``SystemSpec`` evaluators and ``lambda_aggregate_sf``,
  outermost calls only, and none inside a tail search;
* ``models.quantile``: ``WeibullG.quantile`` and ``GompertzMakeham.quantile``;
* ``majorization.generate``: ``generate_hypothesis_pair``,
  ``apply_t_transform`` and ``pn_membership``, outermost calls only;
* ``montecarlo.sample``: ``sample`` and ``sample_system``;
  ``montecarlo.ks``: ``ks_distance``.

Component evaluators of ``WeibullG`` and ``GompertzMakeham`` are too small
and too many for spans; they are counted only.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

from stochord import bench, cli, majorization, models, montecarlo, orders, systems

_SYSTEM_EVALUATORS = ("sf", "cdf", "hazard", "reversed_hazard", "pdf")
_MODEL_EVALUATORS = ("sf", "cdf", "pdf", "hazard", "reversed_hazard",
                     "cumulative_hazard", "log_cdf")
_CERTIFIERS = ("certify_st", "certify_hr", "certify_rh", "certify_lr")
_GENERATORS = ("generate_hypothesis_pair", "apply_t_transform", "pn_membership")


class Tracer:
    """Span stack plus per-name totals; spans are kept in memory for the dump."""

    def __init__(self):
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.span_count: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1

    def top(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def enter(self, name: str) -> None:
        self.spans.append(None)
        self.stack.append([name, time.perf_counter(), 0.0, len(self.spans) - 1])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, index = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[index] = (name, start, end, -1 if parent is None else parent[3], self.op_id)
        self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.span_count[name] += 1

    def snapshot(self) -> dict:
        """Counts so far, for figures that must repeat exactly between runs."""
        return {"counts": Counter(self.counts), "spans": Counter(self.span_count)}


def _span(tracer: Tracer, name: str, fn, count: str | None = None):
    """Span the outermost call of a layer; count every call under ``count``.

    A call made while a span of the same name is open runs bare, so a layer
    that calls itself is timed once.
    """
    def wrapped(*args, **kwargs):
        if count is not None:
            tracer.counts[count] += 1
        if tracer.top() == name:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapped


def _system_evaluator(tracer: Tracer, method: str, fn):
    def wrapped(*args, **kwargs):
        top = tracer.top()
        if top == "systems.tail":
            if method == "sf":
                tracer.counts["systems.tail_sf_calls"] += 1
            return fn(*args, **kwargs)
        if top == "systems.eval":
            return fn(*args, **kwargs)
        tracer.counts["systems.eval_calls"] += 1
        tracer.enter("systems.eval")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapped


def _model_evaluator(tracer: Tracer, method: str, fn):
    def wrapped(*args, **kwargs):
        counts = tracer.counts
        counts["models.eval_calls"] += 1
        top = tracer.top()
        if top == "models.quantile" and method == "cdf":
            counts["models.quantile_cdf_calls"] += 1
        elif top == "systems.tail" and method == "sf":
            counts["systems.tail_sf_calls"] += 1
        return fn(*args, **kwargs)
    return wrapped


def _certifier(tracer: Tracer, fn):
    def wrapped(*args, **kwargs):
        tracer.enter("orders.certify")
        try:
            verdict = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if not (math.isfinite(verdict.margin) and math.isfinite(verdict.tolerance)):
            tracer.counts["orders.nonfinite_verdicts"] += 1
        return verdict
    return wrapped


def _scenario_runner(tracer: Tracer, fn):
    def wrapped(scenario):
        tracer.counts["bench.instances"] += scenario.count
        tracer.enter("bench")
        try:
            return fn(scenario)
        finally:
            tracer.exit()
    return wrapped


class Instrumentation:
    """Installs and removes the wrappers for one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owners, attr: str, make) -> None:
        """Wrap ``attr`` on every owner; owners that imported one object share a wrapper."""
        wrappers: dict[int, object] = {}
        for owner in owners:
            original = owner.__dict__[attr]
            key = id(original)
            if key not in wrappers:
                if isinstance(original, classmethod):
                    wrappers[key] = classmethod(make(original.__func__))
                else:
                    wrappers[key] = make(original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        t = self.tracer
        self._replace([cli], "main", lambda f: _span(t, "cli", f))
        self._replace([bench], "run_scenario", lambda f: _scenario_runner(t, f))
        self._replace([orders.Grid], "for_models", lambda f: _span(t, "orders.grid", f))
        for name in _CERTIFIERS:
            owners = [orders] + ([bench] if name in bench.__dict__ else [])
            self._replace(owners, name, lambda f: _certifier(t, f))
        for cls in (systems.SystemSpec, models.WeibullG, models.GompertzMakeham):
            self._replace([cls], "support_upper", lambda f: _span(t, "systems.tail", f))
        for name in _SYSTEM_EVALUATORS:
            self._replace([systems.SystemSpec], name,
                          lambda f, m=name: _system_evaluator(t, m, f))
        self._replace([systems, bench], "lambda_aggregate_sf",
                      lambda f: _system_evaluator(t, "lambda_aggregate_sf", f))
        for cls in (models.WeibullG, models.GompertzMakeham):
            for name in _MODEL_EVALUATORS:
                self._replace([cls], name, lambda f, m=name: _model_evaluator(t, m, f))
            self._replace([cls], "quantile", lambda f: _span(t, "models.quantile", f))
        for name in _GENERATORS:
            count = "majorization.pn_checks" if name == "pn_membership" else None
            owners = [majorization] + ([bench] if name in bench.__dict__ else [])
            self._replace(owners, name,
                          lambda f, c=count: _span(t, "majorization.generate", f, c))
        for name in ("sample", "sample_system"):
            self._replace([montecarlo, cli], name, lambda f: _span(t, "montecarlo.sample", f))
        self._replace([montecarlo, cli], "ks_distance", lambda f: _span(t, "montecarlo.ks", f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def layer_metrics(tracer: Tracer, ops: int, first: dict, first_ops: int) -> dict[str, float]:
    """Per-op layer figures: times over all traced ops, counts over the first round.

    ``first`` is ``tracer.snapshot()`` taken after the first traced round of
    ``first_ops`` ops, so the counts depend on the seed only.
    """
    def ms(name: str, self_only: bool = False) -> float:
        total = (tracer.self_time if self_only else tracer.inclusive)[name]
        return total / ops * 1e3

    counts, spans = first["counts"], first["spans"]
    searches = spans["systems.tail"]
    return {
        "orders.grid_ms": ms("orders.grid"),
        "systems.tail_ms": ms("systems.tail"),
        "systems.tail_sf_calls": counts["systems.tail_sf_calls"] / searches if searches else 0.0,
        "orders.certify_ms": ms("orders.certify"),
        "orders.nonfinite_verdicts": counts["orders.nonfinite_verdicts"] / first_ops,
        "systems.eval_ms": ms("systems.eval"),
        "systems.eval_calls": counts["systems.eval_calls"] / first_ops,
        "models.eval_calls": counts["models.eval_calls"] / first_ops,
        "models.quantile_ms": ms("models.quantile"),
        "models.quantile_cdf_calls": counts["models.quantile_cdf_calls"] / first_ops,
        "majorization.generate_ms": ms("majorization.generate"),
        "majorization.pn_checks": counts["majorization.pn_checks"] / first_ops,
        "bench.instances": counts["bench.instances"] / first_ops,
        "montecarlo.sample_ms": ms("montecarlo.sample", self_only=True),
        "montecarlo.ks_ms": ms("montecarlo.ks"),
        "bench.self_ms": ms("bench", self_only=True),
        "cli.self_ms": ms("cli", self_only=True),
    }
