"""Outside-in layer tracing for gradroute.

The tracer replaces the public functions that `gradroute.engine`,
`gradroute.harness` and `gradroute.config` call through their module
globals (and three methods on their classes) with wrappers that time each
call as a span and count the work it was handed. Nothing under `src/` is
edited: `installed()` patches the names on entry and puts the original
objects back on exit, also when the traced run raises.

Spans nest through a stack, so every layer is reported as *self* time:
its wall time minus the time of the traced calls made inside it. The
tracer's own bookkeeping (counting hooks and clock reads around a child)
is charged to neither the child nor its parent; it shows only in the
traced run's total wall time, i.e. as tracing overhead.
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _count_learner(counts: Counter, args: tuple, result) -> None:
    _table, trace, _cfg, grads, _reward = args
    counts["decisions"] += len(grads)
    counts["rows_with_grad"] += len({dest for dest, _ in grads})
    # after the call, `active` is every row this call decayed or credited
    counts["rows_updated"] += len(trace.active)


def _count_cycle(counts: Counter, args: tuple, result) -> None:
    if result:
        counts["cycles"] += 1


def _count_step(counts: Counter, args: tuple, result) -> None:
    counts["in_flight"] += result.in_flight


def targets(gr) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counting hook) for every patched name.

    `gr` is a namespace with the imported gradroute modules `engine`,
    `harness`, `config` and `metrics`.
    """
    return [
        (gr.engine, "tick_update", "learner.tick_update", _count_learner),
        (gr.engine, "detect_cycle", "shaping.detect_cycle", _count_cycle),
        (gr.engine, "shaping_reward", "shaping.shaping_reward", None),
        (gr.engine, "make_tables", "policy.make_tables", None),
        (gr.engine.Simulation, "step", "engine.step", _count_step),
        (gr.engine.Simulation, "__init__", "engine.init", None),
        (gr.harness, "format_row", "metrics.format_row", None),
        (gr.harness, "softmax_row", "policy.softmax_row", None),
        (gr.metrics.SampledMovingAverage, "push", "metrics.ma_push", None),
        (gr.config, "validate_topology", "network.validate_topology", None),
    ]


class Tracer:
    """Accumulates per-span self time, call counts and work counts."""

    def __init__(self, gr):
        self._gr = gr
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_s: list[float] = []  # time of traced children, per open span

    def wrap(self, name: str, fn, hook=None):
        child_s = self._child_s
        self_s, calls, counts = self.self_s, self.calls, self.counts

        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                inner = child_s.pop()
                self_s[name] += t1 - t0 - inner
                calls[name] += 1
            if hook is not None:
                hook(counts, args, result)
            if child_s:
                child_s[-1] += perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a root span named `name`."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in targets(self._gr):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_metrics(tr: Tracer, steps: int, rows_sampled: int, csv_bytes: int) -> dict:
    """Per-layer figures of one traced run; per tick unless the name says
    otherwise (see BENCHMARK.json for units)."""
    s, c, n = tr.self_s, tr.calls, tr.counts
    calls = c["learner.tick_update"]

    def us(*spans: str) -> float:
        return sum(s[x] for x in spans) / steps * 1e6

    return {
        "engine.step_self_us": us("engine.step"),
        "engine.decisions": n["decisions"] / steps,
        "engine.in_flight": n["in_flight"] / steps,
        "engine.init_s": s["engine.init"],
        "learner.tick_update_us": us("learner.tick_update"),
        "learner.calls": calls / steps,
        "learner.rows_updated": n["rows_updated"] / calls if calls else 0.0,
        "learner.rows_with_grad": n["rows_with_grad"] / calls if calls else 0.0,
        "learner.useful_row_ratio": (
            n["rows_with_grad"] / n["rows_updated"] if n["rows_updated"] else 0.0
        ),
        "shaping.detect_cycle_calls": c["shaping.detect_cycle"] / steps,
        "shaping.us": us("shaping.detect_cycle", "shaping.shaping_reward"),
        "shaping.cycles": n["cycles"] / steps,
        "policy.softmax_row_calls": c["policy.softmax_row"] / steps,
        "policy.softmax_row_us": us("policy.softmax_row"),
        "metrics.ma_push_us": us("metrics.ma_push"),
        "metrics.format_row_us": us("metrics.format_row"),
        "harness.self_us": us("harness.run_experiment"),
        "harness.rows_sampled": rows_sampled,
        "harness.csv_bytes": csv_bytes,
        "config.load_s": s["config.load"],
        "network.validate_s": s["network.validate_topology"],
        "policy.make_tables_s": s["policy.make_tables"],
    }
