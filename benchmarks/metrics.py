"""Metric arithmetic shared by the benchmark's orchestrator and worker.

Stdlib only, so the orchestrator can import it without numpy.  A "unit" is
what a span or counter is charged to: the worker's set-up ("setup") or one
traced op (its integer index).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One timed call: name, perf_counter start/end, parent span id, unit."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: object

    @property
    def duration(self) -> float:
        return self.end - self.start


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def solve_seconds(ops) -> float:
    """Median over distinct inputs of each input's median op time.

    ops: iterable of (input key, seconds, ok).  A failed op misses any
    latency target, so it counts as infinitely slow and may not pull the
    median down.  Taking each input once keeps the inputs a run happened to
    repeat (a fixed pool cycles) from weighting the result.  When half or
    more of the ops failed the median would be infinite; the median of the
    times as measured is returned instead, and the run reports itself
    incorrect through its failure count.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("no ops")

    def per_input(times):
        by_key = defaultdict(list)
        for key, value in times:
            by_key[key].append(value)
        return median(median(v) for v in by_key.values())

    value = per_input((k, s if ok else math.inf) for k, s, ok in ops)
    return value if math.isfinite(value) else per_input((k, s) for k, s, _ok in ops)


def fail_rate(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def rel_err_over_inputs(ops) -> float | None:
    """Median error over distinct inputs, each counted once (its first op).

    ops: iterable of (input key, rel_err or None).  An input that repeats in
    a run (the recovery workloads cycle a fixed pool) is deterministic, so
    counting it twice would only weight it by how many ops fitted in the run.
    """
    first = {}
    for key, err in ops:
        if err is not None and key not in first:
            first[key] = err
    return median(first.values()) if first else None


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children(spans, parent: Span):
    return [s for s in spans if s.parent == parent.id]


def self_time(span: Span, spans) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = union_length([(c.start, c.end) for c in children(spans, span)],
                           span.start, span.end)
    return span.duration - covered


def self_times_by_name(spans) -> dict[str, float]:
    """Total self time per span name."""
    out = defaultdict(float)
    for s in spans:
        out[s.name] += self_time(s, spans)
    return dict(out)


def coverage(span: Span, spans) -> float:
    """Share of the span covered by its children (1 - self share)."""
    if span.duration <= 0:
        return 1.0
    return 1.0 - self_time(span, spans) / span.duration


# Per-layer metric -> (unit, how it is computed from one unit's totals).
# "span" sums the durations of one span name; "count" reads one counter;
# "ratio" scales the quotient of two quantities and is undefined when the
# divisor is 0.
_SPAN = "span"
_COUNT = "count"
_RATIO = "ratio"

LAYER_METRICS = {
    "grid.full_measurements.s": ("s", _SPAN, "grid.full_measurements"),
    "grid.invert_full.s": ("s", _SPAN, "grid.invert_full"),
    "grid.sampled_measurements.s": ("s", _SPAN, "grid.sampled_measurements"),
    "grid.pgf_points": ("count", _COUNT, "grid.pgf_points"),
    "models.ode_solves": ("count", _COUNT, "models.ode_solves"),
    "models.rhs_evals": ("count", _COUNT, "models.rhs_evals"),
    "admm.recover.s": ("s", _SPAN, "admm.recover"),
    "admm.sweeps": ("count", _COUNT, "admm.recover.sweeps"),
    "admm.sweep_ms": ("ms", _RATIO, ("admm.recover", "admm.recover.sweeps", 1000.0)),
    "admm.ffts_per_sweep": ("count", _RATIO, ("admm.ffts", "admm.all.sweeps", 1.0)),
    "admm.recover_to_error.s": ("s", _SPAN, "admm.recover_to_error"),
    "admm.recover_to_error.sweeps": ("count", _COUNT, "admm.recover_to_error.sweeps"),
    "pgd.recover.s": ("s", _SPAN, "pgd.pgd_recover"),
    "pgd.iters": ("count", _COUNT, "pgd.iters"),
    "pgd.iter_ms": ("ms", _RATIO, ("pgd.pgd_recover", "pgd.iters", 1000.0)),
    "pgd.ffts_per_iter": ("count", _RATIO, ("pgd.ffts", "pgd.iters", 1.0)),
    "oracle.build_generator.s": ("s", _SPAN, "oracle.build_generator"),
    "oracle.uniformize.s": ("s", _SPAN, "oracle.uniformize"),
    "matio.write_matrix.s": ("s", _SPAN, "matio.write_matrix"),
    "matio.read_matrix.s": ("s", _SPAN, "matio.read_matrix"),
    "matio.bytes_written": ("bytes", _COUNT, "matio.bytes_written"),
}


# Measured outside the op spans (sweep probe) or from the spans as a whole.
PROBE_METRICS = {"admm.u_update.ms": "ms", "admm.soft_threshold.ms": "ms",
                 "admm.iterate.ms": "ms"}
TRACE_METRICS = {"cli.self_s": "s", "trace.span_coverage": "ratio",
                 "trace.overhead_ratio": "ratio"}
PER_LAYER_UNITS = {**{k: v[0] for k, v in LAYER_METRICS.items()}, **PROBE_METRICS,
                   **TRACE_METRICS}
END_TO_END_UNITS = {"solve_s": "s", "rel_err": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit_totals(spans, counts, unit) -> dict[str, float]:
    totals = defaultdict(float)
    for s in spans:
        if s.unit == unit:
            totals[s.name] += s.duration
    for (u, name), value in counts.items():
        if u == unit:
            totals[name] += value
    totals["admm.all.sweeps"] = (totals.get("admm.recover.sweeps", 0.0)
                                 + totals.get("admm.recover_to_error.sweeps", 0.0))
    return totals


def _metric_value(kind, source, totals):
    if kind == _RATIO:
        num, den, scale = source
        if totals.get(den, 0.0) == 0.0:
            return None
        return scale * totals.get(num, 0.0) / totals[den]
    return totals[source] if source in totals else None


def layer_metrics(spans, counts, op_units) -> dict[str, float]:
    """Per-layer metrics: median over the traced ops that reach each layer.

    A layer that no op reaches (the exact-solve oracle check, the reference
    grid of the recovery workloads) is charged to set-up, so its value is
    the set-up's; a layer reached by neither reads 0.
    """
    per_op = [_unit_totals(spans, counts, u) for u in op_units]
    setup = _unit_totals(spans, counts, "setup")
    out = {}
    for metric, (_unit, kind, source) in LAYER_METRICS.items():
        values = [v for v in (_metric_value(kind, source, t) for t in per_op)
                  if v is not None]
        if values:
            out[metric] = median(values)
        else:
            value = _metric_value(kind, source, setup)
            out[metric] = 0.0 if value is None else value
    return out
