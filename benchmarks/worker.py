"""Benchmark worker: set up one workload, run its ops, print one JSON line.

run.py starts this in a fresh process so that the set-up it times covers
interpreter start and imports.  The worker prints ``READY`` once set-up is
done; with --setup-only it exits there.  Otherwise it runs ops back to back
(one client, closed loop) and prints a JSON object as its last line.

With --trace 1 each op input runs twice, once plain and once with every
layer entry point wrapped (the order alternates between inputs), which
gives the per-layer spans and the tracing overhead on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import metrics
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Beyond this many seconds of ops no new op starts, whatever min_ops says,
# so that a run ends well inside the 180 s a run may take.
HARD_STOP_S = 120.0
MIN_TRACED_PAIRS = 2


def import_program():
    """Import branchcs from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import branchcs

    if SRC.resolve() not in Path(branchcs.__file__).resolve().parents:
        raise ImportError(f"branchcs imported from {branchcs.__file__}, not {SRC}")


def run_op(wl, key, tracer: Tracer | None = None, op_id=None) -> dict:
    """One op, timed, then its gate.  A failure is recorded, never raised."""
    rec = {"key": key, "op_id": op_id, "traced": tracer is not None,
           "ok": False, "rel_err": None, "reason": "", "notes": {}}
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = wl.op(key)
        else:
            with tracer.charge(op_id), tracer.span("op"):
                raw = wl.op(key)
    except Exception as exc:  # a failing op is counted in fail_rate, not fatal
        rec["reason"] = f"{type(exc).__name__}: {exc}"
    finally:
        rec["seconds"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if rec["reason"]:
        return rec
    try:
        outcome = wl.check(key, raw)
    except Exception as exc:  # a gate that cannot run fails the op
        rec["reason"] = f"gate raised {type(exc).__name__}: {exc}"
        return rec
    rec.update(ok=outcome.ok, rel_err=outcome.rel_err, reason=outcome.reason,
               notes=outcome.notes)
    return rec


def _keep_going(i: int, min_count: int, elapsed: float, last: float, seconds: float) -> bool:
    if elapsed >= HARD_STOP_S:
        return False
    return i < min_count or elapsed + last <= seconds


def run_plain(wl, seconds: float) -> list[dict]:
    """Ops back to back until the next would end after `seconds`."""
    ops, start, last = [], time.perf_counter(), 0.0
    while _keep_going(len(ops), wl.min_ops, time.perf_counter() - start, last, seconds):
        op_start = time.perf_counter()
        ops.append(run_op(wl, wl.input(len(ops))))
        last = time.perf_counter() - op_start
    return ops


def run_traced(wl, seconds: float, tracer: Tracer) -> list[dict]:
    """Pairs of (plain, traced) ops on one input each, alternating the order."""
    ops, start, last, k = [], time.perf_counter(), 0.0, 0
    while _keep_going(k, MIN_TRACED_PAIRS, time.perf_counter() - start, last, seconds):
        pair_start = time.perf_counter()
        key = wl.input(k)
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            ops.append(run_op(wl, key, tracer if traced else None, op_id=k))
        last = time.perf_counter() - pair_start
        k += 1
    return ops


def trace_metrics(ops: list[dict], tracer: Tracer, probe: dict) -> dict:
    """Every per-layer metric from the traced ops, the spans and the probe."""
    traced = [r for r in ops if r["traced"]]
    out = metrics.layer_metrics(tracer.spans, tracer.counts, [r["op_id"] for r in traced])
    op_spans = [s for s in tracer.spans if s.name == "op"]
    out["cli.self_s"] = metrics.median(metrics.self_time(s, tracer.spans) for s in op_spans)
    out["trace.span_coverage"] = min(metrics.coverage(s, tracer.spans) for s in op_spans)
    plain = {r["op_id"]: r["seconds"] for r in ops if not r["traced"]}
    out["trace.overhead_ratio"] = metrics.median(
        r["seconds"] / plain[r["op_id"]] for r in traced)
    for name in metrics.PROBE_METRICS:
        out[name] = probe.get(name, 0.0)
    return out


def environment() -> dict:
    import numpy
    import scipy

    from branchcs import admm

    fft = admm._fft2
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": f"{getattr(fft, '__module__', '?')}.{getattr(fft, '__name__', '?')}",
        "blas": blas,
        "blas_thread_vars": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload](Path(args.work_dir), args.seed, args.threads)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        wl.setup()
    else:
        tracer.install()
        try:
            with tracer.charge("setup"):
                wl.setup()
        finally:
            tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"env": environment()}
    if tracer is None:
        result["ops"] = run_plain(wl, args.seconds)
    else:
        ops = run_traced(wl, args.seconds, tracer)
        missing = list(tracer.missing)
        try:
            probe = workloads.sweep_probe()
        except AttributeError as exc:
            probe = {}
            missing.append(f"sweep probe: {exc}")
        result.update(ops=ops, layers=trace_metrics(ops, tracer, probe), missing=missing,
                      self_times=metrics.self_times_by_name(tracer.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
