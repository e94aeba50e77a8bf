"""Tests of the benchmark itself: metric arithmetic, tracing, tiny workloads.

Fast enough for the tier-1 run: every workload runs at N=16 (cs also at
N=64, the smallest size with a tuned ADMM preset).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
import worker
import workloads
from metrics import Span
from tracing import Tracer

HERE = Path(__file__).resolve().parent


def span(i, name, start, end, parent=None, unit=0):
    return Span(i, name, start, end, parent, unit)


class TestMetricMath:
    def test_median(self):
        assert metrics.median([3.0, 1.0, 2.0]) == 2.0
        assert metrics.median([4.0, 1.0, 2.0, 3.0]) == 2.5
        with pytest.raises(ValueError):
            metrics.median([])

    def test_failed_op_counts_as_slowest(self):
        # without the failure the median would be 2.0
        ops = [(0, 1.0, True), (1, 2.0, True), (2, 3.0, True), (3, 0.1, False)]
        assert metrics.solve_seconds(ops) == 2.5
        assert metrics.solve_seconds(ops[:3]) == 2.0

    def test_each_input_counts_once(self):
        ops = [(0, 1.0, True), (1, 5.0, True), (0, 1.2, True), (0, 1.1, True)]
        assert metrics.solve_seconds(ops) == pytest.approx(3.05)  # of 1.1 and 5.0
        assert metrics.solve_seconds([(None, t, True) for t in (3.0, 1.0, 2.0)]) == 2.0

    def test_mostly_failed_run_reports_measured_median(self):
        value = metrics.solve_seconds([(0, 1.0, False), (1, 2.0, False), (2, 3.0, True)])
        assert value == 2.0 and math.isfinite(value)

    def test_fail_rate_counts_failed_over_attempted(self):
        assert metrics.fail_rate(8, 0) == 0.0
        assert metrics.fail_rate(8, 2) == 0.25
        with pytest.raises(ValueError):
            metrics.fail_rate(0, 0)
        with pytest.raises(ValueError):
            metrics.fail_rate(2, 3)

    def test_rel_err_counts_each_input_once(self):
        ops = [(0, 1.0), (1, 2.0), (0, 1.0), (0, 1.0), (2, 9.0), (3, None)]
        assert metrics.rel_err_over_inputs(ops) == 2.0
        assert metrics.rel_err_over_inputs([(0, None)]) is None

    def test_union_length_merges_and_clips(self):
        assert metrics.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
        assert metrics.union_length([(-1, 2), (8, 12)], 0, 10) == 4
        assert metrics.union_length([], 0, 10) == 0

    def test_self_time_subtracts_children_once(self):
        spans = [
            span(0, "op", 0.0, 10.0),
            span(1, "a", 1.0, 4.0, parent=0),
            span(2, "b", 3.0, 6.0, parent=0),   # overlaps a: counted once
            span(3, "c", 1.5, 2.0, parent=1),   # grandchild: a's, not op's
        ]
        assert metrics.self_time(spans[0], spans) == pytest.approx(5.0)
        assert metrics.self_time(spans[1], spans) == pytest.approx(2.5)
        assert metrics.coverage(spans[0], spans) == pytest.approx(0.5)
        assert metrics.self_times_by_name(spans)["op"] == pytest.approx(5.0)

    def test_layer_metrics_median_over_ops_then_setup_then_zero(self):
        spans = [
            span(0, "admm.recover", 0.0, 2.0, unit=0),
            span(1, "admm.recover", 0.0, 4.0, unit=1),
            span(2, "admm.recover", 0.0, 9.0, unit=2),
            span(3, "oracle.build_generator", 0.0, 0.5, unit="setup"),
            span(4, "admm.recover", 0.0, 100.0, unit="setup"),
        ]
        counts = {(0, "admm.recover.sweeps"): 100, (1, "admm.recover.sweeps"): 100,
                  (2, "admm.recover.sweeps"): 300, (0, "admm.ffts"): 200,
                  (1, "admm.ffts"): 200, (2, "admm.ffts"): 600}
        out = metrics.layer_metrics(spans, counts, [0, 1, 2])
        assert out["admm.recover.s"] == 4.0          # set-up's 100 s not mixed in
        assert out["admm.sweeps"] == 100
        assert out["admm.sweep_ms"] == 30.0          # median of 20, 40, 30
        assert out["admm.ffts_per_sweep"] == 2.0
        assert out["oracle.build_generator.s"] == 0.5
        assert out["pgd.iters"] == 0.0
        assert set(out) == set(metrics.LAYER_METRICS)


class TestTracer:
    def test_wraps_counts_and_restores(self):
        from branchcs import admm

        orig = admm._fft2
        tracer = Tracer()
        tracer.install()
        try:
            assert admm._fft2 is not orig
            admm._fft2([[1.0]])  # no unit: passes through unrecorded
            with tracer.charge(7), tracer.span("op"):
                admm._fft2([[1.0]])
                admm._ifft2([[1.0]])
        finally:
            tracer.uninstall()
        assert admm._fft2 is orig
        assert tracer.counts == {(7, "admm.ffts"): 2}
        assert [s.name for s in tracer.spans] == ["op"]

    def test_missing_name_is_reported_not_fatal(self):
        tracer = Tracer(targets=[("branchcs.admm", "no_such_fn", "admm.x", None),
                                 ("branchcs.no_such_module", "f", "x", None)])
        tracer.install()
        tracer.uninstall()
        assert tracer.missing == ["branchcs.admm.no_such_fn", "branchcs.no_such_module.f"]

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(targets=[])
        with pytest.raises(ZeroDivisionError):
            with tracer.charge(0), tracer.span("op"):
                1 / 0
        assert tracer.spans[0].name == "op" and tracer.spans[0].end >= tracer.spans[0].start


def _setup(name, tmp_path, n):
    wl = workloads.WORKLOADS[name](tmp_path / name, seed=3, threads=1, n=n)
    wl.setup()
    return wl


def test_failed_ops_are_counted_not_dropped():
    class Flaky:
        min_ops = 4

        def input(self, i):
            return i

        def op(self, key):
            if key == 1:
                raise RuntimeError("boom")
            return key

        def check(self, key, raw):
            if raw == 3:
                return workloads.Outcome(False, 0.5, "gate failed")
            return workloads.Outcome(True, 0.1)

    ops = worker.run_plain(Flaky(), seconds=0)
    assert [r["ok"] for r in ops] == [True, False, True, False]
    assert ops[1]["reason"] == "RuntimeError: boom" and ops[1]["seconds"] >= 0
    assert ops[3]["reason"] == "gate failed" and ops[3]["rel_err"] == 0.5


class TestWorkloadSmoke:
    @pytest.mark.parametrize("name", ["exact-hsc-512", "match-bds-256"])
    def test_plain_ops_pass_their_gates(self, tmp_path, name):
        ops = worker.run_plain(_setup(name, tmp_path, 16), seconds=0)
        assert ops and all(r["ok"] for r in ops), [r["reason"] for r in ops]
        assert all(r["rel_err"] > 0 for r in ops)

    def test_cs_ops_cycle_the_pool_and_pass_at_n64(self, tmp_path):
        ops = worker.run_plain(_setup("cs-hsc-512", tmp_path, 64), seconds=0)
        assert [r["key"] for r in ops] == [3, 4, 0, 1, 2]
        assert all(r["ok"] for r in ops), [r["reason"] for r in ops]

    def test_inputs_follow_the_seed(self, tmp_path):
        a = workloads.MatchedAccuracy(tmp_path, seed=1, threads=1, n=16)
        b = workloads.MatchedAccuracy(tmp_path, seed=7, threads=1, n=16)
        assert [a.input(i) for i in range(6)] == [1, 2, 3, 4, 0, 1]
        assert [b.input(i) for i in range(2)] == [2, 3]
        assert workloads.ExactSolve(tmp_path, seed=1, threads=1, n=16).input(0) is None

    @pytest.mark.parametrize("name", run.WORKLOADS)
    def test_traced_run_reports_every_layer_metric(self, tmp_path, name):
        wl = workloads.WORKLOADS[name](tmp_path / name, seed=0, threads=1, n=16)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.charge("setup"):
                wl.setup()
        finally:
            tracer.uninstall()
        ops = worker.run_traced(wl, 0, tracer)
        assert tracer.missing == []
        out = worker.trace_metrics(ops, tracer, workloads.sweep_probe(n=16, reps=2))
        assert set(out) == set(metrics.PER_LAYER_UNITS)
        assert out["trace.span_coverage"] > 0.5
        if name == "match-bds-256":
            assert out["pgd.ffts_per_iter"] > 0 and out["models.ode_solves"] == 9
        else:
            assert out["grid.pgf_points"] > 0 and out["matio.bytes_written"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER_UNITS


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cs-hsc-512",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
