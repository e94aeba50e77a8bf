"""Run one benchmark workload of branchcs and print its metrics.

    python3 benchmarks/run.py --workload exact-hsc-512 --seed 1 --seconds 36 --trace 0

--workload is one of the names in BENCHMARK.json, or ``all`` to run each in
turn.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1, the per-layer metrics.  Lines before it
give the environment and a readable table.  See benchmarks/README.md for
the workloads and how to read them.

This process imports only the standard library.  Each set-up runs in a
fresh worker process (worker.py), so set-up time covers interpreter start,
imports, references and one warm-up op; the first worker goes on to run the
timed ops.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-hsc-512", "cs-hsc-512", "match-bds-256")

# Set-ups per run; setup_s is their median.
SETUP_RUNS = 3
# A run must end within 180 s; everything it starts is killed after this.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


class Worker:
    """A worker process; times its start to READY, then collects its result."""

    def __init__(self, workload, seed, seconds, trace, work_dir, deadline, setup_only=False):
        self.deadline = deadline
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--threads", str(nproc()), "--work-dir", str(work_dir)]
        if setup_only:
            argv.append("--setup-only")
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            wait = max(0.0, deadline - time.monotonic())
            if not select.select([self.proc.stdout], [], [], wait)[0]:
                self._fail("set-up ran past the deadline")
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - start
            if line.strip() != "READY":
                self._fail("set-up did not finish")
        except BaseException:
            self.stop()
            raise

    def _fail(self, what):
        code = self.stop()
        raise BenchError(f"worker {what} (exit code {code})")

    def finish(self) -> dict | None:
        """Wait for the worker; its last stdout line is the result, if any."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._fail("ran past the deadline")
        except BaseException:
            self.stop()
            raise
        if self.proc.returncode != 0:
            self._fail("failed")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def stop(self) -> int | None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        return self.proc.returncode


def end_to_end(ops, setup_times, peak_rss_mb) -> dict:
    rel_err = metrics.rel_err_over_inputs((r["key"], r["rel_err"]) for r in ops)
    if rel_err is None:
        raise BenchError("no op got far enough to measure its error")
    return {
        "solve_s": metrics.solve_seconds((r["key"], r["seconds"], r["ok"]) for r in ops),
        "rel_err": rel_err,
        "setup_s": metrics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def run_workload(name, seed, seconds, trace) -> dict:
    """Set up and run one workload; returns ops, metrics and environment."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work_root = ROOT / ".bench_work"
    work_dir = work_root / f"{name}-{os.getpid()}"
    try:
        worker = Worker(name, seed, seconds, trace, work_dir / "0", deadline)
        result = worker.finish()
        if result is None:
            raise BenchError("worker printed no result")
        setup_times = [worker.setup_s]
        if not trace:
            for i in range(1, SETUP_RUNS):
                extra = Worker(name, seed, seconds, trace, work_dir / str(i), deadline,
                               setup_only=True)
                extra.finish()
                setup_times.append(extra.setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    ops = result["ops"]
    failed = sum(1 for r in ops if not r["ok"])
    if trace:
        values = result["layers"]
        units = metrics.PER_LAYER_UNITS
    else:
        values = end_to_end(ops, setup_times, result["peak_rss_mb"])
        units = metrics.END_TO_END_UNITS
    return {"name": name, "ops": ops, "failed": failed, "setup_times": setup_times,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            "env": result["env"], "missing": result.get("missing", []),
            "self_times": result.get("self_times", {})}


def report(run: dict, seed: int, trace: int, env: dict) -> None:
    """The readable part of the output: environment, table, failures."""
    ops = run["ops"]
    print(f"== {run['name']}  seed {seed}  trace {trace}")
    print("env " + json.dumps({**env, **run["env"]}, sort_keys=True))
    secs = sorted(r["seconds"] for r in ops)
    for name, m in run["metrics"].items():
        line = f"  {name:<30} {m['value']:<14.6g} {m['unit']}"
        if name == "solve_s":
            line += f"  (median of {len(ops)} ops, min {secs[0]:.4g}, max {secs[-1]:.4g})"
        elif name == "setup_s":
            line += f"  (median of {len(run['setup_times'])} set-ups)"
        print(line)
    print(f"  {'fail_rate':<30} {metrics.fail_rate(len(ops), run['failed']):<14.6g} "
          f"({run['failed']}/{len(ops)} ops failed)")
    faster = [r["notes"]["admm_faster"] for r in ops if "admm_faster" in r["notes"]]
    if faster:
        print(f"  ADMM faster than FISTA at matched error in {sum(faster)}/{len(faster)} ops")
    for name, value in sorted(run["self_times"].items(), key=lambda kv: -kv[1]):
        print(f"  self time {name:<30} {value:.6g} s (whole run)")
    for name in run["missing"]:
        print(f"  missing layer: {name} (its metrics read 0)")
    for r in ops:
        if not r["ok"]:
            print(f"  failed op (input {r['key']}): {r['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full report (ops, env, metrics) as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "branchcs" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'branchcs'}", file=sys.stderr)
        return 2
    env = {"nproc": nproc(), "threads": nproc(), "git_sha": git_sha(), "seed": args.seed,
           "seconds": args.seconds}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for run in runs:
        report(run, args.seed, args.trace, env)
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "runs": runs}, indent=2) + "\n")
    attempted = sum(len(run["ops"]) for run in runs)
    failed = sum(run["failed"] for run in runs)
    if len(runs) == 1:
        out_metrics = runs[0]["metrics"]
    else:
        out_metrics = {f"{run['name']}.{k}": v for run in runs for k, v in run["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
