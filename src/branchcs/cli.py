"""Command-line harness: exact solve, CS recovery, parameter sweeps, benchmarks.

Subcommands: solve, recover, sweep, bench, oracle.  All runs are deterministic
given (config, seeds); every command writes a manifest capturing its inputs.
Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, admm, matio, pgd
from .errors import BranchCSError
from .grid import (
    MeasurementSet,
    default_m,
    full_measurements,
    invert_full,
    rel_l2_error,
    sample_indices,
    sampled_measurements,
)
from .models import ModelSpec, model_from_config
from .oracle import oracle_transition_matrix
from .presets import DEFAULT_SPARSITY_K, admm_defaults, pgd_lambda

EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _prepare(args) -> tuple[dict, ModelSpec, Path]:
    """Load the config, build its model and create the output directory."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    model = model_from_config(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, model, out_dir


def _m_or_default(args) -> int:
    return args.m if args.m is not None else default_m(args.n, DEFAULT_SPARSITY_K)


def _subgrid(b_full: np.ndarray, indices, seed: int) -> MeasurementSet:
    """Measurements on J x J read off an already computed full grid."""
    return MeasurementSet(n=len(b_full), indices=indices,
                          b=b_full[np.ix_(indices, indices)], seed=seed)


def _write_manifest(out_dir: Path, name: str, payload: dict) -> Path:
    payload = dict(payload)
    payload["tool_version"] = __version__
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


def _write_matrix(path_stem: Path, arr, fmt: str) -> Path:
    if fmt == "csv":
        path = path_stem.with_suffix(".csv")
        matio.write_csv(path, arr)
    else:
        path = path_stem.with_suffix(".bpm")
        matio.write_matrix(path, arr)
    return path


def _solver_config(args, kind: str, n: int, m: int):
    if args.solver == "admm":
        return admm_defaults(
            kind, n, m,
            max_iter=args.max_iter,
            beta=args.beta,
            lam=args.lam,
            eps_abs=args.eps_abs,
            eps_rel=args.eps_rel,
        )
    lam = args.lam if args.lam is not None else pgd_lambda(kind, m)
    return pgd.PgdConfig(lam=lam, max_iter=args.max_iter)


def cmd_solve(args) -> int:
    cfg, model, out_dir = _prepare(args)
    b_full = full_measurements(model, args.n)
    s = invert_full(b_full)
    s_path = _write_matrix(out_dir / "S_full", s, args.format)
    _write_manifest(out_dir, "manifest.json", {
        "command": "solve",
        "config": cfg,
        "n": args.n,
        "pgf_evals": args.n * args.n,
        "outputs": [str(s_path)],
        "total_mass": float(s.sum()),
    })
    print(f"wrote {s_path} (total mass {s.sum():.6f})")
    return 0


def cmd_recover(args) -> int:
    cfg, model, out_dir = _prepare(args)
    n, m = args.n, _m_or_default(args)
    indices = sample_indices(n, m, args.seed)
    ms = sampled_measurements(model, n, indices, seed=args.seed)
    solver_cfg = _solver_config(args, model.kind, n, m)
    if args.solver == "admm":
        report = admm.recover(ms, solver_cfg)
    else:
        report = pgd.pgd_recover(ms, solver_cfg)
    s_path = _write_matrix(out_dir / "S_hat", report.s_hat, args.format)
    metrics = {}
    if args.truth:
        s_true = matio.read_matrix(args.truth)
        metrics["eps_rel_l2"] = rel_l2_error(report.s_hat, s_true)
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    _write_manifest(out_dir, "manifest.json", {
        "command": "recover",
        "config": cfg,
        "n": n,
        "m": m,
        "seed": args.seed,
        "solver": args.solver,
        "solver_config": dataclasses.asdict(solver_cfg),
        "pgf_evals": m * m,
        "outputs": [str(s_path), str(report_path)],
        "metrics": metrics,
        "iterations": report.iterations,
        "converged": report.converged,
    })
    msg = f"wrote {s_path}: {report.iterations} iterations, converged={report.converged}"
    if metrics:
        msg += f", eps_rel_l2={metrics['eps_rel_l2']:.4g}"
    print(msg)
    return 0


def _parse_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        scale = parts[3] if len(parts) > 3 else "log"
        if scale == "log":
            return list(np.geomspace(start, stop, num))
        return list(np.linspace(start, stop, num))
    return [float(x) for x in spec.split(",")]


def cmd_sweep(args) -> int:
    cfg, model, out_dir = _prepare(args)
    n, m = args.n, _m_or_default(args)
    values = sorted(_parse_grid(args.grid))
    indices = sample_indices(n, m, args.seed)  # rejects --m > --n before the full grid
    b_full = full_measurements(model, n)
    s_true = invert_full(b_full)
    ms = _subgrid(b_full, indices, args.seed)  # shared across grid points
    rows = []
    for value in values:
        overrides = {"beta": value} if args.param == "beta" else {"lam": value}
        solver_cfg = admm_defaults(model.kind, n, m, max_iter=args.max_iter, **overrides)
        try:
            report = admm.recover(ms, solver_cfg)
            rows.append([value, rel_l2_error(report.s_hat, s_true),
                         report.iterations, round(report.wall_time, 3)])
        except BranchCSError as exc:
            rows.append([value, "error", str(exc), ""])
    csv_path = out_dir / f"sweep_{args.param}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.param, "eps_rel_l2", "iterations", "wall_time"])
        writer.writerows(rows)
    _write_manifest(out_dir, "manifest.json", {
        "command": "sweep",
        "config": cfg,
        "n": n,
        "m": m,
        "seed": args.seed,
        "param": args.param,
        "grid": values,
        "outputs": [str(csv_path)],
    })
    print(f"wrote {csv_path} ({len(rows)} points)")
    return 0


def _bench_one(model, n: int, trials: int, max_iter: int):
    """Per-N benchmark: full truth once, then fresh-seed trials for both solvers.

    PGD runs to its own plateau first; ADMM then runs until it matches or
    beats that error, so wall times are compared at equal accuracy.
    """
    b_full = full_measurements(model, n)
    s_true = invert_full(b_full)
    m = default_m(n, DEFAULT_SPARSITY_K)
    results = {"admm": {"wall": [], "err": []}, "pgd": {"wall": [], "err": []}}
    for trial in range(trials):
        indices = sample_indices(n, m, seed=trial)
        ms = _subgrid(b_full, indices, trial)
        p_cfg = pgd.PgdConfig(lam=pgd_lambda(model.kind, m), max_iter=max_iter)
        p_rep = pgd.pgd_recover(ms, p_cfg)
        p_err = rel_l2_error(p_rep.s_hat, s_true)
        a_cfg = admm_defaults(model.kind, n, m, max_iter=50 * max_iter)
        a_rep = admm.recover_to_error(ms, a_cfg, s_true, target=p_err)
        results["admm"]["wall"].append(a_rep.wall_time)
        results["admm"]["err"].append(rel_l2_error(a_rep.s_hat, s_true))
        results["pgd"]["wall"].append(p_rep.wall_time)
        results["pgd"]["err"].append(p_err)
    return m, results


def cmd_bench(args) -> int:
    cfg, model, out_dir = _prepare(args)
    n_list = [int(x) for x in args.n_list.split(",")]
    rows = []
    for n in n_list:
        m, results = _bench_one(model, n, args.trials, args.max_iter)
        for solver in ("pgd", "admm"):
            rows.append([
                n, solver, m,
                round(statistics.median(results[solver]["wall"]), 3),
                statistics.median(results[solver]["err"]),
                args.trials,
            ])
    csv_path = out_dir / "bench.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "solver", "m", "median_wall_time", "median_eps_rel_l2", "trials"])
        writer.writerows(rows)
    _write_manifest(out_dir, "manifest.json", {
        "command": "bench",
        "config": cfg,
        "n_list": n_list,
        "trials": args.trials,
        "outputs": [str(csv_path)],
    })
    print(f"wrote {csv_path}")
    return 0


def cmd_oracle(args) -> int:
    cfg, model, out_dir = _prepare(args)
    result = oracle_transition_matrix(model, args.n_trunc, tol=args.tol)
    s_path = _write_matrix(out_dir / "S_oracle", result.probs, args.format)
    _write_manifest(out_dir, "manifest.json", {
        "command": "oracle",
        "config": cfg,
        "n_trunc": args.n_trunc,
        "truncation_mass": result.truncation_mass,
        "outputs": [str(s_path)],
    })
    print(f"wrote {s_path} (truncation mass {result.truncation_mass:.3g})")
    return 0


def _add_common(sub):
    sub.add_argument("--config", required=True, help="model config JSON")
    sub.add_argument("--out-dir", default=".", help="output directory")
    sub.add_argument("--format", choices=["bin", "csv"], default="bin")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads (accepted for compatibility)")


def _add_solver_flags(sub):
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--lam", type=float, default=None)
    sub.add_argument("--eps-abs", type=float, default=None)
    sub.add_argument("--eps-rel", type=float, default=None)
    sub.add_argument("--max-iter", type=int, default=500)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="branchcs", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="full PGF grid + exact Fourier inversion")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("recover", help="compressed-sensing recovery from sampled PGF values")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solver", choices=["admm", "pgd"], default="admm")
    p.add_argument("--truth", default=None, help="reference S matrix file for error reporting")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_recover)

    p = subs.add_parser("sweep", help="recovery error across a beta or lambda grid")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", choices=["beta", "lambda"], required=True)
    p.add_argument("--grid", required=True,
                   help="start:stop:num[:log|lin] or comma-separated values")
    p.add_argument("--max-iter", type=int, default=500)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("bench", help="median runtimes/errors for ADMM vs PGD")
    _add_common(p)
    p.add_argument("--n-list", required=True, help="comma-separated powers of two")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--max-iter", type=int, default=500)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("oracle", help="uniformization ground truth on a truncated box")
    _add_common(p)
    p.add_argument("--n-trunc", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        # before BranchCSError: MTooLarge is both, and it is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BranchCSError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
