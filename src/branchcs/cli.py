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
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, admm, matio, pgd
from .errors import BranchCSError
from .grid import (
    MeasurementSet,
    check_grid_size,
    default_m,
    full_measurements,
    invert_full,
    rel_l2_error,
    sample_indices,
    sampled_measurements,
)
from .models import model_from_config
from .oracle import oracle_transition_matrix
from .presets import DEFAULT_SPARSITY_K, admm_defaults, pgd_lambda

EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _m_or_default(args) -> int:
    return args.m if args.m is not None else default_m(args.n, DEFAULT_SPARSITY_K)


def _exact_and_subgrids(model, n: int, m: int, seeds) -> tuple[np.ndarray, list[MeasurementSet]]:
    """Exact S from the full grid, and the J x J measurements read off it per seed.

    The index sets are drawn first, so a bad --m fails before the full grid.
    """
    index_sets = [(seed, sample_indices(n, m, seed)) for seed in seeds]
    b_full = full_measurements(model, n)
    subgrids = [MeasurementSet(n=n, indices=idx, b=b_full[np.ix_(idx, idx)], seed=seed)
                for seed, idx in index_sets]
    return invert_full(b_full), subgrids


def _write_matrix(path_stem: Path, arr, fmt: str) -> Path:
    if fmt == "csv":
        path = path_stem.with_suffix(".csv")
        matio.write_csv(path, arr)
    else:
        path = path_stem.with_suffix(".bpm")
        matio.write_matrix(path, arr)
    return path


def _write_table(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _solver(args, kind: str, n: int, m: int):
    """The --solver function and its config: the presets with the flags on top."""
    if args.solver == "admm":
        return admm.recover, admm_defaults(
            kind, n, m,
            max_iter=args.max_iter,
            beta=args.beta,
            lam=args.lam,
            eps_abs=args.eps_abs,
            eps_rel=args.eps_rel,
        )
    lam = args.lam if args.lam is not None else pgd_lambda(kind, m)
    return pgd.pgd_recover, pgd.PgdConfig(lam=lam, max_iter=args.max_iter)


# Each command validates its arguments before computing anything and returns
# (manifest fields, stdout line); main does the rest.

def cmd_solve(args, model, out_dir: Path) -> tuple[dict, str]:
    s = invert_full(full_measurements(model, args.n))
    s_path = _write_matrix(out_dir / "S_full", s, args.format)
    fields = {"n": args.n, "pgf_evals": args.n * args.n, "outputs": [str(s_path)],
              "total_mass": float(s.sum())}
    return fields, f"wrote {s_path} (total mass {s.sum():.6f})"


def cmd_recover(args, model, out_dir: Path) -> tuple[dict, str]:
    n, m = args.n, _m_or_default(args)
    s_true = matio.read_matrix(args.truth) if args.truth else None
    if s_true is not None and s_true.shape != (n, n):
        raise ValueError(f"--truth {args.truth} has shape {s_true.shape}, expected {(n, n)}")
    solve, solver_cfg = _solver(args, model.kind, n, m)
    indices = sample_indices(n, m, args.seed)
    ms = sampled_measurements(model, n, indices, seed=args.seed)
    report = solve(ms, solver_cfg, args.threads)
    s_path = _write_matrix(out_dir / "S_hat", report.s_hat, args.format)
    msg = f"wrote {s_path}: {report.iterations} iterations, converged={report.converged}"
    metrics = {}
    if s_true is not None:
        metrics["eps_rel_l2"] = rel_l2_error(report.s_hat, s_true)
        msg += f", eps_rel_l2={metrics['eps_rel_l2']:.4g}"
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    fields = {
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
    }
    return fields, msg


def _parse_grid(spec: str) -> list[float]:
    if ":" not in spec:
        return [float(x) for x in spec.split(",")]
    parts = spec.split(":")
    scale = parts.pop() if len(parts) == 4 else "log"
    if len(parts) != 3 or scale not in ("log", "lin"):
        raise ValueError(f"--grid must be start:stop:num[:log|lin], got {spec!r}")
    start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
    space = np.geomspace if scale == "log" else np.linspace
    return list(space(start, stop, num))


def cmd_sweep(args, model, out_dir: Path) -> tuple[dict, str]:
    n, m = args.n, _m_or_default(args)
    values = sorted(_parse_grid(args.grid))
    key = "beta" if args.param == "beta" else "lam"
    configs = [admm_defaults(model.kind, n, m, max_iter=args.max_iter, **{key: value})
               for value in values]
    s_true, (ms,) = _exact_and_subgrids(model, n, m, [args.seed])
    rows = []
    for value, solver_cfg in zip(values, configs):
        try:
            report = admm.recover(ms, solver_cfg, args.threads)
            rows.append([value, rel_l2_error(report.s_hat, s_true),
                         report.iterations, round(report.wall_time, 3)])
        except BranchCSError as exc:
            rows.append([value, "error", str(exc), ""])
    csv_path = _write_table(out_dir / f"sweep_{args.param}.csv",
                            [args.param, "eps_rel_l2", "iterations", "wall_time"], rows)
    fields = {"n": n, "m": m, "seed": args.seed, "param": args.param, "grid": values,
              "outputs": [str(csv_path)]}
    return fields, f"wrote {csv_path} ({len(rows)} points)"


def cmd_bench(args, model, out_dir: Path) -> tuple[dict, str]:
    """Per N: the exact truth once, then fresh-seed trials for both solvers.

    PGD runs to its own plateau first; ADMM then runs until it matches or
    beats that error, so wall times are compared at equal accuracy.
    """
    n_list = [int(x) for x in args.n_list.split(",")]
    for n in n_list:
        check_grid_size(n)
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rows = []
    for n in n_list:
        m = default_m(n, DEFAULT_SPARSITY_K)
        p_cfg = pgd.PgdConfig(lam=pgd_lambda(model.kind, m), max_iter=args.max_iter)
        a_cfg = admm_defaults(model.kind, n, m, max_iter=50 * args.max_iter)
        s_true, subgrids = _exact_and_subgrids(model, n, m, range(args.trials))
        walls, errs = {"pgd": [], "admm": []}, {"pgd": [], "admm": []}
        for ms in subgrids:
            p_rep = pgd.pgd_recover(ms, p_cfg, args.threads)
            p_err = rel_l2_error(p_rep.s_hat, s_true)
            a_rep = admm.recover_to_error(ms, a_cfg, s_true, target=p_err, threads=args.threads)
            a_err = rel_l2_error(a_rep.s_hat, s_true)
            for solver, rep, err in (("pgd", p_rep, p_err), ("admm", a_rep, a_err)):
                walls[solver].append(rep.wall_time)
                errs[solver].append(err)
        for solver in ("pgd", "admm"):
            rows.append([n, solver, m, round(statistics.median(walls[solver]), 3),
                         statistics.median(errs[solver]), args.trials])
    csv_path = _write_table(out_dir / "bench.csv", ["n", "solver", "m", "median_wall_time",
                                                    "median_eps_rel_l2", "trials"], rows)
    return {"n_list": n_list, "trials": args.trials, "outputs": [str(csv_path)]}, f"wrote {csv_path}"


def cmd_oracle(args, model, out_dir: Path) -> tuple[dict, str]:
    result = oracle_transition_matrix(model, args.n_trunc, tol=args.tol)
    s_path = _write_matrix(out_dir / "S_oracle", result.probs, args.format)
    fields = {"n_trunc": args.n_trunc, "truncation_mass": result.truncation_mass,
              "outputs": [str(s_path)]}
    return fields, f"wrote {s_path} (truncation mass {result.truncation_mass:.3g})"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="branchcs", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    # Flags shared by several subcommands, each declared once in a parent parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="model config JSON")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--format", choices=["bin", "csv"], default="bin")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads for the ADMM sweeps; FISTA runs on one "
                             "(results do not depend on it)")
    grid_size = argparse.ArgumentParser(add_help=False)
    grid_size.add_argument("--n", type=int, required=True)
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--m", type=int, default=None)
    sampling.add_argument("--seed", type=int, default=0)
    max_iter = argparse.ArgumentParser(add_help=False)
    max_iter.add_argument("--max-iter", type=int, default=500)

    def command(name, func, help, *groups):
        sub = subs.add_parser(name, parents=[common, *groups], help=help)
        sub.set_defaults(func=func)
        return sub

    command("solve", cmd_solve, "full PGF grid + exact Fourier inversion", grid_size)

    p = command("recover", cmd_recover, "compressed-sensing recovery from sampled PGF values",
                grid_size, sampling, max_iter)
    p.add_argument("--solver", choices=["admm", "pgd"], default="admm")
    p.add_argument("--truth", default=None, help="reference S matrix file for error reporting")
    for flag in ("--beta", "--lam", "--eps-abs", "--eps-rel"):
        p.add_argument(flag, type=float, default=None)

    p = command("sweep", cmd_sweep, "recovery error across a beta or lambda grid",
                grid_size, sampling, max_iter)
    p.add_argument("--param", choices=["beta", "lambda"], required=True)
    p.add_argument("--grid", required=True,
                   help="start:stop:num[:log|lin] or comma-separated values")

    p = command("bench", cmd_bench, "median runtimes/errors for ADMM vs PGD", max_iter)
    p.add_argument("--n-list", required=True, help="comma-separated powers of two")
    p.add_argument("--trials", type=int, default=5)

    p = command("oracle", cmd_oracle, "uniformization ground truth on a truncated box")
    p.add_argument("--n-trunc", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        with open(args.config) as fh:
            cfg = json.load(fh)
        model = model_from_config(cfg)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        fields, message = args.func(args, model, out_dir)
        manifest = {"command": args.command, "config": cfg, **fields,
                    "tool_version": __version__,
                    "timestamp": datetime.now(timezone.utc).isoformat()}
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        # before BranchCSError: MTooLarge is both, and it is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BranchCSError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
