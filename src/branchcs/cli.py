"""Command-line harness: exact solve, CS recovery, parameter sweeps, benchmarks.

Subcommands: solve, recover, sweep, bench, oracle.  All runs are deterministic
given (config, seeds); every command writes a manifest capturing its inputs.
Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import dataclasses
import functools
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
    """--m or the default M for --n, once it and --seed, which the sampling
    commands read next, are checked: the penalty's log of an M below 1 and
    numpy's error for a negative seed name no flag."""
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.m is not None and args.m < 1:
        raise ValueError(f"--m must be >= 1, got {args.m}")
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
    with matio.open_new(path, newline="") as fh:
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
    for flag in ("beta", "eps_abs", "eps_rel"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} is an ADMM flag; --solver pgd takes none")
    lam = args.lam if args.lam is not None else pgd_lambda(kind, m)
    return pgd.pgd_recover, pgd.PgdConfig(lam=lam, max_iter=args.max_iter)


def _check_format(args, side: int) -> None:
    """ValueError if --format csv cannot hold a side x side matrix (matio's limit)."""
    if args.format == "csv" and side > matio.CSV_MAX_SIDE:
        raise ValueError(f"--format csv is limited to {matio.CSV_MAX_SIDE}x{matio.CSV_MAX_SIDE}, "
                         f"got {side}x{side}; use --format bin")


# Each command validates its arguments before computing anything and returns
# (manifest fields, stdout line); main does the rest.

def cmd_solve(args, model, out_dir: Path) -> tuple[dict, str]:
    _check_format(args, args.n)
    s = invert_full(full_measurements(model, args.n))
    s_path = _write_matrix(out_dir / "S_full", s, args.format)
    fields = {"n": args.n, "pgf_evals": args.n * args.n, "outputs": [str(s_path)],
              "total_mass": float(s.sum())}
    return fields, f"wrote {s_path} (total mass {fields['total_mass']:.6f})"


def cmd_recover(args, model, out_dir: Path) -> tuple[dict, str]:
    n, m = args.n, _m_or_default(args)
    _check_format(args, n)
    s_true = matio.read_matrix(args.truth) if args.truth else None
    if s_true is not None and s_true.shape != (n, n):
        raise ValueError(f"--truth {args.truth} has shape {s_true.shape}, expected {(n, n)}")
    # else eps_rel_l2 is inf or nan, which manifest.json cannot hold as JSON
    if s_true is not None and not (np.all(np.isfinite(s_true)) and np.any(s_true)):
        raise ValueError(f"--truth {args.truth} must be finite and not all zero")
    solve, solver_cfg = _solver(args, model.kind, n, m)
    indices = sample_indices(n, m, args.seed)
    ms = sampled_measurements(model, n, indices, seed=args.seed)
    report = solve(ms, solver_cfg)
    s_path = _write_matrix(out_dir / "S_hat", report.s_hat, args.format)
    msg = f"wrote {s_path}: {report.iterations} iterations, converged={report.converged}"
    metrics = {}
    if s_true is not None:
        metrics["eps_rel_l2"] = rel_l2_error(report.s_hat, s_true)
        msg += f", eps_rel_l2={metrics['eps_rel_l2']:.4g}"
    report_path = out_dir / "report.json"
    _write_json(report_path, report.to_json_dict())
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
        try:
            return [float(x) for x in spec.split(",")]
        except ValueError:
            raise ValueError(f"--grid values must be numbers, got {spec!r}") from None
    parts = spec.split(":")
    scale = parts.pop() if len(parts) == 4 else "log"
    if len(parts) != 3 or scale not in ("log", "lin"):
        raise ValueError(f"--grid must be start:stop:num[:log|lin], got {spec!r}")
    try:
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"--grid must be start:stop:num[:log|lin] with an integer num, "
                         f"got {spec!r}") from None
    if num < 1:
        raise ValueError(f"--grid needs num >= 1, got {spec!r}")
    if scale == "log" and not (start > 0 and stop > 0):
        raise ValueError(f"--grid on a log scale needs start and stop > 0, got {spec!r}")
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
            report = admm.recover(ms, solver_cfg)
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
    try:
        n_list = [int(x) for x in args.n_list.split(",")]
        for n in n_list:
            check_grid_size(n)
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated powers of two >= 2, "
                         f"got {args.n_list!r}") from None
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
            p_rep = pgd.pgd_recover(ms, p_cfg)
            p_err = rel_l2_error(p_rep.s_hat, s_true)
            a_rep = admm.recover_to_error(ms, a_cfg, s_true, target=p_err)
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
    _check_format(args, args.n_trunc)
    result = oracle_transition_matrix(model, args.n_trunc, tol=args.tol)
    s_path = _write_matrix(out_dir / "S_oracle", result.probs, args.format)
    fields = {"n_trunc": args.n_trunc, "truncation_mass": result.truncation_mass,
              "outputs": [str(s_path)]}
    return fields, f"wrote {s_path} (truncation mass {result.truncation_mass:.3g})"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is."""
    parser = _Parser(prog="branchcs", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    # Flags shared by several subcommands, each declared once in a parent parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="model config JSON")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--format", choices=["bin", "csv"], default="bin")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: every solver runs on the calling thread")
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


def _write_json(path: Path, obj) -> None:
    with matio.open_new(path) as fh:
        fh.write(json.dumps(obj, indent=2, default=str) + "\n")


# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _tune_allocator() -> None:
    """Keep grid-sized blocks on glibc's heap, once per process; a no-op without mallopt.

    glibc mmaps a block at or above its dynamic threshold, which rises only to
    the largest mmapped block freed so far, so each op's grid of that same size
    was mmapped and faulted in afresh, page by page.  32 MiB, glibc's 64-bit
    maximum, covers the complex grids up to N = 1024; setting it by hand leaves
    the trim threshold at 128 KiB, so that is raised as well.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _tune_allocator()
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
        _write_json(out_dir / "manifest.json", manifest)
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
