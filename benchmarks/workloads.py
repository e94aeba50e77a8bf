"""The benchmark's workloads: generated inputs, one op, and the op's gate.

Each workload is set up once (references plus one untimed warm-up op),
then ``op`` runs back to back, one at a time, and ``check`` gates every
result.  ``op`` calls every layer through its module attribute (``pgd.pgd_recover``,
``cli.main``), so the wrappers in tracing.py see the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from branchcs import admm, cli, grid, matio, oracle, pgd
from branchcs.models import model_from_config
from branchcs.presets import DEFAULT_SPARSITY_K, admm_defaults, pgd_lambda

# Paper rates: HSC per week, BDS per year.
HSC_CONFIG = {"model": "hsc", "rates": {"rho": 0.125, "nu": 0.104, "mu": 0.147},
              "t": 1.0, "init": [1, 0]}
BDS_CONFIG = {"model": "bds", "rates": {"gamma": 0.016, "sigma": 0.004, "delta": 0.019},
              "t": 0.35, "init": [1, 0]}

# Gates.  The exact path uses the oracle and normalization tolerances of
# acceptance criteria 2 and 7.  The CS bound is about three times the worst
# error over sampling seeds 0-7 at N=512 (0.0070).
ORACLE_BLOCK = 64
ORACLE_TOL = 1e-6
MASS_TOL = 1e-8
CS_MAX_ERR = 0.02

# The recovery workloads cycle these sampling seeds, starting at --seed mod 5.
# Recovery error and time depend strongly on the sampling pattern (cs: error
# 0.0027 to 0.0070 over seeds 0-7 at N=512), so fresh patterns in each run
# spread rel_err and solve_s between runs by more than the bounds; a fixed
# pool makes each a paired comparison between commits.  0-4 are the seeds
# `branchcs bench` uses by default.
SEED_POOL = (0, 1, 2, 3, 4)

# `branchcs bench` defaults: FISTA gets 500 iterations, ADMM 50 times that.
MATCH_PGD_ITERS = 500
MATCH_ADMM_SWEEPS = 25_000


@dataclass
class Outcome:
    ok: bool
    rel_err: float | None = None
    reason: str = ""
    notes: dict = field(default_factory=dict)


def _quiet(fn, *args):
    """Call fn with stdout captured: the CLI's progress line is not output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _read_finite(path: Path):
    s = matio.read_matrix(path)
    return s if np.all(np.isfinite(s)) else None


class Workload:
    name = ""
    default_n = 0
    config: dict = {}
    seed_pool: tuple = ()

    def __init__(self, work_dir: Path, seed: int, threads: int, n: int | None = None):
        self.work_dir = Path(work_dir)
        self.seed = seed
        self.threads = threads
        self.n = n or self.default_n
        self.model = model_from_config(self.config)
        self.config_path = self.work_dir / "config.json"
        self.out_dir = self.work_dir / "out"

    def setup(self):
        """References and one untimed warm-up op."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config))

    @property
    def min_ops(self) -> int:
        """Ops a run makes at least: one pass over the seed pool."""
        return max(1, len(self.seed_pool))

    def input(self, i: int):
        """Input of the i-th op; a function of --seed and i only."""
        if not self.seed_pool:
            return None
        return self.seed_pool[(self.seed + i) % len(self.seed_pool)]

    def op(self, key):
        raise NotImplementedError

    def check(self, key, raw) -> Outcome:
        raise NotImplementedError

    def _cli_argv(self, command: str, *extra: str) -> list[str]:
        return [command, "--config", str(self.config_path), "--out-dir", str(self.out_dir),
                "--n", str(self.n), "--threads", str(self.threads), *extra]


class ExactSolve(Workload):
    """`branchcs solve`: full PGF grid plus exact inversion, gated by the oracle."""

    name = "exact-hsc-512"
    default_n = 512
    config = HSC_CONFIG

    def setup(self):
        super().setup()
        self.block = min(ORACLE_BLOCK, self.n)
        self.oracle = oracle.oracle_transition_matrix(self.model, self.block).probs
        self.op(None)

    def op(self, key):
        return _quiet(cli.main, self._cli_argv("solve"))

    def check(self, key, rc) -> Outcome:
        if rc != 0:
            return Outcome(False, reason=f"exit code {rc}")
        s = _read_finite(self.out_dir / "S_full.bpm")
        if s is None:
            return Outcome(False, reason="non-finite output")
        block = s[:self.block, :self.block]
        err = grid.rel_l2_error(block, self.oracle)
        mass_gap = abs(float(s.sum()) - 1.0)
        if mass_gap > MASS_TOL:
            return Outcome(False, err, f"total mass off by {mass_gap:.3g}")
        gap = float(np.max(np.abs(block - self.oracle)))
        if gap > ORACLE_TOL:
            return Outcome(False, err, f"oracle gap {gap:.3g}")
        return Outcome(True, err)


class CsRecover(Workload):
    """`branchcs recover` with ADMM at the default M, gated on error and convergence."""

    name = "cs-hsc-512"
    default_n = 512
    config = HSC_CONFIG
    seed_pool = SEED_POOL

    def setup(self):
        super().setup()
        self.s_true = grid.invert_full(grid.full_measurements(self.model, self.n))
        self.truth_path = self.work_dir / "S_true.bpm"
        matio.write_matrix(self.truth_path, self.s_true)
        self.op(SEED_POOL[0], max_iter=2)

    def op(self, key, max_iter: int | None = None):
        extra = ["--seed", str(key), "--truth", str(self.truth_path)]
        if max_iter is not None:
            extra += ["--max-iter", str(max_iter)]
        return _quiet(cli.main, self._cli_argv("recover", *extra))

    def check(self, key, rc) -> Outcome:
        if rc != 0:
            return Outcome(False, reason=f"exit code {rc}")
        s_hat = _read_finite(self.out_dir / "S_hat.bpm")
        if s_hat is None:
            return Outcome(False, reason="non-finite output")
        err = grid.rel_l2_error(s_hat, self.s_true)
        manifest = json.loads((self.out_dir / "manifest.json").read_text())
        if not manifest.get("converged"):
            return Outcome(False, err, "ADMM did not converge")
        if not err < CS_MAX_ERR:
            return Outcome(False, err, f"rel_err {err:.3g} >= {CS_MAX_ERR}")
        return Outcome(True, err, notes={"sweeps": manifest.get("iterations")})


class MatchedAccuracy(Workload):
    """FISTA to its plateau, then ADMM to the same error: the paper's comparison.

    Library calls, mirroring `branchcs bench`, which cannot take a seed.
    rel_err is the matched error (FISTA's plateau); ADMM must reach it.
    """

    name = "match-bds-256"
    default_n = 256
    config = BDS_CONFIG
    seed_pool = SEED_POOL

    def setup(self):
        super().setup()
        self.m = grid.default_m(self.n, DEFAULT_SPARSITY_K)
        self.b_full = grid.full_measurements(self.model, self.n)
        self.s_true = grid.invert_full(self.b_full)
        self.op(SEED_POOL[0], pgd_iters=2, admm_sweeps=2)

    def op(self, key, pgd_iters=MATCH_PGD_ITERS, admm_sweeps=MATCH_ADMM_SWEEPS):
        idx = grid.sample_indices(self.n, self.m, key)
        ms = grid.MeasurementSet(n=self.n, indices=idx, b=self.b_full[np.ix_(idx, idx)],
                                 seed=key)
        p_cfg = pgd.PgdConfig(lam=pgd_lambda(self.model.kind, self.m), max_iter=pgd_iters)
        p_rep = pgd.pgd_recover(ms, p_cfg)
        p_err = grid.rel_l2_error(p_rep.s_hat, self.s_true)
        a_cfg = admm_defaults(self.model.kind, self.n, self.m, max_iter=admm_sweeps)
        a_rep = admm.recover_to_error(ms, a_cfg, self.s_true, target=p_err)
        return p_rep, p_err, a_rep

    def check(self, key, raw) -> Outcome:
        p_rep, p_err, a_rep = raw
        if not (np.all(np.isfinite(p_rep.s_hat)) and np.all(np.isfinite(a_rep.s_hat))):
            return Outcome(False, reason="non-finite output")
        if not p_rep.converged:
            return Outcome(False, p_err, "FISTA did not converge")
        a_err = grid.rel_l2_error(a_rep.s_hat, self.s_true)
        if a_err > p_err:
            return Outcome(False, p_err, f"ADMM error {a_err:.3g} above FISTA's {p_err:.3g}")
        return Outcome(True, p_err, notes={"admm_faster": bool(a_rep.wall_time < p_rep.wall_time)})


WORKLOADS = {w.name: w for w in (ExactSolve, CsRecover, MatchedAccuracy)}


def sweep_probe(n: int = 512, warm_sweeps: int = 10, reps: int = 15) -> dict[str, float]:
    """Median ms of u_update, soft_threshold and iterate on a warm HSC state.

    The state is ADMM after warm_sweeps sweeps from zero, at sampling seed 0.
    Raises AttributeError if one of the ADMM names it calls is gone.
    """
    model = model_from_config(HSC_CONFIG)
    m = grid.default_m(n, DEFAULT_SPARSITY_K)
    ms = grid.sampled_measurements(model, n, grid.sample_indices(n, m, 0), seed=0)
    cfg = admm_defaults(model.kind, n, m)
    embedded = grid.embed_measurements(ms)
    mhat = admm.build_mhat(n, ms.indices, cfg.beta)
    zeros = np.zeros((n, n), dtype=complex)
    state = admm.AdmmState(u=zeros.copy(), z=zeros.copy(), y=zeros.copy())
    for _ in range(warm_sweeps):
        state, _rec = admm.iterate(state, embedded, mhat, cfg)
    calls = {
        "admm.u_update.ms": lambda: admm.u_update(state, embedded, mhat, cfg.beta),
        "admm.soft_threshold.ms": lambda: admm.soft_threshold(
            state.u + state.y / cfg.beta, cfg.lam / cfg.beta),
        "admm.iterate.ms": lambda: admm.iterate(state, embedded, mhat, cfg),
    }
    out = {}
    for metric, call in calls.items():
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            call()
            times.append(1000.0 * (time.perf_counter() - t0))
        out[metric] = float(np.median(times))
    return out
