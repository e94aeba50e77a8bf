"""Matrix-free ADMM recovery of the transition matrix from sampled measurements.

Splitting: min 0.5 * N^2 ||restrict_J(IFFT2(U)) - B||^2 + lambda ||Z||_1
subject to U = Z.  The U-subproblem diagonalizes in the Fourier domain, and
its diagonal is beta off J x J, so each sweep needs IFFT2 only on J x J and
FFT2 only of a block supported on J x J: N + M one-dimensional transforms
each way instead of 2N, plus elementwise work.  No matrix products or
inversions anywhere, and no BLAS calls.  The row transforms and the
elementwise work run in fixed row blocks, on a pool of threads if asked; the
blocks do not depend on the thread count, so neither does any result.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .grid import (
    BlockPool,
    MeasurementSet,
    Subgrid,
    block_pool,
    embed_measurements,
    embedded_fft2,
    sampled_ifft2,
)

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "ResidualRecord",
    "SolveReport",
    "build_mhat",
    "soft_threshold",
    "u_update",
    "iterate",
    "recover",
    "recover_to_error",
    "residual_check",
    "objective",
]

# module-level references so tests can count calls
_fft2 = embedded_fft2
_ifft2 = sampled_ifft2


@dataclass(frozen=True)
class AdmmConfig:
    """ADMM tuning: stepsize, l1 penalty, and stopping tolerances.

    Primal/dual tolerance scale factors are D1 = N^d1_exp, D2 = N^d2_exp.
    """

    beta: float
    lam: float
    eps_abs: float = 1e-2
    eps_rel: float = 1e-3
    d1_exp: float = 2.0
    d2_exp: float = 5.0
    max_iter: int = 500
    # Residual-convergence factor: on top of the tolerance inequalities, both
    # residuals must fall below min_drop times their first-iteration values
    # before the run is declared converged.  The published stopping constants
    # alone fire mid-descent for the corrected U-update, well before the
    # low-error plateau; this operationalizes the residual-convergence
    # guarantee instead.
    min_drop: float = 1e-2

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be > 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class AdmmState:
    """Primal iterate U, split variable Z, scaled dual Y, iteration counter.

    iterate keeps in sweep what the sweeps of a run share, so that the next
    sweep from this state does not derive it again; it is rederived when
    embedded_b, mhat or beta is a different object or value.
    """

    u: np.ndarray
    z: np.ndarray
    y: np.ndarray
    k: int = 0
    sweep: _SweepConstants | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class _SweepConstants:
    """What every sweep of a run shares: the Subgrid of J (read off the diagonal
    of M_hat) and B / (beta + 1) on J x J, with the inputs they came from."""

    embedded_b: np.ndarray
    mhat: np.ndarray
    beta: float
    sub: Subgrid
    b_j: np.ndarray

    @classmethod
    def of(cls, state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
           beta: float) -> _SweepConstants:
        """state's constants if they came from these inputs, else new ones."""
        if embedded_b.shape != state.z.shape:
            raise ShapeMismatch("embedded_b and state grids must have equal shape")
        known = state.sweep
        if (known is not None and known.embedded_b is embedded_b and known.mhat is mhat
                and known.beta == beta):
            return known
        n = embedded_b.shape[0]
        j = np.flatnonzero(np.ravel(mhat)[::n + 1] > beta)  # the diagonal of M_hat as N x N
        # with a reciprocal: complex / real is slow
        b_j = embedded_b.take(j, 0).take(j, 1) * (1.0 / (beta + 1.0))
        return cls(embedded_b, mhat, beta, Subgrid(n, j), b_j)


@dataclass(frozen=True)
class ResidualRecord:
    k: int
    r_norm: float
    s_norm: float
    eps_pri: float
    eps_dual: float


@dataclass
class SolveReport:
    s_hat: np.ndarray
    history: list
    iterations: int
    converged: bool
    wall_time: float
    max_imag: float = 0.0

    @classmethod
    def from_iterate(cls, u: np.ndarray, history: list, converged: bool, start: float):
        """Report on the final Fourier-domain iterate u: s_hat = real(u)/N^2, timed from start."""
        wall, n2 = time.perf_counter() - start, u.shape[0] ** 2
        return cls(s_hat=np.real(u) / n2, history=history, iterations=len(history),
                   converged=converged, wall_time=wall,
                   max_imag=float(np.max(np.abs(np.imag(u)))) / n2)

    def to_json_dict(self) -> dict:
        """Scalars and residual history; the matrix is written separately."""
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "wall_time": self.wall_time,
            "max_imag": self.max_imag,
            "history": [asdict(rec) for rec in self.history],
        }


def build_mhat(n: int, indices, beta: float) -> np.ndarray:
    """Diagonal of the Fourier-domain normal matrix: beta + kron(p, p).

    p is the 0/1 indicator of the sampled indices; every entry of the result
    is beta or beta + 1.
    """
    p = np.zeros(n)
    p[np.asarray(indices, dtype=int)] = 1.0
    return beta + np.kron(p, p)


def soft_threshold(v, tau: float, out: np.ndarray | None = None):
    """Complex magnitude shrinkage: the prox of tau * ||.||_1.

    v * max(1 - tau/|v|, 0): shrinks |v| by tau preserving phase; reduces to
    sign(v) max(|v|-tau, 0) on reals.  Entries with |v| = 0 map to 0.
    Written into out when given, else into a new array.
    """
    v = np.asarray(v)
    if tau == 0:
        return np.positive(v, out=out)  # a copy
    # 1 - tau / max(|v|, tau) is exactly 0 where |v| <= tau, and never divides by 0
    scale = np.abs(v, out=np.empty(v.shape))  # an array even for 0-d v
    np.maximum(scale, tau, out=scale)
    np.divide(tau, scale, out=scale)
    return np.multiply(v, np.subtract(1.0, scale, out=scale), out=out)


def u_update(state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
             beta: float) -> np.ndarray:
    """Closed-form U-subproblem solve: U+ = FFT2[(A_hat + W) / M_hat].

    W = IFFT2(beta Z - Y).  M_hat (from build_mhat) is beta + 1 on J x J and
    beta elsewhere, and FFT2(W / beta) = Z - Y / beta, so
    U+ = Z - Y / beta + FFT2(C) with C = (B + W_J) / (beta + 1) - W_J / beta
    on J x J and zero elsewhere: only the J x J block of W is computed.
    """
    const = _SweepConstants.of(state, embedded_b, mhat, beta)
    c = _c_block(state, const, None, np.empty_like(state.z))
    return _fft2(c, const.sub, const.sub.n) + state.z - state.y * (1.0 / beta)


def _c_block(state: AdmmState, const: _SweepConstants, pool: BlockPool | None,
             work: np.ndarray) -> np.ndarray:
    """The J x J block C of u_update, with rows of beta Z - Y formed in work, an
    N x N scratch grid; the sweep's only inverse transform."""
    beta = const.beta

    def rhs_rows(r):  # rows r of beta Z - Y
        rows = np.multiply(state.z[r], beta, out=work[r])
        rows -= state.y[r]
        return rows

    w = _ifft2(rhs_rows, const.sub, pool)
    # C = B / (beta + 1) - W_J / (beta (beta + 1))
    return const.b_j - w * (1.0 / (beta * (beta + 1.0)))


def _sum_squares(a: np.ndarray) -> float:
    """Sum of |a|^2 over a 2-d float64 or complex128 array whose rows are
    contiguous, without BLAS (np.vdot calls it, and then its idle worker
    threads spin against the sweep's)."""
    f = a.view(np.float64)  # a complex entry is its (re, im) pair
    return float(np.einsum("ij,ij->", f, f))


def iterate(state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
            cfg: AdmmConfig, pool: BlockPool | None = None) -> tuple[AdmmState, ResidualRecord]:
    """One full ADMM sweep; returns the new state and its residual record.

    The row transforms and the elementwise work run row block by row block,
    on pool's threads if given; the work on a block follows as soon as its
    rows of FFT2(C) are made.  The blocks do not depend on the thread count
    and their sums of squares are added in block order, so the result is the
    same with any pool.  The input state is not modified.
    """
    const = _SweepConstants.of(state, embedded_b, mhat, cfg.beta)
    out = tuple(np.empty_like(state.z) for _ in range(3))
    return _sweep(state, const, cfg, pool, out, np.empty_like(state.z))


def _sweep(state: AdmmState, const: _SweepConstants, cfg: AdmmConfig,
           pool: BlockPool | None, out: tuple, work: np.ndarray) -> tuple[AdmmState, ResidualRecord]:
    """iterate, writing the new U, Z and Y into the three N x N arrays out and
    using work as scratch; none of them may be state's."""
    beta, tau = cfg.beta, cfg.lam / cfg.beta
    c = _c_block(state, const, pool, work)
    u, z, y = out

    def tail(r, v):  # v: rows r of FFT2(C), overwritten
        z_old, y_old = state.z[r], state.y[r]
        v += z_old  # V = U+ + Y / beta, the prox argument
        ur, zr, yr = u[r], z[r], y[r]
        np.multiply(y_old, -1.0 / beta, out=ur)
        ur += v  # U+ as u_update returns it
        soft_threshold(v, tau, out=zr)
        np.subtract(ur, zr, out=yr)  # the primal residual r, turned into Y + beta r below
        rr = _sum_squares(yr)
        yr *= beta
        yr += y_old
        dz = np.subtract(zr, z_old, out=v)
        return rr, _sum_squares(dz), _sum_squares(ur), _sum_squares(zr), _sum_squares(yr)

    partial = _fft2(c, const.sub, const.sub.n, pool, tail, work)
    rr, dd, uu, zz, yy = map(sum, zip(*partial))  # each in block order
    k = state.k + 1
    # finite sums of squares mean finite entries; if not, test exactly (it may be overflow)
    if not math.isfinite(uu + zz) and not (np.all(np.isfinite(u)) and np.all(np.isfinite(z))):
        raise NonFinite(f"non-finite iterate at k={k}; check beta/lambda")
    n = u.shape[0]
    rec = ResidualRecord(k=k, r_norm=math.sqrt(rr), s_norm=beta * math.sqrt(dd),
                         eps_pri=n**cfg.d1_exp * cfg.eps_abs + cfg.eps_rel * math.sqrt(max(uu, zz)),
                         eps_dual=n**cfg.d2_exp * cfg.eps_abs + cfg.eps_rel * math.sqrt(yy))
    return AdmmState(u=u, z=z, y=y, k=k, sweep=const), rec


def residual_check(rec: ResidualRecord) -> bool:
    """True iff both residuals are within tolerance (inclusive)."""
    return rec.r_norm <= rec.eps_pri and rec.s_norm <= rec.eps_dual


def recover(ms: MeasurementSet, cfg: AdmmConfig, threads: int = 1) -> SolveReport:
    """Run ADMM from zero initialization until the stopping criterion or max_iter.

    threads sets the worker threads of the sweep; the result does not depend on it.
    """
    return _run(ms, cfg, threads)


def recover_to_error(ms: MeasurementSet, cfg: AdmmConfig, s_true: np.ndarray,
                     target: float, threads: int = 1) -> SolveReport:
    """Run ADMM until the recovery error against s_true drops to target.

    Benchmark protocol for solver comparisons at matched accuracy: iterate
    until rel_l2_error(real(U)/N^2, s_true) <= target or cfg.max_iter sweeps.
    The converged flag keeps the same meaning as in recover (stopping-rule
    satisfied), independent of whether the error target was reached.
    """
    true_ss = _sum_squares(np.asarray(s_true, dtype=float))  # rel_l2_error's, taken once
    return _run(ms, cfg, threads, stop=lambda u: math.sqrt(
        _sum_squares(np.real(u) / ms.n**2 - s_true) / true_ss) <= target)


def _run(ms: MeasurementSet, cfg: AdmmConfig, threads: int, stop=None) -> SolveReport:
    """Sweeps from zero until stop(U), or without stop until the stopping rule holds;
    converged reports whether the stopping rule held at any sweep."""
    n = ms.n
    embedded_b = embed_measurements(ms)
    mhat = build_mhat(n, ms.indices, cfg.beta)
    zeros = np.zeros((n, n), dtype=complex)
    state = AdmmState(u=zeros.copy(), z=zeros.copy(), y=zeros.copy())
    const = _SweepConstants.of(state, embedded_b, mhat, cfg.beta)
    # Each sweep writes into the arrays of the state two sweeps back, which
    # nothing reads any more, and into one scratch grid: fresh full grids
    # every sweep cost page faults.
    spare, work = tuple(np.empty_like(zeros) for _ in range(3)), np.empty_like(zeros)
    history: list[ResidualRecord] = []
    converged = False
    with block_pool(threads, n) as pool:
        start = time.perf_counter()
        for _ in range(cfg.max_iter):
            new, rec = _sweep(state, const, cfg, pool, spare, work)
            spare, state = (state.u, state.z, state.y), new
            history.append(rec)
            first = history[0]
            converged = converged or (residual_check(rec)
                                      and rec.r_norm <= cfg.min_drop * first.r_norm
                                      and rec.s_norm <= cfg.min_drop * first.s_norm)
            if stop(state.u) if stop is not None else converged:
                break
    return SolveReport.from_iterate(state.u, history, converged, start)


def objective(ms: MeasurementSet, u: np.ndarray, z: np.ndarray, lam: float) -> float:
    """Fidelity-plus-penalty value at (U, Z); used for suboptimality diagnostics."""
    fid = 0.5 * ms.n**2 * np.linalg.norm(_ifft2(u, ms.indices) - ms.b) ** 2
    return float(fid + lam * np.sum(np.abs(z)))
