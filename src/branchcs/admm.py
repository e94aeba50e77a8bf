"""Matrix-free ADMM recovery of the transition matrix from sampled measurements.

Splitting: min 0.5 * N^2 ||restrict_J(IFFT2(U)) - B||^2 + lambda ||Z||_1
subject to U = Z.  The U-subproblem diagonalizes in the Fourier domain, and
its diagonal is beta off J x J, so each sweep needs IFFT2 only on J x J and
FFT2 only of a block supported on J x J: N + M one-dimensional transforms
each way instead of 2N, plus elementwise work.  No matrix products or
inversions anywhere, and no BLAS calls.

A sweep reads only the scaled dual Y (an N x N grid), Z and the row IFFTs
of Y - beta Z gathered at columns J (N x M).  Z is kept as its support, flat
indices and values per fixed row block: the prox leaves under 0.5% of it
nonzero at N = 512, and all of it only when lambda = 0.  A sweep does the M column
IFFTs, forms C and does the M column FFTs, then makes one pass over the row
blocks, on a pool of threads if asked.  On each block it does the row FFTs,
the prox argument, U (in a per-thread block that stays in cache), the prox
on the entries above the threshold, the new Y, the sums of squares, and the
row IFFTs of Y - beta Z for the next sweep.  The blocks do not depend on the
thread count, so neither does any result.

A recover holds two N x N grids, the Y of the last two sweeps, and no U
grid: when the run stops, it runs the last sweep again from the state
before it, writing that sweep's Y over the Y it reads and U into the other
grid.  u_update and iterate are the dense single-step API over the same
sweep: their dense state is put in the form the sweep reads and back.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .grid import (
    BlockPool,
    MeasurementSet,
    Subgrid,
    block_pool,
    column_ifft,
    embedded_fft2,
    map_blocks,
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

# module-level references so tests can count calls: per sweep, the FFT2 of
# C and the column half of IFFT2(Y - beta Z), whose row half ran in the last
# sweep's pass over the row blocks
_fft2 = embedded_fft2
_ifft2 = column_ifft


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
    """What every sweep of a run shares: beta, the Subgrid of J (sorted) and
    B / (beta + 1) on J x J; source is the (embedded_b, mhat) of iterate's
    inputs they came from, if any."""

    beta: float
    sub: Subgrid
    b_j: np.ndarray
    source: tuple = ()

    @classmethod
    def of_measurements(cls, ms: MeasurementSet, beta: float) -> _SweepConstants:
        order = np.argsort(ms.indices)
        # with a reciprocal: complex / real is slow
        b_j = ms.b[np.ix_(order, order)] * (1.0 / (beta + 1.0))
        return cls(beta, Subgrid(ms.n, np.asarray(ms.indices)[order]), b_j)

    @classmethod
    def of(cls, state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
           beta: float) -> _SweepConstants:
        """state's constants if they came from these inputs, else new ones."""
        if embedded_b.shape != state.z.shape:
            raise ShapeMismatch("embedded_b and state grids must have equal shape")
        known = state.sweep
        if (known is not None and known.source[0] is embedded_b and known.source[1] is mhat
                and known.beta == beta):
            return known
        n = embedded_b.shape[0]
        j = np.flatnonzero(np.ravel(mhat)[::n + 1] > beta)  # the diagonal of M_hat as N x N
        b_j = embedded_b.take(j, 0).take(j, 1) * (1.0 / (beta + 1.0))
        return cls(beta, Subgrid(n, j), b_j, (embedded_b, mhat))


@dataclass(frozen=True, eq=False)
class _SparseState:
    """What a sweep reads: Y; Z as (flat indices, values) per row block of
    const.sub, indices into the block's rows; g, the row IFFTs of Y - beta Z
    gathered at columns J; and the iteration counter."""

    y: np.ndarray
    z: tuple
    g: np.ndarray
    k: int

    @classmethod
    def of(cls, state: AdmmState, const: _SweepConstants, pool: BlockPool | None,
           scratch: _RowBlocks) -> _SparseState:
        """The form of a dense state that a sweep reads; Y is copied."""
        sub = const.sub
        y = np.array(state.y, dtype=complex, order="C")  # its rows patched in place
        g = np.empty((sub.n, len(sub.j)), dtype=complex)

        def block(r):
            z = np.ravel(state.z[r])
            support = np.flatnonzero(z)
            values = z[support].astype(complex)
            _next_row_ifft(scratch.rows(r), y[r], support, values, const.beta, sub, r, g)
            return support, values

        return cls(y, tuple(map_blocks(block, sub.blocks, pool)), g, state.k)

    def dense_z(self, sub: Subgrid) -> np.ndarray:
        z = np.zeros((sub.n, sub.n), dtype=complex)
        for r, (support, values) in zip(sub.blocks, self.z):
            z[r].reshape(-1)[support] = values
        return z


class _RowBlocks(threading.local):
    """One thread's buffers for the row block it works on, made on its first
    block and kept for the run, so the block stays in cache and no sweep
    allocates a grid."""

    def __init__(self, sub: Subgrid):
        shape = (sub.blocks[0].stop, sub.n)
        self.f = np.empty(shape, dtype=complex)
        self.u = np.empty(shape, dtype=complex)
        self.re = np.empty(shape)

    def rows(self, r: slice) -> np.ndarray:
        """The row FFT buffer for the rows r."""
        return self.f[:r.stop - r.start]


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
        """Scalars and residual history; the matrix is written separately.  s_hat
        sums up what a probability matrix must satisfy: its total mass, its most
        negative entry and the imaginary part dropped from it."""
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "wall_time": self.wall_time,
            "max_imag": self.max_imag,
            "history": [asdict(rec) for rec in self.history],
            "s_hat": {"total_mass": float(self.s_hat.sum()),
                      "min_entry": float(self.s_hat.min()),
                      "max_imag": self.max_imag},
        }


def build_mhat(n: int, indices, beta: float) -> np.ndarray:
    """Diagonal of the Fourier-domain normal matrix: beta + kron(p, p).

    p is the 0/1 indicator of the sampled indices; every entry of the result
    is beta or beta + 1.
    """
    p = np.zeros(n)
    p[np.asarray(indices, dtype=int)] = 1.0
    return beta + np.kron(p, p)


def soft_threshold(v, tau: float):
    """Complex magnitude shrinkage: the prox of tau * ||.||_1.

    v * max(1 - tau/|v|, 0): shrinks |v| by tau preserving phase; reduces to
    sign(v) max(|v|-tau, 0) on reals.  Entries with |v| = 0 map to 0.
    Written into a new array.
    """
    v = np.asarray(v)
    if tau == 0:
        return np.positive(v)  # a copy
    # 1 - tau / max(|v|, tau) is exactly 0 where |v| <= tau, and never divides by 0
    scale = np.abs(v, out=np.empty(v.shape))  # an array even for 0-d v
    np.maximum(scale, tau, out=scale)
    np.divide(tau, scale, out=scale)
    return np.multiply(v, np.subtract(1.0, scale, out=scale))


def _real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b>, the sum of Re(conj(a) b), over two float64 or complex128
    arrays of one shape, 1-d or 2-d with contiguous rows, without BLAS
    (np.vdot and np.linalg.norm call it, and then its idle worker threads
    spin against the solver's)."""
    if a.ndim == 1:
        a, b = a[None], b[None]
    # a complex entry is its (re, im) pair
    return float(np.einsum("ij,ij->", a.view(np.float64), b.view(np.float64)))


def _sum_squares(a: np.ndarray) -> float:
    """Sum of |a|^2, as _real_inner(a, a)."""
    return _real_inner(a, a)


def _next_row_ifft(w, y, support, values, beta, sub, r, g):
    """Row IFFTs of rows r of Y - beta Z into w, gathered at columns J into
    g[r]; y is those rows of Y, read in place with the entries on Z's support
    changed for the transform and then put back.  The sweep wants beta Z - Y,
    and takes these exact negations of its values, as rounding is symmetric."""
    y1 = y.reshape(-1)
    kept = y1[support]
    y1[support] = kept - values * beta
    np.fft.ifft(y, axis=1, out=w)
    y1[support] = kept
    sub.gather(w, r, g)


def _sweep(s: _SparseState, const: _SweepConstants, cfg: AdmmConfig, pool: BlockPool | None,
           scratch: _RowBlocks, y: np.ndarray, g: np.ndarray, u: np.ndarray | None = None,
           s_true: np.ndarray | None = None) -> tuple[_SparseState, ResidualRecord, float]:
    """One ADMM sweep from s: the new state, its residual record, and with
    s_true the sum of squares of real(U)/N^2 - s_true (else 0).

    The new Y and g are written into y (N x N; it may be s.y, since each row
    block reads its rows of s.y before it writes them) and g (N x M, not
    s.g); U is written into u when given.  Every entry is computed as the
    dense formulas compute it; the per-block sums of squares are added in
    block order, so the result is the same with any pool.
    """
    beta, tau, sub = cfg.beta, cfg.lam / cfg.beta, const.sub
    n, k, step = sub.n, s.k + 1, sub.blocks[0].stop
    # U+ = Z - Y / beta + FFT2(C), C = B / (beta + 1) - W_J / (beta (beta + 1))
    # on J x J and zero elsewhere, W = IFFT2(beta Z - Y) = -IFFT2(Y - beta Z)
    c = const.b_j + _ifft2(s.g, sub) * (1.0 / (beta * (beta + 1.0)))

    def tail(r, v):  # v: rows r of FFT2(C), in this thread's block
        h = len(v)
        v1 = v.reshape(-1)
        old, z_old = s.z[r.start // step]
        y_old, y_new = s.y[r], y[r]
        v1[old] += z_old  # V = U+ + Y / beta, the prox argument
        ur = np.multiply(y_old, -1.0 / beta, out=scratch.u[:h])
        ur += v  # U+
        support = np.flatnonzero(np.abs(v, out=scratch.re[:h]) > tau)
        z = soft_threshold(v1[support], tau)  # zero off the support
        uu, zz = _sum_squares(ur), _sum_squares(z)
        # finite sums of squares mean finite entries; if not, test exactly (it may be overflow)
        if not math.isfinite(uu + zz) and not (np.all(np.isfinite(ur)) and np.all(np.isfinite(z))):
            raise NonFinite(f"non-finite iterate at k={k}; check beta/lambda")
        if u is not None:
            u[r] = ur
        ee = 0.0
        if s_true is not None:
            err = np.divide(ur.real, n**2, out=scratch.re[:h])
            ee = _sum_squares(np.subtract(err, s_true[r], out=err))
        # Z - Z_old on the union of the supports, made in v
        v1[old] = 0
        v1[support] = z
        v1[old] -= z_old
        dz_new = v1[support]
        v1[support] = 0
        dd = _sum_squares(dz_new) + _sum_squares(v1[old])
        # the primal residual r = U+ - Z, then Y = Y_old + beta r
        ur.reshape(-1)[support] -= z
        rr = _sum_squares(ur)
        ur *= beta
        np.add(ur, y_old, out=y_new)
        _next_row_ifft(v, y_new, support, z, beta, sub, r, g)
        return support, z, rr, dd, uu, zz, _sum_squares(y_new), ee

    parts = _fft2(c, sub, n, pool, tail, scratch.rows)
    rr, dd, uu, zz, yy, ee = (sum(p[i] for p in parts) for i in range(2, 8))  # in block order
    rec = ResidualRecord(k=k, r_norm=math.sqrt(rr), s_norm=beta * math.sqrt(dd),
                         eps_pri=n**cfg.d1_exp * cfg.eps_abs + cfg.eps_rel * math.sqrt(max(uu, zz)),
                         eps_dual=n**cfg.d2_exp * cfg.eps_abs + cfg.eps_rel * math.sqrt(yy))
    return _SparseState(y, tuple(p[:2] for p in parts), g, k), rec, ee


def u_update(state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
             beta: float) -> np.ndarray:
    """Closed-form U-subproblem solve: U+ = FFT2[(A_hat + W) / M_hat].

    W = IFFT2(beta Z - Y).  M_hat (from build_mhat) is beta + 1 on J x J and
    beta elsewhere, and FFT2(W / beta) = Z - Y / beta, so
    U+ = Z - Y / beta + FFT2(C) with C = (B + W_J) / (beta + 1) - W_J / beta
    on J x J and zero elsewhere: only the J x J block of W is computed.
    This is the U of iterate's sweep; U+ does not depend on lambda, and with
    an infinite one the prox keeps nothing.
    """
    return iterate(state, embedded_b, mhat, AdmmConfig(beta=beta, lam=math.inf))[0].u


def iterate(state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
            cfg: AdmmConfig, pool: BlockPool | None = None) -> tuple[AdmmState, ResidualRecord]:
    """One full ADMM sweep; returns the new state and its residual record.

    The dense single-step form of the sweep recover runs: the state's Z and
    Y are put in the form the sweep reads (one pass over the row blocks),
    and the sweep also writes U and the new Z out as grids.  Its row blocks
    run on pool's threads if given; the result is the same with any pool.
    The input state is not modified.
    """
    const = _SweepConstants.of(state, embedded_b, mhat, cfg.beta)
    scratch = _RowBlocks(const.sub)
    s = _SparseState.of(state, const, pool, scratch)  # with a copy of Y, made over here
    u = np.empty_like(s.y)
    new, rec, _ = _sweep(s, const, cfg, pool, scratch, s.y, np.empty_like(s.g), u)
    return AdmmState(u=u, z=new.dense_z(const.sub), y=new.y, k=new.k, sweep=const), rec


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
    s_true = np.ascontiguousarray(s_true, dtype=float)
    if s_true.shape != (ms.n, ms.n):
        raise ShapeMismatch(f"s_true must be {(ms.n, ms.n)}, got {s_true.shape}")
    return _run(ms, cfg, threads, s_true, target)


def _run(ms: MeasurementSet, cfg: AdmmConfig, threads: int, s_true: np.ndarray | None = None,
         target: float = 0.0) -> SolveReport:
    """Sweeps from zero until, with s_true, the error against it is at most target,
    or without it until the stopping rule holds; converged reports whether the
    stopping rule held at any sweep."""
    const = _SweepConstants.of_measurements(ms, cfg.beta)
    scratch = _RowBlocks(const.sub)
    true_ss = None if s_true is None else _sum_squares(s_true)  # rel_l2_error's, taken once
    history: list[ResidualRecord] = []
    converged = False
    with block_pool(threads, ms.n) as pool:
        zeros = np.zeros((ms.n, ms.n), dtype=complex)
        state = _SparseState.of(AdmmState(u=zeros, z=zeros, y=zeros), const, pool, scratch)
        # Each sweep writes into the Y and g of the state two sweeps back, which
        # nothing reads any more: fresh grids every sweep cost page faults.
        spare = (zeros, np.empty_like(state.g))
        start = time.perf_counter()
        for _ in range(cfg.max_iter):
            new, rec, err_ss = _sweep(state, const, cfg, pool, scratch, *spare, s_true=s_true)
            last, state, spare = state, new, (state.y, state.g)
            history.append(rec)
            first = history[0]
            converged = converged or (residual_check(rec)
                                      and rec.r_norm <= cfg.min_drop * first.r_norm
                                      and rec.s_norm <= cfg.min_drop * first.s_norm)
            if math.sqrt(err_ss / true_ss) <= target if s_true is not None else converged:
                break
        # U of the last sweep: that sweep again, from the state it started
        # from, with its Y written over the Y it reads and U into the grid of
        # the Y it made, which nothing reads any more
        _sweep(last, const, cfg, pool, scratch, last.y, state.g, state.y)
    return SolveReport.from_iterate(state.y, history, converged, start)


def objective(ms: MeasurementSet, u: np.ndarray, z: np.ndarray, lam: float) -> float:
    """Fidelity-plus-penalty value at (U, Z); used for suboptimality diagnostics."""
    fid = 0.5 * ms.n**2 * np.linalg.norm(sampled_ifft2(u, ms.indices) - ms.b) ** 2
    return float(fid + lam * np.sum(np.abs(z)))
