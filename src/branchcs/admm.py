"""Matrix-free ADMM recovery of the transition matrix from sampled measurements.

Splitting: min 0.5 * N^2 ||restrict_J(IFFT2(U)) - B||^2 + lambda ||Z||_1
subject to U = Z.  The U-subproblem diagonalizes in the Fourier domain with
diagonal beta off J x J, so a sweep needs IFFT2 only on J x J and FFT2 only of
a block on J x J: N + M one-dimensional transforms each way instead of 2N.
No matrix products or inversions anywhere, and no BLAS calls.

The scaled dual Y is not kept (Boyd et al. 2011, 3.1.1).  With C_k the M x M
block sweep k transforms and F_k = FFT2(C_k), the prox argument is
V_k = Z_{k-1} + F_k, Y_k = beta (V_k - Z_k) and U_k = F_k - F_{k-1} + D_k,
D_k = 2 Z_{k-1} - Z_{k-2}; so IFFT2(beta Z - Y)[J, J] = beta (IFFT2(D_k)[J, J]
- C_{k-1}).  A run keeps C, the column transforms of the last two C, and t,
the sorted support of Z_{k-1} and Z_{k-2} (under 0.5% of the grid at
N = 512) with Z, D and F there.

Row u of F_k is the DFT of the M entries of row u of C_k's column transforms,
so max_v |F_k[u, v]| is at most their L1 norm, and a row whose norm is at most
lambda / beta holds no entry the prox keeps unless t is in it: a safe screen
(El Ghaoui et al. 2012).  A sweep does the M column IFFTs of D_k's row IFFTs,
forms C_k and does the M column FFTs; then, in two phases:
  1. the rows of F_k that pass the screen or hold t (every row when the error
     against a truth is tracked, which needs all of U_k) are made a row
     block's worth at a time, on a pool of threads if asked, and thresholded
     at lambda / beta;
  2. once, over all of p = t and the entries found, the prox, the sums of
     squares (Parseval's ||F||^2 = N^2 ||C||^2 off p), D_{k+1} and the row
     IFFTs of the rows where D_{k+1} is nonzero.
A run of rows made is kept in its F grid; a row made in a buffer is not, and
where an entry found at sweep k + 1 lies in a row F_k does not hold, that row
is made then from the kept column transforms, with the same bits.  No result
depends on the thread count.  U is written once, when a run stops, after
every missing row of the last two F grids is made.  iterate is the dense API
over the same sweep: (Z, Y) enters as F = Y / beta + Z, Z_{k-2} = 0 and
C = IFFT2(F)[J, J].
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .grid import (BlockPool, MeasurementSet, Subgrid, _groups, _is_run, _places, _row_iffts,
                   _screen, block_pool, column_fft, column_ifft, fft_rows, map_blocks,
                   sampled_ifft2)

__all__ = ["AdmmConfig", "AdmmState", "ResidualRecord", "SolveReport", "build_mhat",
           "soft_threshold", "u_update", "iterate", "recover", "recover_to_error",
           "residual_check", "objective"]

# module-level references so tests can count calls: per sweep, the column half
# of FFT2(C), whose rows are made as they are needed, and the column half of
# IFFT2(D), whose row half ran at the end of the last sweep
_fft2 = column_fft
_ifft2 = column_ifft

_NONE = np.empty(0, dtype=np.intp)
_EMPTY = (np.empty(0, dtype=complex),) * 3


@dataclass(frozen=True)
class AdmmConfig:
    """ADMM tuning: stepsize, l1 penalty, and stopping tolerances, whose
    primal/dual scale factors are D1 = N^d1_exp, D2 = N^d2_exp."""

    beta: float
    lam: float
    eps_abs: float = 1e-2
    eps_rel: float = 1e-3
    d1_exp: float = 2.0
    d2_exp: float = 5.0
    max_iter: int = 500
    # Both residuals must also fall below min_drop times their first-sweep
    # values before the run is declared converged: the published constants
    # alone fire mid-descent, well before the low-error plateau.
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

    iterate keeps in sweep what a run's sweeps share, rederived when
    embedded_b, mhat or beta is a different object or value, and in form the
    state as the next sweep reads it, used while sweep is and z and y are
    the arrays iterate returned, so chains of iterate do a run's arithmetic.
    """

    u: np.ndarray
    z: np.ndarray
    y: np.ndarray
    k: int = 0
    sweep: _SweepConstants | None = field(default=None, repr=False, compare=False)
    form: _SweepForm | None = field(default=None, repr=False, compare=False)


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


class _Support(NamedTuple):
    """Sorted flat grid indices, their rows, and there the values of Z, D and
    the F grid of the sweep that made them."""

    idx: np.ndarray
    row: np.ndarray
    z: np.ndarray
    d: np.ndarray
    f: np.ndarray

    @classmethod
    def of(cls, n: int, idx: np.ndarray, z: np.ndarray, d: np.ndarray,
           f: np.ndarray) -> _Support:
        return cls(idx, idx // n, z, d, f)


class _FGrid:
    """F = FFT2(C) on an N x N grid, of which only the rows in held are made.
    cols, C's column transforms, makes any other row when it is needed, with
    the bits it would have had (None for a dense state's F, which holds every
    row)."""

    def __init__(self, grid: np.ndarray, cols: np.ndarray | None, held: np.ndarray):
        self.grid, self.cols, self.held = grid, cols, held

    def fill(self, sub: Subgrid, scratch: _RowBlocks, rows: np.ndarray | None = None) -> int:
        """Makes the rows among rows (row numbers; every row if None) not held yet;
        how many."""
        rows = (~self.held).nonzero()[0] if rows is None else rows[~self.held[rows]]
        if len(rows) == 0:
            return 0
        rows = np.unique(rows)
        h = len(scratch.u)
        for i in range(0, len(rows), h):  # a buffer's worth at a time
            some = rows[i:i + h]
            self.grid[some] = fft_rows(self.cols[some], sub, scratch.u[:len(some)])
        self.held[rows] = True
        return len(rows)


@dataclass(frozen=True, eq=False)
class _SweepForm:
    """The state after sweep k as sweep k + 1 reads it: C_k, F_k and F_{k-1} (None
    for a dense state), excess = ||F_k||^2 - N^2 ||C_k||^2 (0 but for a dense
    state); z, where Z_k or Z_{k-1} is not 0, with Z_k, D_{k+1} and F_k there,
    and z_prev, the z of sweep k - 1, whose d is D_k; g, D_{k+1}'s row IFFTs
    gathered at columns J, as an M x N array; k; row_ffts, the rows of F grids
    made so far; and the (z, y) made of it."""

    c: np.ndarray
    f: _FGrid
    f_prev: _FGrid | None
    excess: float
    z: _Support
    z_prev: _Support
    g: np.ndarray
    k: int
    row_ffts: int = 0
    dense: tuple = (None, None)

    @classmethod
    def of(cls, state: AdmmState, const: _SweepConstants, pool: BlockPool | None,
           scratch: _RowBlocks) -> _SweepForm:
        """A dense state's form: F = Y / beta + Z, Z_{k-1} = 0, C = IFFT2(F)[J, J]."""
        sub = const.sub
        f = np.array(state.y, dtype=complex, order="C")
        f *= 1.0 / const.beta
        f += state.z
        g, cols = (np.empty(shape, dtype=complex) for shape in ((len(sub.j), sub.n),
                                                               (sub.n, len(sub.j))))
        # the row IFFTs of F at columns J, made in the thread's buffer
        map_blocks(lambda r: sub.gather(np.fft.ifft(f[r], axis=1, out=scratch.u[:r.stop - r.start]),
                                        r, cols), sub.blocks, pool)
        z = np.ravel(state.z)
        support = np.flatnonzero(z)
        values = z[support].astype(complex)
        z = _Support.of(sub.n, support, values, values + values,  # D_{k+1} = 2 Z_k
                        f.reshape(-1)[support])
        _row_iffts(z.idx, z.row, z.d, sub, scratch.u, g)
        c = column_ifft(cols, sub)
        return cls(c, _FGrid(f, None, np.ones(sub.n, dtype=bool)), None,
                   _sum_squares(f) - sub.n**2 * _sum_squares(c), z,
                   _Support.of(sub.n, _NONE, *_EMPTY), g, state.k)

    def complete(self, sub: Subgrid, scratch: _RowBlocks) -> int:
        """Makes every row F_k and F_{k-1} do not hold yet; how many."""
        return self.f.fill(sub, scratch) + self.f_prev.fill(sub, scratch)

    def u(self, out: np.ndarray) -> np.ndarray:
        """U_k = F_k - F_{k-1} + D_k of complete grids, into out (it may be F_{k-1}'s)."""
        np.subtract(self.f.grid, self.f_prev.grid, out=out).reshape(-1)[self.z_prev.idx] += \
            self.z_prev.d
        return out


class _RowBlocks(threading.local):
    """One thread's buffers for a row block's worth of rows, kept for the run so
    no sweep allocates a grid."""

    def __init__(self, sub: Subgrid):
        h, n = sub.blocks[0].stop, sub.n
        self.u, self.re, self.above = (np.empty((h, n), dtype=t) for t in (complex, float, bool))


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
    stop_reason: str = "max_iter"
    row_ffts: int = 0

    @classmethod
    def from_iterate(cls, u: np.ndarray, history: list, converged: bool, start: float,
                     stop_reason: str, row_ffts: int):
        """Report on the final Fourier-domain iterate u: s_hat = real(u)/N^2, timed from start."""
        wall, n2 = time.perf_counter() - start, u.shape[0] ** 2
        return cls(s_hat=np.real(u) / n2, history=history, iterations=len(history),
                   converged=converged, wall_time=wall,
                   max_imag=float(np.max(np.abs(np.imag(u)))) / n2, stop_reason=stop_reason,
                   row_ffts=row_ffts)

    def to_json_dict(self) -> dict:
        """Scalars and residual history (the matrix is written separately); s_hat's
        total mass, most negative entry and dropped imaginary part; and why the
        solver stopped: tolerance, max_iter or error_target; and how many length-N
        row transforms of the grid the solver made (ADMM: rows of F grids; FISTA:
        the gradient's rows and the candidates' row IFFTs)."""
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "wall_time": self.wall_time,
            "max_imag": self.max_imag,
            "history": [asdict(rec) for rec in self.history],
            "s_hat": {"total_mass": float(self.s_hat.sum()),
                      "min_entry": float(self.s_hat.min()),
                      "max_imag": self.max_imag},
            "stop_reason": self.stop_reason,
            "row_ffts": self.row_ffts,
        }


def build_mhat(n: int, indices, beta: float) -> np.ndarray:
    """Diagonal of the Fourier-domain normal matrix: beta + kron(p, p), p the 0/1
    indicator of the sampled indices, so every entry is beta or beta + 1."""
    p = np.zeros(n)
    p[np.asarray(indices, dtype=int)] = 1.0
    return beta + np.kron(p, p)


def soft_threshold(v, tau: float, out: np.ndarray | None = None):
    """Complex magnitude shrinkage, the prox of tau * ||.||_1, into out (which may
    be v) or else a new array: v * max(1 - tau/|v|, 0), sign(v) max(|v|-tau, 0)
    on reals; 0 maps to 0, and everything to 0 when tau is infinite."""
    v = np.asarray(v)
    if tau == 0:
        return np.positive(v, out=out)
    if tau == math.inf:
        out = np.empty_like(v) if out is None else out
        out[...] = 0
        return out
    # 1 - tau / max(|v|, tau) is exactly 0 where |v| <= tau, and never divides by 0
    scale = np.abs(v, out=np.empty(v.shape))  # an array even for 0-d v
    np.maximum(scale, tau, out=scale)
    np.divide(tau, scale, out=scale)
    return np.multiply(v, np.subtract(1.0, scale, out=scale), out=out)


def _real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b> over two float64 or complex128 arrays of one shape, 1-d or 2-d
    with contiguous rows, without BLAS (whose idle threads spin against ours)."""
    if a.ndim == 1:
        a, b = a[None], b[None]
    # a complex entry is its (re, im) pair
    return float(np.einsum("ij,ij->", a.view(np.float64), b.view(np.float64)))


def _real_inners(a: np.ndarray, b: np.ndarray) -> list:
    """Re <a_i, b_i> for each row i of two complex128 2-d arrays, as _real_inner."""
    return np.einsum("ij,ij->i", a.view(np.float64), b.view(np.float64)).tolist()


def _sum_squares(a: np.ndarray) -> float:
    """Sum of |a|^2, as _real_inner(a, a)."""
    return _real_inner(a, a)


def _sweep(s: _SweepForm, const: _SweepConstants, cfg: AdmmConfig, pool: BlockPool | None,
           scratch: _RowBlocks, f_out: np.ndarray, g_out: np.ndarray,
           s_true: np.ndarray | None = None) -> tuple[_SweepForm, ResidualRecord, float]:
    """Sweep k = s.k + 1: the new form, its residual record, and with s_true the
    sum of squares of real(U_k)/N^2 - s_true (else 0).  F_k's runs of rows are
    made in f_out (not s.f), D_{k+1}'s row IFFTs in g_out (it may be s.g).
    Phase 1 makes rows of F_k a row block's worth at a time, on pool's threads
    if given, and phase 2 does the support work once; the sums are added in
    the same order with any pool."""
    beta, tau, sub = cfg.beta, cfg.lam / cfg.beta, const.sub
    n, k, h, t = sub.n, s.k + 1, len(scratch.u), s.z  # t: Z_{k-1}, D_k
    # C_k = B / (beta + 1) - W_J / (beta (beta + 1)), W_J = beta (IFFT2(D_k)[J, J] - C_{k-1})
    c = const.b_j - (_ifft2(s.g.T, sub) - s.c) * (1.0 / (beta + 1.0))
    cols = _fft2(c, sub)
    # Phase 1: the rows of F_k that can hold an entry above tau, the rows of t,
    # and with s_true every row, as U_k needs them all (then each group is a row block)
    need = _screen(cols, tau) if s_true is None else np.ones(n, dtype=bool)
    need[t.row] = True
    held = np.zeros(n, dtype=bool)  # the rows made in place, in f_out

    def grid_work(rows):  # a group of the rows of F_k, and where |V| > tau off t in them
        first, last = rows[0], rows[-1] + 1
        run = _is_run(rows)  # then made in place, and kept
        if run:
            held[first:last] = True
        v = fft_rows(cols[first:last] if run else cols[rows], sub,
                     f_out[first:last] if run else scratch.u[:len(rows)])
        lo, hi = t.row.searchsorted((first, last))
        on_t = _places(rows, t.idx[lo:hi], t.row[lo:hi], n)  # t's places in v
        ee = 0.0
        if s_true is not None:  # U_k = F_k - F_{k-1} + D_k, as _SweepForm.u makes it
            u = np.subtract(v, s.f.grid[first:last], out=scratch.u[:len(rows)])
            u.reshape(-1)[on_t] += t.d[lo:hi]
            err = np.divide(u.real, n**2, out=scratch.re[:len(rows)])
            ee = _sum_squares(np.subtract(err, s_true[first:last], out=err))
        # V = F_k + Z_{k-1} = F_k off t
        re = np.abs(v, out=scratch.re[:len(rows)]).reshape(-1)
        re[on_t] = 0
        hit = np.greater(re, tau, out=scratch.above[:len(rows)].reshape(-1)).nonzero()[0]
        if run:
            found = hit + first * n
        else:
            slot, col = np.divmod(hit, n)
            found = rows[slot] * n + col
        v = v.reshape(-1)
        return found, v.take(on_t), v.take(hit), ee

    parts = map_blocks(grid_work, _groups(need, h), pool)
    ee = sum(part[3] for part in parts)  # in row block order
    # Phase 2: p is t then found, each sorted; F_{k-1} is made where found needs it
    p, m = np.concatenate([t.idx] + [part[0] for part in parts]), len(t.idx)
    lazy = s.f.fill(sub, scratch, p[m:] // n)
    on_p = np.empty((8, len(p)), dtype=complex)  # rows, each the values of one vector at p
    e, d, dz, d_next, x1, a, w, f = on_p
    x1[:m], d[:m] = t.z, t.d  # Z_{k-1} and D_k at p
    x1[m:], d[m:] = 0, 0
    np.concatenate([_EMPTY[0]] + [part[1] for part in parts] + [part[2] for part in parts], out=f)
    np.concatenate((t.f, s.f.grid.reshape(-1).take(p[m:])), out=a)
    np.subtract(f, a, out=a)  # A = F_k - F_{k-1}

    z = soft_threshold(np.add(f, x1, out=e), tau)  # Z_k at p: 0 where |V| <= tau
    np.subtract(z, x1, out=dz)  # Z_k - Z_{k-1}
    np.subtract(d, z, out=e)  # E = D_k - Z_k
    # off p U_k - Z_k = U_k = A and Y_k / beta = F_k; on p U_k = A + D_k, U_k - Z_k
    # = A + E, Y_k / beta = F_k - (Z_k - Z_{k-1}); |A + E|^2 - |A|^2 = Re(E* (2A + E))
    np.add(np.add(a, a, out=a), e, out=x1)
    np.add(a, d, out=a)
    np.subtract(dz, np.add(f, f, out=w), out=w)
    rr, uu, yy = _real_inners(on_p[0:3], on_p[4:7])  # (E, D_k, Z_k - Z_{k-1}) against these
    np.add(dz, z, out=d_next)  # D_{k+1} = (Z_k - Z_{k-1}) + Z_k
    kept = np.logical_or(z != 0, dz != 0).nonzero()[0]  # where Z_k or Z_{k-1} is not 0
    if len(p) > m:  # t's and found's kept entries: two sorted runs to merge
        kept = kept[np.argsort(p[kept], kind="stable")]
    new = _Support.of(n, p[kept], z[kept], d_next[kept], f[kept])
    _row_iffts(new.idx, new.row, new.d, sub, scratch.u, g_out)
    dd, zz = _sum_squares(dz), _sum_squares(z)
    n2 = float(n * n)
    dc = n2 * _sum_squares(c - s.c) + s.excess  # ||F_k - F_{k-1}||^2 by Parseval
    rr, uu = rr + dc, uu + dc
    yy = beta**2 * (yy + n2 * _sum_squares(c))
    sums = (rr, dd, uu, zz, yy)
    # F_k's rows not made are finite: they are at most tau
    if not all(map(math.isfinite, sums)) and not (np.all(np.isfinite(cols))
                                                  and np.all(np.isfinite(new.z))):
        raise NonFinite(f"non-finite iterate at k={k}; check beta/lambda")
    # with finite entries, nan is inf - inf from sums that overflow, and below 0 is rounding
    rr, dd, uu, zz, yy = (math.inf if math.isnan(x) else max(x, 0.0) for x in sums)
    rec = ResidualRecord(k=k, r_norm=math.sqrt(rr), s_norm=beta * math.sqrt(dd),
                         eps_pri=n**cfg.d1_exp * cfg.eps_abs + cfg.eps_rel * math.sqrt(max(uu, zz)),
                         eps_dual=n**cfg.d2_exp * cfg.eps_abs + cfg.eps_rel * math.sqrt(yy))
    row_ffts = s.row_ffts + int(np.count_nonzero(need)) + lazy
    return _SweepForm(c, _FGrid(f_out, cols, held), s.f, 0.0, new, t, g_out, k, row_ffts), rec, ee


def u_update(state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
             beta: float) -> np.ndarray:
    """Closed-form U-subproblem solve U+ = FFT2[(A_hat + IFFT2(beta Z - Y)) / M_hat]:
    iterate's U, which does not depend on lambda; an infinite one keeps no Z."""
    return iterate(state, embedded_b, mhat, AdmmConfig(beta=beta, lam=math.inf))[0].u


def iterate(state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
            cfg: AdmmConfig, pool: BlockPool | None = None) -> tuple[AdmmState, ResidualRecord]:
    """One full ADMM sweep, recover's, on dense states: the new state and its
    residual record.  A state iterate did not return is put in the sweep's
    form.  Row blocks run on pool's threads if given, with the same result;
    the input state is not modified."""
    const = _SweepConstants.of(state, embedded_b, mhat, cfg.beta)
    scratch = _RowBlocks(const.sub)
    s = state.form
    if not (s is not None and state.sweep is const
            and s.dense[0] is state.z and s.dense[1] is state.y):
        s = _SweepForm.of(state, const, pool, scratch)
    new, rec, _ = _sweep(s, const, cfg, pool, scratch, np.empty_like(s.f.grid), np.empty_like(s.g))
    new.complete(const.sub, scratch)
    # Y_k = beta (F_k + Z_{k-1} - Z_k) = beta (F_k + Z_k - D_{k+1})
    z, y, t = np.zeros_like(new.f.grid), np.array(new.f.grid), new.z
    z.reshape(-1)[t.idx] = t.z
    y1 = y.reshape(-1)
    y1[t.idx] += t.z
    y1[t.idx] -= t.d
    y *= cfg.beta
    return AdmmState(u=new.u(np.empty_like(y)), z=z, y=y, k=new.k, sweep=const,
                     form=dataclasses.replace(new, dense=(z, y))), rec


def residual_check(rec: ResidualRecord) -> bool:
    """True iff both residuals are within tolerance (inclusive)."""
    return rec.r_norm <= rec.eps_pri and rec.s_norm <= rec.eps_dual


def recover(ms: MeasurementSet, cfg: AdmmConfig, threads: int = 1) -> SolveReport:
    """Run ADMM from zero until the stopping criterion or max_iter sweeps; threads
    sets the sweep's worker threads, on which the result does not depend."""
    return _run(ms, cfg, threads)


def recover_to_error(ms: MeasurementSet, cfg: AdmmConfig, s_true: np.ndarray,
                     target: float, threads: int = 1) -> SolveReport:
    """Run ADMM until rel_l2_error(real(U)/N^2, s_true) <= target or max_iter
    sweeps, the protocol for comparing solvers at matched accuracy; converged
    still says whether recover's stopping rule held."""
    s_true = np.ascontiguousarray(s_true, dtype=float)
    if s_true.shape != (ms.n, ms.n):
        raise ShapeMismatch(f"s_true must be {(ms.n, ms.n)}, got {s_true.shape}")
    return _run(ms, cfg, threads, s_true, target)


def _run(ms: MeasurementSet, cfg: AdmmConfig, threads: int, s_true: np.ndarray | None = None,
         target: float = 0.0) -> SolveReport:
    """Sweeps from zero until the error against s_true is at most target, or without
    it until the stopping rule holds; converged says if that rule held at any sweep."""
    const = _SweepConstants.of_measurements(ms, cfg.beta)
    scratch = _RowBlocks(const.sub)
    true_ss = None if s_true is None else _sum_squares(s_true)  # rel_l2_error's, taken once
    history: list[ResidualRecord] = []
    converged, reason = False, "max_iter"
    with block_pool(threads, ms.n) as pool:
        # a sweep writes F over F_{k-2} and g over the g it reads: fresh grids cost page faults
        spare = zeros = np.zeros((ms.n, ms.n), dtype=complex)
        s = _SweepForm.of(AdmmState(u=zeros, z=zeros, y=zeros), const, pool, scratch)
        start = time.perf_counter()
        for _ in range(cfg.max_iter):
            s, rec, err_ss = _sweep(s, const, cfg, pool, scratch, spare, s.g, s_true)
            spare = s.f_prev.grid
            history.append(rec)
            first = history[0]
            converged = converged or (residual_check(rec)
                                      and rec.r_norm <= cfg.min_drop * first.r_norm
                                      and rec.s_norm <= cfg.min_drop * first.s_norm)
            if math.sqrt(err_ss / true_ss) <= target if s_true is not None else converged:
                reason = "tolerance" if s_true is None else "error_target"
                break
        row_ffts = s.row_ffts + s.complete(const.sub, scratch)
        u = s.u(out=spare)  # over F_{k-1}
    return SolveReport.from_iterate(u, history, converged, start, reason, row_ffts)


def objective(ms: MeasurementSet, u: np.ndarray, z: np.ndarray, lam: float) -> float:
    """Fidelity-plus-penalty value at (U, Z); used for suboptimality diagnostics."""
    fid = 0.5 * ms.n**2 * np.linalg.norm(sampled_ifft2(u, ms.indices) - ms.b) ** 2
    return float(fid + lam * np.sum(np.abs(z)))
