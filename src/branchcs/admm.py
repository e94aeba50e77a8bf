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
so max_v |F_k[u, v]| is at most their L1 norm, and a row whose bound is at
most lambda / beta holds no entry off t the prox keeps: a safe screen (El
Ghaoui et al. 2012).  Where rows take direct sums (below), from N = 256 up at
the default M, a run carries the bound on to the next sweep (Bonnefoy et al.
2015): exact on the rows made, else the least of the L1 norm and the last bound
plus the L1 norm of the row's change, raised to |F_k| where an entry leaves t.
Only the support decides how a row of t is worked: a row that holds few entries
takes direct sums over them, from an N x M twiddle table made once per run (F_k
at them, and D_{k+1}'s row IFFT), and one that holds more is made by
transforms; so the screen changes no bit.  A sweep does the M column IFFTs of
D_k's row IFFTs, forms C_k and does the M column FFTs; then, in two phases:
  1. the rows of F_k whose bound can cross the threshold, and t's dense rows,
     are made a row block's worth at a time and thresholded at lambda / beta;
  2. once, over all of p = t and the entries found, F_k at t's other rows,
     the prox, the sums of squares (Parseval's ||F||^2 = N^2 ||C||^2 off p),
     D_{k+1} and the row IFFTs of the rows where D_{k+1} is nonzero.
A run of rows made is kept in its F grid; a row made in a buffer is not, and
where an entry found at sweep k + 1 lies in a row F_k does not hold, that row
is made then from the kept column transforms, with the same bits.  U is
written once, when a run stops, after every missing row of the last two F
grids is made.  iterate is the dense API over the same sweep: (Z, Y) enters
as F = Y / beta + Z, Z_{k-2} = 0 and C = IFFT2(F)[J, J].
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .grid import (_MARGIN, MeasurementSet, Subgrid, _fft_points, _groups, _is_run, _places,
                   _point_iffts, _row_iffts, column_fft, column_ifft, fft_rows, rel_l2_error,
                   sampled_ifft2)

__all__ = ["AdmmConfig", "AdmmState", "ResidualRecord", "SolveReport", "build_mhat",
           "soft_threshold", "u_update", "iterate", "recover", "recover_to_error",
           "residual_check"]

# module-level references so tests can count calls: per sweep, the column half
# of FFT2(C), whose rows are made as they are needed, and the column half of
# IFFT2(D), whose row half ran at the end of the last sweep
_fft2 = column_fft
_ifft2 = column_ifft

# Direct sums over a row's support entries cost M operations an entry each way,
# and the row's transforms about N log2 N.  A row takes them when it holds at
# most N log2 N / (_DIRECT_COST M) entries: at the default M none does at
# N <= 128, where a sweep costs its numpy calls more than its rows, and a run
# that takes no direct sums carries no bound either, for the same reason.
_DIRECT_COST = 16

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
        if not 0 < self.beta < math.inf:  # False for NaN
            raise ValueError("beta must be finite and > 0")
        if not self.lam >= 0:  # inf is allowed: u_update uses it
            raise ValueError("lam must be >= 0")
        if not (self.eps_abs >= 0 and self.eps_rel >= 0):
            raise ValueError("eps_abs and eps_rel must be >= 0")
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
    inputs they came from, if any; and direct_max, the most support entries a
    row may hold and take direct sums rather than transforms (_DIRECT_COST)."""

    beta: float
    sub: Subgrid
    b_j: np.ndarray
    source: tuple = ()

    @cached_property
    def direct_max(self) -> int:
        n = self.sub.n
        return int(n * math.log2(n)) // (_DIRECT_COST * max(len(self.sub.j), 1))

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
    """Sorted flat grid indices, their rows, and there the values of Z, D and the
    F grid of the sweep that made them; dense, per row, whether it holds more
    than direct_max of the indices, so that its transforms are made; and direct,
    the places of the indices in the other rows, with their rows and columns,
    where direct sums stand in for the transforms."""

    idx: np.ndarray
    row: np.ndarray
    z: np.ndarray
    d: np.ndarray
    f: np.ndarray
    dense: np.ndarray
    direct: np.ndarray = _NONE
    direct_row: np.ndarray = _NONE
    direct_col: np.ndarray = _NONE

    @classmethod
    def of(cls, const: _SweepConstants, idx: np.ndarray, z: np.ndarray, d: np.ndarray,
           f: np.ndarray) -> _Support:
        n = const.sub.n
        row = idx // n
        dense = np.bincount(row, minlength=n) > const.direct_max  # a sweep's one count
        direct = np.logical_not(dense.take(row)).nonzero()[0] if const.direct_max else _NONE
        if not len(direct):
            return cls(idx, row, z, d, f, dense)
        at, at_row = idx.take(direct), row.take(direct)
        return cls(idx, row, z, d, f, dense, direct, at_row, at - at_row * n)

    def iffts(self, sub: Subgrid, scratch: _RowBlocks, g: np.ndarray) -> None:
        """D's row IFFTs gathered at columns J into g (M x N): transforms of the
        dense rows, direct sums at the other entries."""
        if len(self.direct) < len(self.idx):  # _row_iffts zeroes the other rows
            on = self.dense.take(self.row) if len(self.direct) else slice(None)
            _row_iffts(self.idx[on], self.row[on], self.d[on], sub, scratch.u, g)
        else:
            g.fill(0)
        if len(self.direct):
            _point_iffts(self.direct_row, self.direct_col, self.d.take(self.direct), sub, g)


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
    made so far; bound, per row u at least max |F_k[u, v]| over v off z (None
    for a dense state, and in runs that take no direct sums); and the (z, y)
    made of it."""

    c: np.ndarray
    f: _FGrid
    f_prev: _FGrid | None
    excess: float
    z: _Support
    z_prev: _Support
    g: np.ndarray
    k: int
    row_ffts: int = 0
    bound: np.ndarray | None = None
    dense: tuple = (None, None)

    @classmethod
    def of(cls, state: AdmmState, const: _SweepConstants, scratch: _RowBlocks) -> _SweepForm:
        """A dense state's form: F = Y / beta + Z, Z_{k-1} = 0, C = IFFT2(F)[J, J]."""
        sub = const.sub
        f = np.array(state.y, dtype=complex, order="C")
        f *= 1.0 / const.beta
        f += state.z
        g = np.empty((len(sub.j), sub.n), dtype=complex)
        z = np.ravel(state.z)
        support = np.flatnonzero(z)
        values = z[support].astype(complex)
        z = _Support.of(const, support, values, values + values,  # D_{k+1} = 2 Z_k
                        f.reshape(-1)[support])
        z.iffts(sub, scratch, g)
        c = sampled_ifft2(f, sub)
        return cls(c, _FGrid(f, None, np.ones(sub.n, dtype=bool)), None,
                   _sum_squares(f) - sub.n**2 * _sum_squares(c), z,
                   _Support.of(const, _NONE, *_EMPTY), g, state.k)

    def u(self, sub: Subgrid, scratch: _RowBlocks, out: np.ndarray) -> tuple[np.ndarray, int]:
        """U_k = F_k - F_{k-1} + D_k into out (it may be F_{k-1}'s), once every row
        F_k and F_{k-1} do not hold yet is made; and how many were."""
        made = self.f.fill(sub, scratch) + self.f_prev.fill(sub, scratch)
        np.subtract(self.f.grid, self.f_prev.grid, out=out).reshape(-1)[self.z_prev.idx] += \
            self.z_prev.d
        return out, made


class _RowBlocks:
    """Buffers for a row block's worth of rows, kept for the run so no sweep
    allocates a grid."""

    def __init__(self, sub: Subgrid):
        h, n = len(sub.flat), sub.n
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
        wall, n2, im = time.perf_counter() - start, u.shape[0] ** 2, np.imag(u)
        return cls(s_hat=np.real(u) / n2, history=history, iterations=len(history),
                   converged=converged, wall_time=wall,
                   max_imag=max(float(im.max()), -float(im.min())) / n2,  # no |Im U| grid
                   stop_reason=stop_reason, row_ffts=row_ffts)

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
    with contiguous rows, without BLAS (whose threads stall a call while another
    process holds a core)."""
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


def _made_rows(bound: np.ndarray, tau: float) -> np.ndarray:
    """The rows of F_k a sweep makes to look for entries above tau off t: those
    whose bound is above tau (1 - margin), which covers the rounding of the FFT
    and of the bound, or is not finite, so that what such a row holds is seen."""
    return ~(bound <= tau * (1.0 - _MARGIN))


def _bound(cols: np.ndarray, s: _SweepForm, tau: float) -> np.ndarray:
    """Per row u, a bound on max_v |F_k[u, v]| over the v off t.  Row u of F_k is
    the DFT of cols[u], so its L1 norm bounds the row (El Ghaoui et al. 2012).
    Where that is above tau and s carries a bound on F_{k-1}'s row off t, the
    carried bound plus the L1 norm of cols[u] - cols_{k-1}[u], which bounds
    the row of F_k - F_{k-1}, is taken if it is less (Bonnefoy et al. 2015)."""
    bound = np.add.reduce(np.abs(cols), axis=1)
    if s.bound is None:
        return bound
    above = _made_rows(bound, tau).nonzero()[0]
    if len(above):
        step = np.subtract(cols.take(above, 0), s.f.cols.take(above, 0))
        carried = np.add.reduce(np.abs(step), axis=1) + s.bound.take(above)
        bound[above] = np.minimum(bound.take(above), carried)
    return bound


def _sweep(s: _SweepForm, const: _SweepConstants, cfg: AdmmConfig, scratch: _RowBlocks,
           f_out: np.ndarray, g_out: np.ndarray) -> tuple[_SweepForm, ResidualRecord, tuple]:
    """Sweep k = s.k + 1: the new form, its residual record, and what
    _error_from_sums takes the error from: (C_k - C_{k-1}, ||U_k||^2,
    Re sum_t D_k (2A + D_k)).  F_k's runs of rows are made in f_out (not s.f),
    D_{k+1}'s row IFFTs in g_out (it may be s.g).  Phase 1 makes rows of F_k a
    row block's worth at a time, and phase 2 does the support work once."""
    beta, tau, sub = cfg.beta, cfg.lam / cfg.beta, const.sub
    n, k, h, t = sub.n, s.k + 1, len(scratch.u), s.z  # t: Z_{k-1}, D_k
    carry = const.direct_max > 0  # the bound goes on to the next sweep
    # C_k = B / (beta + 1) - W_J / (beta (beta + 1)), W_J = beta (IFFT2(D_k)[J, J] - C_{k-1})
    c = const.b_j - (_ifft2(s.g.T, sub) - s.c) * (1.0 / (beta + 1.0))
    cols = _fft2(c, sub)
    # Phase 1: the rows of F_k whose bound can cross tau, and t's dense rows
    bound = _bound(cols, s, tau)
    need = _made_rows(bound, tau)
    need |= t.dense
    on_idx, on_row = t.idx, t.row  # t's entries in the rows made
    if len(t.direct):
        on = need.take(t.row).nonzero()[0]
        on_idx, on_row = t.idx.take(on), t.row.take(on)
    held = np.zeros(n, dtype=bool)  # the rows made in place, in f_out

    def grid_work(rows):  # a group of the rows of F_k, and where |V| > tau off t in them
        first, last = rows[0], rows[-1] + 1
        run = _is_run(rows)  # then made in place, and kept
        if run:
            held[first:last] = True
        v = fft_rows(cols[first:last] if run else cols[rows], sub,
                     f_out[first:last] if run else scratch.u[:len(rows)])
        lo, hi = on_row.searchsorted((first, last))
        on_t = _places(rows, on_idx[lo:hi], on_row[lo:hi], n)  # t's places in v
        # V = F_k + Z_{k-1} = F_k off t
        re = np.abs(v, out=scratch.re[:len(rows)])
        flat = re.reshape(-1)
        flat[on_t] = 0
        hit = np.greater(flat, tau, out=scratch.above[:len(rows)].reshape(-1)).nonzero()[0]
        if carry:  # exact off t and what is found, which joins it
            flat[hit] = 0
            bound[rows] = np.maximum.reduce(re, axis=1)
        if run:
            found = hit + first * n
        else:
            slot, col = np.divmod(hit, n)
            found = rows[slot] * n + col
        v = v.reshape(-1)
        return found, v.take(on_t), v.take(hit)

    parts = [grid_work(rows) for rows in _groups(need, h)]
    # Phase 2: p is t then found, each sorted; F_{k-1} is made where found needs it
    p, m = np.concatenate([t.idx] + [part[0] for part in parts]), len(t.idx)
    lazy = s.f.fill(sub, scratch, p[m:] // n)
    on_p = np.empty((8, len(p)), dtype=complex)  # rows, each the values of one vector at p
    e, d, dz, d_next, x1, a, w, f = on_p
    x1[:m], d[:m] = t.z, t.d  # Z_{k-1} and D_k at p
    x1[m:], d[m:] = 0, 0
    # F_k on t: direct sums in the rows that hold few of t, else the rows made
    if len(t.direct):
        np.concatenate([_EMPTY[0]] + [part[2] for part in parts], out=f[m:])
        f[:m][on] = np.concatenate([_EMPTY[0]] + [part[1] for part in parts])
        f[:m][t.direct] = _fft_points(cols, t.direct_row, t.direct_col, sub)
    else:
        np.concatenate([_EMPTY[0]] + [part[1] for part in parts] + [part[2] for part in parts],
                       out=f)
    np.concatenate((t.f, s.f.grid.reshape(-1).take(p[m:])), out=a)
    np.subtract(f, a, out=a)  # A = F_k - F_{k-1}

    z = soft_threshold(np.add(f, x1, out=e), tau)  # Z_k at p: 0 where |V| <= tau
    np.subtract(z, x1, out=dz)  # Z_k - Z_{k-1}
    np.subtract(d, z, out=e)  # E = D_k - Z_k
    # off p U_k - Z_k = U_k = A and Y_k / beta = F_k; on p U_k = A + D_k, U_k - Z_k
    # = A + E, Y_k / beta = F_k - (Z_k - Z_{k-1}); |A + E|^2 - |A|^2 = Re(E* (2A + E))
    np.add(np.add(a, a, out=a), e, out=x1)
    np.add(a, d, out=a)
    ud = _real_inner(np.conj(d[:m]), a[:m])  # Re sum D_k (2A + D_k): D_k is 0 off t
    np.subtract(dz, np.add(f, f, out=w), out=w)
    rr, uu, yy = _real_inners(on_p[0:3], on_p[4:7])  # (E, D_k, Z_k - Z_{k-1}) against these
    np.add(dz, z, out=d_next)  # D_{k+1} = (Z_k - Z_{k-1}) + Z_k
    keep = np.logical_or(z != 0, dz != 0)  # where Z_k or Z_{k-1} is not 0
    kept = keep.nonzero()[0]
    if carry and len(kept) < len(p):  # the bound rises to |F_k| where p leaves t
        gone = np.logical_not(keep, out=keep).nonzero()[0]
        np.maximum.at(bound, p.take(gone) // n, np.abs(f.take(gone)))
    if len(p) > m:  # t's and found's kept entries: two sorted runs to merge
        kept = kept[np.argsort(p[kept], kind="stable")]
    new = _Support.of(const, p[kept], z[kept], d_next[kept], f[kept])
    new.iffts(sub, scratch, g_out)
    dd, zz = _sum_squares(dz), _sum_squares(z)
    n2 = float(n * n)
    delta_c = c - s.c
    dc = n2 * _sum_squares(delta_c) + s.excess  # ||F_k - F_{k-1}||^2 by Parseval
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
    return (_SweepForm(c, _FGrid(f_out, cols, held), s.f, 0.0, new, t, g_out, k, row_ffts,
                       bound if carry else None), rec, (delta_c, uu, ud))


def u_update(state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
             beta: float) -> np.ndarray:
    """Closed-form U-subproblem solve U+ = FFT2[(A_hat + IFFT2(beta Z - Y)) / M_hat]:
    iterate's U, which does not depend on lambda; an infinite one keeps no Z."""
    return iterate(state, embedded_b, mhat, AdmmConfig(beta=beta, lam=math.inf))[0].u


def iterate(state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
            cfg: AdmmConfig) -> tuple[AdmmState, ResidualRecord]:
    """One full ADMM sweep, recover's, on dense states: the new state and its
    residual record.  A state iterate did not return is put in the sweep's
    form; the input state is not modified."""
    const = _SweepConstants.of(state, embedded_b, mhat, cfg.beta)
    scratch = _RowBlocks(const.sub)
    s = state.form
    if not (s is not None and state.sweep is const
            and s.dense[0] is state.z and s.dense[1] is state.y):
        s = _SweepForm.of(state, const, scratch)
    new, rec, _ = _sweep(s, const, cfg, scratch, np.empty_like(s.f.grid), np.empty_like(s.g))
    u, _ = new.u(const.sub, scratch, np.empty_like(new.f.grid))
    # Y_k = beta (F_k + Z_{k-1} - Z_k) = beta (F_k + Z_k - D_{k+1})
    z, y, t = np.zeros_like(new.f.grid), np.array(new.f.grid), new.z
    z.reshape(-1)[t.idx] = t.z
    y1 = y.reshape(-1)
    y1[t.idx] += t.z
    y1[t.idx] -= t.d
    y *= cfg.beta
    return AdmmState(u=u, z=z, y=y, k=new.k, sweep=const,
                     form=dataclasses.replace(new, dense=(z, y))), rec


def residual_check(rec: ResidualRecord) -> bool:
    """True iff both residuals are within tolerance (inclusive)."""
    return rec.r_norm <= rec.eps_pri and rec.s_norm <= rec.eps_dual


def recover(ms: MeasurementSet, cfg: AdmmConfig) -> SolveReport:
    """Run ADMM from zero until the stopping criterion or max_iter sweeps."""
    return _run(ms, cfg)


def recover_to_error(ms: MeasurementSet, cfg: AdmmConfig, s_true: np.ndarray,
                     target: float) -> SolveReport:
    """Run ADMM until rel_l2_error(real(U)/N^2, s_true) <= target or max_iter
    sweeps, the protocol for comparing solvers at matched accuracy; converged
    still says whether recover's stopping rule held."""
    s_true = np.ascontiguousarray(s_true, dtype=float)
    if s_true.shape != (ms.n, ms.n):
        raise ShapeMismatch(f"s_true must be {(ms.n, ms.n)}, got {s_true.shape}")
    if not (np.all(np.isfinite(s_true)) and np.any(s_true)):
        raise ValueError("s_true must be finite and not all zero")
    if not target >= 0:  # False for NaN
        raise ValueError("target must be >= 0")
    return _run(ms, cfg, s_true, target)


def _error_from_sums(s_true: np.ndarray, sub: Subgrid):
    """rel_error(t, dC, uu, ud), the error of real(U_k)/N^2 against a real truth S
    from _sweep's sums and t, D_k's support: with dC = C_k - C_{k-1}, U_k = A + D_k
    and A = FFT2(dC) = F_k - F_{k-1}, ||Re U||^2 = (||U||^2 + Re sum U^2) / 2, where
    sum U^2 = N^2 sum dC(j) dC(-j) over the j with -j in J x J, plus
    sum_t D_k (2A + D_k), and <U, S> = sum_{J x J} dC FFT2(S) + sum_t D_k S."""
    n, j, flat, ss = sub.n, sub.j, s_true.reshape(-1), _sum_squares(s_true)
    fs = n**2 * sampled_ifft2(s_true, sub)  # conj(FFT2(S)[J, J]): S is real
    at = np.minimum(j.searchsorted((n - j) % n), len(j) - 1)
    pos = (j[at] == (n - j) % n).nonzero()[0]  # the places in J of the j whose -j is in J
    pos, neg = np.ix_(pos, pos), np.ix_(at[pos], at[pos])  # and of their -j

    def rel_error(t: _Support, dc: np.ndarray, uu: float, ud: float) -> float:
        usq = n**2 * _real_inner(np.conj(dc[pos]), dc[neg]) + ud  # Re sum U^2
        us = _real_inner(fs, dc) + _real_inner(t.d.real, flat.take(t.idx))  # Re <U, S>
        return math.sqrt(max(0.5 * (uu + usq) / n**4 - 2.0 * us / n**2 + ss, 0.0) / ss)
    return rel_error


def _run(ms: MeasurementSet, cfg: AdmmConfig, s_true: np.ndarray | None = None,
         target: float = 0.0) -> SolveReport:
    """Sweeps from zero until the error against s_true is at most target, or without
    it until the stopping rule holds; converged says if that rule held at any sweep.
    A stop at target is confirmed on the s_hat it writes, as rounding can differ."""
    const = _SweepConstants.of_measurements(ms, cfg.beta)
    scratch = _RowBlocks(const.sub)
    error = None if s_true is None else _error_from_sums(s_true, const.sub)
    history: list[ResidualRecord] = []
    converged, reason, made = False, "max_iter", 0  # made: rows made to write a U
    # a sweep writes F over F_{k-2} and g over the g it reads: fresh grids cost page faults
    spare = np.zeros((ms.n, ms.n), dtype=complex)
    s = _SweepForm.of(AdmmState(u=spare, z=spare, y=spare), const, scratch)
    start = time.perf_counter()
    for _ in range(cfg.max_iter):
        s, rec, sums = _sweep(s, const, cfg, scratch, spare, s.g)
        spare = s.f_prev.grid
        history.append(rec)
        first = history[0]
        converged = converged or (residual_check(rec)
                                  and rec.r_norm <= cfg.min_drop * first.r_norm
                                  and rec.s_norm <= cfg.min_drop * first.s_norm)
        if error is None:
            if converged:
                reason = "tolerance"
                break
        elif error(s.z_prev, *sums) <= target:
            u, rows = s.u(const.sub, scratch, np.empty_like(spare))  # spare holds F_{k-1}
            made += rows
            if rel_l2_error(np.real(u) / ms.n**2, s_true) <= target:
                reason = "error_target"
                break
    u, rows = s.u(const.sub, scratch, spare)  # over F_{k-1}
    made += s.row_ffts + rows
    del s  # and F_k's grid with it: U is the one grid left when s_hat is made
    return SolveReport.from_iterate(u, history, converged, start, reason, made)
