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
- C_{k-1}).  A sweep hands on one form (_SweepForm): C_k, C_k - C_{k-1} and
the column transforms of C_k; t, the sorted support of Z_k and Z_{k-1} (under
0.5% of the grid at N = 512), with Z, D and F there; and the two sums over U_k
recover_to_error takes the error from: no N x N grid.  A run's one other
object is the grid.Subgrid of J, whose buffers every sweep works in and whose
g holds the row IFFTs of the D the next sweep reads.

Row u of F_k is the DFT of the M entries of row u of C_k's column transforms,
so max_v |F_k[u, v]| is at most their L1 norm, and a row whose bound is at
most lambda / beta holds no entry off t the prox keeps: a safe screen (El
Ghaoui et al. 2012).  Where rows take direct sums (grid.Support), from N = 256
up at the default M, a run carries the bound on to the next sweep (Bonnefoy et
al. 2015): exact on the rows made, else the least of the L1 norm and the last
bound plus the L1 norm of the row's change, raised to |F_k| where an entry
leaves t.  A sweep does the M column IFFTs of D_k's row IFFTs, forms C_k and
does the M column FFTs; then, in two phases:
  1. grid.screened_fft, the pass FISTA makes its gradient by: p, t then the
     entries off t where |F_k| > lambda / beta, and F_k there;
  2. once, over all of p, F_{k-1} at the entries found (from C_{k-1}'s kept
     column transforms, by the same pass with nothing to find), the prox, the
     sums of squares (Parseval's ||F||^2 = N^2 ||C||^2 off p), D_{k+1} and the
     row IFFTs of the rows where D_{k+1} is nonzero (Support.iffts).
s_hat = Re(U_k) / N^2, U_k = FFT2(C_k - C_{k-1}) + D_k, is written when a run
stops and at each stop recover_to_error confirms: one column FFT of C_k - C_{k-1},
then a row block's worth of U_k's rows at a time in the Subgrid's row buffer,
D_k added at its entries, and the real part over N^2 into one float grid the
run reuses; no complex N x N grid is made.

iterate and u_update are the paper's dense step on N x N grids; no solver calls them.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .grid import (_NONE, MeasurementSet, Subgrid, Support, _row_l1, _screen, column_fft,
                   column_ifft, fft_rows, rel_l2_error, sampled_ifft2, screened_fft)

__all__ = ["AdmmConfig", "AdmmState", "ResidualRecord", "SolveReport", "build_mhat",
           "soft_threshold", "u_update", "iterate", "recover", "recover_to_error",
           "residual_check"]

# module-level references so tests can count calls: per sweep, the column half
# of FFT2(C), whose rows are made as they are needed, and the column half of
# IFFT2(D), whose row half ran at the end of the last sweep
_fft2 = column_fft
_ifft2 = column_ifft

# Both residuals must also fall below _MIN_DROP times their first-sweep values
# before a run has converged: the tolerances alone fire mid-descent, well
# before the low-error plateau.
_MIN_DROP = 1e-2

_EMPTY = np.empty(0, dtype=complex)


@dataclass(frozen=True)
class AdmmConfig:
    """ADMM tuning: stepsize beta, l1 penalty lam, sweep cap max_iter, and stopping
    tolerances in S units (U = N^2 S): eps_pri = N^2 eps_abs + eps_rel max(||U||, ||Z||)
    and eps_dual = N^2 eps_abs + eps_rel ||Y|| (Boyd et al. 2011, 3.3.1)."""

    beta: float
    lam: float
    eps_abs: float = 1e-3
    eps_rel: float = 1e-3
    max_iter: int = 500

    def __post_init__(self):
        if not 0 < self.beta < math.inf:  # False for NaN
            raise ValueError("beta must be finite and > 0")
        if not self.lam >= 0:  # inf is allowed: Z then stays 0
            raise ValueError("lam must be >= 0")
        if not (self.eps_abs >= 0 and self.eps_rel >= 0):
            raise ValueError("eps_abs and eps_rel must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class AdmmState:
    """Primal iterate U, split variable Z and scaled dual Y, as N x N grids,
    and the iteration counter: what iterate's dense step reads and returns."""

    u: np.ndarray
    z: np.ndarray
    y: np.ndarray
    k: int = 0


@dataclass(frozen=True, eq=False)
class _SweepForm:
    """What sweep k hands on: C_k, dc = C_k - C_{k-1} and cols, the column
    transforms of C_k; t, where Z_k or Z_{k-1} is not 0, with Z_k, D_{k+1} and
    F_k there (z, d, f), and t_prev and d_prev, sweep k - 1's t and D_k on it;
    k; uu = ||U_k||^2 and ud = Re sum D_k (2A + D_k), A = FFT2(dc); row_ffts,
    the rows of F made so far; and bound, per row u at least max |F_k[u, v]|
    over v off t (None before the first sweep, and in runs that take no direct
    sums).  D_{k+1}'s row IFFTs at columns J are the run's Subgrid's g."""

    c: np.ndarray
    dc: np.ndarray
    cols: np.ndarray
    t: Support
    z: np.ndarray
    d: np.ndarray
    f: np.ndarray
    t_prev: Support
    d_prev: np.ndarray
    k: int
    uu: float = 0.0
    ud: float = 0.0
    row_ffts: int = 0
    bound: np.ndarray | None = None

    @classmethod
    def zero(cls, sub: Subgrid) -> _SweepForm:
        """The form a run starts from: C, Z and D all 0."""
        n, m = sub.n, len(sub.j)
        c, none = np.zeros((m, m), dtype=complex), Support.of(sub, _NONE)
        return cls(c, c, np.zeros((n, m), dtype=complex), none, _EMPTY, _EMPTY, _EMPTY,
                   none, _EMPTY, 0)


@dataclass(frozen=True)
class ResidualRecord:
    k: int
    r_norm: float
    s_norm: float
    eps_pri: float
    eps_dual: float


@dataclass
class SolveReport:
    """What a solver returns: s_hat, the real part of its last iterate over N^2,
    written without a complex N x N grid (ADMM by row blocks, FISTA from its
    support); the largest |imaginary part| / N^2 it dropped, max_imag; the
    per-iteration records and why the run stopped; and the row transforms made."""

    s_hat: np.ndarray
    history: list
    iterations: int
    converged: bool
    wall_time: float
    max_imag: float = 0.0
    stop_reason: str = "max_iter"
    row_ffts: int = 0

    def to_json_dict(self) -> dict:
        """Scalars and residual history (the matrix is written separately); s_hat's
        total mass, most negative entry and dropped imaginary part; and why the
        solver stopped: tolerance, max_iter or error_target; and how many length-N
        row transforms of the grid the solver made (ADMM: rows of F and of each
        s_hat written; FISTA: the gradient's rows and the candidates' row IFFTs)."""
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


def _record(k: int, n: int, cfg: AdmmConfig, sums, *entries) -> ResidualRecord:
    """Sweep k's residual record from the sums of squares of U - Z, Z - Z_{k-1}, U,
    Z and Y; NonFinite unless the sums are finite or every array in entries is."""
    if not all(map(math.isfinite, sums)) and not all(np.all(np.isfinite(e)) for e in entries):
        raise NonFinite(f"non-finite iterate at k={k}; check beta/lambda")
    # with finite entries, nan is inf - inf from sums that overflow, and below 0 is rounding
    rr, dd, uu, zz, yy = (math.inf if math.isnan(x) else max(x, 0.0) for x in sums)
    return ResidualRecord(k=k, r_norm=math.sqrt(rr), s_norm=cfg.beta * math.sqrt(dd),
                          eps_pri=n**2 * cfg.eps_abs + cfg.eps_rel * math.sqrt(max(uu, zz)),
                          eps_dual=n**2 * cfg.eps_abs + cfg.eps_rel * math.sqrt(yy))


def _bound(cols: np.ndarray, s: _SweepForm, tau: float) -> np.ndarray:
    """Per row u, a bound on max_v |F_k[u, v]| over the v off t: the L1 norm of
    cols[u] (grid._row_l1), or where that is above tau and s carries a bound on
    F_{k-1}'s row off t, the carried bound plus the L1 norm of cols[u] -
    cols_{k-1}[u], which bounds the row of F_k - F_{k-1}, if it is less
    (Bonnefoy et al. 2015)."""
    bound = _row_l1(cols)
    if s.bound is None:
        return bound
    above = _screen(bound, tau).nonzero()[0]
    if len(above):
        step = np.subtract(cols.take(above, 0), s.cols.take(above, 0))
        carried = _row_l1(step) + s.bound.take(above)
        bound[above] = np.minimum(bound.take(above), carried)
    return bound


def _sweep(s: _SweepForm, sub: Subgrid, b_j: np.ndarray,
           cfg: AdmmConfig) -> tuple[_SweepForm, ResidualRecord]:
    """Sweep k = s.k + 1 on the Subgrid sub of sorted J, b_j = B / (beta + 1) on
    J x J: the new form and its residual record.  D_k's row IFFTs are read from
    sub.g and D_{k+1}'s written there.  Phase 1 is the screened pass over F_k;
    phase 2 works on p once."""
    beta, tau = cfg.beta, cfg.lam / cfg.beta
    n, k, t, m = sub.n, s.k + 1, s.t, len(s.t.idx)  # t: Z_{k-1}, D_k
    # the bound goes on to the next sweep where rows take direct sums: below that
    # size (N <= 128 at the default M) a sweep costs its numpy calls more than its rows
    carry = sub.direct_max > 0
    # C_k = B / (beta + 1) - W_J / (beta (beta + 1)), W_J = beta (IFFT2(D_k)[J, J] - C_{k-1})
    c = b_j - (_ifft2(sub.g.T, sub) - s.c) * (1.0 / (beta + 1.0))
    cols = _fft2(c, sub)
    # Phase 1: p is t then where |V| > tau off t (V = F_k + Z_{k-1} = F_k there)
    bound = _bound(cols, s, tau)
    p, f, made = screened_fft(cols, t, bound, tau, sub)
    # Phase 2: F_{k-1} at the entries found, from C_{k-1}'s transforms (a pass
    # that looks for nothing: no row's bound, 0, can cross an infinite tau)
    _, f_prev, remade = screened_fft(s.cols, Support.of(sub, p[m:]), np.zeros(n), math.inf,
                                     sub)
    on_p = np.empty((7, len(p)), dtype=complex)  # rows, each the values of one vector at p
    e, d, dz, d_next, x1, a, w = on_p
    x1[:m], d[:m] = s.z, s.d  # Z_{k-1} and D_k at p
    x1[m:], d[m:] = 0, 0
    np.concatenate((s.f, f_prev), out=a)
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
    new, kept = Support.kept(sub, p, m, keep)
    if carry and len(kept) < len(p):  # the bound rises to |F_k| where p leaves t
        gone = np.logical_not(keep, out=keep).nonzero()[0]
        np.maximum.at(bound, p.take(gone) // n, np.abs(f.take(gone)))
    d_new = d_next.take(kept)
    new.iffts(d_new, sub)
    z_new = z.take(kept)
    n2, dc = float(n * n), c - s.c
    aa = n2 * _sum_squares(dc)  # ||F_k - F_{k-1}||^2 by Parseval
    sums = (rr + aa, _sum_squares(dz), uu + aa, _sum_squares(z),
            beta**2 * (yy + n2 * _sum_squares(c)))
    # F_k's rows not made are finite: they are at most tau
    rec = _record(k, n, cfg, sums, cols, z_new)
    return _SweepForm(c, dc, cols, new, z_new, d_new, f.take(kept), t, s.d, k, sums[2], ud,
                      s.row_ffts + made + remade, bound if carry else None), rec


def u_update(state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
             beta: float) -> np.ndarray:
    """Closed-form U-subproblem solve U+ = FFT2[(A_hat + IFFT2(beta Z - Y)) / M_hat]
    on N x N grids, A_hat the embedded measurements and M_hat build_mhat's
    diagonal."""
    z = state.z
    if not (np.shape(embedded_b) == np.shape(state.y) == z.shape and np.size(mhat) == z.size):
        raise ShapeMismatch("embedded_b, mhat and the state grids must all be N x N")
    w = np.fft.ifft2(beta * z - state.y)
    w += embedded_b
    w /= np.reshape(mhat, z.shape)
    return np.fft.fft2(w, out=w)


def iterate(state: AdmmState, embedded_b: np.ndarray, mhat: np.ndarray,
            cfg: AdmmConfig) -> tuple[AdmmState, ResidualRecord]:
    """One dense ADMM sweep in scaled form (Boyd et al. 2011, 3.1.1): U+ by
    u_update, Z+ = prox_{lambda/beta}(U+ + Y / beta), Y+ = Y + beta (U+ - Z+);
    the new state and its residual record.  The input state is not modified."""
    u = u_update(state, embedded_b, mhat, cfg.beta)
    z = soft_threshold(u + state.y / cfg.beta, cfg.lam / cfg.beta)
    r = u - z
    y = state.y + cfg.beta * r
    sums = [_sum_squares(x) for x in (r, z - state.z, u, z, y)]
    rec = _record(state.k + 1, u.shape[0], cfg, sums, u, z, y)
    return AdmmState(u=u, z=z, y=y, k=rec.k), rec


def residual_check(rec: ResidualRecord) -> bool:
    """True iff both tolerances are finite and both residuals are within them
    (inclusive): sums that overflow give inf <= inf, which says nothing."""
    return (math.isfinite(rec.eps_pri) and math.isfinite(rec.eps_dual)
            and rec.r_norm <= rec.eps_pri and rec.s_norm <= rec.eps_dual)


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
    """rel_error(s), the error of real(U_k)/N^2 against a real truth S from the form
    s of sweep k: with dC = s.dc and A = FFT2(dC), so U_k = A + D_k, ||Re U||^2 =
    (s.uu + Re sum U^2) / 2, where sum U^2 = N^2 sum dC(j) dC(-j) over the j with -j
    in J x J, plus s.ud, and <U, S> = sum_{J x J} dC FFT2(S) + sum_t D_k S."""
    n, j, flat, ss = sub.n, sub.j, s_true.reshape(-1), _sum_squares(s_true)
    fs = n**2 * sampled_ifft2(s_true, sub)  # conj(FFT2(S)[J, J]): S is real
    at = np.minimum(j.searchsorted((n - j) % n), len(j) - 1)
    pos = (j[at] == (n - j) % n).nonzero()[0]  # the places in J of the j whose -j is in J
    pos, neg = np.ix_(pos, pos), np.ix_(at[pos], at[pos])  # and of their -j

    def rel_error(s: _SweepForm) -> float:
        dc, on_t = s.dc, flat.take(s.t_prev.idx)
        usq = n**2 * _real_inner(np.conj(dc[pos]), dc[neg]) + s.ud  # Re sum U^2
        us = _real_inner(fs, dc) + _real_inner(s.d_prev.real, on_t)  # Re <U, S>
        return math.sqrt(max(0.5 * (s.uu + usq) / n**4 - 2.0 * us / n**2 + ss, 0.0) / ss)
    return rel_error


def _write_s_hat(s: _SweepForm, sub: Subgrid, out: np.ndarray | None) -> tuple[np.ndarray, float]:
    """s_hat = Re(U_k) / N^2 of the form s of sweep k into out, or else a new float
    grid, and max |Im U_k| / N^2: U_k = FFT2(C_k - C_{k-1}) + D_k is made a row
    block's worth of rows at a time in sub.u, from one column FFT."""
    n, h, t, d = sub.n, len(sub.u), s.t_prev, s.d_prev  # D_k on its support
    out = np.empty((n, n)) if out is None else out
    n2, step = float(n * n), column_fft(s.dc, sub)
    imag = []  # per block, max Im U and -min Im U
    for start in range(0, n, h):
        u = fft_rows(step[start:start + h], sub, sub.u[:n - start])
        lo, hi = t.idx.searchsorted((start * n, (start + h) * n))
        u.reshape(-1)[t.idx[lo:hi] - start * n] += d[lo:hi]
        np.divide(u.real, n2, out=out[start:start + h])
        imag += u.imag.max(), -u.imag.min()
    return out, float(np.max(imag)) / n2


def _run(ms: MeasurementSet, cfg: AdmmConfig, s_true: np.ndarray | None = None,
         target: float = 0.0) -> SolveReport:
    """Sweeps from zero until the error against s_true is at most target, or without
    it until the stopping rule holds; converged says if that rule held at any sweep.
    A stop at target is confirmed on the s_hat it writes, as rounding can differ."""
    order = np.argsort(ms.indices)
    sub = Subgrid(ms.n, np.asarray(ms.indices)[order])
    b_j = ms.b[np.ix_(order, order)] * (1.0 / (cfg.beta + 1.0))  # complex / real is slow
    error = None if s_true is None else _error_from_sums(s_true, sub)
    history: list[ResidualRecord] = []
    converged, reason, made = False, "max_iter", 0  # made: rows made to write s_hat
    s, s_hat = _SweepForm.zero(sub), None  # s_hat: the one grid each is written into
    start = time.perf_counter()
    for _ in range(cfg.max_iter):
        s, rec = _sweep(s, sub, b_j, cfg)
        history.append(rec)
        first = history[0]
        converged = converged or (residual_check(rec)
                                  and rec.r_norm <= _MIN_DROP * first.r_norm
                                  and rec.s_norm <= _MIN_DROP * first.s_norm)
        if error is None:
            if converged:
                reason = "tolerance"
                break
        elif error(s) <= target:
            (s_hat, max_imag), made = _write_s_hat(s, sub, s_hat), made + ms.n
            if rel_l2_error(s_hat, s_true) <= target:
                reason = "error_target"
                break
    if reason != "error_target":
        (s_hat, max_imag), made = _write_s_hat(s, sub, s_hat), made + ms.n
    return SolveReport(s_hat=s_hat, history=history, iterations=len(history),
                       converged=converged, wall_time=time.perf_counter() - start,
                       max_imag=max_imag, stop_reason=reason, row_ffts=made + s.row_ffts)
