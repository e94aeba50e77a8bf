"""Accelerated proximal-gradient (FISTA) baseline for the same recovery problem.

Solves min 0.5 * N^2 ||restrict_J(IFFT2(S)) - B||^2 + lambda ||S||_1 with
momentum k/(k+3); shares the measurement bookkeeping and soft-threshold prox
with the ADMM module so both solvers target the identical objective.  For
every J, N^2 A^H A is an orthogonal projection (A S = IFFT2(S)[J, J]), so the
smooth term's gradient is Lipschitz with L = 1 exactly and every iteration
takes the step 1/L = 1: S+ = prox_lam(Y - G), with no line search.  Like the
ADMM sweep, an iteration calls no BLAS: its norms are einsum sums.

The loop works on the supports of its iterates (Beck & Teboulle 2009, with the
screen of El Ghaoui et al. 2012).  It keeps t = supp S_k u supp S_{k-1} (a
grid.Support) with S_k and S_{k-1} there, and R_k = IFFT2(S_k)[J, J] - B; that
map is linear, so the momentum point Y = S_k + w (S_k - S_{k-1}), 0 off t, has
the residual R_k + w (R_k - R_{k-1}) and costs no transform.  The gradient G is
FFT2 of that residual put on J x J, and off t the candidate prox_lam(Y - G) is 0
wherever |G| <= lam.  So an iteration makes G by grid.screened_fft, the pass
the ADMM sweep makes F_k by: at p, t then the entries off t where |G| > lam,
from the rows whose bound can cross lam and t's dense rows.  The candidate and
the relative change are taken on p, the new t is supp S_{k+1} u supp S_k, and
the candidate's residual takes its row IFFTs by Support.iffts, into the g of
the run's grid.Subgrid, and the M column IFFTs: an iteration makes exactly two
restricted transform sets, the gradient's and the candidate's, in the
Subgrid's buffers.  The iterates are the dense loop's within rounding.  s_hat
is Re(S) / N^2 put on S's support in a zero float grid, and max_imag is taken
from the support's values: no complex N x N grid is made.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .admm import SolveReport, _sum_squares, soft_threshold
from .errors import NonFinite
from .grid import (_NONE, MeasurementSet, Subgrid, Support, _row_l1, column_fft, column_ifft,
                   screened_fft)

__all__ = ["PgdConfig", "PgdRecord", "pgd_recover"]

# module-level references so tests can count calls: per iteration, the column
# half of the gradient, whose rows the screened pass makes, and the column half
# of the candidate's IFFT2 on J x J
_fft2 = column_fft
_ifft2 = column_ifft


@dataclass(frozen=True)
class PgdConfig:
    lam: float
    max_iter: int = 5000
    tol: float = 1e-6

    def __post_init__(self):
        if not self.lam >= 0:  # False for NaN
            raise ValueError("lam must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class PgdRecord:
    """One iteration: its index and the relative change of S."""

    k: int
    rel_change: float


def pgd_recover(ms: MeasurementSet, cfg: PgdConfig) -> SolveReport:
    """FISTA with the exact step 1/L = 1: S+ = prox_lam(Y - grad(Y)).

    Each vector of an iteration is freed once it is no longer used: in the
    first iterations almost every entry is held, so they are grid-sized.
    """
    n, lam = ms.n, cfg.lam
    sub = Subgrid(n, ms.indices)
    # t: where S_k or S_{k-1} is not 0, with both there; r: IFFT2(S)[J, J] - B of each
    t, s = Support.of(sub, _NONE), np.empty(0, dtype=complex)
    s_prev = s
    r = r_prev = -ms.b
    history: list[PgdRecord] = []
    converged, row_ffts = False, 0
    start = time.perf_counter()
    for k in range(1, cfg.max_iter + 1):
        omega = (k - 1) / (k + 2)  # k/(k+3) for the previous step index
        r_y = r + omega * (r - r_prev)  # IFFT2(Y)[J, J] - B
        if not math.isfinite(_sum_squares(r_y)):
            raise NonFinite(f"non-finite PGD objective at k={k}")
        cols = _fft2(r_y, sub)
        # p: t, then where |G| > lam off t, where Y = 0 and so prox_lam(Y - G) is not 0
        p, cand, made = screened_fft(cols, t, _row_l1(cols), lam, sub)
        m = len(t.idx)
        del r_y, cols, t
        # the candidate prox_lam(Y - G) on p, in G's place; Y = S_k + w (S_k - S_{k-1})
        y = np.subtract(s, s_prev, out=s_prev)
        y = np.add(s, np.multiply(y, omega, out=y), out=y)
        np.subtract(y, cand[:m], out=cand[:m])
        np.negative(cand[m:], out=cand[m:])
        soft_threshold(cand, lam, out=cand)
        if not np.all(np.isfinite(cand)):
            raise NonFinite(f"non-finite PGD iterate at k={k}")
        diff = np.subtract(cand[:m], s, out=y)  # the candidate less S_k, on t
        rel = (math.sqrt(_sum_squares(diff) + _sum_squares(cand[m:]))
               / max(math.sqrt(_sum_squares(s)), 1.0))
        history.append(PgdRecord(k=k, rel_change=rel))
        del diff, y
        # the new t: where S_{k+1} or S_k is not 0, t's and found's entries merged
        keep = cand != 0
        keep[:m] |= s != 0
        t, kept = Support.kept(sub, p, m, keep)
        del keep, p
        # S_k on the new t: s where it comes from t, 0 where it comes from p's found
        s_prev = s.take(kept, mode="clip") if m else np.zeros(len(kept), dtype=complex)
        s_prev[kept >= m] = 0
        del s
        s = cand.take(kept)
        del cand, kept
        row_ffts += made + t.iffts(s, sub)
        r, r_prev = _ifft2(sub.g.T, sub) - ms.b, r
        if rel < cfg.tol:
            converged = True
            break
    n2, s_hat, on = float(n * n), np.zeros((n, n)), s != 0  # t holds S_{k-1}'s zeros too
    s_hat.reshape(-1)[t.idx[on]] = s.real[on] / n2
    max_imag = float(np.abs(s.imag).max(initial=0.0)) / n2
    return SolveReport(s_hat=s_hat, history=history, iterations=len(history),
                       converged=converged, wall_time=time.perf_counter() - start,
                       max_imag=max_imag, stop_reason="tolerance" if converged else "max_iter",
                       row_ffts=row_ffts)
