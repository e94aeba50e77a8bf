"""Accelerated proximal-gradient (FISTA) baseline for the same recovery problem.

Solves min 0.5 * N^2 ||restrict_J(IFFT2(S)) - B||^2 + lambda ||S||_1 with
momentum k/(k+3); shares the measurement bookkeeping and soft-threshold prox
with the ADMM module so both solvers target the identical objective.  For
every J, N^2 A^H A is an orthogonal projection (A S = IFFT2(S)[J, J]), so the
smooth term's gradient is Lipschitz with L = 1 exactly and every iteration
takes the step 1/L = 1: S+ = prox_lam(Y - G), with no line search.  Like the
ADMM sweep, an iteration calls no BLAS: its norms are einsum sums.

The loop works on the supports of its iterates (Beck & Teboulle 2009, with the
screen of El Ghaoui et al. 2012).  S_k and S_{k-1} are kept as sorted flat
indices with their values, and with R_k = IFFT2(S_k)[J, J] - B; that map is
linear, so the momentum point Y = S_k + w (S_k - S_{k-1}) has the residual
R_k + w (R_k - R_{k-1}) and costs no transform.  The gradient G is FFT2 of that
residual put on J x J.  Row u of G is the DFT of the M entries of row u of its
column transforms, so their L1 norm bounds the row; and off Y's support Y = 0,
so the candidate prox_lam(Y - G) is 0 wherever |G| <= lam.  An iteration
therefore makes only the rows of G that hold Y's support or whose bound
exceeds lam (1 - margin), and takes the candidate and the relative change only
on the entries where Y is not 0 or |G| exceeds that cut.  The candidate's
residual takes the row IFFTs of those entries' rows and the M column IFFTs: an
iteration makes exactly two restricted transform sets, the gradient's and the
candidate's.  The iterates are the dense loop's within rounding.  s_hat is
Re(S) / N^2 put on S's support in a zero float grid, and max_imag is taken
from the support's values: no complex N x N grid is made.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .admm import _NONE, SolveReport, _sum_squares, soft_threshold
from .errors import NonFinite
from .grid import (_MARGIN, MeasurementSet, Subgrid, _places, _row_iffts, _row_l1, _screen,
                   column_fft, column_ifft, fft_rows)

__all__ = ["PgdConfig", "PgdRecord", "pgd_recover"]

# module-level references so tests can count calls: per iteration, the column
# half of the gradient, whose rows are made as the screen lets them through,
# and the column half of the candidate's IFFT2 on J x J
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
    """One iteration: its index, the relative change of S, and the Lipschitz
    constant whose inverse was the step, which is always 1."""

    k: int
    rel_change: float
    l_used: float


class _Iterate(NamedTuple):
    """An iterate S on its support: sorted flat grid indices, the values there,
    and r = IFFT2(S)[J, J] - B."""

    idx: np.ndarray
    val: np.ndarray
    r: np.ndarray


def pgd_recover(ms: MeasurementSet, cfg: PgdConfig) -> SolveReport:
    """FISTA with the exact step 1/L = 1: S+ = prox_lam(Y - grad(Y)).

    Each vector of an iteration is freed once it is no longer used: in the
    first iterations almost every entry is held, so they are grid-sized.
    """
    n, lam = ms.n, cfg.lam
    sub = Subgrid(n, ms.indices)
    h = len(sub.flat)  # rows in a row block
    g_cols = np.empty((len(sub.j), n), dtype=complex)  # a candidate's row IFFTs at columns J
    cur = prev = _Iterate(_NONE, np.empty(0, dtype=complex), -ms.b)
    cut = lam * (1.0 - _MARGIN)
    history: list[PgdRecord] = []
    converged, row_ffts = False, 0
    start = time.perf_counter()
    for k in range(1, cfg.max_iter + 1):
        omega = (k - 1) / (k + 2)  # k/(k+3) for the previous step index
        r_y = cur.r + omega * (cur.r - prev.r)  # IFFT2(Y)[J, J] - B
        if not math.isfinite(_sum_squares(r_y)):
            raise NonFinite(f"non-finite PGD objective at k={k}")
        cols = _fft2(r_y, sub)
        # the rows of G that can hold |G| > lam, and Y's
        rows = _screen(_row_l1(cols), lam)
        rows[cur.idx // n] = True
        rows[prev.idx // n] = True
        made = rows.nonzero()[0]
        g = np.empty((len(made), n), dtype=complex)
        for i in range(0, len(made), h):
            fft_rows(cols[made[i:i + h]], sub, g[i:i + h])
        row_ffts += len(made)
        del r_y, cols
        # on: where the candidate or Y can be nonzero, as places in g: Y's
        # support and where |G| is above the cut (or not finite)
        on = (np.abs(g) <= cut).reshape(-1)
        at_cur = _places(made, cur.idx, cur.idx // n, n)
        at_prev = _places(made, prev.idx, prev.idx // n, n)
        prev_val = prev.val
        del prev
        on[at_cur] = on[at_prev] = False
        on = np.logical_not(on, out=on).nonzero()[0]
        g_on = g.reshape(-1).take(on)
        del g
        # Y = S_k + w (S_k - S_{k-1}) on on, as the dense grids' expression
        y = np.zeros(len(on), dtype=complex)
        y[on.searchsorted(at_prev)] = prev_val
        del prev_val, at_prev
        at_cur = on.searchsorted(at_cur)  # S_k's places in on
        s_on = np.zeros(len(on), dtype=complex)
        s_on[at_cur] = cur.val
        y = np.add(s_on, np.multiply(np.subtract(s_on, y, out=y), omega, out=y), out=y)
        del s_on
        idx_on = np.add(made.take(on // n) * n, np.remainder(on, n, out=on), out=on)
        cand = soft_threshold(np.subtract(y, g_on, out=g_on), lam, out=g_on)
        del y, g_on
        if not np.all(np.isfinite(cand)):
            raise NonFinite(f"non-finite PGD iterate at k={k}")
        # the rows of on: the candidate's, and a few that turned out 0
        row_ffts += _row_iffts(idx_on, idx_on // n, cand, sub,
                               np.empty((h, n), dtype=complex), g_cols)
        r = _ifft2(g_cols.T, sub) - ms.b
        diff = cand.copy()
        diff[at_cur] -= cur.val  # the candidate less S_k
        rel = math.sqrt(_sum_squares(diff)) / max(math.sqrt(_sum_squares(cur.val)), 1.0)
        history.append(PgdRecord(k=k, rel_change=rel, l_used=1.0))
        nz = cand.nonzero()[0]
        prev, cur = cur, _Iterate(idx_on[nz], cand[nz], r)
        del diff, at_cur, cand, nz, on, idx_on  # before the next iteration's vectors
        if rel < cfg.tol:
            converged = True
            break
    n2, s_hat = float(n * n), np.zeros((n, n))
    s_hat.reshape(-1)[cur.idx] = cur.val.real / n2
    max_imag = float(np.abs(cur.val.imag).max(initial=0.0)) / n2
    return SolveReport(s_hat=s_hat, history=history, iterations=len(history),
                       converged=converged, wall_time=time.perf_counter() - start,
                       max_imag=max_imag, stop_reason="tolerance" if converged else "max_iter",
                       row_ffts=row_ffts)
