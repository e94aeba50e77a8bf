"""Accelerated proximal-gradient (FISTA) baseline for the same recovery problem.

Solves min 0.5 * N^2 ||restrict_J(IFFT2(S)) - B||^2 + lambda ||S||_1 with
momentum k/(k+3) and a backtracking line search; shares the measurement
bookkeeping and soft-threshold prox with the ADMM module so both solvers
target the identical objective.  Like the ADMM sweep, an iteration calls no
BLAS: its norms and inner products are einsum sums.

The loop works on the supports of its iterates (Beck & Teboulle 2009, with the
screen of El Ghaoui et al. 2012).  S_k and S_{k-1} are kept as sorted flat
indices with their values, and with R_k = forward(S_k) - B; forward is
linear, so the momentum point Y = S_k + w (S_k - S_{k-1}) has the residual
R_k + w (R_k - R_{k-1}) and costs no transform.  The gradient G is FFT2 of that
residual put on J x J.  Row u of G is the DFT of the M entries of row u of its
column transforms, so their L1 norm bounds the row; and off Y's support Y = 0,
so the candidate prox_{lam/L}(Y - G/L) is 0 wherever |G| <= lam, whatever L.
An iteration therefore makes only the rows of G that hold Y's support or whose
bound exceeds lam (1 - margin), and takes the candidate, the backtracking sums
and the relative change only on the entries where Y is not 0 or |G| exceeds
that cut.  Each backtracking step makes the row IFFTs of those entries' rows
and the M column IFFTs: an iteration makes two restricted transform sets (the
gradient's and a candidate's) where the dense loop made three.  The iterates are the dense
loop's within rounding, and no result depends on the thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .admm import _NONE, SolveReport, _real_inner, _sum_squares, soft_threshold
from .errors import NonFinite, ShapeMismatch
from .grid import (_MARGIN, MeasurementSet, Subgrid, _places, _row_iffts, _screen, column_fft,
                   column_ifft, embedded_fft2, fft_rows, sampled_ifft2)

__all__ = ["PgdConfig", "PgdRecord", "forward", "fidelity_gradient", "smooth_value", "pgd_recover"]

# module-level references so tests can count calls: per iteration, the column
# half of the gradient, whose rows are made as the screen lets them through,
# and per backtracking step the column half of a candidate's forward
_fft2 = column_fft
_ifft2 = column_ifft


@dataclass(frozen=True)
class PgdConfig:
    lam: float
    l0: float = 1.0
    c: float = 2.0
    max_iter: int = 5000
    tol: float = 1e-6

    def __post_init__(self):
        if not self.l0 > 0:
            raise ValueError("l0 must be > 0")
        if not self.c > 1:
            raise ValueError("c must be > 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class PgdRecord:
    k: int
    rel_change: float
    l_used: float


def forward(s: np.ndarray, ms: MeasurementSet) -> np.ndarray:
    """Sampled inverse-Fourier measurement of S: IFFT2(S) restricted to J x J."""
    if s.shape != (ms.n, ms.n):
        raise ShapeMismatch(f"expected {(ms.n, ms.n)}, got {s.shape}")
    return sampled_ifft2(s, ms.indices)


def fidelity_gradient(s: np.ndarray, ms: MeasurementSet) -> np.ndarray:
    """Gradient of the smooth term, matrix-free: FFT2 of the embedded residual."""
    return embedded_fft2(forward(s, ms) - ms.b, ms.indices, ms.n)


def smooth_value(s: np.ndarray, ms: MeasurementSet) -> float:
    return 0.5 * ms.n**2 * _sum_squares(forward(s, ms) - ms.b)


class _Iterate(NamedTuple):
    """An iterate S on its support: sorted flat grid indices, the values there,
    and r = forward(S) - B."""

    idx: np.ndarray
    val: np.ndarray
    r: np.ndarray


def pgd_recover(ms: MeasurementSet, cfg: PgdConfig, threads: int = 1) -> SolveReport:
    """FISTA with backtracking: S+ = prox_{lam/L}(Y - grad(Y)/L).

    threads must be >= 1; an iteration runs on the calling thread, since what
    it makes of the grid is a few row blocks at most.  Each vector of an
    iteration is freed once it is no longer used: in the first iterations
    almost every entry is held, so they are grid-sized.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n, lam = ms.n, cfg.lam
    sub = Subgrid(n, ms.indices)
    h = len(sub.flat)  # rows in a row block
    g_cols = np.empty((len(sub.j), n), dtype=complex)  # a candidate's row IFFTs at columns J
    cur = prev = _Iterate(_NONE, np.empty(0, dtype=complex), -ms.b)
    l_cur = cfg.l0
    cut = lam * (1.0 - _MARGIN)
    history: list[PgdRecord] = []
    converged, row_ffts = False, 0
    start = time.perf_counter()
    for k in range(1, cfg.max_iter + 1):
        omega = (k - 1) / (k + 2)  # k/(k+3) for the previous step index
        r_y = cur.r + omega * (cur.r - prev.r)  # forward(Y) - B
        f_y = 0.5 * n**2 * _sum_squares(r_y)
        if not math.isfinite(f_y):
            raise NonFinite(f"non-finite PGD objective at k={k}")
        cols = _fft2(r_y, sub)
        # the rows of G that can hold |G| > lam, and Y's
        rows = _screen(cols, lam)
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
        while True:
            v = np.multiply(g_on, 1.0 / l_cur)
            cand = soft_threshold(np.subtract(y, v, out=v), lam / l_cur, out=v)
            if not np.all(np.isfinite(cand)):
                raise NonFinite(f"non-finite PGD iterate at k={k}")
            diff = cand - y
            quad = f_y + _real_inner(g_on, diff) + 0.5 * l_cur * _sum_squares(diff)
            del diff
            # the rows of on: the candidate's, and a few that turned out 0
            rows_buf = np.empty((h, n), dtype=complex)  # the chunk diff left, not a new one
            row_ffts += _row_iffts(idx_on, idx_on // n, cand, sub, rows_buf, g_cols)
            r = _ifft2(g_cols.T, sub) - ms.b
            if 0.5 * n**2 * _sum_squares(r) <= quad + 1e-12 * max(1.0, abs(quad)):
                break
            l_cur *= cfg.c
        del y, g_on
        diff = cand.copy()
        diff[at_cur] -= cur.val  # the candidate less S_k
        rel = math.sqrt(_sum_squares(diff)) / max(math.sqrt(_sum_squares(cur.val)), 1.0)
        history.append(PgdRecord(k=k, rel_change=rel, l_used=l_cur))
        nz = cand.nonzero()[0]
        prev, cur = cur, _Iterate(idx_on[nz], cand[nz], r)
        del diff, at_cur, v, cand, nz, on, idx_on  # before the next iteration's vectors
        if rel < cfg.tol:
            converged = True
            break
    s = np.zeros((n, n), dtype=complex)
    s.reshape(-1)[cur.idx] = cur.val
    return SolveReport.from_iterate(s, history, converged, start,
                                    "tolerance" if converged else "max_iter", row_ffts)
