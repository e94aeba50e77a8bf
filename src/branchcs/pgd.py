"""Accelerated proximal-gradient (FISTA) baseline for the same recovery problem.

Solves min 0.5 * N^2 ||restrict_J(IFFT2(S)) - B||^2 + lambda ||S||_1 with
momentum k/(k+3) and a backtracking line search; shares the measurement
bookkeeping and soft-threshold prox with the ADMM module so both solvers
target the identical objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .admm import SolveReport, soft_threshold
from .errors import NonFinite, ShapeMismatch
from .grid import MeasurementSet, embedded_fft2, sampled_ifft2

__all__ = ["PgdConfig", "PgdRecord", "forward", "fidelity_gradient", "smooth_value", "pgd_recover"]

_fft2 = embedded_fft2
_ifft2 = sampled_ifft2


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


@dataclass(frozen=True)
class PgdRecord:
    k: int
    rel_change: float
    l_used: float


def forward(s: np.ndarray, ms: MeasurementSet) -> np.ndarray:
    """Sampled inverse-Fourier measurement of S: IFFT2(S) restricted to J x J."""
    if s.shape != (ms.n, ms.n):
        raise ShapeMismatch(f"expected {(ms.n, ms.n)}, got {s.shape}")
    return _ifft2(s, ms.indices)


def fidelity_gradient(s: np.ndarray, ms: MeasurementSet) -> np.ndarray:
    """Gradient of the smooth term, matrix-free: FFT2 of the embedded residual."""
    return _value_and_gradient(s, ms)[1]


def smooth_value(s: np.ndarray, ms: MeasurementSet) -> float:
    return _value_and_gradient(s, ms, gradient=False)[0]


def _value_and_gradient(s: np.ndarray, ms: MeasurementSet, gradient: bool = True):
    """Smooth value and, unless gradient is False, its gradient from one residual."""
    resid = forward(s, ms) - ms.b
    value = float(0.5 * ms.n**2 * np.linalg.norm(resid) ** 2)
    return value, (_fft2(resid, ms.indices, ms.n) if gradient else None)


def pgd_recover(ms: MeasurementSet, cfg: PgdConfig) -> SolveReport:
    """FISTA with backtracking: S+ = prox_{lam/L}(Y - grad(Y)/L)."""
    n = ms.n
    s_cur = np.zeros((n, n), dtype=complex)
    s_prev = s_cur.copy()
    l_cur = cfg.l0
    history: list[PgdRecord] = []
    converged = False
    start = time.perf_counter()
    for k in range(1, cfg.max_iter + 1):
        omega = (k - 1) / (k + 2)  # k/(k+3) for the previous step index
        y = s_cur + omega * (s_cur - s_prev)
        f_y, g = _value_and_gradient(y, ms)
        while True:
            cand = soft_threshold(y - g / l_cur, cfg.lam / l_cur)
            diff = cand - y
            quad = f_y + np.real(np.vdot(g, diff)) + 0.5 * l_cur * np.linalg.norm(diff) ** 2
            if smooth_value(cand, ms) <= quad + 1e-12 * max(1.0, abs(quad)):
                break
            l_cur *= cfg.c
        if not np.all(np.isfinite(cand)):
            raise NonFinite(f"non-finite PGD iterate at k={k}")
        rel = float(np.linalg.norm(cand - s_cur) / max(np.linalg.norm(s_cur), 1.0))
        history.append(PgdRecord(k=k, rel_change=rel, l_used=l_cur))
        s_prev, s_cur = s_cur, cand
        if rel < cfg.tol:
            converged = True
            break
    return SolveReport.from_iterate(s_cur, history, converged, start)
