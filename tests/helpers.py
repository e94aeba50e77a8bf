"""Dense reference implementations used to cross-check the matrix-free solver."""

import numpy as np

from branchcs.admm import AdmmState, soft_threshold
from branchcs.grid import MeasurementSet, embedded_fft2, sampled_ifft2


def dense_u_solve(ms: MeasurementSet, beta: float, z: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """Explicit Kronecker normal-equation solve for the U-subproblem.

    Builds A = (rows J of conj(F)/N) so that the sampled measurement operator
    is vec(B) = (A kron A) vec(U) with column-stacked vec, then solves

        (N^2 A~^H A~ + beta I) u~ = N^2 A~^H b~ + beta z~ - y~.

    O(N^4) memory and O(N^6) flops; only usable at toy sizes.
    """
    n = ms.n
    grid = np.arange(n)
    f_std = np.exp(-2j * np.pi * np.outer(grid, grid) / n)
    g1 = np.conj(f_std) / n
    a = g1[np.asarray(ms.indices, dtype=int), :]
    a_big = np.kron(a, a)
    lhs = n**2 * (a_big.conj().T @ a_big) + beta * np.eye(n * n)
    rhs = (n**2 * (a_big.conj().T @ ms.b.flatten(order="F"))
           + beta * z.flatten(order="F") - y.flatten(order="F"))
    u = np.linalg.solve(lhs, rhs)
    return u.reshape(n, n, order="F")


def dense_sweep(ms: MeasurementSet, beta: float, lam: float,
                state: AdmmState) -> AdmmState:
    """One full ADMM sweep using the dense U-solve; mirrors admm.iterate."""
    u_new = dense_u_solve(ms, beta, state.z, state.y)
    z_new = soft_threshold(u_new + state.y / beta, lam / beta)
    y_new = state.y + beta * (u_new - z_new)
    return AdmmState(u=u_new, z=z_new, y=y_new, k=state.k + 1)


def dense_pgd(ms: MeasurementSet, cfg):
    """FISTA on dense N x N grids, the loop pgd_recover replaced: every iterate
    is a full grid and each iteration makes three restricted transform sets
    (forward of Y, the gradient, forward of the candidate).  Returns the list of
    iterates S_1, S_2, ..., the (k, rel_change, l_used) records and whether the
    relative change fell below cfg.tol."""
    n = ms.n

    def smooth(s):
        return 0.5 * n**2 * np.sum(np.abs(sampled_ifft2(s, ms.indices) - ms.b) ** 2)

    s_cur = np.zeros((n, n), dtype=complex)
    s_prev = s_cur.copy()
    l_cur = cfg.l0
    iterates, history = [], []
    for k in range(1, cfg.max_iter + 1):
        omega = (k - 1) / (k + 2)
        y = s_cur + omega * (s_cur - s_prev)
        resid = sampled_ifft2(y, ms.indices) - ms.b
        f_y = 0.5 * n**2 * np.sum(np.abs(resid) ** 2)
        g = embedded_fft2(resid, ms.indices, n)
        while True:
            cand = soft_threshold(y - g * (1.0 / l_cur), cfg.lam / l_cur)
            diff = cand - y
            quad = f_y + np.real(np.vdot(g, diff)) + 0.5 * l_cur * np.sum(np.abs(diff) ** 2)
            if smooth(cand) <= quad + 1e-12 * max(1.0, abs(quad)):
                break
            l_cur *= cfg.c
        rel = np.linalg.norm(cand - s_cur) / max(np.linalg.norm(s_cur), 1.0)
        history.append((k, rel, l_cur))
        iterates.append(cand)
        s_prev, s_cur = s_cur, cand
        if rel < cfg.tol:
            return iterates, history, True
    return iterates, history, False
