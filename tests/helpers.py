"""Dense reference implementations used to cross-check the matrix-free solver,
the dense state of each of recover's sweeps and the U_k s_hat is written from, the objective and the transforms FISTA's gradient is made of, the per-point
Riccati solve that checks the HSC PGF flow, a tight DOP853 BDS grid, the out-of-place PGF grid
whose bits the in-place one must keep, and the sparse generator and
scipy-weighted uniformization that check the oracle's stencil."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.stats import poisson

from branchcs import admm, models
from branchcs.admm import AdmmState, soft_threshold
from branchcs.grid import MeasurementSet, Subgrid, column_fft, fft_rows, sampled_ifft2


def smooth_value(s: np.ndarray, ms: MeasurementSet) -> float:
    """The smooth term 0.5 N^2 ||IFFT2(S)[J, J] - B||^2 of the recovery objective."""
    sub = Subgrid(ms.n, ms.indices)
    return 0.5 * ms.n**2 * np.sum(np.abs(sampled_ifft2(s, sub) - ms.b) ** 2)


def objective(ms: MeasurementSet, u: np.ndarray, z: np.ndarray, lam: float) -> float:
    """Fidelity-plus-penalty value at (U, Z)."""
    return smooth_value(u, ms) + lam * np.sum(np.abs(z))


def fft2_rows(c: np.ndarray, sub: Subgrid) -> np.ndarray:
    """FFT2 of c on J x J of an N x N grid, every row made as FISTA makes its
    gradient's: the M column transforms (column_fft), then fft_rows a row
    block's worth at a time."""
    cols, h = column_fft(c, sub), len(sub.flat)
    out = np.empty((sub.n, sub.n), dtype=complex)
    for i in range(0, sub.n, h):
        fft_rows(cols[i:i + h], sub, out[i:i + h])
    return out


def fista_gradient(s: np.ndarray, ms: MeasurementSet) -> np.ndarray:
    """The gradient of smooth_value at S by FISTA's transforms: FFT2 of the
    residual IFFT2(S)[J, J] - B on J x J, by fft2_rows."""
    sub = Subgrid(ms.n, ms.indices)
    return fft2_rows(sampled_ifft2(s, sub) - ms.b, sub)


def traced_peak(run):
    """run() and the peak of the memory tracemalloc traces while it runs, in
    bytes above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


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
    """One full ADMM sweep using the dense U-solve, the paper's closed-form step."""
    u_new = dense_u_solve(ms, beta, state.z, state.y)
    z_new = soft_threshold(u_new + state.y / beta, lam / beta)
    y_new = state.y + beta * (u_new - z_new)
    return AdmmState(u=u_new, z=z_new, y=y_new, k=state.k + 1)


def dense_u(s, sub: Subgrid) -> np.ndarray:
    """U_k = FFT2(C_k - C_{k-1}) + D_k of the form s of recover's sweep k, made
    dense: one fft2 of C_k - C_{k-1} put on J x J of a zero grid, then D_k added
    on its support."""
    step = np.zeros((sub.n, sub.n), dtype=complex)
    step[np.ix_(sub.j, sub.j)] = s.c - s.c_prev
    u = np.fft.fft2(step)
    u.reshape(-1)[s.t_prev.idx] += s.d_prev
    return u


def form_state(s, sub: Subgrid, beta: float) -> AdmmState:
    """The dense (U_k, Z_k, Y_k) of the form s of recover's sweep k: Z_k on its
    support, Y_k = beta (F_k + Z_k - D_{k+1}) with F_k = FFT2 of C_k on J x J,
    and U_k by dense_u."""
    t = s.t
    f = np.zeros((sub.n, sub.n), dtype=complex)
    f[np.ix_(sub.j, sub.j)] = s.c
    y = np.fft.fft2(f)
    z = np.zeros_like(y)
    z.reshape(-1)[t.idx] = s.z
    y.reshape(-1)[t.idx] += s.z - s.d
    y *= beta
    return AdmmState(u=dense_u(s, sub), z=z, y=y, k=s.k)


def recover_states(ms: MeasurementSet, cfg) -> tuple[list, admm.SolveReport]:
    """admm.recover's report and the dense state of each of its sweeps, made by
    form_state from a wrapper of admm._sweep as each sweep returns."""
    states, sweep = [], admm._sweep

    def keeping(s, sub, *args):
        new, rec, sums = sweep(s, sub, *args)
        states.append(form_state(new, sub, cfg.beta))
        return new, rec, sums

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(admm, "_sweep", keeping)
        report = admm.recover(ms, cfg)
    return states, report


def dense_pgd(ms: MeasurementSet, cfg):
    """FISTA on dense N x N grids, the loop pgd_recover replaced: every iterate
    is a full grid and each iteration makes the forward transform of Y and the
    gradient, and takes the step 1/L of L = 1.  Returns the list of iterates
    S_1, S_2, ..., the (k, rel_change) records and whether the relative change
    fell below cfg.tol."""
    n = ms.n
    s_cur = np.zeros((n, n), dtype=complex)
    s_prev = s_cur.copy()
    iterates, history = [], []
    for k in range(1, cfg.max_iter + 1):
        omega = (k - 1) / (k + 2)
        y = s_cur + omega * (s_cur - s_prev)
        g = fft2_rows(sampled_ifft2(y, Subgrid(n, ms.indices)) - ms.b, Subgrid(n, ms.indices))
        cand = soft_threshold(y - g, cfg.lam)
        rel = np.linalg.norm(cand - s_cur) / max(np.linalg.norm(s_cur), 1.0)
        history.append((k, rel))
        iterates.append(cand)
        s_prev, s_cur = s_cur, cand
        if rel < cfg.tol:
            return iterates, history, True
    return iterates, history, False


def riccati_pgf(model, s1: complex, s2: complex, tol: float = 1e-13) -> complex:
    """The HSC PGF phi1^j phi2^k at one point, phi1 from the type-1 Riccati
    equation dphi/dtau = rho phi^2 - (rho + nu) phi + nu phi2(tau), phi(0) = s1,
    solved alone by DOP853 at rtol = atol = tol: the per-column solve that the
    Moebius flow of models.pgf_block replaced."""
    rho, nu, mu = model.rates.rho, model.rates.nu, model.rates.mu
    j, k = model.init

    def rhs(tau, phi):
        forcing = nu * (1.0 + (s2 - 1.0) * np.exp(-mu * tau))
        return rho * phi * phi - (rho + nu) * phi + forcing

    sol = solve_ivp(rhs, (0.0, model.t), [complex(s1)], method="DOP853", rtol=tol, atol=tol)
    assert sol.success, sol.message
    return sol.y[0, -1] ** j * (1.0 + (s2 - 1.0) * np.exp(-mu * model.t)) ** k


def dop853_bds_grid(model, n: int, tol: float = 1e-13) -> np.ndarray:
    """Columns 0..N/2 of the BDS model's N x N PGF grid, one column per s2 as
    models.pgf_block takes them, each the type-1 backward equation for every s1
    as one system solved by scipy's DOP853 at rtol = atol = tol, then
    phi1^j phi01^k."""
    half, rates, (j, k) = n // 2 + 1, model.rates, model.init
    s1, s2 = np.exp(2j * np.pi * np.arange(n) / n), np.exp(2j * np.pi * np.arange(half) / n)
    g, sg, d = rates.gamma, rates.sigma, rates.delta
    grid = np.empty((n, half), dtype=complex)
    for col, v in enumerate(s2):
        def rhs(tau, phi):
            p01 = models.bds_phi01(tau, v, rates)
            return g * phi * p01 + sg * p01 + d - (g + sg + d) * phi

        sol = solve_ivp(rhs, (0.0, model.t), s1, method="DOP853", rtol=tol, atol=tol)
        assert sol.success, sol.message
        grid[:, col] = sol.y[:, -1] ** j * models.bds_phi01(model.t, v, rates) ** k
    return grid


def out_of_place_grid(model, n: int) -> np.ndarray:
    """The full N x N PGF grid made out of place: models.pgf_block as it was
    before it wrote into its output, with the Moebius ratio
    (outer(s1, a) + b) / (outer(s1, c) + d) and then p1 ** j * p2 ** k for
    every init, and the upper columns mirrored from the lower ones."""
    half = n // 2 + 1
    s1, s2 = np.exp(2j * np.pi * np.arange(n) / n), np.exp(2j * np.pi * np.arange(half) / n)
    (j, k), t, rates, m = model.init, model.t, model.rates, half
    p1 = np.ones((n, m), dtype=complex)
    if model.kind == "hsc":
        p2 = models.hsc_phi2(t, s2, rates)
        if j:
            rho, nu, mu, h = rates.rho, rates.nu, rates.mu, 0.5 * (rates.rho + rates.nu)

            def flow(tau, w):
                top, bottom = w.reshape(2, 2, m)
                f = nu * (1.0 + (s2 - 1.0) * math.exp(-mu * tau))
                return np.concatenate((f * bottom - h * top, h * bottom - rho * top), axis=None)

            w0 = np.repeat([1.0 + 0j, 0.0, 0.0, 1.0], m)
            a, b, c, d = models._integrate(flow, t, w0).reshape(4, m)
            p1 = (np.multiply.outer(s1, a) + b) / (np.multiply.outer(s1, c) + d)
    else:
        p2 = models.bds_phi01(t, s2, rates)
        g, sg, d = rates.gamma, rates.sigma, rates.delta
        for col in range(m if j else 0):
            def rhs(tau, phi, v=s2[col]):
                p01 = models.bds_phi01(tau, v, rates)
                return g * phi * p01 + sg * p01 + d - (g + sg + d) * phi

            p1[:, col] = models._integrate(rhs, t, s1)
    grid = np.empty((n, n), dtype=complex)
    grid[:, :half] = p1 ** j * p2 ** k
    refl = (n - np.arange(n)) % n
    for v in range(half, n):
        grid[:, v] = np.conj(grid[refl, n - v])
    return grid


def csr_generator(model, n_trunc: int) -> sparse.csr_matrix:
    """The model's generator on [0, n_trunc)^2 as a sparse matrix, row-indexed
    x1 * n_trunc + x2, built state by state: the oracle's generator before it
    became a stencil.  Moves that leave the box are dropped from the row and
    kept in its diagonal, so boundary rows sum below zero."""
    r = model.rates
    if model.kind == "hsc":  # (dx1, dx2, per-particle rate, which population scales it)
        events = [(+1, 0, r.rho, 1), (-1, +1, r.nu, 1), (0, -1, r.mu, 2)]
    else:
        events = [(0, +1, r.gamma, 1), (-1, +1, r.sigma, 1), (-1, 0, r.delta, 1),
                  (0, +1, r.gamma, 2), (0, -1, r.delta, 2)]
    n = n_trunc
    rows, cols, vals = [], [], []
    for x1 in range(n):
        for x2 in range(n):
            i = x1 * n + x2
            out_rate = 0.0
            for dx1, dx2, rate, pop in events:
                count = x1 if pop == 1 else x2
                if count == 0:
                    continue
                total = count * rate
                out_rate += total
                y1, y2 = x1 + dx1, x2 + dx2
                if 0 <= y1 < n and 0 <= y2 < n:
                    rows.append(i)
                    cols.append(y1 * n + y2)
                    vals.append(total)
            if out_rate > 0:
                rows.append(i)
                cols.append(i)
                vals.append(-out_rate)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))


def csr_uniformized(q: sparse.csr_matrix, init: tuple[int, int], t: float,
                    tol: float = 1e-12) -> np.ndarray:
    """The init row of e^{Qt} as the oracle made it before it became a stencil:
    scipy.stats Poisson weights through k_max = isf(tol, Lambda t) + 1 on
    powers of the sparse kernel I + Q/Lambda."""
    n = math.isqrt(q.shape[0])
    lam = float(np.max(-q.diagonal()))
    k_max = int(poisson.isf(tol, lam * t)) + 1
    weights = poisson.pmf(np.arange(k_max + 1), lam * t)
    kernel = sparse.identity(n * n, format="csr") + q / lam
    v = np.zeros(n * n)
    v[init[0] * n + init[1]] = 1.0
    acc = weights[0] * v
    for w in weights[1:]:
        v = v @ kernel
        acc += w * v
    return acc.reshape(n, n)
