"""Acceptance gate: one test per criterion, tolerances pinned.

Each test prints a single PASS line with the measured quantities so the run
log doubles as a calibration record.
"""

import math
import statistics

import numpy as np
import pytest

from branchcs.admm import (
    AdmmConfig,
    AdmmState,
    build_mhat,
    recover,
    recover_to_error,
)
from branchcs.grid import (
    MeasurementSet,
    default_m,
    full_measurements,
    invert_full,
    rel_l2_error,
    sample_indices,
    sampled_measurements,
)
from branchcs.models import ModelSpec, pgf
from branchcs.oracle import oracle_transition_matrix
from branchcs.pgd import PgdConfig, pgd_recover
from branchcs.presets import DEFAULT_SPARSITY_K, admm_defaults, admm_lambda, pgd_lambda
from conftest import BDS_RATES, HSC_RATES
from helpers import dense_sweep, fista_gradient, recover_states, smooth_value

# Tight stopping used where a run must reach the low-error plateau regardless
# of the stepsize (large beta converges slowly, so the shipped defaults would
# stop it mid-transient).
TIGHT = dict(eps_abs=1e-5, eps_rel=1e-6, max_iter=30000)


def _measurements(full, n, m, seed):
    idx = sample_indices(n, m, seed)
    return MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=seed)


def test_criterion_1_worked_example_exactness():
    """build_mhat on the 4-point grid with the first two indices sampled."""
    got = build_mhat(4, [0, 1], beta=0.1)
    expected = np.array([1.1, 1.1, 0.1, 0.1, 1.1, 1.1] + [0.1] * 10)
    assert np.array_equal(got, expected)
    print("\nPASS criterion 1: m_hat matches the worked example exactly")


@pytest.mark.parametrize("kind,rates,t", [
    ("hsc", HSC_RATES, 1.0),
    ("bds", BDS_RATES, 0.35),
])
@pytest.mark.parametrize("init", [(1, 0), (0, 1)])
def test_criterion_2_oracle_equivalence(kind, rates, t, init):
    """Exact Fourier inversion agrees with the uniformization oracle at N=16."""
    model = ModelSpec(kind=kind, rates=rates, t=t, init=init)
    s_fourier = invert_full(full_measurements(model, 16))
    oracle = oracle_transition_matrix(model, 32)
    diff = float(np.max(np.abs(s_fourier - oracle.probs[:16, :16])))
    assert diff < 1e-6
    print(f"\nPASS criterion 2: {kind} init={init} max diff {diff:.3e} < 1e-6")


@pytest.mark.parametrize("n,m", [(4, 3), (8, 6)])
def test_criterion_3_dense_oracle_equivalence(n, m):
    """recover's own sweeps equal the explicit Kronecker solve per iterate."""
    worst = 0.0
    for seed in range(5):
        model = ModelSpec(kind="hsc", rates=HSC_RATES, t=1.0, init=(1, 0))
        full = full_measurements(model, n)
        ms = _measurements(full, n, m, seed)
        cfg = AdmmConfig(beta=0.1, lam=0.5, max_iter=4)
        zeros = np.zeros((n, n), dtype=complex)
        slow = AdmmState(u=zeros.copy(), z=zeros.copy(), y=zeros.copy())
        states, _ = recover_states(ms, cfg)
        assert len(states) == 4
        for fast in states:
            slow = dense_sweep(ms, cfg.beta, cfg.lam, slow)
            for name in ("u", "z", "y"):
                d = float(np.max(np.abs(getattr(fast, name) - getattr(slow, name))))
                worst = max(worst, d)
                assert d < 1e-10
    print(f"\nPASS criterion 3: N={n} worst per-iterate deviation {worst:.3e} < 1e-10")


def test_criterion_4_recovery_accuracy_at_benchmark_scale(hsc64_full, hsc64_truth):
    """HSC N=64, M=51, shipped defaults: converged with low recovery error.

    The original bound was 0.1; calibration runs measured 0.0028-0.0030
    across seeds, so the assertion is tightened to 0.01.
    """
    n, m = 64, 51
    assert default_m(n, DEFAULT_SPARSITY_K) == m
    ms = _measurements(hsc64_full, n, m, seed=0)
    cfg = admm_defaults("hsc", n, m)
    assert (cfg.beta, cfg.eps_abs, cfg.eps_rel) == (0.08, 1e-3, 1e-3)
    assert cfg.lam == pytest.approx(0.5 * math.log(m))
    report = recover(ms, cfg)
    err = rel_l2_error(report.s_hat, hsc64_truth)
    assert report.converged
    assert err < 0.01
    print(f"\nPASS criterion 4: converged in {report.iterations} sweeps, "
          f"eps_rel_l2 {err:.4g} < 0.01")


def test_criterion_5_robustness_sweep(hsc64_full, hsc64_truth):
    """Error stays below 0.1 across the beta and lambda robustness grids."""
    n, m = 64, 51
    ms = _measurements(hsc64_full, n, m, seed=0)
    lam0 = admm_lambda(m)
    worst_beta = 0.0
    for beta in np.logspace(-3, 2, 11):
        report = recover(ms, AdmmConfig(beta=float(beta), lam=lam0, **TIGHT))
        err = rel_l2_error(report.s_hat, hsc64_truth)
        assert err < 0.1, f"beta={beta}: err={err}"
        worst_beta = max(worst_beta, err)
    worst_lam = 0.0
    for lam in np.logspace(0, 2, 9):
        report = recover(ms, AdmmConfig(beta=0.08, lam=float(lam), **TIGHT))
        err = rel_l2_error(report.s_hat, hsc64_truth)
        assert err < 0.1, f"lam={lam}: err={err}"
        worst_lam = max(worst_lam, err)
    print(f"\nPASS criterion 5: worst error {worst_beta:.4g} over beta grid, "
          f"{worst_lam:.4g} over lambda grid (< 0.1)")


def test_criterion_6_solver_ordering_and_scaling(hsc_model):
    """ADMM beats FISTA wall time at matched-or-better error; per-sweep cost
    scales like the sweep's N (N + M) log N, which is N^2 log N for M << N
    (fitted exponent against it in [0.82, 1.18])."""
    for n in (64, 128, 256):
        full = full_measurements(hsc_model, n)
        s_true = invert_full(full)
        m = default_m(n, DEFAULT_SPARSITY_K)
        a_walls, p_walls = [], []
        for trial in range(5):
            ms = _measurements(full, n, m, seed=trial)
            p_rep = pgd_recover(ms, PgdConfig(lam=pgd_lambda("hsc", m), max_iter=5000))
            p_err = rel_l2_error(p_rep.s_hat, s_true)
            a_rep = recover_to_error(ms, admm_defaults("hsc", n, m, max_iter=25000),
                                     s_true, target=p_err)
            a_err = rel_l2_error(a_rep.s_hat, s_true)
            assert a_err <= p_err, f"N={n} trial={trial}: {a_err} > {p_err}"
            a_walls.append(a_rep.wall_time)
            p_walls.append(p_rep.wall_time)
        a_med, p_med = statistics.median(a_walls), statistics.median(p_walls)
        assert a_med < p_med, f"N={n}: ADMM {a_med}s not faster than PGD {p_med}s"
        print(f"\ncriterion 6 at N={n}: ADMM median {a_med:.4f}s < PGD median "
              f"{p_med:.4f}s at matched error")
    # Per-sweep cost of the loop recover runs, with its stopping rule off: it
    # makes max_iter sweeps and writes U from the last two F grids.  A sweep
    # is N row and M column transforms each way plus O(N^2) elementwise work,
    # so its cost model is N (N + M) log2 N; M / N falls from 0.6 to 0.17 over
    # these sizes.  N = 64 is left out: its sweep is bound by call overhead.
    # Every size runs at one beta, 0.08: a sweep costs the rows its screen
    # passes, and the presets' betas pass 0.07, 0.96 and 0.56 of N rows a sweep
    # at N = 128, 256 and 512 (seed 0), so the fit measured that share; at
    # 0.08 it is 0.48, 0.96 and 1.03.
    # The sizes alternate over five rounds and each keeps its median: on a
    # shared host the speed can drift 2x within seconds.
    runs = {}
    for n in (128, 256, 512):
        m = default_m(n, DEFAULT_SPARSITY_K)
        ms = sampled_measurements(hsc_model, n, sample_indices(n, m, 0), seed=0)
        cfg = admm_defaults("hsc", n, m, max_iter=max(50, 12800 // n), beta=0.08,
                            eps_abs=0.0, eps_rel=0.0)
        runs[n] = (ms, cfg)
    rounds = {n: [] for n in runs}
    for _ in range(5):
        for n, (ms, cfg) in runs.items():
            report = recover(ms, cfg)
            assert report.iterations == cfg.max_iter
            rounds[n].append(report.wall_time / report.iterations)
    sweep_times = {n: statistics.median(times) for n, times in rounds.items()}
    print("criterion 6 sweep ms: "
          + ", ".join(f"N={n} {t * 1e3:.3f}" for n, t in sweep_times.items()))
    cost = [n * (n + runs[n][0].m) * math.log2(n) for n in sweep_times]
    exponent = float(np.polyfit(np.log2(cost), np.log2(list(sweep_times.values())), 1)[0])
    # 1 is the model; the band is the old [1.8, 2.6] on N around N^2 log N's
    # 2.2, +-18%.  Its top, 1.18, is N^2.3 over these sizes.
    assert 0.82 <= exponent <= 1.18, f"fitted exponent {exponent}"
    print(f"PASS criterion 6: fitted per-sweep exponent against N (N + M) log N "
          f"{exponent:.2f} in [0.82, 1.18]")


def test_criterion_7_pgf_normalization_and_gradient():
    """PGF normalization at (1,1), and the fidelity gradient as FISTA makes it
    (column_fft, then fft_rows over every row) against central differences."""
    worst_norm = 0.0
    for kind, rates in (("hsc", HSC_RATES), ("bds", BDS_RATES)):
        for t in (0.35, 1.0, 2.5):
            model = ModelSpec(kind=kind, rates=rates, t=t, init=(1, 1))
            dev = abs(pgf(model, 1.0, 1.0) - 1.0)
            assert dev < 1e-8
            worst_norm = max(worst_norm, dev)
    model = ModelSpec(kind="hsc", rates=HSC_RATES, t=1.0, init=(1, 0))
    full = full_measurements(model, 4)
    ms = _measurements(full, 4, 3, seed=0)
    rng = np.random.default_rng(23)
    s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g = fista_gradient(s, ms)
    eps, worst_grad = 1e-6, 0.0
    for _ in range(20):
        d = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        fd = (smooth_value(s + eps * d, ms) - smooth_value(s - eps * d, ms)) / (2 * eps)
        analytic = float(np.real(np.vdot(g, d)))
        rel = abs(fd - analytic) / max(1.0, abs(fd))
        assert rel < 1e-6
        worst_grad = max(worst_grad, rel)
    print(f"\nPASS criterion 7: worst |pgf(1,1)-1| {worst_norm:.3e} < 1e-8; "
          f"worst gradient deviation {worst_grad:.3e} < 1e-6")


def test_criterion_8_convergence_properties(hsc64_full, bds64_full):
    """Every converged run satisfies the stopping tolerances and ends with
    both residuals below 1e-2 of their starting values."""
    n, m = 64, 51
    runs = []
    for seed in range(3):
        ms = _measurements(hsc64_full, n, m, seed)
        runs.append(("hsc defaults", recover(ms, admm_defaults("hsc", n, m))))
        ms_b = _measurements(bds64_full, n, m, seed)
        runs.append(("bds defaults", recover(ms_b, admm_defaults("bds", n, m))))
    ms = _measurements(hsc64_full, n, m, seed=0)
    for beta in (1e-3, 0.1, 1.0):
        cfg = AdmmConfig(beta=beta, lam=admm_lambda(m), **TIGHT)
        runs.append((f"sweep beta={beta}", recover(ms, cfg)))
    checked = 0
    for label, report in runs:
        assert report.converged, f"{label} did not converge"
        first, last = report.history[0], report.history[-1]
        assert last.r_norm <= last.eps_pri, label
        assert last.s_norm <= last.eps_dual, label
        assert last.r_norm <= 1e-2 * first.r_norm, label
        assert last.s_norm <= 1e-2 * first.s_norm, label
        checked += 1
    print(f"\nPASS criterion 8: {checked} converged runs satisfy tolerances "
          f"and 100x residual reduction")
