"""FISTA baseline: gradient correctness, exhaustive limit, solver agreement."""

import numpy as np
import pytest

from branchcs import pgd
from branchcs.admm import AdmmConfig, recover, recover_to_error
from branchcs.errors import ShapeMismatch
from branchcs.grid import (
    MeasurementSet,
    default_m,
    full_measurements,
    invert_full,
    rel_l2_error,
    sample_indices,
)
from branchcs.models import ModelSpec, RatesHSC
from branchcs.pgd import PgdConfig, fidelity_gradient, forward, pgd_recover, smooth_value
from branchcs.presets import DEFAULT_SPARSITY_K, admm_defaults, pgd_lambda

TOY_RATES = RatesHSC(rho=0.125, nu=0.104, mu=0.147)


def toy_measurements(n: int, m: int, seed: int):
    model = ModelSpec(kind="hsc", rates=TOY_RATES, t=1.0, init=(1, 0))
    full = full_measurements(model, n)
    idx = sample_indices(n, m, seed)
    ms = MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=seed)
    return ms, invert_full(full)


class TestGradient:
    def test_matches_central_differences(self):
        # 20 random complex directions on an N = 4 toy, 1e-6 relative
        ms, _ = toy_measurements(4, 3, 0)
        rng = np.random.default_rng(11)
        s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g = fidelity_gradient(s, ms)
        eps = 1e-6
        for _ in range(20):
            d = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            fd = (smooth_value(s + eps * d, ms) - smooth_value(s - eps * d, ms)) / (2 * eps)
            analytic = np.real(np.vdot(g, d))
            assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(fd))

    def test_zero_residual_zero_gradient(self):
        ms, truth = toy_measurements(8, 8, 0)
        # the exact solution synthesizes the measurements exactly
        full_idx = np.arange(8)
        model = ModelSpec(kind="hsc", rates=TOY_RATES, t=1.0, init=(1, 0))
        full = full_measurements(model, 8)
        ms_all = MeasurementSet(n=8, indices=full_idx, b=full)
        u_true = 8**2 * invert_full(full).astype(complex)
        g = fidelity_gradient(u_true, ms_all)
        assert np.max(np.abs(g)) < 1e-8

    def test_forward_shape_check(self):
        ms, _ = toy_measurements(4, 3, 0)
        with pytest.raises(ShapeMismatch):
            forward(np.zeros((8, 8), complex), ms)


class TestPgdRecovery:
    def test_exhaustive_lambda_zero_is_exact(self):
        n = 16
        model = ModelSpec(kind="hsc", rates=TOY_RATES, t=1.0, init=(1, 0))
        full = full_measurements(model, n)
        truth = invert_full(full)
        ms = MeasurementSet(n=n, indices=np.arange(n), b=full)
        report = pgd_recover(ms, PgdConfig(lam=0.0, max_iter=5000, tol=1e-12))
        assert np.max(np.abs(report.s_hat - truth)) < 1e-6

    def test_same_optimum_as_admm(self):
        # both solvers minimize the identical objective; at a shared lambda
        # their solutions must agree far beyond the recovery error level
        ms, _ = toy_measurements(8, 6, 0)
        lam = 0.5
        a = recover(ms, AdmmConfig(beta=0.1, lam=lam, eps_abs=1e-10, eps_rel=1e-10,
                                   d1_exp=1, d2_exp=1, max_iter=20000))
        p = pgd_recover(ms, PgdConfig(lam=lam, max_iter=20000, tol=1e-12))
        assert np.max(np.abs(a.s_hat - p.s_hat)) < 1e-4

    def test_benchmark_scale_recovery(self):
        ms, truth = toy_measurements(64, 51, 0)
        report = pgd_recover(ms, PgdConfig(lam=np.sqrt(np.log(51))))
        assert report.converged
        assert rel_l2_error(report.s_hat, truth) < 0.01

    def test_rel_change_reaches_tolerance(self):
        ms, _ = toy_measurements(16, 12, 0)
        report = pgd_recover(ms, PgdConfig(lam=1.0, tol=1e-6))
        assert report.converged
        assert report.history[-1].rel_change < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PgdConfig(lam=1.0, l0=0.0)
        with pytest.raises(ValueError):
            PgdConfig(lam=1.0, c=1.0)
        with pytest.raises(ValueError):
            PgdConfig(lam=1.0, max_iter=0)


def test_thread_count_leaves_fista_unchanged(small_blocks):
    ms, _ = toy_measurements(32, 20, 3)
    cfg = PgdConfig(lam=1.0, max_iter=40)
    runs = [pgd_recover(ms, cfg, threads) for threads in (1, 2, 3)]
    for other in runs[1:]:
        assert np.array_equal(other.s_hat, runs[0].s_hat)
        assert other.history == runs[0].history


def test_row_ffts_counts_n_rows_per_transform(monkeypatch):
    ms, _ = toy_measurements(32, 20, 3)
    calls = []
    for name in ("_fft2", "_ifft2"):
        real = getattr(pgd, name)
        monkeypatch.setattr(pgd, name, lambda *args, real=real: calls.append(1) or real(*args))
    report = pgd_recover(ms, PgdConfig(lam=1.0, max_iter=40))
    assert report.row_ffts == 32 * len(calls) >= 32 * 3 * report.iterations


def test_matched_accuracy_counts_at_bds_256(bds_model):
    # the matched-accuracy protocol of `branchcs bench` (FISTA to its plateau,
    # then ADMM to its error) at BDS N=256, sampling seeds 0-4: both solvers'
    # iteration counts, which changes to their reductions must leave alone
    n = 256
    m = default_m(n, DEFAULT_SPARSITY_K)
    full = full_measurements(bds_model, n)
    s_true = invert_full(full)
    counts = []
    for seed in range(5):
        idx = sample_indices(n, m, seed)
        ms = MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=seed)
        p = pgd_recover(ms, PgdConfig(lam=pgd_lambda("bds", m), max_iter=500))
        assert p.converged
        p_err = rel_l2_error(p.s_hat, s_true)
        a = recover_to_error(ms, admm_defaults("bds", n, m, max_iter=25000), s_true, p_err)
        assert rel_l2_error(a.s_hat, s_true) <= p_err
        counts.append((p.iterations, a.iterations))
    assert counts == [(373, 86), (369, 86), (356, 87), (366, 59), (376, 87)]
