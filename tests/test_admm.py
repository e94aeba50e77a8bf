"""ADMM solver: worked example, prox, dense-oracle equivalence, convergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchcs.admm as admm
from branchcs.admm import (
    AdmmConfig,
    AdmmState,
    ResidualRecord,
    build_mhat,
    iterate,
    objective,
    recover,
    recover_to_error,
    residual_check,
    soft_threshold,
    u_update,
)
from branchcs.errors import ShapeMismatch
from branchcs.grid import (
    MeasurementSet,
    embed_measurements,
    full_measurements,
    invert_full,
    rel_l2_error,
    sample_indices,
)
from branchcs.models import ModelSpec, RatesHSC
from helpers import dense_sweep

TOY_RATES = RatesHSC(rho=0.125, nu=0.104, mu=0.147)


def toy_measurements(n: int, m: int, seed: int) -> tuple[MeasurementSet, np.ndarray]:
    model = ModelSpec(kind="hsc", rates=TOY_RATES, t=1.0, init=(1, 0))
    full = full_measurements(model, n)
    idx = sample_indices(n, m, seed)
    ms = MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=seed)
    return ms, invert_full(full)


class TestBuildMhat:
    def test_worked_example_exact(self):
        got = build_mhat(4, [0, 1], beta=0.1)
        expected = np.array([1.1, 1.1, 0.1, 0.1, 1.1, 1.1] + [0.1] * 10)
        assert np.array_equal(got, expected)

    def test_all_indices_gives_beta_plus_one(self):
        got = build_mhat(4, [0, 1, 2, 3], beta=0.5)
        assert np.array_equal(got, np.full(16, 1.5))


class TestSoftThreshold:
    def test_real_values(self):
        got = soft_threshold(np.array([3.0, -2.0, 0.5]), 1.0)
        assert np.allclose(got, [2.0, -1.0, 0.0])

    def test_complex_magnitude_shrink(self):
        # |3 + 4i| = 5, shrink by 1 -> 4/5 scaling preserves phase
        got = soft_threshold(np.array([3.0 + 4.0j]), 1.0)
        assert np.allclose(got, [2.4 + 3.2j])

    def test_zero_safe(self):
        assert soft_threshold(np.array([0.0 + 0.0j]), 1.0)[0] == 0.0
        # tau = 0 at |v| = 0 is 0/0 inside the fused prox; it must still give 0
        assert soft_threshold(np.array([0.0 + 0.0j]), 0.0)[0] == 0.0

    def test_zero_tau_is_identity(self):
        v = np.array([1.0 + 2.0j, -0.5])
        assert np.allclose(soft_threshold(v, 0.0), v)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(
            st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
            st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
        ),
        st.floats(0.0, 1e6),
    )
    def test_nonexpansive(self, reims, tau):
        a = complex(reims[0], reims[1])
        b = complex(reims[2], reims[3])
        fa = soft_threshold(np.array([a]), tau)[0]
        fb = soft_threshold(np.array([b]), tau)[0]
        assert abs(fa - fb) <= abs(a - b) + 1e-9


class TestDenseOracle:
    @pytest.mark.parametrize("n,m", [(4, 3), (8, 6)])
    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_free_matches_kronecker_solve(self, n, m, seed):
        ms, _ = toy_measurements(n, m, seed)
        cfg = AdmmConfig(beta=0.1, lam=0.5, max_iter=10)
        emb = embed_measurements(ms)
        mhat = build_mhat(n, ms.indices, cfg.beta)
        zeros = np.zeros((n, n), dtype=complex)
        fast = AdmmState(u=zeros.copy(), z=zeros.copy(), y=zeros.copy())
        slow = AdmmState(u=zeros.copy(), z=zeros.copy(), y=zeros.copy())
        for _ in range(4):
            fast, _ = iterate(fast, emb, mhat, cfg)
            slow = dense_sweep(ms, cfg.beta, cfg.lam, slow)
            assert np.max(np.abs(fast.u - slow.u)) < 1e-10
            assert np.max(np.abs(fast.z - slow.z)) < 1e-10
            assert np.max(np.abs(fast.y - slow.y)) < 1e-10


class TestUpdateMechanics:
    def test_u_update_shape_mismatch(self):
        ms, _ = toy_measurements(4, 3, 0)
        state = AdmmState(
            u=np.zeros((8, 8), complex),
            z=np.zeros((8, 8), complex),
            y=np.zeros((8, 8), complex),
        )
        with pytest.raises(ShapeMismatch):
            u_update(state, embed_measurements(ms), build_mhat(4, ms.indices, 0.1), 0.1)

    def test_u_update_matches_full_grid_formula(self):
        # the restricted-transform solve against FFT2[(A_hat + IFFT2(beta Z - Y)) / M_hat]
        n, beta = 32, 0.07
        ms, _ = toy_measurements(n, 10, 3)
        rng = np.random.default_rng(5)
        z, y = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
        emb = embed_measurements(ms)
        mhat = build_mhat(n, ms.indices, beta)
        want = np.fft.fft2((emb + np.fft.ifft2(beta * z - y)) / mhat.reshape(n, n))
        got = u_update(AdmmState(u=z.copy(), z=z, y=y), emb, mhat, beta)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_one_fft_pair_per_sweep(self, monkeypatch):
        calls = {"fft2": 0, "ifft2": 0}
        real_fft2, real_ifft2 = admm._fft2, admm._ifft2

        def counting_fft2(*args):
            calls["fft2"] += 1
            return real_fft2(*args)

        def counting_ifft2(*args):
            calls["ifft2"] += 1
            return real_ifft2(*args)

        monkeypatch.setattr(admm, "_fft2", counting_fft2)
        monkeypatch.setattr(admm, "_ifft2", counting_ifft2)
        ms, _ = toy_measurements(8, 6, 0)
        report = recover(ms, AdmmConfig(beta=0.1, lam=0.5, max_iter=17))
        assert calls["fft2"] == report.iterations
        assert calls["ifft2"] == report.iterations

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmmConfig(beta=0.0, lam=1.0)
        with pytest.raises(ValueError):
            AdmmConfig(beta=0.1, lam=-1.0)
        with pytest.raises(ValueError):
            AdmmConfig(beta=0.1, lam=1.0, max_iter=0)

    def test_residual_check_inclusive(self):
        rec = ResidualRecord(k=1, r_norm=1.0, s_norm=2.0, eps_pri=1.0, eps_dual=2.0)
        assert residual_check(rec)
        rec2 = ResidualRecord(k=1, r_norm=1.0001, s_norm=2.0, eps_pri=1.0, eps_dual=2.0)
        assert not residual_check(rec2)


class TestRecovery:
    def test_exhaustive_sampling_lambda_zero_is_exact(self):
        # with J = all indices and no penalty the optimum is the exact inverse
        n = 16
        model = ModelSpec(kind="hsc", rates=TOY_RATES, t=1.0, init=(1, 0))
        full = full_measurements(model, n)
        truth = invert_full(full)
        ms = MeasurementSet(n=n, indices=np.arange(n), b=full)
        cfg = AdmmConfig(beta=0.1, lam=0.0, eps_abs=1e-12, eps_rel=1e-12,
                         d1_exp=1, d2_exp=1, max_iter=2000)
        report = recover(ms, cfg)
        assert np.max(np.abs(report.s_hat - truth)) < 1e-8

    def test_recover_reaches_low_error(self):
        ms, truth = toy_measurements(64, 51, 0)
        report = recover(ms, AdmmConfig(beta=0.08, lam=0.5 * np.log(51)))
        assert report.converged
        assert rel_l2_error(report.s_hat, truth) < 0.01

    def test_objective_decreases_from_start(self):
        ms, _ = toy_measurements(16, 12, 0)
        cfg = AdmmConfig(beta=0.1, lam=1.0, max_iter=200)
        report = recover(ms, cfg)
        start = objective(ms, np.zeros((16, 16), complex),
                          np.zeros((16, 16), complex), cfg.lam)
        u_final = ms.n**2 * report.s_hat.astype(complex)
        final = objective(ms, u_final, u_final, cfg.lam)
        assert final < start

    def test_history_and_report_fields(self):
        ms, _ = toy_measurements(16, 12, 0)
        report = recover(ms, AdmmConfig(beta=0.1, lam=1.0, max_iter=50))
        assert report.iterations == len(report.history)
        assert report.wall_time >= 0
        # the discarded imaginary part is a small diagnostic, not signal
        assert report.max_imag < 1e-2
        d = report.to_json_dict()
        assert d["iterations"] == report.iterations
        assert len(d["history"]) == report.iterations

    def test_recover_to_error_hits_target(self):
        ms, truth = toy_measurements(64, 51, 0)
        cfg = AdmmConfig(beta=0.08, lam=0.5 * np.log(51), max_iter=5000)
        target = 0.05
        report = recover_to_error(ms, cfg, truth, target=target)
        assert rel_l2_error(report.s_hat, truth) <= target

    def test_converged_runs_satisfy_reported_tolerances(self):
        ms, _ = toy_measurements(64, 51, 2)
        report = recover(ms, AdmmConfig(beta=0.08, lam=0.5 * np.log(51)))
        assert report.converged
        last = report.history[-1]
        assert last.r_norm <= last.eps_pri
        assert last.s_norm <= last.eps_dual
