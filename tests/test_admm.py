"""ADMM solver: worked example, prox, dense-oracle equivalence, convergence."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import branchcs.admm as admm
from branchcs import grid, pgd
from branchcs.admm import (
    AdmmConfig,
    AdmmState,
    ResidualRecord,
    build_mhat,
    iterate,
    recover,
    recover_to_error,
    residual_check,
    soft_threshold,
    u_update,
)
from branchcs.errors import NonFinite, ShapeMismatch
from branchcs.grid import (
    MeasurementSet,
    default_m,
    embed_measurements,
    full_measurements,
    invert_full,
    rel_l2_error,
    sample_indices,
    sampled_measurements,
)
from branchcs.models import ModelSpec, RatesHSC
from branchcs.presets import DEFAULT_SPARSITY_K, admm_defaults, pgd_lambda
from helpers import dense_sweep, dense_u, objective, recover_states, traced_peak

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
        # recover's own sweeps, and the dense step iterate, against the Kronecker solve
        ms, _ = toy_measurements(n, m, seed)
        cfg = AdmmConfig(beta=0.1, lam=0.5, max_iter=4)
        emb = embed_measurements(ms)
        mhat = build_mhat(n, ms.indices, cfg.beta)
        zeros = np.zeros((n, n), dtype=complex)
        step = AdmmState(u=zeros.copy(), z=zeros.copy(), y=zeros.copy())
        slow = AdmmState(u=zeros.copy(), z=zeros.copy(), y=zeros.copy())
        states, _ = recover_states(ms, cfg)
        assert len(states) == 4
        for fast in states:
            step, _ = iterate(step, emb, mhat, cfg)
            slow = dense_sweep(ms, cfg.beta, cfg.lam, slow)
            for got in (fast, step):
                assert got.k == slow.k
                assert np.max(np.abs(got.u - slow.u)) < 1e-10
                assert np.max(np.abs(got.z - slow.z)) < 1e-10
                assert np.max(np.abs(got.y - slow.y)) < 1e-10


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
        # the dense solve against FFT2[(A_hat + IFFT2(beta Z - Y)) / M_hat]
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
        monkeypatch.setattr(grid, "BLOCK_ELEMENTS", 8 * 3)  # three row blocks
        ms, _ = toy_measurements(8, 6, 0)
        report = recover(ms, AdmmConfig(beta=0.1, lam=0.5, max_iter=17))
        # s_hat's one column transform, of C_k - C_{k-1}, is not a sweep's
        assert calls["fft2"] == report.iterations
        assert calls["ifft2"] == report.iterations

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmmConfig(beta=0.0, lam=1.0)
        with pytest.raises(ValueError):
            AdmmConfig(beta=0.1, lam=-1.0)
        with pytest.raises(ValueError):
            AdmmConfig(beta=0.1, lam=1.0, max_iter=0)
        nan, inf = float("nan"), float("inf")
        for bad in (dict(lam=nan), dict(beta=inf), dict(beta=nan), dict(eps_abs=-1.0),
                    dict(eps_abs=nan), dict(eps_rel=-1.0), dict(eps_rel=nan)):
            with pytest.raises(ValueError):
                AdmmConfig(**{"beta": 0.1, "lam": 1.0, **bad})
        AdmmConfig(beta=0.1, lam=inf)  # Z stays 0

    def test_residual_check_inclusive(self):
        rec = ResidualRecord(k=1, r_norm=1.0, s_norm=2.0, eps_pri=1.0, eps_dual=2.0)
        assert residual_check(rec)
        rec2 = ResidualRecord(k=1, r_norm=1.0001, s_norm=2.0, eps_pri=1.0, eps_dual=2.0)
        assert not residual_check(rec2)
        inf, nan = float("inf"), float("nan")
        for eps_pri, eps_dual in ((inf, 2.0), (1.0, inf), (nan, 2.0), (1.0, nan)):
            assert not residual_check(ResidualRecord(k=1, r_norm=1.0, s_norm=2.0,
                                                     eps_pri=eps_pri, eps_dual=eps_dual))


class TestRecovery:
    def test_exhaustive_sampling_lambda_zero_is_exact(self):
        # with J = all indices and no penalty the optimum is the exact inverse
        n = 16
        model = ModelSpec(kind="hsc", rates=TOY_RATES, t=1.0, init=(1, 0))
        full = full_measurements(model, n)
        truth = invert_full(full)
        ms = MeasurementSet(n=n, indices=np.arange(n), b=full)
        # eps_abs / N: an absolute floor of N eps, as N^2 multiplies eps_abs
        cfg = AdmmConfig(beta=0.1, lam=0.0, eps_abs=1e-12 / n, eps_rel=1e-12, max_iter=2000)
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
        # it stops at the first sweep whose error reaches the target
        before = recover(ms, dataclasses.replace(cfg, max_iter=report.iterations - 1))
        assert before.iterations == report.iterations - 1
        assert rel_l2_error(before.s_hat, truth) > target

    def test_converged_runs_satisfy_reported_tolerances(self):
        ms, _ = toy_measurements(64, 51, 2)
        report = recover(ms, AdmmConfig(beta=0.08, lam=0.5 * np.log(51)))
        assert report.converged
        last = report.history[-1]
        assert last.r_norm <= last.eps_pri
        assert last.s_norm <= last.eps_dual


@pytest.mark.parametrize("kind, n, sweeps, err", [
    ("hsc", 64, 19, 0.00284), ("hsc", 128, 24, 0.00270), ("hsc", 256, 278, 0.00719),
    ("bds", 64, 31, 0.00208), ("bds", 128, 23, 0.00297), ("bds", 256, 71, 0.00385),
    ("bds", 512, 347, 0.00255)])
def test_each_preset_row_stops_where_pinned(hsc_model, bds_model, kind, n, sweeps, err):
    # seed 0, with the error against the exact S; test_cs_hsc_512_is_pinned pins HSC 512
    full = full_measurements(hsc_model if kind == "hsc" else bds_model, n)
    m = default_m(n, DEFAULT_SPARSITY_K)
    idx = sample_indices(n, m, 0)
    ms = MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=0)
    report = recover(ms, admm_defaults(kind, n, m))
    assert (report.converged, report.iterations) == (True, sweeps)
    assert float(f"{rel_l2_error(report.s_hat, invert_full(full)):.3g}") == err


class TestThreads:
    """Row blocks fix the arithmetic: the rows a sweep makes together, and the
    order of its sums, cannot change an iterate."""

    def test_blocking_leaves_the_iterates_unchanged(self, monkeypatch):
        # only the order of the sums of squares depends on the blocks
        ms, _ = toy_measurements(32, 20, 5)
        cfg = AdmmConfig(beta=0.1, lam=1.0, max_iter=30, eps_abs=0.0, eps_rel=0.0)
        whole = recover(ms, cfg)
        monkeypatch.setattr(grid, "BLOCK_ELEMENTS", 96)
        blocked = recover(ms, cfg)
        assert np.array_equal(blocked.s_hat, whole.s_hat)
        for a, b in zip(blocked.history, whole.history):
            assert a.r_norm == pytest.approx(b.r_norm, rel=1e-12)
            assert a.s_norm == pytest.approx(b.s_norm, rel=1e-12)

    def test_iterate_leaves_its_input_state_alone(self, small_blocks):
        ms, _ = toy_measurements(32, 20, 5)
        cfg = AdmmConfig(beta=0.1, lam=1.0)
        emb, mhat = embed_measurements(ms), build_mhat(32, ms.indices, cfg.beta)
        zeros = np.zeros((32, 32), dtype=complex)
        state, _ = iterate(AdmmState(u=zeros.copy(), z=zeros.copy(), y=zeros.copy()),
                           emb, mhat, cfg)
        before = [a.copy() for a in (state.u, state.z, state.y)]
        iterate(state, emb, mhat, cfg)
        assert all(np.array_equal(a, b) for a, b in zip((state.u, state.z, state.y), before))


def iterate_loop(ms, cfg, s_true=None, target=None):
    """What recover and recover_to_error do, by the dense step iterate on N x N
    grids, with the error taken from the dense U: (s_hat, history, converged)."""
    n = ms.n
    emb, mhat = embed_measurements(ms), build_mhat(n, ms.indices, cfg.beta)
    zeros = np.zeros((n, n), dtype=complex)
    state = AdmmState(u=zeros.copy(), z=zeros.copy(), y=zeros.copy())
    history, converged = [], False
    for _ in range(cfg.max_iter):
        state, rec = iterate(state, emb, mhat, cfg)
        history.append(rec)
        converged = converged or (residual_check(rec)
                                  and rec.r_norm <= admm._MIN_DROP * history[0].r_norm
                                  and rec.s_norm <= admm._MIN_DROP * history[0].s_norm)
        done = (rel_l2_error(np.real(state.u) / n**2, s_true) <= target
                if s_true is not None else converged)
        if done:
            break
    return np.real(state.u) / n**2, history, converged


def assert_same_run(report, loop, cfg):
    # the dense step rounds apart from the sweep: s_hat to 1e-12 of its largest entry
    s_hat, history, converged = loop
    assert np.max(np.abs(report.s_hat - s_hat)) <= 1e-12 * np.max(np.abs(s_hat))
    assert (report.iterations, report.converged) == (len(history), converged)
    for a, b in zip(report.history, history):
        for name in ("r_norm", "s_norm", "eps_pri"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12, abs=0.0)
        # the sweep's ||Y_k||^2 is ||F_k||^2 less sums over the support, where Y_k / beta
        # = F_k - (Z_k - Z_{k-1}); so near Y_k = 0 (exactly 0 in the dense step at lam = 0)
        # ||Y_k|| keeps about sqrt(machine eps) of beta ||F_k||, which is about s_norm
        assert a.eps_dual == pytest.approx(b.eps_dual, rel=1e-12,
                                           abs=1e-7 * cfg.eps_rel * b.s_norm)


class TestSparseSweep:
    """recover keeps Z as its support and no grid; it must still make the
    iterates that the dense step makes, at any density of Z."""

    def test_lambda_zero_keeps_all_of_z(self, small_blocks):
        ms, _ = toy_measurements(32, 20, 5)
        cfg = AdmmConfig(beta=0.1, lam=0.0, max_iter=40)
        loop = iterate_loop(ms, cfg)
        assert_same_run(recover(ms, cfg), loop, cfg)

    def test_empty_support(self, small_blocks):
        ms, _ = toy_measurements(32, 20, 5)
        cfg = AdmmConfig(beta=0.1, lam=1e6, max_iter=25)
        s_hat, history, converged = loop = iterate_loop(ms, cfg)
        assert all(rec.s_norm == 0.0 for rec in history)  # Z never leaves zero
        assert_same_run(recover(ms, cfg), loop, cfg)

    def test_dense_first_sweep_at_hsc_256(self, hsc_model, small_blocks):
        n = 256
        m = default_m(n, DEFAULT_SPARSITY_K)
        full = full_measurements(hsc_model, n)
        idx = sample_indices(n, m, 0)
        ms = MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=0)
        cfg = admm_defaults("hsc", n, m, beta=0.08, max_iter=3)
        zeros = np.zeros((n, n), dtype=complex)
        first, _ = iterate(AdmmState(u=zeros, z=zeros, y=zeros), embed_measurements(ms),
                           build_mhat(n, idx, cfg.beta), cfg)
        assert np.count_nonzero(first.z) > n * n // 2
        assert_same_run(recover(ms, cfg), iterate_loop(ms, cfg), cfg)

    def test_recover_to_error_stops_where_the_dense_error_does(self, small_blocks):
        ms, truth = toy_measurements(32, 20, 5)
        cfg = AdmmConfig(beta=0.1, lam=1.0, max_iter=400)
        report = recover_to_error(ms, cfg, truth, target=0.05)
        assert 1 < report.iterations < cfg.max_iter
        assert_same_run(report, iterate_loop(ms, cfg, truth, 0.05), cfg)

    def test_residuals_match_the_dense_formulas(self, small_blocks):
        # the sums over Z's support and over the union of two supports
        ms, _ = toy_measurements(32, 20, 5)
        cfg = AdmmConfig(beta=0.1, lam=1.0)
        emb, mhat = embed_measurements(ms), build_mhat(32, ms.indices, cfg.beta)
        zeros = np.zeros((32, 32), dtype=complex)
        state = AdmmState(u=zeros, z=zeros, y=zeros)
        norm = np.linalg.norm
        for _ in range(6):
            new, rec = iterate(state, emb, mhat, cfg)
            want = ResidualRecord(
                k=state.k + 1, r_norm=norm(new.u - new.z), s_norm=cfg.beta * norm(new.z - state.z),
                eps_pri=32**2 * cfg.eps_abs + cfg.eps_rel * max(norm(new.u), norm(new.z)),
                eps_dual=32**2 * cfg.eps_abs + cfg.eps_rel * norm(new.y))
            assert rec.k == want.k
            for name in ("r_norm", "s_norm", "eps_pri", "eps_dual"):
                assert getattr(rec, name) == pytest.approx(getattr(want, name), rel=1e-12)
            state = new

    def test_non_finite_iterate_raises(self):
        ms, _ = toy_measurements(16, 12, 0)
        bad = MeasurementSet(n=16, indices=ms.indices, b=ms.b.copy())
        bad.b[3, 4] = np.nan
        with pytest.raises(NonFinite):
            recover(bad, AdmmConfig(beta=0.1, lam=1.0, max_iter=5))

    def test_overflowing_sums_of_finite_entries_do_not_raise(self):
        # measurements of 1e160 overflow the sums of squares; the exact test then
        # finds every entry finite
        ms, _ = toy_measurements(16, 12, 0)
        big = MeasurementSet(n=16, indices=ms.indices, b=ms.b * 1e160)
        report = recover(big, AdmmConfig(beta=0.1, lam=1.0, max_iter=3))
        assert np.all(np.isfinite(report.s_hat))
        assert all(np.isinf(rec.eps_pri) and np.isinf(rec.eps_dual) for rec in report.history)
        # tolerances that are not finite are never met: inf <= inf says nothing
        assert not report.converged and report.stop_reason == "max_iter"

    def test_u_update_is_the_sweeps_u(self):
        ms, _ = toy_measurements(32, 20, 5)
        cfg = AdmmConfig(beta=0.1, lam=1.0)
        emb, mhat = embed_measurements(ms), build_mhat(32, ms.indices, cfg.beta)
        zeros = np.zeros((32, 32), dtype=complex)
        state = AdmmState(u=zeros, z=zeros, y=zeros)
        for _ in range(3):
            state, _ = iterate(state, emb, mhat, cfg)
        nxt, _ = iterate(state, emb, mhat, cfg)
        assert np.array_equal(u_update(state, emb, mhat, cfg.beta), nxt.u)


def every_row_made(bound, tau):
    """grid._screen for a sweep that makes every row of F_k."""
    return np.ones(len(bound), dtype=bool)


class TestScreen:
    """A sweep makes only the rows of F_k whose bound can cross lambda / beta or
    that hold many of Z's support entries; it must give what making every row
    gives."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3),
           st.floats(-1.0, 1.0), st.floats(-np.pi, np.pi))
    def test_a_skipped_row_holds_no_entry_above_tau(self, log_n, seed, tau, nudge, phase):
        n = 4 << log_n
        rng = np.random.default_rng(seed)
        sub = grid.Subgrid(n, np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False)))
        cols = rng.normal(size=(n, len(sub.j))) + 1j * rng.normal(size=(n, len(sub.j)))
        # a third of the rows in phase, so one entry of their FFT is their L1 norm
        cols[1::3] = np.abs(cols[1::3]) * np.exp(1j * phase)
        # L1 norms within 1e-12 of tau, and of the screen's cut tau (1 - 1e-9)
        l1 = np.abs(cols).sum(axis=1)
        for rows, edge in ((slice(0, None, 2), tau), (slice(1, None, 2), tau * (1 - 1e-9))):
            cols[rows] *= (edge * (1.0 + 1e-12 * nudge) / l1[rows])[:, None]
        made = grid._screen(grid._row_l1(cols), tau)
        assert made[np.abs(cols).sum(axis=1) > tau].all()
        skipped = np.flatnonzero(~made)
        for rows in np.array_split(skipped, max(1, -(-len(skipped) // len(sub.flat)))):
            if len(rows):
                out = np.empty((len(rows), n), dtype=complex)
                assert np.abs(grid.fft_rows(cols[rows], sub, out)).max() <= tau

    @pytest.fixture(scope="class")
    def cases(self, hsc_model, bds_model):
        """(name, measurements, config, truth) at HSC N=64 and 128, BDS N=128 and
        lambda = 0, each with its preset and sampling seed 0."""
        out = []
        for name, model, n, lam in (("hsc-64", hsc_model, 64, None),
                                    ("hsc-128", hsc_model, 128, None),
                                    ("bds-128", bds_model, 128, None),
                                    ("hsc-64-lambda-0", hsc_model, 64, 0.0)):
            full = full_measurements(model, n)
            m = default_m(n, DEFAULT_SPARSITY_K)
            idx = sample_indices(n, m, 0)
            ms = MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=0)
            cfg = admm_defaults(model.kind, n, m, max_iter=30)
            if lam is not None:
                cfg = dataclasses.replace(cfg, lam=lam)
            out.append((name, ms, cfg, invert_full(full)))
        return out

    @staticmethod
    def runs(ms, cfg, truth):
        """recover and recover_to_error, as comparable tuples."""
        target = 0.5 * rel_l2_error(recover(ms, dataclasses.replace(cfg, max_iter=5)).s_hat, truth)
        return [(report.s_hat, report.iterations, report.converged, report.history)
                for report in (recover(ms, cfg), recover_to_error(ms, cfg, truth, target=target))]

    def test_screened_sweeps_equal_sweeps_of_every_row(self, cases, small_blocks, monkeypatch):
        # the screen picks the rows a sweep makes; with a direct-sum cost of 1 these
        # sizes carry the bound and take direct sums at rows that hold few entries
        for cost, (name, ms, cfg, truth) in itertools.product((grid._DIRECT_COST, 1), cases):
            monkeypatch.setattr(grid, "_DIRECT_COST", cost)
            screened = self.runs(ms, cfg, truth)
            with monkeypatch.context() as every_row:
                every_row.setattr(grid, "_screen", every_row_made)
                unscreened = self.runs(ms, cfg, truth)
            for a, b in zip(screened, unscreened):
                assert np.array_equal(a[0], b[0]), (name, cost)
                assert a[1:] == b[1:], (name, cost)

    @pytest.mark.parametrize("s_true", [False, True])
    def test_row_ffts_counts_every_row_made(self, small_blocks, monkeypatch, s_true):
        # the rows of F_k a sweep makes, those of F_{k-1} made for entries found,
        # and N for each U written
        ms, truth = toy_measurements(32, 20, 5)
        cfg = AdmmConfig(beta=0.1, lam=1.0, max_iter=60)
        rows = []
        real = grid.fft_rows

        def counting(cols, sub, out):
            rows.append(len(out))
            return real(cols, sub, out)

        for module in (admm, grid):  # the screened passes, and each U written
            monkeypatch.setattr(module, "fft_rows", counting)
        report = (recover_to_error(ms, cfg, truth, target=0.05) if s_true
                  else recover(ms, cfg))
        assert report.row_ffts == sum(rows) < (report.iterations + 2) * 32

    def test_screen_engages_at_hsc_128(self, hsc_model):
        n = 128
        m = default_m(n, DEFAULT_SPARSITY_K)
        ms = sampled_measurements(hsc_model, n, sample_indices(n, m, 0), seed=0)
        report = recover(ms, admm_defaults("hsc", n, m))
        assert report.converged
        assert report.row_ffts < 0.3 * report.iterations * n


class TestCarriedBound:
    """From sweep to sweep a run carries, per row u of F_k, a bound on
    max |F_k[u, v]| off Z's support; a row is made only when its bound can
    cross lambda / beta, so the bound must hold at every sweep."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 4, 8, 16, 32, 64]), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1.0), st.floats(0.01, 1.0))
    def test_the_bound_holds_at_every_sweep(self, n, seed, lam_frac, beta):
        rng = np.random.default_rng(seed)
        j = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
        truth = rng.uniform(size=(n, n)) * (rng.random((n, n)) < 0.2)
        b = n**2 * grid.sampled_ifft2(truth + 0.05 * rng.normal(size=(n, n)), grid.Subgrid(n, j))
        cfg = AdmmConfig(beta=beta, lam=lam_frac * beta * n, max_iter=25,
                         eps_abs=0.0, eps_rel=0.0)
        checked, sweep = [], admm._sweep

        def checking(s, sub, *args):
            new, rec = sweep(s, sub, *args)
            c = np.zeros((n, n), dtype=complex)
            c[np.ix_(sub.j, sub.j)] = new.c
            f = np.abs(np.fft.fft2(c))
            slack = 1e-12 * f.max()  # the transforms' rounding
            f.reshape(-1)[new.t.idx] = 0  # off the support the next sweep reads
            assert (f.max(axis=1) <= new.bound + slack).all(), new.k
            checked.append(new.k)
            return new, rec

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "_DIRECT_COST", 1)  # so the bound is carried at these sizes
            mp.setattr(admm, "_sweep", checking)
            recover(MeasurementSet(n=n, indices=j, b=b), cfg)
        assert checked and checked == list(range(1, len(checked) + 1))  # it may converge


@pytest.mark.parametrize("solver", ["admm-hsc-512", "fista-bds-256"])
def test_no_complex_grid_is_made_after_the_last_sweep(hsc_model, bds_model, monkeypatch, solver):
    # after its last sweep a run writes s_hat, a float grid of half a complex one's
    # bytes, by row blocks (ADMM) or from its support (FISTA); then it allocates
    # under a quarter grid more, with no room for a complex N x N array
    admm_run = solver.startswith("admm")
    model, n = (hsc_model, 512) if admm_run else (bds_model, 256)
    m = default_m(n, DEFAULT_SPARSITY_K)
    ms = sampled_measurements(model, n, sample_indices(n, m, 0), seed=0)
    # the sweep, or FISTA's last transform of an iteration, marks where its end is
    module, hook = (admm, "_sweep") if admm_run else (pgd, "_ifft2")
    inner, held = getattr(module, hook), []

    def marking(*args):
        out = inner(*args)
        tracemalloc.reset_peak()
        held[:] = [tracemalloc.get_traced_memory()[0]]
        return out

    monkeypatch.setattr(module, hook, marking)
    tracemalloc.start()
    try:
        report = (recover(ms, admm_defaults("hsc", n, m)) if admm_run
                  else pgd.pgd_recover(ms, pgd.PgdConfig(lam=pgd_lambda("bds", m), max_iter=500)))
        after = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert after < 0.75 * 16 * n * n


def test_a_run_peaks_below_two_grids(hsc_model):
    # a run keeps no N x N grid and writes s_hat, a float one, by row blocks: a
    # sweep's vectors and the buffers stay below one complex grid more
    n = 512
    m = default_m(n, DEFAULT_SPARSITY_K)
    ms = sampled_measurements(hsc_model, n, sample_indices(n, m, 0), seed=0)
    cfg = admm_defaults("hsc", n, m)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        recover(ms, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * n * n


def test_a_half_dense_run_peaks_below_16_mib(hsc_model):
    # at HSC N=256, beta = 0.08, sweep 3 holds 27602 support entries, 42% of the
    # grid, and every vector on p is most of a grid: the traced peak, 16.03 MiB
    # before the solvers shared one screened pass, may not rise
    n = 256
    m = default_m(n, DEFAULT_SPARSITY_K)
    ms = sampled_measurements(hsc_model, n, sample_indices(n, m, 0), seed=0)
    cfg = dataclasses.replace(admm_defaults("hsc", n, m), beta=0.08)
    report, peak = traced_peak(lambda: recover(ms, cfg))
    assert report.converged
    assert peak <= 16.05 * 2**20


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([2, 4, 8, 16, 32, 64]), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_s_hat_written_by_row_blocks_is_the_dense_u(small_blocks, n, seed, density):
    # U_k = FFT2(C_k - C_{k-1}) + D_k for random J, C_k, C_{k-1} and D_k's support,
    # which always holds entries in rows 0 and N - 1, the first and last blocks
    rng = np.random.default_rng(seed)
    j = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
    m = len(j)
    sub = grid.Subgrid(n, j)
    c, c_prev = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) for _ in range(2))
    on = rng.random(n * n) < density
    on[[rng.integers(n), (n - 1) * n + rng.integers(n)]] = True
    idx = on.nonzero()[0]
    d = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    s = dataclasses.replace(admm._SweepForm.zero(sub), c=c, dc=c - c_prev,
                            t_prev=grid.Support.of(sub, idx), d_prev=d, k=1)
    out = np.full((n, n), np.nan)  # a grid reused from an earlier write
    s_hat, max_imag = admm._write_s_hat(s, sub, out)
    u = dense_u(s, sub) / n**2
    tol = 1e-13 * np.abs(u).max()
    assert s_hat is out
    assert np.abs(s_hat - u.real).max() <= tol
    assert abs(max_imag - np.abs(u.imag).max()) <= tol


def error_pairs(ms, cfg, truth, monkeypatch):
    """Per sweep of a recover_to_error run that makes cfg.max_iter sweeps: the
    error taken from the sweep's sums, and rel_l2_error of the dense U_k
    (helpers.dense_u) of that sweep's form."""
    pairs, last = [], []
    sweep, error_from_sums = admm._sweep, admm._error_from_sums

    def keeping(s, sub, *args):
        new, rec = sweep(s, sub, *args)
        last[:] = [new, sub]
        return new, rec

    def checking(s_true, sub):
        rel_error = error_from_sums(s_true, sub)

        def checked(form):
            got = rel_error(form)
            s, sub = last
            pairs.append((got, rel_l2_error(np.real(dense_u(s, sub)) / sub.n**2, truth)))
            return got
        return checked

    monkeypatch.setattr(admm, "_sweep", keeping)
    monkeypatch.setattr(admm, "_error_from_sums", checking)
    report = recover_to_error(ms, cfg, truth, target=0.0)
    assert len(pairs) == report.iterations == cfg.max_iter
    return np.array(pairs)


def preset_case(model, n, seed):
    """Measurements at sampling seed seed, the preset config and the truth."""
    full = full_measurements(model, n)
    m = default_m(n, DEFAULT_SPARSITY_K)
    idx = sample_indices(n, m, seed)
    ms = MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=seed)
    return ms, admm_defaults(model.kind, n, m), invert_full(full)


class TestErrorFromSums:
    """recover_to_error runs recover's sweeps and takes the error against the
    truth from sums they have: it must be the error of the U it would write."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([8, 16, 32]), st.integers(0, 2**32 - 1),
           st.sampled_from(["any", "with 0 and N/2", "without 0 and N/2", "no pairs"]),
           st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), st.floats(0.01, 1.0))
    def test_matches_the_error_of_the_completed_u(self, n, seed, kind, lam_frac, beta):
        # J with and without 0 and N/2 (each its own -j), or in [1, N/2) (no j and -j)
        rng = np.random.default_rng(seed)
        pool = np.arange(1, n // 2) if kind == "no pairs" else np.arange(n)
        j = set(rng.choice(pool, rng.integers(1, len(pool) + 1), replace=False).tolist())
        if kind == "with 0 and N/2":
            j |= {0, n // 2}
        elif kind == "without 0 and N/2":
            j = (j - {0, n // 2}) or {1}
        j = np.array(sorted(j))
        truth = rng.uniform(size=(n, n))
        b = n**2 * grid.sampled_ifft2(truth + 0.1 * rng.normal(size=(n, n)), grid.Subgrid(n, j))
        ms = MeasurementSet(n=n, indices=j, b=b)
        # lambda / beta a fraction of U's scale, so Z's support is some of the grid
        cfg = AdmmConfig(beta=beta, lam=lam_frac * beta * n**2, max_iter=12)
        with pytest.MonkeyPatch.context() as mp:
            pairs = error_pairs(ms, cfg, truth, mp)
        assert np.abs(pairs[:, 0] - pairs[:, 1]).max() <= 1e-12

    @pytest.mark.parametrize("kind,n", [("bds", 256), ("hsc", 512)])
    def test_matches_at_benchmark_sizes(self, hsc_model, bds_model, monkeypatch, kind, n):
        ms, cfg, truth = preset_case(bds_model if kind == "bds" else hsc_model, n, 0)
        pairs = error_pairs(ms, dataclasses.replace(cfg, max_iter=200), truth, monkeypatch)
        assert np.abs(pairs[:, 0] - pairs[:, 1]).max() <= 1e-8

    @pytest.mark.parametrize("kind,n", [("bds", 256), ("hsc", 128)])
    def test_a_stop_at_target_holds_on_the_written_s_hat(self, hsc_model, bds_model, kind, n):
        # targets that recover's own s_hat reaches exactly, the case rounding decides
        for seed in range(5):
            ms, cfg, truth = preset_case(bds_model if kind == "bds" else hsc_model, n, seed)
            for k in (25, 50):
                target = rel_l2_error(recover(ms, dataclasses.replace(cfg, max_iter=k)).s_hat,
                                      truth)
                report = recover_to_error(ms, dataclasses.replace(cfg, max_iter=500), truth,
                                          target)
                assert report.stop_reason == "error_target", (seed, k)
                assert rel_l2_error(report.s_hat, truth) <= target, (seed, k)

    def test_a_stop_is_confirmed_on_the_written_s_hat(self, bds_model, monkeypatch):
        # sums that read half the error pass sweeps whose s_hat misses the target: they go on
        ms, cfg, truth = preset_case(bds_model, 128, 0)
        target = rel_l2_error(recover(ms, dataclasses.replace(cfg, max_iter=20)).s_hat, truth)
        error_from_sums, confirm, confirms = admm._error_from_sums, admm.rel_l2_error, []

        def counted(*args):
            confirms.append(confirm(*args))
            return confirms[-1]

        monkeypatch.setattr(admm, "_error_from_sums", lambda s_true, sub: (
            lambda s, rel_error=error_from_sums(s_true, sub): 0.5 * rel_error(s)))
        monkeypatch.setattr(admm, "rel_l2_error", counted)
        report = recover_to_error(ms, dataclasses.replace(cfg, max_iter=500), truth, target)
        assert report.stop_reason == "error_target"
        assert len(confirms) > 1 and all(err > target for err in confirms[:-1])
        assert rel_l2_error(report.s_hat, truth) == confirms[-1] <= target

    @pytest.mark.parametrize("kind,n", [("hsc", 64), ("bds", 128)])
    def test_recover_to_error_runs_recovers_sweeps(self, hsc_model, bds_model, kind, n):
        # the same s_hat bytes, history and rows made as recover stopped at its sweep
        ms, cfg, truth = preset_case(bds_model if kind == "bds" else hsc_model, n, 0)
        cfg = dataclasses.replace(cfg, eps_abs=0.0, eps_rel=0.0, max_iter=500)
        target = rel_l2_error(recover(ms, dataclasses.replace(cfg, max_iter=30)).s_hat, truth)
        report = recover_to_error(ms, cfg, truth, target)
        assert report.stop_reason == "error_target" and report.iterations > 1
        plain = recover(ms, dataclasses.replace(cfg, max_iter=report.iterations))
        assert report.s_hat.tobytes() == plain.s_hat.tobytes()
        assert report.history == plain.history
        assert report.row_ffts == plain.row_ffts

    def test_truth_and_target_are_checked_before_any_sweep(self, monkeypatch):
        ms, truth = toy_measurements(16, 12, 0)
        cfg = AdmmConfig(beta=0.1, lam=1.0, max_iter=300)
        monkeypatch.setattr(admm, "_sweep", None)  # a sweep would raise TypeError
        for bad in (np.zeros_like(truth), np.where(np.eye(16) > 0, np.nan, truth),
                    np.where(np.eye(16) > 0, np.inf, truth)):
            with pytest.raises(ValueError, match="s_true"):
                recover_to_error(ms, cfg, bad, target=0.05)
        for target in (float("nan"), -0.01):
            with pytest.raises(ValueError, match="target"):
                recover_to_error(ms, cfg, truth, target=target)


def test_no_run_sees_another_runs_buffers(bds_model):
    # each run works in the buffers of the Subgrid it builds, and its g holds the
    # row IFFTs the next sweep or iteration reads: runs on one MeasurementSet, in
    # any order, give the same bytes.  BDS N=256 is the first size with direct sums.
    ms, cfg, truth = preset_case(bds_model, 256, 0)
    p_cfg = pgd.PgdConfig(lam=pgd_lambda("bds", ms.m), max_iter=500)

    def key(report):
        return report.s_hat.tobytes(), report.history, report.row_ffts

    fista = pgd.pgd_recover(ms, p_cfg)
    target = rel_l2_error(fista.s_hat, truth)
    plain, to_error = recover(ms, cfg), recover_to_error(ms, cfg, truth, target)
    assert key(recover(ms, cfg)) == key(plain)
    assert key(recover_to_error(ms, cfg, truth, target)) == key(to_error)
    assert key(pgd.pgd_recover(ms, p_cfg)) == key(fista)
