"""FISTA baseline: gradient correctness, the exact step, exhaustive limit,
solver agreement, and the sparse loop against the dense one."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchcs import grid, pgd
from branchcs.admm import AdmmConfig, recover, recover_to_error, soft_threshold
from branchcs.errors import NonFinite
from branchcs.grid import (
    MeasurementSet,
    default_m,
    full_measurements,
    invert_full,
    rel_l2_error,
    sample_indices,
    sampled_ifft2,
)
from branchcs.models import ModelSpec, RatesHSC
from branchcs.pgd import PgdConfig, pgd_recover
from branchcs.presets import DEFAULT_SPARSITY_K, admm_defaults, pgd_lambda
from helpers import dense_pgd, fft2_rows, fista_gradient, smooth_value, traced_peak

TOY_RATES = RatesHSC(rho=0.125, nu=0.104, mu=0.147)


def toy_measurements(n: int, m: int, seed: int):
    model = ModelSpec(kind="hsc", rates=TOY_RATES, t=1.0, init=(1, 0))
    full = full_measurements(model, n)
    idx = sample_indices(n, m, seed)
    ms = MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=seed)
    return ms, invert_full(full)


class TestGradient:
    """The gradient FISTA makes (column_fft, then fft_rows) against the objective."""

    def test_matches_central_differences(self):
        # 20 random complex directions on an N = 4 toy, 1e-6 relative
        ms, _ = toy_measurements(4, 3, 0)
        rng = np.random.default_rng(11)
        s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g = fista_gradient(s, ms)
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
        g = fista_gradient(u_true, ms_all)
        assert np.max(np.abs(g)) < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.data())
    def test_the_curvature_is_a_projection(self, n, seed, data):
        # with A S = IFFT2(S)[J, J] the smooth term's Hessian is N^2 A^H A, made
        # here as FISTA makes its gradient (N^2 A^H R = FFT2 of R on J x J).  It
        # is an orthogonal projection, onto the FFT2s of J x J blocks, so its
        # norm, the gradient's Lipschitz constant, is exactly L = 1 for every J:
        # the fixed step 1/L is the exact one
        j = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        sub = grid.Subgrid(n, j)
        rng = np.random.default_rng(seed)

        def curvature(s):
            return fft2_rows(sampled_ifft2(s, sub), sub)

        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        p = curvature(s)
        assert np.linalg.norm(curvature(p) - p) <= 1e-12 * np.linalg.norm(p)  # idempotent
        assert np.linalg.norm(p) <= (1.0 + 1e-12) * np.linalg.norm(s)  # never lengthens
        block = np.zeros((n, n), dtype=complex)
        block[np.ix_(j, j)] = rng.normal(size=(len(j), len(j))) + 1j * rng.normal(
            size=(len(j), len(j)))
        f = np.fft.fft2(block)  # in the range: kept as it is
        assert np.linalg.norm(curvature(f) - f) <= 1e-12 * np.linalg.norm(f)


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
        # eps_abs / N: an absolute floor of N eps, as N^2 multiplies eps_abs
        a = recover(ms, AdmmConfig(beta=0.1, lam=lam, eps_abs=1e-10 / ms.n, eps_rel=1e-10,
                                   max_iter=20000))
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
            PgdConfig(lam=1.0, max_iter=0)
        for lam in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                PgdConfig(lam=lam)
        PgdConfig(lam=float("inf"))


def test_row_ffts_counts_the_rows_made(small_blocks, monkeypatch):
    # the gradient rows the screened pass makes and the candidate's row IFFTs;
    # and exactly two restricted transform sets per iteration: the gradient's
    # column FFTs and the candidate's column IFFTs, once each
    ms, _ = toy_measurements(32, 20, 3)
    rows, calls = [], {"_fft2": 0, "_ifft2": 0}
    real_fft_rows, real_ifft = grid.fft_rows, np.fft.ifft

    def counting_fft_rows(cols, sub, out):
        rows.append(len(out))
        return real_fft_rows(cols, sub, out)

    def counting_ifft(a, *args, axis=-1, **kwargs):
        if axis == 1:  # the candidate's rows, packed; the column IFFTs are along axis 0
            rows.append(len(a))
        return real_ifft(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(grid, "fft_rows", counting_fft_rows)
    monkeypatch.setattr(np.fft, "ifft", counting_ifft)
    for name in calls:
        real = getattr(pgd, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(pgd, name, counting)
    report = pgd_recover(ms, PgdConfig(lam=1.0, max_iter=40))
    assert report.iterations > 1
    assert calls == {"_fft2": report.iterations, "_ifft2": report.iterations}
    assert report.row_ffts == sum(rows) < 32 * 2 * report.iterations


class TestSparseLoop:
    """pgd_recover keeps its iterates on their support and makes only the
    gradient rows the screened pass lets through; it must do the dense loop's FISTA."""

    @pytest.fixture(scope="class")
    def cases(self, hsc_model, bds_model):
        """(name, measurements, config) at HSC N=64, BDS N=128, BDS N=256 (the
        first size where rows that hold few support entries take direct sums),
        and HSC N=64 with lambda = 0 (where the exact step lands on a
        least-squares solution and FISTA stops at k = 2) and with a lambda above
        every row's bound (so no row is made); the preset lambda otherwise, and
        sampling seed 0."""
        out = []
        for name, model, n, lam in (("hsc-64", hsc_model, 64, None),
                                    ("bds-128", bds_model, 128, None),
                                    ("bds-256", bds_model, 256, None),
                                    ("hsc-64-lambda-0", hsc_model, 64, 0.0),
                                    ("hsc-64-lambda-1e6", hsc_model, 64, 1e6)):
            full = full_measurements(model, n)
            m = default_m(n, DEFAULT_SPARSITY_K)
            idx = sample_indices(n, m, 0)
            ms = MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=0)
            out.append((name, ms, PgdConfig(lam=pgd_lambda(model.kind, m) if lam is None else lam,
                                            max_iter=500)))
        return out

    def test_matches_the_dense_loop(self, cases, small_blocks):
        # the momentum point's residual comes by linearity and the sums are
        # taken on the supports, so the iterates agree to rounding, 1e-12
        # relative to the iterate, and the steps and the stop are the same
        for name, ms, cfg in cases:
            iterates, history, converged = dense_pgd(ms, cfg)
            report = pgd_recover(ms, cfg)
            assert (report.iterations, report.converged) == (len(iterates), converged), name
            norms = [1.0] + [max(np.linalg.norm(s), 1.0) for s in iterates]
            for (k, rel), rec in zip(history, report.history):
                assert rec.k == k, name
                # rel_change is ||S_k - S_{k-1}|| / max(||S_{k-1}||, 1)
                assert abs(rec.rel_change - rel) * norms[k - 1] <= 1e-12 * norms[k], (name, k)
            cutoffs = sorted({1, 2, 3, 5, 8, 13, 21, 34, 55, 89} & set(range(1, len(iterates))))
            for k in cutoffs + [len(iterates)]:
                s_hat = (report if k == len(iterates)
                         else pgd_recover(ms, dataclasses.replace(cfg, max_iter=k))).s_hat
                want = np.real(iterates[k - 1]) / ms.n**2
                assert np.max(np.abs(s_hat - want)) <= 1e-12 * np.max(np.abs(want)), (name, k)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3),
           st.floats(0.5, 100.0), st.floats(-1.0, 1.0), st.floats(-np.pi, np.pi), st.booleans())
    def test_what_the_screens_skip_gives_a_zero_candidate(self, log_n, seed, scale, l_step,
                                                           nudge, phase, at_cut):
        # G = FFT2 of a residual r on J x J.  Off Y's support the candidate is
        # prox_{lam/L}(0 - G/L); FISTA takes it to be 0 on the rows the screen
        # skips and where |G| <= lam (1 - margin).  One row u of G's column
        # transforms is in phase, so |G[u, 0]| is its L1 norm, which lies
        # within 1e-12 of lam, or of the cut lam (1 - 1e-9)
        n = 4 << log_n
        rng = np.random.default_rng(seed)
        j = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
        sub = grid.Subgrid(n, j)
        u = rng.integers(n)
        # column transform u of each column of r sums positive multiples of e^{i phase}
        r = (scale * rng.uniform(0.1, 1.0, size=(len(j), len(j)))
             * np.exp(1j * (phase + 2 * np.pi * j * u / n))[:, None])
        cols = grid.column_fft(r, sub)
        lam = np.abs(cols[u]).sum() * (1.0 + 1e-12 * nudge) / ((1.0 - 1e-9) if at_cut else 1.0)
        made = grid._screen(grid._row_l1(cols), lam)
        assert made[np.abs(cols).sum(axis=1) > lam].all()
        g = fft2_rows(r, sub)  # the rows fft_rows makes, with their bits
        assert np.abs(g[~made]).max(initial=0.0) <= lam
        skipped = ~made[:, None] | (np.abs(g) <= lam * (1.0 - grid._MARGIN))
        cand = soft_threshold(0 - g * (1.0 / l_step), lam / l_step)
        assert not cand[skipped].any()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_raises(self, bad):
        ms, _ = toy_measurements(32, 10, 0)
        b = ms.b.copy()
        b[3, 4] = bad
        bad_ms = MeasurementSet(n=32, indices=ms.indices, b=b)
        with pytest.raises(NonFinite, match="k=1"):
            pgd_recover(bad_ms, PgdConfig(lam=1.0, max_iter=5))
        # a row whose bound is not finite is made, so what it holds is seen
        cols = np.array([[np.nan, 0.0], [np.inf, 0.0], [0.5, 0.25], [1.0, 0.5]])
        assert grid._screen(grid._row_l1(cols), 1.0).tolist() == [True, True, False, True]


def test_a_run_peaks_below_seven_grids(bds_model):
    # in FISTA's first iterations at BDS N=256 its support holds up to 98% of the
    # grid, so S_k and S_{k-1} on it, and the gradient and the candidate on p, are
    # each about a complex grid: the run's traced peak, 6.90 grids before the
    # solvers shared one screened pass, may not rise
    n = 256
    m = default_m(n, DEFAULT_SPARSITY_K)
    full = full_measurements(bds_model, n)
    idx = sample_indices(n, m, 0)
    ms = MeasurementSet(n=n, indices=idx, b=full[np.ix_(idx, idx)], seed=0)
    report, peak = traced_peak(
        lambda: pgd_recover(ms, PgdConfig(lam=pgd_lambda("bds", m), max_iter=500)))
    assert report.converged
    assert peak <= 6.91 * 16 * n * n


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
        assert a.stop_reason == "error_target" and rel_l2_error(a.s_hat, s_true) <= p_err
        counts.append((p.iterations, a.iterations))
    assert counts == [(373, 86), (369, 86), (356, 87), (366, 59), (376, 87)]
