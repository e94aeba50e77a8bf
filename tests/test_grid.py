"""Measurement grids, exact inversion, sampling, and error metrics."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from branchcs import grid
from branchcs.errors import MTooLarge, NonSquareGrid
from branchcs.grid import (
    MeasurementSet,
    Subgrid,
    column_fft,
    column_ifft,
    default_m,
    embed_measurements,
    fft_rows,
    full_measurements,
    invert_full,
    rel_l2_error,
    sample_indices,
    sampled_ifft2,
    sampled_measurements,
)
from branchcs.models import ModelSpec, RatesBDS
from conftest import BDS_RATES
from helpers import dop853_bds_grid, fft2_rows, out_of_place_grid


class TestFullGrid:
    def test_conjugate_symmetry(self, hsc64_full):
        n = hsc64_full.shape[0]
        refl = (n - np.arange(n)) % n
        sym = np.conj(hsc64_full[np.ix_(refl, refl)])
        assert np.max(np.abs(hsc64_full - sym)) < 1e-9

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_mirror_is_the_column_loop(self, bds_model, n):
        # the upper columns are one gather of the lower ones, with the loop's bits
        b = full_measurements(bds_model, n)
        loop = b.copy()
        refl = (n - np.arange(n)) % n
        for v in range(n // 2 + 1, n):
            loop[:, v] = np.conj(loop[refl, n - v])
        assert b.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("kind, n, init", [
        *((kind, 64, init) for kind in ("hsc", "bds") for init in ((1, 0), (0, 1), (2, 3))),
        ("hsc", 512, (1, 0)),
        *((kind, n, (2, 3)) for kind in ("hsc", "bds") for n in (2, 4))])
    def test_grid_keeps_the_out_of_place_bits(self, hsc_model, bds_model, kind, n, init):
        model = dataclasses.replace(hsc_model if kind == "hsc" else bds_model, init=init)
        assert full_measurements(model, n).tobytes() == out_of_place_grid(model, n).tobytes()

    @pytest.mark.parametrize("rates, t, init", [
        (BDS_RATES, 0.35, (1, 0)),
        (RatesBDS(gamma=0.5, sigma=0.1, delta=0.5), 5.0, (2, 3)),
        (RatesBDS(gamma=1.0, sigma=0.1, delta=0.2), 10.0, (1, 0))])
    def test_bds_grid_is_within_2e_10_of_dop853(self, rates, t, init):
        # the paper's rates, critical rates at long t, and supercritical rates at longer t
        model = ModelSpec(kind="bds", rates=rates, t=t, init=init)
        err = np.abs(full_measurements(model, 64)[:, :33] - dop853_bds_grid(model, 64)).max()
        assert err <= 2e-10

    def test_corner_is_normalization_point(self, hsc64_full):
        # node (0, 0) evaluates the PGF at (1, 1)
        assert abs(hsc64_full[0, 0] - 1.0) < 1e-8

    def test_inversion_is_a_distribution(self, hsc64_truth):
        s = hsc64_truth
        assert s.dtype == np.float64
        assert s.min() > -1e-8
        assert s.sum() == pytest.approx(1.0, abs=1e-6)

    def test_bds_inversion_is_a_distribution(self, bds64_truth):
        assert bds64_truth.min() > -1e-8
        assert bds64_truth.sum() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("grid", ["full", "sampled"])
    def test_non_power_of_two_rejected(self, hsc_model, grid):
        with pytest.raises(ValueError):
            if grid == "full":
                full_measurements(hsc_model, 48)
            else:
                sampled_measurements(hsc_model, 48, [0, 5, 47])

    def test_invert_requires_square(self):
        with pytest.raises(NonSquareGrid):
            invert_full(np.zeros((4, 6), dtype=complex))

    def test_fourier_round_trip(self):
        # invert_full is the exact inverse of the measurement synthesis
        rng = np.random.default_rng(0)
        n = 16
        s = rng.random((n, n))
        b = np.fft.ifft2(s) * n**2  # synthesize grid values from a "truth"
        assert np.max(np.abs(invert_full(b) - s)) < 1e-12


class TestInvertFull:
    """invert_full reads columns 0..N/2 of the grid of a real matrix."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 4, 16, 256]), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
    def test_round_trip_of_a_real_matrix(self, n, seed, scale):
        s = scale * np.random.default_rng(seed).normal(size=(n, n))
        b = np.fft.ifft2(s) * n**2
        back = invert_full(b)
        assert back.tobytes() == np.fft.irfft2(np.conj(b[:, :n // 2 + 1]), s=(n, n)).tobytes()
        assert back.dtype == np.float64 and back.shape == (n, n)
        assert np.max(np.abs(back - s)) <= 1e-13 * np.max(np.abs(s))

    @pytest.mark.parametrize("kind, n", [("hsc", 512), ("bds", 256)])
    def test_model_grid_matches_the_full_transform(self, hsc_model, bds_model, kind, n):
        b = full_measurements(hsc_model if kind == "hsc" else bds_model, n)
        want = np.real(np.fft.fft2(b)) / n**2
        assert np.max(np.abs(invert_full(b) - want)) <= 1e-15 * np.max(np.abs(want))

    def test_upper_columns_are_not_read(self, hsc_model):
        n = 512
        b = full_measurements(hsc_model, n)
        s = invert_full(b)
        rng = np.random.default_rng(3)
        b[:, n // 2 + 1:] = rng.normal(size=(n, n // 2 - 1)) + 1j * rng.normal(size=(n, n // 2 - 1))
        b[::7, -1] = np.nan
        assert invert_full(b).tobytes() == s.tobytes()

    def test_exact_path_holds_few_grid_sized_temporaries(self, hsc_model):
        n = 512
        full_measurements(hsc_model, n)  # a first call outside the trace
        tracemalloc.start()
        try:
            b = full_measurements(hsc_model, n)
            grid_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            s = invert_full(b)
            invert_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert grid_peak <= 1.75 * b.nbytes
        assert invert_peak <= 3.5 * s.nbytes


class TestSampling:
    def test_deterministic_in_seed(self):
        a = sample_indices(64, 51, seed=3)
        b = sample_indices(64, 51, seed=3)
        assert np.array_equal(a, b)

    def test_distinct_sorted_in_range(self):
        idx = sample_indices(64, 51, seed=0)
        assert len(np.unique(idx)) == 51
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 64

    def test_m_too_large(self):
        with pytest.raises(MTooLarge):
            sample_indices(16, 17, seed=0)

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            sample_indices(16, 0, seed=0)

    def test_uniform_frequencies(self):
        # each index should be hit ~ m/n of the time across seeds (5 sigma)
        n, m, trials = 64, 16, 2000
        counts = np.zeros(n)
        for seed in range(trials):
            counts[sample_indices(n, m, seed)] += 1
        expected = trials * m / n
        sigma = np.sqrt(trials * (m / n) * (1 - m / n))
        assert np.all(np.abs(counts - expected) < 5 * sigma)

    def test_sampled_matches_full_grid(self, hsc_model, hsc64_full):
        idx = sample_indices(64, 12, seed=1)
        ms = sampled_measurements(hsc_model, 64, idx, seed=1)
        sub = hsc64_full[np.ix_(idx, idx)]
        # the adaptive integrator picks different steps for different batch
        # sizes, so agreement is to integrator accuracy, not bit-for-bit
        assert np.max(np.abs(ms.b - sub)) < 1e-9

    def test_measurement_set_validation(self):
        with pytest.raises(ValueError):
            MeasurementSet(n=8, indices=np.array([0, 0]), b=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            MeasurementSet(n=8, indices=np.array([0, 8]), b=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            MeasurementSet(n=8, indices=np.array([0, 1]), b=np.zeros((3, 3)))

    def test_embed_round_trip(self):
        idx = np.array([1, 3])
        b = np.arange(4, dtype=complex).reshape(2, 2)
        ms = MeasurementSet(n=4, indices=idx, b=b)
        a = embed_measurements(ms)
        assert np.array_equal(a[np.ix_(idx, idx)], b)
        assert np.count_nonzero(a) == 3  # b[0,0] == 0


class TestDefaults:
    @pytest.mark.parametrize("n,expected", [
        (64, 51), (128, 78), (256, 83), (512, 88), (1024, 93),
    ])
    def test_default_m_reproduces_benchmark_column(self, n, expected):
        assert default_m(n, 126) == expected

    def test_default_m_cap_binds_for_small_n(self):
        assert default_m(4, 126) == 3  # floor(4 - 4/5)

    def test_default_m_validation(self):
        with pytest.raises(ValueError):
            default_m(1, 126)
        with pytest.raises(ValueError):
            default_m(64, 0)


class TestRestrictedTransforms:
    """The sampled IFFT2 and the embedded FFT2 (column_fft, then fft_rows) against
    full-grid numpy transforms."""

    @pytest.mark.parametrize("n,indices", [
        (16, np.arange(16)),              # J = all indices
        (16, np.array([5])),              # |J| = 1
        (16, np.array([9, 2, 14, 0, 7])), # unsorted J
        (2, np.array([1])),
        (2, np.array([1, 0])),
    ])
    def test_pair_matches_full_transforms(self, n, indices):
        rng = np.random.default_rng(n + len(indices))
        m = len(indices)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        c = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        block = np.ix_(indices, indices)
        got = sampled_ifft2(x, Subgrid(n, indices))
        assert got.shape == (m, m)
        assert np.max(np.abs(got - np.fft.ifft2(x)[block])) < 1e-12
        embed = np.zeros((n, n), dtype=complex)
        embed[block] = c
        assert np.max(np.abs(fft2_rows(c, Subgrid(n, indices)) - np.fft.fft2(embed))) < 1e-12

    def test_default_indices_are_plain_transforms(self):
        x = np.random.default_rng(1).normal(size=(8, 8))
        assert np.array_equal(column_fft(x), np.fft.fft2(x))
        assert np.array_equal(column_ifft(x), np.fft.ifft(x, axis=0))

    def test_subgrid_rejects_indices_off_the_grid(self):
        for bad in ([0, 4], [-1, 2], [[0, 1]]):
            with pytest.raises(ValueError):
                Subgrid(4, np.array(bad))

    def test_subgrid_buffers_are_made_when_first_used(self, small_blocks):
        # a Subgrid built only to sample allocates none; a run's are a row
        # block's worth of rows (3 at N = 32 here) and the M x N gather g, 0 at first
        n, j = 32, np.array([30, 1, 7, 12, 19])
        sub = Subgrid(n, j)
        sampled_ifft2(np.ones((n, n)), sub)
        assert not {"u", "re", "above", "g"} & vars(sub).keys()
        assert [(b.shape, b.dtype) for b in (sub.u, sub.re, sub.above)] == [
            ((3, n), np.dtype(t)) for t in (complex, float, bool)]
        assert sub.g.shape == (5, n) and sub.g.dtype == complex and not sub.g.any()
        assert sub.u is sub.u and sub.g is sub.g  # made once

    def test_blocked_and_threaded_forms_are_bit_identical(self, small_blocks):
        # every form computes each row's transform alone, so all agree exactly
        n, j = 32, np.array([30, 1, 7, 12, 19])
        rng = np.random.default_rng(7)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        c = rng.normal(size=(len(j), len(j))) + 1j * rng.normal(size=(len(j), len(j)))
        cols = np.zeros((n, len(j)), dtype=complex)
        cols[j] = c
        want_ifft = np.fft.ifft(np.fft.ifft(x, axis=1)[:, j], axis=0)[j]
        want_fft = np.zeros((n, n), dtype=complex)
        want_fft[:, j] = np.fft.fft(cols, axis=0)
        want_fft = np.fft.fft(want_fft, axis=1)
        sub = Subgrid(n, j)
        assert np.array_equal(sampled_ifft2(x, sub), want_ifft)
        # the row half, then the column half alone
        cols = np.fft.ifft(x, axis=1)[:, j]
        assert np.array_equal(column_ifft(cols, sub), want_ifft)
        assert np.array_equal(column_ifft(cols), np.fft.ifft(cols, axis=0))
        assert np.array_equal(fft2_rows(c, sub), want_fft)
        # any rows of FFT2, made alone or packed together from the column transforms,
        # have the bits of the whole grid's rows, as the ADMM sweep's screen needs
        embedded = np.zeros((n, len(j)), dtype=complex)
        embedded[j] = c
        cols = column_fft(c, sub)
        assert np.array_equal(cols, np.fft.fft(embedded, axis=0))
        for rows in ([5], [0, 1, 2], [3, 10, 31], [30, 31]):  # at most a row block's worth
            out = np.empty((len(rows), n), dtype=complex)
            assert np.array_equal(fft_rows(cols[rows], sub, out), want_fft[rows])


class TestPointSums:
    """The direct sums at support entries stand in for row transforms: F at the
    entries, from the column transforms, and the row IFFTs of the rows that
    hold them, gathered at columns J."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_direct_sums_match_the_row_transforms(self, log_n, seed, density):
        n = 1 << log_n  # 2 to 64
        rng = np.random.default_rng(seed)
        sub = Subgrid(n, np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False)))
        m, h = len(sub.j), len(sub.flat)
        on = rng.random((n, n)) < density  # the support, with entries in rows 0 and N - 1
        on[0, rng.integers(n)] = on[n - 1, rng.integers(n)] = True
        idx = np.flatnonzero(on)
        row, col = idx // n, idx % n
        cols = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        f = np.empty((n, n), dtype=complex)
        for first in range(0, n, h):
            fft_rows(cols[first:first + h], sub, f[first:first + h])
        got = grid._fft_points(cols, row, col, sub)
        assert np.abs(got - f.reshape(-1)[idx]).max() <= 1e-13 * np.abs(f).max()
        values = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        dense = np.zeros(n * n, dtype=complex)
        dense[idx] = values
        want = np.fft.ifft(dense.reshape(n, n), axis=1)[:, sub.j].T
        g = sub.g
        g.fill(7.0)
        grid._point_iffts(row, col, values, sub)
        held = np.unique(row)
        assert np.abs(g[:, held] - want[:, held]).max() <= 1e-13 * np.abs(want).max()
        assert (np.delete(g, held, axis=1) == 7.0).all()  # the other rows' columns are left
        # a Support's row IFFTs: transforms of its dense rows, direct sums at the rest
        support = grid.Support.of(sub, idx)
        g.fill(7.0)
        made = support.iffts(values, sub)
        assert made == np.count_nonzero(support.dense)
        assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()


class TestScreenedPass:
    """grid.screened_fft, the one pass both solvers make F at their supports by:
    t's indices then every entry off t above tau, F there, and the bound made
    exact on the rows made."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
           st.floats(0.0, 1.5), st.sampled_from([grid._DIRECT_COST, 1]))
    def test_finds_what_every_row_holds(self, small_blocks, log_n, seed, density, tau_frac,
                                        cost):
        n = 1 << log_n  # 2 to 64; with a direct-sum cost of 1, rows that hold few of t take them
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "_DIRECT_COST", cost)
            sub = Subgrid(n, np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False)))
            t = grid.Support.of(sub, np.flatnonzero(rng.random(n * n) < density))
        c = rng.normal(size=(len(sub.j),) * 2) + 1j * rng.normal(size=(len(sub.j),) * 2)
        cols = column_fft(c, sub)
        f = fft2_rows(c, sub).reshape(-1)  # every row, with the bits of the rows made
        off = np.abs(f)
        off[t.idx] = 0
        tau = tau_frac * off.max()
        bound = grid._row_l1(cols)
        made_rows = grid._screen(bound, tau) | t.dense
        p, f_p, made = grid.screened_fft(cols, t, bound, tau, sub)
        m = len(t.idx)
        assert made == np.count_nonzero(made_rows)
        assert np.array_equal(p[:m], t.idx)
        assert np.array_equal(p[m:], np.flatnonzero(off > tau))  # sorted
        assert np.array_equal(f_p[m:], f[p[m:]])
        assert np.abs(f_p[:m] - f[t.idx]).max(initial=0.0) <= 1e-13 * np.abs(f).max()
        off[p] = 0
        assert np.array_equal(bound[made_rows], off.reshape(n, n)[made_rows].max(axis=1))


def test_rel_l2_error():
    a = np.ones((3, 3))
    assert rel_l2_error(a, a) == 0.0
    assert rel_l2_error(2 * a, a) == pytest.approx(1.0)
    with pytest.raises(ValueError):  # would broadcast to 0.0
        rel_l2_error(np.ones((4, 4)), np.ones((1, 4)))
