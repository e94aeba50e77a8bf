"""Measurement grids, exact inversion, sampling, and error metrics."""

import numpy as np
import pytest

from branchcs.errors import MTooLarge, NonSquareGrid
from branchcs.grid import (
    MeasurementSet,
    default_m,
    embed_measurements,
    embedded_fft2,
    full_measurements,
    invert_full,
    rel_l2_error,
    sample_indices,
    sampled_ifft2,
    sampled_measurements,
)


class TestFullGrid:
    def test_conjugate_symmetry(self, hsc64_full):
        n = hsc64_full.shape[0]
        refl = (n - np.arange(n)) % n
        sym = np.conj(hsc64_full[np.ix_(refl, refl)])
        assert np.max(np.abs(hsc64_full - sym)) < 1e-9

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

    def test_non_power_of_two_rejected(self, hsc_model):
        with pytest.raises(ValueError):
            full_measurements(hsc_model, 48)

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
    """The sampled IFFT2 / embedded FFT2 pair against full-grid numpy transforms."""

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
        sub = np.ix_(indices, indices)
        got = sampled_ifft2(x, indices)
        assert got.shape == (m, m)
        assert np.max(np.abs(got - np.fft.ifft2(x)[sub])) < 1e-12
        embed = np.zeros((n, n), dtype=complex)
        embed[sub] = c
        assert np.max(np.abs(embedded_fft2(c, indices, n) - np.fft.fft2(embed))) < 1e-12

    def test_default_indices_are_plain_transforms(self):
        x = np.random.default_rng(1).normal(size=(8, 8))
        assert np.array_equal(sampled_ifft2(x), np.fft.ifft2(x))
        assert np.array_equal(embedded_fft2(x), np.fft.fft2(x))

    def test_embedded_needs_grid_size(self):
        with pytest.raises(ValueError):
            embedded_fft2(np.ones((2, 2)), np.array([0, 1]))


def test_rel_l2_error():
    a = np.ones((3, 3))
    assert rel_l2_error(a, a) == 0.0
    assert rel_l2_error(2 * a, a) == pytest.approx(1.0)
