"""Uniformization oracle: the stencil against the sparse reference generator,
analytic cases, matrix-exponential agreement, Poisson weights, mass."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import poisson

from branchcs import oracle
from branchcs.errors import NonConvergent
from branchcs.models import ModelSpec, RatesBDS, RatesHSC
from branchcs.oracle import (
    build_generator,
    oracle_transition_matrix,
    transition_probs_uniformized,
)
from conftest import BDS_RATES, HSC_RATES
from helpers import csr_generator, csr_uniformized

KINDS = [("hsc", HSC_RATES, 1.0), ("bds", BDS_RATES, 0.35)]


class TestGenerator:
    def test_interior_rows_conserve_rate(self, hsc_model):
        q = csr_generator(hsc_model, 8).toarray()
        # rows whose transitions stay inside the box must sum to zero;
        # boundary rows are substochastic (negative row sum)
        sums = q.sum(axis=1)
        assert np.all(sums <= 1e-12)
        interior = [x1 * 8 + x2 for x1 in range(1, 6) for x2 in range(1, 6)]
        assert np.max(np.abs(sums[interior])) < 1e-12

    def test_absorbing_origin(self, hsc_model):
        assert csr_generator(hsc_model, 6)[0].count_nonzero() == 0  # state (0,0) never moves
        assert build_generator(hsc_model, 6).out_rate[0, 0] == 0

    @pytest.mark.parametrize("kind,rates,t", KINDS)
    def test_out_rate_is_minus_the_diagonal(self, kind, rates, t):
        model = ModelSpec(kind=kind, rates=rates, t=t, init=(1, 0))
        gen = build_generator(model, 8)
        assert np.array_equal(gen.out_rate.ravel(), -csr_generator(model, 8).diagonal())

    @pytest.mark.parametrize("n_trunc", [8, 16])
    @pytest.mark.parametrize("kind,rates,t", KINDS)
    def test_kernel_step_is_v_times_k(self, kind, rates, t, n_trunc):
        # one stencil step against v @ (I + Q/Lambda) with the sparse generator
        model = ModelSpec(kind=kind, rates=rates, t=t, init=(1, 0))
        gen = build_generator(model, n_trunc)
        lam = float(gen.out_rate.max())
        kernel = np.eye(n_trunc**2) + csr_generator(model, n_trunc).toarray() / lam
        step = oracle._kernel(gen, lam)
        rng = np.random.default_rng(n_trunc)
        for _ in range(5):
            v = rng.random((n_trunc, n_trunc))
            want = (v.ravel() @ kernel).reshape(n_trunc, n_trunc)
            assert np.max(np.abs(step(v) - want)) <= 1e-15 * np.linalg.norm(v)


class TestUniformization:
    def test_pure_death_analytic(self):
        # init (0, 1) under HSC: single progenitor dies at rate mu
        model = ModelSpec(kind="hsc", rates=HSC_RATES, t=1.0, init=(0, 1))
        res = oracle_transition_matrix(model, 8)
        p_alive = math.exp(-HSC_RATES.mu)
        assert res.probs[0, 1] == pytest.approx(p_alive, abs=1e-12)
        assert res.probs[0, 0] == pytest.approx(1 - p_alive, abs=1e-12)
        assert abs(res.truncation_mass) < 1e-12

    @pytest.mark.parametrize("kind,rates,t", KINDS)
    def test_matches_dense_matrix_exponential(self, kind, rates, t):
        model = ModelSpec(kind=kind, rates=rates, t=t, init=(1, 0))
        res = oracle_transition_matrix(model, 8)
        dense = expm(csr_generator(model, 8).toarray() * t)
        v = np.zeros(64)
        v[1 * 8 + 0] = 1.0
        expected = (v @ dense).reshape(8, 8)
        assert np.max(np.abs(res.probs - expected)) < 1e-10

    def test_zero_time_is_identity(self, hsc_model):
        gen = build_generator(hsc_model, 6)
        res = transition_probs_uniformized(gen, (2, 3), 0.0)
        assert res.probs[2, 3] == 1.0
        assert res.probs.sum() == 1.0

    def test_mass_bounds(self, bds_model):
        res = oracle_transition_matrix(bds_model, 16)
        assert res.probs.min() >= -1e-15
        assert res.probs.sum() <= 1.0 + 1e-12
        assert 0.0 <= res.truncation_mass < 1e-9

    def test_init_outside_box_rejected(self, hsc_model):
        gen = build_generator(hsc_model, 4)
        with pytest.raises(ValueError):
            transition_probs_uniformized(gen, (4, 0), 1.0)

    def test_poisson_term_cap(self, hsc_model):
        # Lambda t is about 1.2e7 here: the cap must refuse it before a pmf of that length
        # (96 MB) is made
        gen = build_generator(hsc_model, 32)
        tracemalloc.start()
        try:
            with pytest.raises(NonConvergent):
                transition_probs_uniformized(gen, (1, 0), 1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["hsc", "bds"]), rates=st.tuples(*[st.floats(0.01, 1.0)] * 3),
           t=st.floats(0.01, 3.0), init=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           n_trunc=st.integers(5, 16))
    def test_matches_the_sparse_reference(self, kind, rates, t, init, n_trunc):
        model = ModelSpec(kind=kind, rates=(RatesHSC if kind == "hsc" else RatesBDS)(*rates),
                          t=t, init=init if sum(init) else (1, 0))
        res = oracle_transition_matrix(model, n_trunc)
        want = csr_uniformized(csr_generator(model, n_trunc), model.init, t)
        assert np.max(np.abs(res.probs - want)) < 1e-13

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 0.1])
    def test_k_max_is_scipys_isf_plus_one(self, tol):
        # the first k with P(X > k) <= tol, plus one; equal to scipy's at every point of the grid
        for mu in np.logspace(-3, 4, 400):
            weights = oracle._poisson_weights(mu, tol)
            assert len(weights) - 1 == int(poisson.isf(tol, mu)) + 1, mu
