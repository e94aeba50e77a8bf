"""The HSC PGF grid as one Moebius-flow solve, against per-point Riccati solves,
and the in-house RK45 that integrates it, against scipy's."""

import cmath
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from branchcs import models
from branchcs.errors import IntegrationFailure
from branchcs.grid import full_measurements
from branchcs.models import ModelSpec, RatesBDS, RatesHSC, pgf_block
from conftest import HSC_RATES
from helpers import riccati_pgf

on_circle = st.floats(-np.pi, np.pi).map(lambda a: cmath.exp(1j * a))
in_disk = st.builds(lambda r, a: r * cmath.exp(1j * a), st.floats(0.0, 1.0), st.floats(-np.pi, np.pi))


@st.composite
def hsc_models(draw):
    init = (draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    return ModelSpec(kind="hsc", rates=HSC_RATES, t=draw(st.floats(0.05, 50.0)),
                     init=init if sum(init) else (1, 0))


@settings(max_examples=40, deadline=None)
@given(hsc_models(), st.lists(in_disk, min_size=1, max_size=4),
       st.lists(on_circle, min_size=1, max_size=4))
def test_block_matches_per_point_solves(model, s1, s2):
    # every s2 of the block shares one solve; each entry is a ratio of its flow
    block = pgf_block(model, s1, s2)
    want = np.array([[riccati_pgf(model, a, b) for b in s2] for a in s1])
    assert np.max(np.abs(block - want)) <= 1e-9


@pytest.mark.parametrize("t", [10.0, 50.0, 200.0])
def test_flow_holds_at_long_times(t):
    # unshifted, the flow W decays into atol and the ratio loses digits:
    # 1.3e-5 off at t = 200
    model = ModelSpec(kind="hsc", rates=HSC_RATES, t=t, init=(2, 3))
    s1 = np.array([1.0, -1.0, 1j, 0.0, 0.5 - 0.5j])
    s2 = np.exp(2j * np.pi * np.arange(4) / 4)
    want = np.array([[riccati_pgf(model, a, b) for b in s2] for a in s1])
    assert np.max(np.abs(pgf_block(model, s1, s2) - want)) <= 1e-9


def test_a_grid_takes_one_hsc_solve_and_one_bds_solve_per_column(hsc_model, bds_model,
                                                                monkeypatch):
    calls, solve_ivp = [], models.solve_ivp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(models, "solve_ivp", counting)
    full_measurements(hsc_model, 64)
    assert len(calls) == 1
    full_measurements(bds_model, 64)
    assert len(calls) == 1 + 33


def _solves_match_scipy(model, s1, s2, **tols):
    """Run pgf_block with each of its solves checked against scipy's RK45, at the
    tolerances pgf_block passes or those tols overrides; scipy's results."""
    ours, refs = models.solve_ivp, []

    def both(fun, t_span, y0, **kwargs):
        kwargs.update(tols)
        sol = ours(fun, t_span, y0, **kwargs)
        ref = scipy.integrate.solve_ivp(fun, t_span, y0, method="RK45", **kwargs)
        assert (sol.success, sol.nfev) == (ref.success, ref.nfev)
        assert sol.y[:, -1].tobytes() == ref.y[:, -1].tobytes()
        refs.append(ref)
        return sol

    with mock.patch.object(models, "solve_ivp", both):
        pgf_block(model, s1, s2)
    return refs


def _rejected_steps(ref):
    return (ref.nfev - 2) // 6 - (len(ref.t) - 1)  # 2 start-up evaluations, 6 per attempt


rates = st.floats(0.01, 2.0)
tols = st.sampled_from([1e-5, 1e-10, 1e-13])


@st.composite
def any_models(draw):
    kind = draw(st.sampled_from(["hsc", "bds"]))
    a, b, c = draw(rates), draw(rates), draw(rates)
    if kind == "bds" and draw(st.booleans()):
        c = a  # critical rates gamma = delta
    init = (draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    return ModelSpec(kind=kind, rates=(RatesHSC if kind == "hsc" else RatesBDS)(a, b, c),
                     t=draw(st.floats(0.05, 200.0)), init=(max(init[0], 1), init[1]))


@settings(max_examples=30, deadline=None)
@given(any_models(), tols, tols, st.lists(in_disk, min_size=1, max_size=3),
       st.lists(on_circle, min_size=1, max_size=3))
def test_solve_ivp_is_scipys_rk45(model, rtol, atol, s1, s2):
    assert _solves_match_scipy(model, s1, s2, rtol=rtol, atol=atol)


def test_solve_ivp_is_scipys_rk45_through_rejected_steps():
    # gamma = delta = 3 at s2 = 1 rejects 8 steps: the factor rules after a rejection
    model = ModelSpec(kind="bds", rates=RatesBDS(3.0, 1.0, 3.0), t=50.0, init=(1, 0))
    refs = _solves_match_scipy(model, [0.5, -1.0, 1j], [1.0, -1.0])
    assert _rejected_steps(refs[0]) == 8


def test_a_blow_up_raises_integration_failure():
    # y' = y^2, y(0) = 1 blows up at t = 1: scipy fails after 7802 evaluations
    rhs, y0 = (lambda t, y: y * y), np.array([1 + 0j])
    sol = models.solve_ivp(rhs, (0.0, 2.0), y0, rtol=models._RTOL, atol=models._ATOL)
    ref = scipy.integrate.solve_ivp(rhs, (0.0, 2.0), y0, method="RK45", rtol=models._RTOL,
                                    atol=models._ATOL)
    assert (sol.success, sol.nfev, sol.message) == (False, 7802, ref.message) == (
        ref.success, ref.nfev, ref.message)
    assert sol.y[:, -1].tobytes() == ref.y[:, -1].tobytes()
    with pytest.raises(IntegrationFailure, match="^Required step size is less than spacing"):
        models._integrate(rhs, 2.0, y0)

