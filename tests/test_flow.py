"""The HSC PGF grid as one Moebius-flow solve, against per-point Riccati solves."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchcs import models
from branchcs.grid import full_measurements
from branchcs.models import ModelSpec, pgf_block
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
