"""Property tests: PGF invariants for both models, and the BPM1 file format."""

import cmath

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from branchcs.matio import read_matrix, write_matrix
from branchcs.models import ModelSpec, RatesBDS, RatesHSC, pgf

# ODE tolerance of the type-1 solve is 1e-10; these allow for it
ODE_SLACK = 1e-8

rate = st.floats(1e-3, 0.5)
angle = st.floats(-np.pi, np.pi)


@st.composite
def models(draw):
    """A model of either kind with random rates, time and initial state;
    BDS rates include the critical gamma = delta."""
    if draw(st.booleans()):
        rates = RatesHSC(rho=draw(rate), nu=draw(rate), mu=draw(rate))
        kind = "hsc"
    else:
        gamma = draw(rate)
        delta = gamma if draw(st.booleans()) else draw(rate)
        rates, kind = RatesBDS(gamma=gamma, sigma=draw(rate), delta=delta), "bds"
    init = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    if sum(init) == 0:
        init = (1, 0)
    return ModelSpec(kind=kind, rates=rates, t=draw(st.floats(0.05, 5.0)), init=init)


@settings(max_examples=40, deadline=None)
@given(models(), angle, angle)
def test_pgf_is_bounded_on_the_unit_torus(model, a1, a2):
    assert abs(pgf(model, cmath.exp(1j * a1), cmath.exp(1j * a2))) <= 1.0 + ODE_SLACK


@settings(max_examples=40, deadline=None)
@given(models(), angle, angle)
def test_pgf_is_conjugate_symmetric(model, a1, a2):
    # the coefficients are real; the exact path mirrors grid columns by this
    s1, s2 = cmath.exp(1j * a1), cmath.exp(1j * a2)
    mirrored = pgf(model, s1.conjugate(), s2.conjugate())
    assert abs(mirrored - pgf(model, s1, s2).conjugate()) <= ODE_SLACK


@settings(max_examples=40, deadline=None)
@given(models())
def test_pgf_is_one_at_one(model):
    assert abs(pgf(model, 1.0, 1.0) - 1.0) <= 1e-12


shapes = st.tuples(st.integers(1, 9), st.integers(1, 9))
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shapes, st.booleans(), st.data())
def test_bpm1_round_trips(tmp_path, shape, is_complex, data):
    n = shape[0] * shape[1] * (2 if is_complex else 1)
    values = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)), dtype=float)
    arr = (values[0::2] + 1j * values[1::2] if is_complex else values).reshape(shape)
    path = tmp_path / "m.bpm"
    write_matrix(path, arr)
    back = read_matrix(path)
    assert back.shape == shape and np.iscomplexobj(back) == is_complex
    assert np.array_equal(back, arr)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shapes, st.booleans(), st.data())
def test_bpm1_rejects_damaged_files_by_name(tmp_path, shape, is_complex, data):
    path = tmp_path / "damaged.bpm"
    write_matrix(path, np.zeros(shape, dtype=complex if is_complex else float))
    raw = path.read_bytes()
    damage = data.draw(st.sampled_from(["truncate", "trail", "magic"]))
    if damage == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif damage == "trail":
        raw += data.draw(st.binary(min_size=1, max_size=24))
    else:
        raw = data.draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"BPM1")) + raw[4:]
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="damaged.bpm"):
        read_matrix(path)
