"""Shared fixtures: benchmark-scale models and cached measurement grids."""

import numpy as np
import pytest

from branchcs import grid
from branchcs.grid import full_measurements, invert_full
from branchcs.models import ModelSpec, RatesBDS, RatesHSC

HSC_RATES = RatesHSC(rho=0.125, nu=0.104, mu=0.147)
BDS_RATES = RatesBDS(gamma=0.016, sigma=0.004, delta=0.019)


@pytest.fixture(scope="session")
def hsc_model() -> ModelSpec:
    return ModelSpec(kind="hsc", rates=HSC_RATES, t=1.0, init=(1, 0))


@pytest.fixture(scope="session")
def bds_model() -> ModelSpec:
    return ModelSpec(kind="bds", rates=BDS_RATES, t=0.35, init=(1, 0))


@pytest.fixture(scope="session")
def hsc64_full(hsc_model) -> np.ndarray:
    return full_measurements(hsc_model, 64)


@pytest.fixture(scope="session")
def hsc64_truth(hsc64_full) -> np.ndarray:
    return invert_full(hsc64_full)


@pytest.fixture(scope="session")
def bds64_full(bds_model) -> np.ndarray:
    return full_measurements(bds_model, 64)


@pytest.fixture(scope="session")
def bds64_truth(bds64_full) -> np.ndarray:
    return invert_full(bds64_full)


@pytest.fixture
def small_blocks(monkeypatch):
    """Row blocks of 96 entries: an N=32 grid splits into 11 blocks of 3 rows, the last of 2."""
    monkeypatch.setattr(grid, "BLOCK_ELEMENTS", 96)
    assert [b.stop - b.start for b in grid.row_blocks(32)] == [3] * 10 + [2]
