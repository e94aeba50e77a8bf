"""Fourier-domain measurement grids and exact transition-probability inversion.

Convention: the forward transform is the unnormalized DFT with kernel
e^{-2 pi i l u / N} (numpy fft2); the 1/N^2 factor is applied exactly once,
here in invert_full and in the ADMM module's final rescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MTooLarge, NonSquareGrid
from .models import DEFAULT_ODE, ModelSpec, OdeConfig, pgf_many

__all__ = [
    "MeasurementSet",
    "full_measurements",
    "invert_full",
    "sampled_ifft2",
    "embedded_fft2",
    "sample_indices",
    "sampled_measurements",
    "embed_measurements",
    "default_m",
    "rel_l2_error",
]


@dataclass(frozen=True)
class MeasurementSet:
    """Sampled PGF measurements: index set J, the M x M matrix B, and the seed."""

    n: int
    indices: np.ndarray
    b: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        m = len(self.indices)
        if self.b.shape != (m, m):
            raise ValueError("b must be M x M with M = len(indices)")
        idx = np.asarray(self.indices)
        if len(np.unique(idx)) != m or idx.min() < 0 or idx.max() >= self.n:
            raise ValueError("indices must be distinct and in [0, n)")

    @property
    def m(self) -> int:
        return len(self.indices)


def _require_pow2(n: int):
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 2, got {n}")


def full_measurements(model: ModelSpec, n: int,
                      ode_cfg: OdeConfig = DEFAULT_ODE) -> np.ndarray:
    """N x N grid of PGF values at the Fourier nodes (e^{2 pi i u/N}, e^{2 pi i v/N}).

    Columns share s2, so each column is one batched ODE solve; columns above
    N/2 come from conjugate symmetry (the coefficients are real).
    """
    _require_pow2(n)
    s1 = np.exp(2j * np.pi * np.arange(n) / n)
    b = np.empty((n, n), dtype=complex)
    for v in range(n // 2 + 1):
        s2 = np.exp(2j * np.pi * v / n)
        b[:, v] = pgf_many(model, s1, s2, ode_cfg)
    refl = (n - np.arange(n)) % n
    for v in range(n // 2 + 1, n):
        b[:, v] = np.conj(b[refl, n - v])
    return b


def invert_full(b_full: np.ndarray) -> np.ndarray:
    """Exact transition probabilities: real(FFT2(B)) / N^2."""
    if b_full.ndim != 2 or b_full.shape[0] != b_full.shape[1]:
        raise NonSquareGrid(f"expected square grid, got {b_full.shape}")
    n = b_full.shape[0]
    return np.real(np.fft.fft2(b_full)) / n**2


def sampled_ifft2(x, indices=None) -> np.ndarray:
    """IFFT2(x)[J, J] by N row then M column transforms; plain ifft2 if indices is None."""
    if indices is None:
        return np.fft.ifft2(x)
    j = np.asarray(indices, dtype=int)
    cols = np.take(np.fft.ifft(x, axis=1), j, axis=1)
    return np.fft.ifft(cols, axis=0, out=cols)[j]


def embedded_fft2(c, indices=None, n: int | None = None) -> np.ndarray:
    """FFT2 of c put on J x J of an n x n zero grid, by M column then n row transforms;
    plain fft2 if indices is None."""
    if indices is None:
        return np.fft.fft2(c)
    if n is None:
        raise ValueError("embedded_fft2 needs the grid size n when indices are given")
    j = np.asarray(indices, dtype=int)
    cols = np.zeros((n, len(j)), dtype=complex)
    cols[j] = c
    out = np.zeros((n, n), dtype=complex)
    # flat-index scatter into columns J: about twice as fast as out[:, j] = ...
    np.put(out, np.add.outer(n * np.arange(n), j), np.fft.fft(cols, axis=0))
    return np.fft.fft(out, axis=1, out=out)


def sample_indices(n: int, m: int, seed: int) -> np.ndarray:
    """m distinct indices drawn uniformly from [0, n), sorted; deterministic in seed."""
    if m > n:
        raise MTooLarge(f"cannot sample {m} distinct indices from [0, {n})")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=m, replace=False))


def sampled_measurements(model: ModelSpec, n: int, indices,
                         ode_cfg: OdeConfig = DEFAULT_ODE,
                         seed: int | None = None) -> MeasurementSet:
    """PGF values at the M x M subgrid J x J; performs exactly M^2 evaluations."""
    indices = np.asarray(indices, dtype=int)
    s1 = np.exp(2j * np.pi * indices / n)
    b = np.empty((len(indices), len(indices)), dtype=complex)
    for col, v in enumerate(indices):
        s2 = np.exp(2j * np.pi * v / n)
        b[:, col] = pgf_many(model, s1, s2, ode_cfg)
    return MeasurementSet(n=n, indices=indices, b=b, seed=seed)


def embed_measurements(ms: MeasurementSet) -> np.ndarray:
    """N x N zero grid with B written into rows/cols J."""
    a = np.zeros((ms.n, ms.n), dtype=complex)
    a[np.ix_(ms.indices, ms.indices)] = ms.b
    return a


def default_m(n: int, k_sparsity: int) -> int:
    """Default measurement count M = min(floor(sqrt(10 K log N)), floor(N - N/5)).

    The cap is four fifths of N; with k_sparsity = 126 this reproduces the
    HSC benchmark M column (51, 78, 83, 88, 93 for N = 64..1024).
    """
    if n < 2 or k_sparsity < 1:
        raise ValueError("need n >= 2 and k_sparsity >= 1")
    log_term = math.floor(math.sqrt(10.0 * k_sparsity * math.log(n)))
    cap = math.floor(n - n / 5)
    return min(log_term, cap, n)


def rel_l2_error(s_hat: np.ndarray, s_true: np.ndarray) -> float:
    """Relative Frobenius recovery error ||s_hat - s_true|| / ||s_true||."""
    return float(np.linalg.norm(s_hat - s_true) / np.linalg.norm(s_true))
