"""Fourier-domain measurement grids and exact transition-probability inversion.

Convention: the forward transform is the unnormalized DFT with kernel
e^{-2 pi i l u / N} (numpy fft2); the 1/N^2 factor is applied exactly once,
here in invert_full and in the ADMM module's final rescale.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import MTooLarge, NonSquareGrid
from .models import DEFAULT_ODE, ModelSpec, OdeConfig, pgf_many

__all__ = [
    "MeasurementSet",
    "BLOCK_ELEMENTS",
    "check_grid_size",
    "row_blocks",
    "BlockPool",
    "block_pool",
    "map_blocks",
    "Subgrid",
    "full_measurements",
    "invert_full",
    "sampled_ifft2",
    "column_ifft",
    "column_fft",
    "fft_rows",
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


def check_grid_size(n: int) -> None:
    """Raise ValueError unless n is a power of two >= 2, the grid sizes the FFT layout needs."""
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 2, got {n}")


def _pgf_block(model: ModelSpec, n: int, rows, cols, ode_cfg: OdeConfig,
               out: np.ndarray | None = None) -> np.ndarray:
    """PGF values at the Fourier nodes (e^{2 pi i u/N}, e^{2 pi i v/N}), u in rows, v in cols.

    Columns share s2, so each column is one batched ODE solve.  Written into
    out (len(rows) x len(cols)) when given, else into a new array.
    """
    check_grid_size(n)
    s1 = np.exp(2j * np.pi * np.asarray(rows) / n)
    b = np.empty((len(s1), len(cols)), dtype=complex) if out is None else out
    for col, v in enumerate(cols):
        b[:, col] = pgf_many(model, s1, np.exp(2j * np.pi * v / n), ode_cfg)
    return b


def full_measurements(model: ModelSpec, n: int,
                      ode_cfg: OdeConfig = DEFAULT_ODE) -> np.ndarray:
    """N x N grid of PGF values at the Fourier nodes (e^{2 pi i u/N}, e^{2 pi i v/N}).

    Columns 0..N/2 are computed; columns above N/2 come from conjugate
    symmetry (the coefficients are real).
    """
    half = n // 2 + 1
    b = np.empty((n, n), dtype=complex)
    _pgf_block(model, n, np.arange(n), range(half), ode_cfg, out=b[:, :half])
    refl = (n - np.arange(n)) % n
    for v in range(half, n):
        b[:, v] = np.conj(b[refl, n - v])
    return b


def invert_full(b_full: np.ndarray) -> np.ndarray:
    """Exact transition probabilities: real(FFT2(B)) / N^2."""
    if b_full.ndim != 2 or b_full.shape[0] != b_full.shape[1]:
        raise NonSquareGrid(f"expected square grid, got {b_full.shape}")
    n = b_full.shape[0]
    return np.real(np.fft.fft2(b_full)) / n**2


# Row blocks of the restricted transforms hold about this many grid entries
# (2**15 complex values, 512 KB, so a block's row transform and the work done
# on it stay in cache).  The partition depends only on the grid, never on the
# number of workers, so whatever is reduced block by block adds up in the
# same order for any thread count.
BLOCK_ELEMENTS = 1 << 15


def row_blocks(n: int) -> list[slice]:
    """Consecutive row slices of an n x n grid, of about BLOCK_ELEMENTS entries each;
    the last may be short."""
    step = max(1, BLOCK_ELEMENTS // n)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


class BlockPool:
    """Helper threads that, with the calling thread, work through row blocks.

    Each thread takes the next block not yet taken until none is left, so a
    thread the host stalls holds up one block and the others go on; there is
    no hand-off per block, only one start and one join per map.
    """

    def __init__(self, helpers: int):
        self.helpers = helpers
        self._executor = ThreadPoolExecutor(helpers)

    def map(self, fn, blocks: list[slice]) -> list:
        """[fn(b) for b in blocks], in block order."""
        results = [None] * len(blocks)
        lock = threading.Lock()
        untaken = iter(range(len(blocks)))

        def drain():
            while True:
                with lock:
                    i = next(untaken, None)
                if i is None:
                    return
                results[i] = fn(blocks[i])

        # no more helpers than blocks the caller leaves them
        helpers = [self._executor.submit(drain)
                   for _ in range(min(self.helpers, len(blocks) - 1))]
        try:
            drain()
        finally:
            for helper in helpers:
                helper.result()  # waits, and raises what the helper raised
        return results

    def close(self):
        self._executor.shutdown()


@contextmanager
def block_pool(threads: int, n: int):
    """A BlockPool that, with the caller, runs min(threads, row blocks of an n x n
    grid) threads, or None when that is 1."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    helpers = min(threads, len(row_blocks(n))) - 1
    if helpers == 0:
        yield None
        return
    pool = BlockPool(helpers)
    try:
        yield pool
    finally:
        pool.close()


def map_blocks(fn, blocks: list[slice], pool: BlockPool | None = None) -> list:
    """[fn(b) for b in blocks], on pool's threads and the caller's when a pool is given."""
    return [fn(b) for b in blocks] if pool is None else pool.map(fn, blocks)


class Subgrid:
    """An index set J of an n x n grid and what the restricted transforms derive
    from it: the row blocks and the flat positions of columns J in a row block.
    Made once and passed as indices, it saves rederiving them on every call."""

    def __init__(self, n: int, indices):
        self.n = n
        self.j = np.asarray(indices, dtype=int)
        if self.j.ndim != 1 or (self.j.size and not 0 <= self.j.min() <= self.j.max() < n):
            raise ValueError(f"indices must be a 1-d array of values in [0, {n})")
        self.blocks = row_blocks(n)
        self.flat = n * np.arange(self.blocks[0].stop)[:, None] + self.j

    @classmethod
    def of(cls, n: int | None, indices) -> Subgrid:
        """indices itself if it is a Subgrid, else the Subgrid of it in an n x n grid."""
        return indices if isinstance(indices, cls) else cls(n, indices)

    def gather(self, rows: np.ndarray, r: slice, cols: np.ndarray) -> None:
        """Columns J of rows, the rows r of an n x n grid, into cols[r]."""
        # the constructor checked J, so clip never clips
        np.take(rows.reshape(-1), self.flat[:len(rows)], out=cols[r], mode="clip")


def sampled_ifft2(x, indices=None, pool: BlockPool | None = None) -> np.ndarray:
    """IFFT2(x)[J, J] by N row then M column transforms; plain ifft2 if indices is None.

    indices is J, or a Subgrid of it.  The row transforms run in row blocks,
    on pool's threads if given.
    """
    if indices is None:
        return np.fft.ifft2(x)
    sub = Subgrid.of(len(x), indices)
    cols = np.empty((sub.n, len(sub.j)), dtype=complex)
    map_blocks(lambda r: sub.gather(np.fft.ifft(x[r], axis=1), r, cols), sub.blocks, pool)
    return column_ifft(cols, sub)


def column_ifft(cols: np.ndarray, indices=None) -> np.ndarray:
    """IFFT2(x)[J, J] from cols, the N x M row IFFTs of x gathered at columns J:
    the M column transforms that finish sampled_ifft2.  indices is J, or a
    Subgrid of it; None means every index.  cols is left as it is."""
    w = np.fft.ifft(cols, axis=0)
    return w if indices is None else w[Subgrid.of(len(cols), indices).j]


def column_fft(c, indices=None, n: int | None = None) -> np.ndarray:
    """The M column transforms that start embedded_fft2: c put on rows J of an
    n x M zero array, transformed along axis 0.  Row u of FFT2 of c on J x J is
    that array's row u put at columns J and transformed (fft_rows).  indices
    is J, or a Subgrid of it (which gives n); plain fft2 if indices is None."""
    if indices is None:
        return np.fft.fft2(c)
    if n is None and not isinstance(indices, Subgrid):
        raise ValueError("the column transforms need the grid size n when indices are given")
    sub = Subgrid.of(n, indices)
    cols = np.zeros((sub.n, len(sub.j)), dtype=complex)
    cols[sub.j] = c
    return np.fft.fft(cols, axis=0, out=cols)


def fft_rows(cols: np.ndarray, sub: Subgrid, out: np.ndarray) -> np.ndarray:
    """The rows of FFT2 whose column transforms (rows of column_fft) are cols, at
    most a row block's worth, into out, an array of len(cols) rows of n: each
    row alone, so a row has the same bits whichever rows are made with it."""
    out.fill(0)
    out.reshape(-1)[sub.flat[:len(out)]] = cols  # scatter into columns J
    return np.fft.fft(out, axis=1, out=out)


# a row of FFT2 whose L1 bound is at most tau (1 - _MARGIN) is not made
_MARGIN = 1e-9


def _screen(cols: np.ndarray, tau: float) -> np.ndarray:
    """Per row u of F = FFT2(C), whether it can hold an entry above tau.  Row u is
    the DFT of its M nonzeros cols[u], so max_v |F[u, v]| <= sum_j |cols[u, j]|;
    the margin covers the rounding of the FFT and of the sum.  A row whose bound
    is not finite passes, so that what it holds is made and seen."""
    return ~(np.abs(cols).sum(axis=1) <= tau * (1.0 - _MARGIN))


def _groups(rows: np.ndarray, h: int) -> list:
    """The rows of a mask of grid rows, in order, in groups of at most h."""
    made = rows.nonzero()[0]
    return [made[i:i + h] for i in range(0, len(made), h)]


def _is_run(rows: np.ndarray) -> bool:
    """Whether the sorted rows are consecutive."""
    return rows[-1] - rows[0] == len(rows) - 1


def _places(rows: np.ndarray, idx: np.ndarray, row: np.ndarray, n: int) -> np.ndarray:
    """Where the flat grid indices idx, in rows row among the sorted rows, are in
    a buffer holding those rows packed in order, n entries each."""
    if len(rows) and _is_run(rows):
        return idx - rows[0] * n
    return idx + (rows.searchsorted(row) - row) * n


def _row_iffts(idx: np.ndarray, row: np.ndarray, values: np.ndarray, sub: Subgrid,
               buf: np.ndarray, g: np.ndarray) -> int:
    """The row IFFTs of the grid that holds values at the sorted flat indices idx
    (in rows row) and 0 elsewhere, gathered at columns J into the columns of g
    (M x N), of only the rows that hold an index: the others are zeroed.  The
    rows are packed, in order, len(buf) at a time; returns how many were made."""
    rows = np.zeros(sub.n, dtype=bool)
    rows[row] = True
    g.fill(0)
    groups = _groups(rows, len(buf))
    for some in groups:
        lo, hi = row.searchsorted((some[0], some[-1] + 1))
        packed = buf[:len(some)]
        packed.fill(0)
        packed.reshape(-1)[_places(some, idx[lo:hi], row[lo:hi], sub.n)] = values[lo:hi]
        y = np.fft.ifft(packed, axis=1, out=packed).T[sub.j]  # columns J of the rows
        if _is_run(some):
            g[:, some[0]:some[-1] + 1] = y
        else:  # by flat indices: an index array on g's second axis is much slower
            g.reshape(-1)[np.arange(len(sub.j))[:, None] * sub.n + some] = y
    return sum(map(len, groups))


def embedded_fft2(c, indices=None, n: int | None = None, pool: BlockPool | None = None):
    """FFT2 of c put on J x J of an n x n zero grid, by M column then n row transforms;
    plain fft2 if indices is None.

    indices is J, or a Subgrid of it (which gives n).  The rows are made row
    block by row block, on pool's threads if given, in a new n x n array.
    """
    if indices is None:
        return np.fft.fft2(c)
    if n is None and not isinstance(indices, Subgrid):
        raise ValueError("embedded_fft2 needs the grid size n when indices are given")
    sub = Subgrid.of(n, indices)
    cols = column_fft(c, sub)
    out = np.empty((sub.n, sub.n), dtype=complex)
    map_blocks(lambda r: fft_rows(cols[r], sub, out[r]), sub.blocks, pool)
    return out


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
    b = _pgf_block(model, n, indices, indices, ode_cfg)
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
    if np.shape(s_hat) != np.shape(s_true):
        raise ValueError(f"shape mismatch: {np.shape(s_hat)} vs {np.shape(s_true)}")
    return float(np.linalg.norm(s_hat - s_true) / np.linalg.norm(s_true))
