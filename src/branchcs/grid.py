"""Fourier-domain measurement grids and exact transition-probability inversion.

Convention: the forward transform is the unnormalized DFT with kernel
e^{-2 pi i l u / N} (numpy fft2); the 1/N^2 factor is applied exactly once:
by the inverse transforms in invert_full (the two passes of irfft2), and where
a solver writes s_hat, Re(U) / N^2 for ADMM and Re(S) / N^2 for FISTA.

Both solvers make FFT2 of an M x M block on J x J (F for ADMM, the gradient for
FISTA) through the restricted transforms here: M column transforms (column_fft),
then rows of the grid only as they are needed (fft_rows).  A solver's sparse
iterate sits on a Support, sorted flat indices and, per grid row, whether the
row holds enough of them to be worked by transforms or takes direct sums over
its entries (_DIRECT_COST); screened_fft is the one pass both make F at their
support by, and finds the entries off it above a threshold, making only the
rows whose L1 bound can cross it (El Ghaoui et al. 2012).  Only the support
decides how a row is worked, so the screen changes no bit.  The buffers the
passes work in belong to the Subgrid a run builds for J: no run sees another's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import MTooLarge, NonSquareGrid
from .models import ModelSpec, pgf_block

__all__ = [
    "MeasurementSet",
    "BLOCK_ELEMENTS",
    "check_grid_size",
    "row_blocks",
    "Subgrid",
    "Support",
    "screened_fft",
    "full_measurements",
    "invert_full",
    "sampled_ifft2",
    "column_ifft",
    "column_fft",
    "fft_rows",
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


def _pgf_block(model: ModelSpec, n: int, rows, cols, out=None) -> np.ndarray:
    """PGF values at the Fourier nodes (e^{2 pi i u/N}, e^{2 pi i v/N}), u in rows, v in cols,
    written into out if it is given."""
    check_grid_size(n)
    return pgf_block(model, np.exp(2j * np.pi * np.asarray(rows) / n),
                     np.exp(2j * np.pi * np.asarray(cols) / n), out)


def full_measurements(model: ModelSpec, n: int) -> np.ndarray:
    """N x N grid of PGF values at the Fourier nodes (e^{2 pi i u/N}, e^{2 pi i v/N}).

    Columns 0..N/2 are computed, in place; column v above N/2 is conj of
    column N - v with its rows reflected, u to (N - u) mod N (the coefficients
    are real): row 0 and rows 1..N-1 are each one reversed-slice copy.
    """
    half = n // 2 + 1
    b = np.empty((n, n), dtype=complex)
    _pgf_block(model, n, np.arange(n), np.arange(half), out=b[:, :half])
    np.conj(b[0, half - 2:0:-1], out=b[0, half:])
    np.conj(b[:0:-1, half - 2:0:-1], out=b[1:, half:])
    return b


def invert_full(b_full: np.ndarray) -> np.ndarray:
    """Exact transition probabilities real(FFT2(B)) / N^2, for B the grid of a real
    matrix, which its columns 0..N/2 fix: only those are read.  The result is
    IFFT2(conj B), made as irfft2 makes it from their conj (column transforms,
    here in place, then real row transforms), with irfft2's bits."""
    if b_full.ndim != 2 or b_full.shape[0] != b_full.shape[1]:
        raise NonSquareGrid(f"expected square grid, got {b_full.shape}")
    n = b_full.shape[0]
    half = np.conj(b_full[:, :n // 2 + 1])
    return np.fft.irfft(np.fft.ifft(half, axis=0, out=half), n=n, axis=1)


# The solvers make the rows of a grid a row block's worth at a time: about
# this many entries (2**15 complex values, 512 KB, so a block's row transforms
# and the work done on them stay in cache).  The blocks depend only on the
# grid, so what is summed block by block adds up in one fixed order.
BLOCK_ELEMENTS = 1 << 15


def row_blocks(n: int) -> list[slice]:
    """Consecutive row slices of an n x n grid, of about BLOCK_ELEMENTS entries each;
    the last may be short."""
    step = max(1, BLOCK_ELEMENTS // n)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


# Direct sums over a row's entries cost M operations an entry each way, and the
# row's transforms about N log2 N.  A row takes them when it holds at most
# N log2 N / (_DIRECT_COST M) of a support's entries: at the default M none
# does at N <= 128.
_DIRECT_COST = 16

_NONE = np.empty(0, dtype=np.intp)


class Subgrid:
    """An index set J of an n x n grid and the flat positions of columns J in a
    row block's worth of rows, which the row transforms scatter through; and the
    buffers of the run it is built for, made when first used: u, re and above, a
    row block's worth of complex rows, their moduli and a mask, and g, the M x N
    row IFFTs gathered at columns J that Support.iffts writes (0 until then)."""

    u = cached_property(lambda self: np.empty((len(self.flat), self.n), dtype=complex))
    re = cached_property(lambda self: np.empty((len(self.flat), self.n)))
    above = cached_property(lambda self: np.empty((len(self.flat), self.n), dtype=bool))
    g = cached_property(lambda self: np.zeros((len(self.j), self.n), dtype=complex))

    def __init__(self, n: int, indices):
        self.n = n
        self.j = np.asarray(indices, dtype=int)
        if self.j.ndim != 1 or (self.j.size and not 0 <= self.j.min() <= self.j.max() < n):
            raise ValueError(f"indices must be a 1-d array of values in [0, {n})")
        self.flat = n * np.arange(row_blocks(n)[0].stop)[:, None] + self.j

    @cached_property
    def direct_max(self) -> int:
        """The most entries of a support a row may hold and take direct sums
        rather than transforms (_DIRECT_COST)."""
        return int(self.n * math.log2(self.n)) // (_DIRECT_COST * max(len(self.j), 1))

    @cached_property
    def twiddles(self) -> np.ndarray:
        """The n x M table e^{-2 pi i v j / n}, row v and column j in J, made once
        per Subgrid: entry (u, v) of FFT2 of a block on J x J is row u of its
        column transforms times row v of the table, summed."""
        w = np.exp(np.arange(self.n) * (-2j * np.pi / self.n))
        return w[np.multiply.outer(np.arange(self.n), self.j) % self.n]


def sampled_ifft2(x, sub: Subgrid) -> np.ndarray:
    """IFFT2(x)[J, J] by N row then M column transforms."""
    return column_ifft(np.fft.ifft(x, axis=1)[:, sub.j], sub)


def column_ifft(cols: np.ndarray, sub: Subgrid | None = None) -> np.ndarray:
    """IFFT2(x)[J, J] from cols, the N x M row IFFTs of x gathered at columns J:
    the M column transforms that finish sampled_ifft2; every row of them if sub
    is None.  cols is left as it is."""
    w = np.fft.ifft(cols, axis=0)
    return w if sub is None else w[sub.j]


def column_fft(c, sub: Subgrid | None = None) -> np.ndarray:
    """The M column transforms that start FFT2 of c on J x J: c put on rows J of
    an n x M zero array, transformed along axis 0.  Row u of FFT2 of c on J x J is
    that array's row u put at columns J and transformed (fft_rows).  Plain fft2
    if sub is None."""
    if sub is None:
        return np.fft.fft2(c)
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


def _fft_points(cols: np.ndarray, row: np.ndarray, col: np.ndarray, sub: Subgrid) -> np.ndarray:
    """Entries (row, col) of the FFT2 whose column transforms are cols, each a
    direct sum over J: what fft_rows makes them in, to rounding, for M
    operations an entry in place of a transform of the row."""
    return np.einsum("pm,pm->p", cols.take(row, 0), sub.twiddles.take(col, 0))


# a row of FFT2 whose bound is at most tau (1 - _MARGIN) is not made
_MARGIN = 1e-9


def _row_l1(cols: np.ndarray) -> np.ndarray:
    """Per row u of F = FFT2(C), sum_j |cols[u, j]|, a bound on max_v |F[u, v]|:
    row u is the DFT of its M nonzeros cols[u] (El Ghaoui et al. 2012)."""
    return np.add.reduce(np.abs(cols), axis=1)


def _screen(bound: np.ndarray, tau: float) -> np.ndarray:
    """Per row of FFT2, whether it can hold an entry above tau, given bound, per row
    at least its largest modulus: above tau (1 - _MARGIN), which covers the rounding
    of the FFT and of the bound, or not finite, so that what it holds is seen."""
    return ~(bound <= tau * (1.0 - _MARGIN))


def _groups(rows: np.ndarray, h: int) -> list:
    """The rows of a mask of grid rows, in order, in groups of at most h."""
    made = rows.nonzero()[0]
    return [made[i:i + h] for i in range(0, len(made), h)]


def _is_run(rows: np.ndarray) -> bool:
    """Whether the sorted rows are consecutive."""
    return rows[-1] - rows[0] == len(rows) - 1


def _places(rows: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Where the flat grid indices idx, in some of the sorted rows, are in a
    buffer holding those rows packed in order, n entries each."""
    if _is_run(rows):
        return idx - rows[0] * n
    row = idx // n
    return idx + (rows.searchsorted(row) - row) * n


class Support(NamedTuple):
    """Sorted flat indices of an n x n grid and how a solver works the grid's rows
    at them: dense, per row, whether it holds more than direct_max of them, so
    that its transforms are made; and direct, the places of the indices in the
    other rows, with their rows and columns, where direct sums stand in for the
    transforms.  A solver keeps the values it has there in arrays aligned with idx."""

    idx: np.ndarray
    dense: np.ndarray
    direct: np.ndarray = _NONE
    direct_row: np.ndarray = _NONE
    direct_col: np.ndarray = _NONE

    @classmethod
    def of(cls, sub: Subgrid, idx: np.ndarray) -> Support:
        row = idx // sub.n
        dense = np.bincount(row, minlength=sub.n) > sub.direct_max
        direct = np.logical_not(dense.take(row)).nonzero()[0] if sub.direct_max else _NONE
        if not len(direct):
            return cls(idx, dense)
        at_row = row.take(direct)
        return cls(idx, dense, direct, at_row, idx.take(direct) - at_row * sub.n)

    @classmethod
    def kept(cls, sub: Subgrid, p: np.ndarray, m: int,
             keep: np.ndarray) -> tuple[Support, np.ndarray]:
        """The Support of the entries of p where keep holds, p being a Support's m
        indices then other sorted ones (screened_fft's), and their places in p."""
        kept = keep.nonzero()[0]
        if len(p) > m:  # two sorted runs to merge
            kept = kept[np.argsort(p.take(kept), kind="stable")]
        return cls.of(sub, p.take(kept)), kept

    def _at(self, rows: np.ndarray, n: int, made: np.ndarray) -> tuple[slice, np.ndarray]:
        """The places in idx of its entries in the sorted rows, each of which made
        holds, and their places in a buffer holding those rows packed in order:
        a slice, or where other rows of the span hold entries, an index array."""
        lo, hi = self.idx.searchsorted((rows[0] * n, (rows[-1] + 1) * n))
        at = slice(lo, hi)
        if not _is_run(rows) and len(self.direct):  # rows between may hold direct entries
            at = lo + made.take(self.idx[at] // n).nonzero()[0]
        return at, _places(rows, self.idx[at], n)

    def iffts(self, values: np.ndarray, sub: Subgrid) -> int:
        """The row IFFTs of the grid that holds values (aligned with idx) at idx and
        0 elsewhere, gathered at columns J into sub.g (M x N): transforms of the
        dense rows, a row block's worth at a time, direct sums at the other entries,
        and 0 in the rows that hold none.  Returns how many rows were transformed."""
        n, m, g = sub.n, len(sub.j), sub.g
        g.fill(0)
        groups = _groups(self.dense, len(sub.u))
        for rows in groups:
            at, places = self._at(rows, n, self.dense)
            packed = sub.u[:len(rows)]
            packed.fill(0)
            packed.reshape(-1)[places] = values[at]
            y = np.fft.ifft(packed, axis=1, out=packed).T[sub.j]  # columns J of the rows
            if _is_run(rows):
                g[:, rows[0]:rows[-1] + 1] = y
            else:  # by flat indices: an index array on g's second axis is much slower
                g.reshape(-1)[np.arange(m)[:, None] * n + rows] = y
        if len(self.direct):
            _point_iffts(self.direct_row, self.direct_col, values.take(self.direct), sub)
        return sum(map(len, groups))


def screened_fft(cols: np.ndarray, t: Support, bound: np.ndarray, tau: float,
                 sub: Subgrid) -> tuple[np.ndarray, np.ndarray, int]:
    """One screened pass over F = FFT2 of the block whose column transforms are
    cols: p, t's indices followed by the entries off t where |F| > tau (sorted),
    F at p, and how many rows of F were made.  The rows made are those whose
    bound (per row at least max |F| off t) can cross tau (_screen), and t's dense
    rows, a row block's worth at a time; F at t's other entries is direct sums.
    Each row made has its largest |F| off p written into bound: exact there, it
    is what a solver may carry on (Bonnefoy et al. 2015)."""
    n = sub.n
    made = _screen(bound, tau)
    made |= t.dense
    f = np.empty(len(t.idx), dtype=complex)  # F on t, written as its rows are made
    found, f_found = [t.idx], [f]
    groups = _groups(made, len(sub.u))
    for rows in groups:
        v = fft_rows(cols[rows], sub, sub.u[:len(rows)]).reshape(-1)
        at, on_t = t._at(rows, n, made)
        f[at] = v.take(on_t)
        re = np.abs(v, out=sub.re[:len(rows)].reshape(-1))
        re[on_t] = 0
        hit = np.greater(re, tau, out=sub.above[:len(rows)].reshape(-1)).nonzero()[0]
        re[hit] = 0
        bound[rows] = np.maximum.reduce(re.reshape(len(rows), n), axis=1)
        if len(hit):
            slot, col = np.divmod(hit, n)
            found.append(rows.take(slot) * n + col)
            f_found.append(v.take(hit))
    if len(t.direct):  # in their rows' places too, if those were made
        f[t.direct] = _fft_points(cols, t.direct_row, t.direct_col, sub)
    count = sum(map(len, groups))
    if len(found) == 1:  # p is t: no copies, which in a solver's first iterations are grids
        return t.idx, f, count
    return np.concatenate(found), np.concatenate(f_found), count


def _point_iffts(row: np.ndarray, col: np.ndarray, values: np.ndarray, sub: Subgrid) -> None:
    """What Support.iffts writes into sub.g for the rows that hold the entries
    values at (row, col), sorted by row then column, by direct sums over them: row
    u of g's transpose is sum_v values (u, v) e^{2 pi i v J / n} / n.  The other
    columns of g are left as they are."""
    terms = sub.twiddles.take(-col, 0)  # e^{+2 pi i v J / n}, the table's row n - v
    terms *= (values * (1.0 / sub.n))[:, None]
    later = (row[1:] == row[:-1]).nonzero()[0] + 1  # not the first entry of its row
    if len(later):
        first = np.arange(len(row))
        first[later] = 0
        head = np.maximum.accumulate(first).take(later)  # their rows' first entries
        rank = later - head
        for k in range(1, int(rank.max()) + 1):  # each row's k-th entry onto its first
            at = rank == k
            terms[head[at]] += terms.take(later[at], 0)
        row, terms = np.delete(row, later), np.delete(terms, later, axis=0)
    sub.g.T[row] = terms


def sample_indices(n: int, m: int, seed: int) -> np.ndarray:
    """m distinct indices drawn uniformly from [0, n), sorted; deterministic in seed."""
    if m > n:
        raise MTooLarge(f"cannot sample {m} distinct indices from [0, {n})")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=m, replace=False))


def sampled_measurements(model: ModelSpec, n: int, indices,
                         seed: int | None = None) -> MeasurementSet:
    """PGF values at the M x M subgrid J x J; performs exactly M^2 evaluations."""
    indices = np.asarray(indices, dtype=int)
    b = _pgf_block(model, n, indices, indices)
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
    """Relative Frobenius recovery error ||s_hat - s_true|| / ||s_true||, from
    einsum sums of squares a row block at a time: no difference grid, and no
    BLAS call (whose threads stall a call while another process holds a core)."""
    if np.shape(s_hat) != np.shape(s_true):
        raise ValueError(f"shape mismatch: {np.shape(s_hat)} vs {np.shape(s_true)}")
    a, b = (np.reshape(x, (len(x), -1)) for x in np.atleast_1d(s_hat, s_true))
    step = max(1, BLOCK_ELEMENTS // max(a.shape[1], 1))
    diff = np.empty((min(step, len(a)), a.shape[1]), dtype=np.result_type(a, b))
    dd = bb = 0.0
    for i in range(0, len(a), step):
        x, y = a[i:i + step], b[i:i + step]
        d = np.subtract(x, y, out=diff[:len(x)])
        dd += np.einsum("ij,ij->", d, d.conj()).real  # conj() is d itself when real
        bb += np.einsum("ij,ij->", y, y.conj()).real
    return float(np.sqrt(dd) / np.sqrt(bb))
