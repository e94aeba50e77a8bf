"""Binary and CSV matrix formats.

Binary layout: 16-byte header (magic "BPM1", u32 rows, u32 cols, u32 flags
with bit 0 set for complex data), then row-major little-endian f64 values,
interleaved re/im when complex.
"""

from __future__ import annotations

import os
import stat
import struct
from pathlib import Path

import numpy as np

MAGIC = b"BPM1"
FLAG_COMPLEX = 0x1
CSV_MAX_SIDE = 256

__all__ = ["open_new", "write_matrix", "read_matrix", "write_csv"]


def open_new(path, mode: str = "w", **kwargs):
    """Open path for writing as a new file: any file already there is removed first.

    ext4 (auto_da_alloc) starts writeback when a file truncated to zero is
    closed, and when a file is renamed over another, so rewriting an output in
    either way sends it to disk on every run; a new file is written back at
    the kernel's own pace.  A crash leaves no file or a short new one, never
    old and new data mixed at a valid length.  mode is "w" or "wb"; kwargs go
    to open.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    return open(path, mode.replace("w", "x"), **kwargs)


def write_matrix(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    flags = FLAG_COMPLEX if np.iscomplexobj(arr) else 0
    # the array's own buffer when it is C-ordered <c16 / <f8 already, else one copy
    body = np.ascontiguousarray(arr, dtype="<c16" if flags & FLAG_COMPLEX else "<f8")
    with open_new(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<III", arr.shape[0], arr.shape[1], flags))
        fh.write(body.data)


def read_matrix(path) -> np.ndarray:
    """The matrix in the BPM1 file path, its body read straight into the array
    returned: the file is held once, with no bytes object or copy beside it."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:4] != MAGIC:
            raise ValueError(f"{path}: not a BPM1 matrix file")
        rows, cols, flags = struct.unpack("<III", head[4:16])
        dtype = np.dtype("<c16" if flags & FLAG_COMPLEX else "<f8")
        expected = 16 + rows * cols * dtype.itemsize
        # a file's size is checked before the array is made; a pipe's only as it is read
        st = os.fstat(fh.fileno())
        size = st.st_size if stat.S_ISREG(st.st_mode) else expected
        if size == expected:
            out = np.empty((rows, cols), dtype=dtype)
            size = 16 + fh.readinto(out.data) + len(fh.read(1))  # the file may have changed
        if size != expected:
            raise ValueError(f"{path}: {size} bytes, expected {expected} "
                             f"for a {rows}x{cols} {dtype.name} matrix")
    return out


def write_csv(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if max(arr.shape) > CSV_MAX_SIDE:
        raise ValueError(f"CSV export limited to {CSV_MAX_SIDE}x{CSV_MAX_SIDE}")
    with open_new(path) as fh:
        if np.iscomplexobj(arr):
            for row in arr:
                fh.write(",".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in row))
                fh.write("\n")
        else:
            np.savetxt(fh, arr, delimiter=",", fmt="%.17g")
