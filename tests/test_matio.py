"""Binary and CSV matrix serialization."""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from branchcs.matio import read_matrix, write_csv, write_matrix


class TestBinaryFormat:
    def test_real_round_trip(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(5, 7))
        path = tmp_path / "real.bpm"
        write_matrix(path, arr)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "cpx.bpm"
        write_matrix(path, arr)
        back = read_matrix(path)
        assert np.iscomplexobj(back)
        assert np.array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.bpm"
        write_matrix(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"BPM1"
        assert len(raw) == 16 + 2 * 3 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bpm"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError):
            read_matrix(path)

    @pytest.mark.parametrize("cut", [-8, 8], ids=["truncated", "trailing-bytes"])
    def test_wrong_length_rejected(self, tmp_path, cut):
        path = tmp_path / "m.bpm"
        write_matrix(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + b"\x00" * cut)
        with pytest.raises(ValueError, match="m.bpm"):
            read_matrix(path)

    def test_one_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "one.bpm"
        write_matrix(path, np.ones((3, 2), dtype=complex))
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match=f"{path}: 113 bytes, expected 112"):
            read_matrix(path)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_read_back_is_writable_and_c_contiguous(self, tmp_path, kind):
        arr = np.arange(12.0).reshape(3, 4) * (1j if kind == "complex" else 1)
        path = tmp_path / "m.bpm"
        write_matrix(path, np.asfortranarray(arr))
        back = read_matrix(path)
        assert back.flags.writeable and back.flags.c_contiguous
        back[0, 0] = 7  # its own buffer
        assert np.array_equal(read_matrix(path), arr)

    @pytest.mark.parametrize("extra", [0, -8, 8], ids=["whole", "truncated", "trailing-bytes"])
    def test_a_pipe_is_read_as_a_file_is(self, tmp_path, extra):
        arr = np.arange(6.0).reshape(2, 3)
        write_matrix(tmp_path / "m.bpm", arr)
        raw = (tmp_path / "m.bpm").read_bytes()
        raw = raw[:extra] if extra < 0 else raw + b"\x00" * extra
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(raw,))
        writer.start()
        try:
            if extra:
                with pytest.raises(ValueError, match="pipe"):
                    read_matrix(path)
            else:
                assert np.array_equal(read_matrix(path), arr)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "x.bpm", np.zeros(5))

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "big-endian", "int"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_bytes_for_every_layout(self, tmp_path, kind, layout):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(9, 8)) + (1j * rng.normal(size=(9, 8)) if kind == "complex" else 0)
        arr = {"c": base, "fortran": np.asfortranarray(base), "strided": base[1::2, ::3],
               "big-endian": base.astype(base.dtype.newbyteorder(">")),
               "int": np.arange(72).reshape(9, 8) * (1 + 2j if kind == "complex" else 1)}[layout]
        path = tmp_path / "m.bpm"
        write_matrix(path, arr)
        dtype = "<c16" if kind == "complex" else "<f8"
        want = (b"BPM1" + struct.pack("<III", *arr.shape, kind == "complex")
                + np.ascontiguousarray(arr, dtype=dtype).tobytes())
        assert path.read_bytes() == want
        assert np.array_equal(read_matrix(path), arr)

    def test_a_c_ordered_matrix_is_written_without_a_copy(self, tmp_path):
        arr = np.ones((256, 256), dtype=complex)  # 1 MB
        tracemalloc.start()
        try:
            write_matrix(tmp_path / "m.bpm", arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arr.nbytes // 8


# one output path rewritten in turn: larger, smaller, then complex to real
_REWRITES = [np.arange(36.0).reshape(6, 6) * (1 + 1j), np.eye(2) * (3 - 2j),
             np.full((3, 5), 0.25)]


@pytest.mark.parametrize("write, suffix", [(write_matrix, ".bpm"), (write_csv, ".csv")],
                         ids=["binary", "csv"])
def test_a_rewrite_holds_exactly_the_new_bytes(tmp_path, write, suffix):
    path = tmp_path / f"m{suffix}"
    path.write_bytes(b"x" * 4096)  # an older, longer file
    for i, arr in enumerate(_REWRITES):
        write(path, arr)
        fresh = tmp_path / f"fresh{i}{suffix}"
        write(fresh, arr)
        assert path.read_bytes() == fresh.read_bytes()
        if suffix == ".bpm":
            assert np.array_equal(read_matrix(path), arr)
            assert path.stat().st_size == 16 + arr.size * (16 if np.iscomplexobj(arr) else 8)


class TestCsv:
    def test_real_round_trip(self, tmp_path):
        arr = np.arange(12, dtype=float).reshape(3, 4) / 7
        path = tmp_path / "m.csv"
        write_csv(path, arr)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, arr)

    def test_size_cap(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "big.csv", np.zeros((257, 2)))

    def test_complex_written(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, np.array([[1 + 2j, 3 - 4j]]))
        text = path.read_text()
        assert "j" in text
