import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convctc.tensor import (MAX_RANK, load_tensor, logsumexp, read_tensor, save_tensor,
                            write_tensor)


class TestLogsumexp:
    def test_three_quarters(self):
        # direct sum oracle: 3 * 0.25
        xs = np.log([0.25, 0.25, 0.25])
        assert logsumexp(xs) == pytest.approx(np.log(0.75), abs=1e-15)

    def test_all_neg_inf_is_neg_inf(self):
        assert logsumexp([-np.inf, -np.inf]) == -np.inf

    def test_single_element(self):
        assert logsumexp([0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logsumexp([])

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            xs = rng.uniform(-5, 5, size=int(rng.integers(1, 10)))
            v = logsumexp(xs)
            assert v >= np.max(xs) - 1e-12
            assert v <= np.max(xs) + np.log(len(xs)) + 1e-12


class TestBinaryFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip(self, tmp_path, dtype):
        rng = np.random.default_rng(3)
        for shape in [(4,), (3, 5), (2, 3, 4)]:
            arr = rng.standard_normal(shape).astype(dtype)
            path = tmp_path / "t.tnsr"
            save_tensor(path, arr)
            back = load_tensor(path)
            assert back.dtype == dtype
            np.testing.assert_array_equal(back, arr)

    def test_multiple_records_in_one_stream(self):
        buf = io.BytesIO()
        a = np.arange(6.0).reshape(2, 3)
        b = np.ones((4,), dtype=np.float32)
        write_tensor(buf, a)
        write_tensor(buf, b)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf), a)
        np.testing.assert_array_equal(read_tensor(buf), b)

    def test_wire_layout(self):
        # magic, version u32, dtype tag u32 (4=f32), rank u32, extents u64, raw LE
        buf = io.BytesIO()
        arr = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        write_tensor(buf, arr)
        raw = buf.getvalue()
        assert raw[:4] == b"TNSR"
        version, tag, rank = struct.unpack("<III", raw[4:16])
        assert (version, tag, rank) == (1, 4, 2)
        assert struct.unpack("<2Q", raw[16:32]) == (1, 3)
        assert raw[32:] == arr.tobytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            read_tensor(io.BytesIO(b"JUNKxxxxxxxxxxxxxxxx"))

    def test_truncated_rejected(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones(8))
        with pytest.raises(ValueError, match="truncated"):
            read_tensor(io.BytesIO(buf.getvalue()[:-4]))

    def test_truncated_file_is_named(self, tmp_path):
        path = tmp_path / "cut.tnsr"
        save_tensor(path, np.ones((3, 5)))
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated tensor record"):
            load_tensor(path)

    def test_int_dtype_rejected(self):
        with pytest.raises(ValueError):
            write_tensor(io.BytesIO(), np.arange(3))

    def test_rank_above_cap_rejected(self):
        raw = b"TNSR" + struct.pack("<III", 1, 8, MAX_RANK + 1) + bytes(8 * (MAX_RANK + 1))
        with pytest.raises(ValueError, match="rank"):
            read_tensor(io.BytesIO(raw))

    def test_huge_extent_rejected_before_reading(self):
        raw = b"TNSR" + struct.pack("<III", 1, 8, 2) + struct.pack("<2Q", 2**40, 2**20)
        with pytest.raises(ValueError, match="truncated"):
            read_tensor(io.BytesIO(raw + bytes(64)))


def _record(arr):
    buf = io.BytesIO()
    write_tensor(buf, arr)
    return buf.getvalue()


_RECORD = _record(np.arange(6, dtype=np.float32).reshape(2, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_RECORD) - 1))
def test_every_prefix_of_a_record_raises_value_error(cut):
    with pytest.raises(ValueError):
        read_tensor(io.BytesIO(_RECORD[:cut]))
