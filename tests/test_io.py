"""Serialization formats: single-tensor files and the named container.

The layouts are frozen byte contracts, so these tests assert raw bytes
(magic, version, dtype code, little-endian dims) as well as round-trips.
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuseg import io as tio
from nuseg.io import (load_entries, load_tensor, save_entries, save_tensor,
                      tensor_from_bytes, tensor_to_bytes)
from nuseg.prng import Prng


class TestTensorFormat:
    def test_header_layout(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        blob = tensor_to_bytes(arr)
        assert blob[:4] == b"UIUT"
        assert blob[4] == 1          # version
        assert blob[5] == 0          # dtype code: f32
        assert blob[6] == 2          # rank
        assert struct.unpack("<2Q", blob[7:23]) == (2, 3)
        assert len(blob) == 23 + 4 * 6

    def test_rank0_scalar(self):
        arr = np.asarray(2.5, dtype=np.float32)
        back, end = tensor_from_bytes(tensor_to_bytes(arr))
        assert back.shape == ()
        assert float(back) == 2.5
        assert end == 7 + 4

    def test_payload_is_little_endian_f32(self):
        arr = np.array([1.0], dtype=np.float32)
        blob = tensor_to_bytes(arr)
        assert blob[-4:] == struct.pack("<f", 1.0)

    def test_round_trip_exact(self):
        arr = Prng(1).normal((2, 3, 4, 5))
        back, _ = tensor_from_bytes(tensor_to_bytes(arr))
        np.testing.assert_array_equal(back, arr)
        assert back.dtype == np.float32

    @given(st.integers(min_value=0, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_any_rank(self, rank):
        shape = tuple(range(1, rank + 1))
        arr = Prng(rank).normal(shape) if rank else np.asarray(1.5, dtype=np.float32)
        back, _ = tensor_from_bytes(tensor_to_bytes(arr))
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_non_f32_rejected(self):
        with pytest.raises(ValueError, match="float32"):
            tensor_to_bytes(np.zeros(3, dtype=np.float64))

    def test_bad_magic_rejected(self):
        blob = bytearray(tensor_to_bytes(np.zeros(2, dtype=np.float32)))
        blob[0] = ord("X")
        with pytest.raises(ValueError, match="magic"):
            tensor_from_bytes(bytes(blob))

    def test_truncated_payload_rejected(self):
        blob = tensor_to_bytes(np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError, match="truncated"):
            tensor_from_bytes(blob[:-2])

    def test_file_round_trip_and_trailing_guard(self, tmp_path):
        path = tmp_path / "t.uiut"
        arr = Prng(2).normal((3, 3))
        save_tensor(path, arr)
        np.testing.assert_array_equal(load_tensor(path), arr)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_tensor(path)

    def test_save_is_deterministic(self, tmp_path):
        arr = Prng(3).normal((4, 4))
        a, b = tmp_path / "a", tmp_path / "b"
        save_tensor(a, arr)
        save_tensor(b, arr)
        assert a.read_bytes() == b.read_bytes()


class TestContainerFormat:
    @staticmethod
    def sample_entries():
        prng = Prng(7)
        return {"alpha.w": prng.normal((2, 2)),
                "alpha.b": prng.normal((2,)),
                "beta": np.asarray(1.25, dtype=np.float32)}

    def test_header_layout(self, tmp_path):
        path = tmp_path / "c.uiuc"
        save_entries(path, self.sample_entries())
        blob = path.read_bytes()
        assert blob[:4] == b"UIUC"
        assert blob[4] == 1
        assert struct.unpack_from("<I", blob, 5)[0] == 3

    def test_round_trip_preserves_order_and_values(self, tmp_path):
        path = tmp_path / "c.uiuc"
        entries = self.sample_entries()
        save_entries(path, entries)
        back = load_entries(path)
        assert list(back) == list(entries)
        for name, arr in entries.items():
            np.testing.assert_array_equal(back[name], arr)

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_entries(a, self.sample_entries())
        save_entries(b, self.sample_entries())
        assert a.read_bytes() == b.read_bytes()

    def test_utf8_names(self, tmp_path):
        path = tmp_path / "c.uiuc"
        save_entries(path, {"größe": np.zeros(1, dtype=np.float32)})
        assert list(load_entries(path)) == ["größe"]

    def test_truncated_container_rejected(self, tmp_path):
        path = tmp_path / "c.uiuc"
        save_entries(path, self.sample_entries())
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_entries(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.uiuc"
        save_entries(path, self.sample_entries())
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(ValueError, match="trailing"):
            load_entries(path)

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "c.uiuc"
        one = tensor_to_bytes(np.zeros(1, dtype=np.float32))
        name = b"dup"
        body = (struct.pack("<H", len(name)) + name + one) * 2
        path.write_bytes(b"UIUC" + struct.pack("<BI", 1, 2) + body)
        with pytest.raises(ValueError, match="duplicate"):
            load_entries(path)

    def test_non_utf8_name_names_the_entry(self, tmp_path):
        path = tmp_path / "c.uiuc"
        save_entries(path, {"a": np.zeros(1, dtype=np.float32),
                            "b": np.zeros(1, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        second = blob.index(b"\x01\x00b")  # u16 name length 1, then the name
        blob[second + 2] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="container entry 1: name is not UTF-8"):
            load_entries(path)

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        """The disk fills up part-way through a rewrite: the file already at
        the path keeps its bytes and no temporary file is left behind."""
        class FullDisk(io.FileIO):
            def write(self, data):
                super().write(bytes(data[:5]))
                raise OSError(28, "No space left on device")

        path = tmp_path / "c.uiuc"
        save_entries(path, self.sample_entries())
        before = path.read_bytes()
        monkeypatch.setattr(tio, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_entries(path, {"other": np.zeros(4, dtype=np.float32)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.uiuc"]

    def test_empty_container(self, tmp_path):
        path = tmp_path / "c.uiuc"
        save_entries(path, {})
        assert load_entries(path) == {}
