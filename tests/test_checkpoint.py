"""Named-tensor container: byte layout and bit-exact round-trips."""

import io
import struct

import numpy as np
import pytest

from avcl import checkpoint as ckpt


def _to_bytes(tensors):
    buf = io.BytesIO()
    ckpt.write_entries(buf, tensors)
    return buf.getvalue()


def _from_bytes(raw):
    return ckpt.read_entries(io.BytesIO(raw))


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a/weight": rng.normal(size=(3, 4)),
        "a/bias": rng.normal(size=(4,)),
        "scalar": np.array(3.141592653589793),
        "deep/nested/name with spaces": rng.normal(size=(2, 1, 5)),
    }
    p = tmp_path / "t.ckpt"
    ckpt.save(p, tensors)
    back = ckpt.load(p)
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        got = back[name]
        assert got.shape == np.asarray(arr).shape
        assert got.dtype == np.float64
        # bit-exact: compare raw bytes
        assert got.tobytes() == np.ascontiguousarray(arr, dtype=np.float64).tobytes()


def test_entry_byte_layout_is_as_documented():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    raw = _to_bytes({"ab": arr})
    off = 0
    (name_len,) = struct.unpack_from("<Q", raw, off)
    off += 8
    assert name_len == 2
    assert raw[off:off + 2] == b"ab"
    off += 2
    (rank,) = struct.unpack_from("<Q", raw, off)
    off += 8
    assert rank == 2
    extents = struct.unpack_from("<QQ", raw, off)
    off += 16
    assert extents == (2, 2)
    payload = np.frombuffer(raw, dtype="<f8", count=4, offset=off)
    assert np.array_equal(payload.reshape(2, 2), arr)
    assert len(raw) == off + 32


def test_unicode_names_roundtrip():
    tensors = {"päramiétro/τ": np.arange(3.0)}
    back = _from_bytes(_to_bytes(tensors))
    assert list(back) == list(tensors)


def test_duplicate_name_on_read_rejected():
    raw = _to_bytes({"x": np.zeros(2)})
    with pytest.raises(ckpt.CheckpointError):
        ckpt.read_entries(io.BytesIO(raw + raw))


def test_truncated_file_rejected():
    raw = _to_bytes({"x": np.zeros(4)})
    for cut in (4, len(raw) - 8, len(raw) - 1):
        with pytest.raises(ckpt.CheckpointError):
            _from_bytes(raw[:cut])


def test_serialized_size_matches_actual():
    rng = np.random.default_rng(1)
    tensors = {"a": rng.normal(size=(7,)), "bß": rng.normal(size=(2, 3, 4))}
    assert ckpt.serialized_size(tensors) == len(_to_bytes(tensors))


def test_empty_container():
    assert _from_bytes(b"") == {}
    assert ckpt.serialized_size({}) == 0


def test_rank_zero_tensor():
    back = _from_bytes(_to_bytes({"s": np.array(2.5)}))
    assert back["s"].shape == ()
    assert back["s"] == 2.5


def _header_fields(name="ab", shape=(2, 3)):
    """One entry split at its header fields: name_len, rank, extents."""
    raw = _to_bytes({name: np.ones(shape)})
    n = len(name.encode("utf-8"))
    rank_at = 8 + n
    ext_at = rank_at + 8
    return raw, {"name_len": 0, "rank": rank_at, "extents": ext_at}


@pytest.mark.parametrize("field", ["name_len", "rank", "extents"])
@pytest.mark.parametrize("value", [2**31, 2**62, 2**63, 2**64 - 1])
def test_oversize_header_value_rejected(field, value):
    """A hostile length, rank or extent fails before any allocation."""
    raw, offsets = _header_fields()
    bad = bytearray(raw)
    struct.pack_into("<Q", bad, offsets[field], value)
    with pytest.raises(ckpt.CheckpointError):
        _from_bytes(bytes(bad))


def test_overflowing_extent_product_rejected():
    raw, offsets = _header_fields()
    bad = bytearray(raw)
    struct.pack_into("<QQ", bad, offsets["extents"], 2**31, 2**31)
    with pytest.raises(ckpt.CheckpointError):
        _from_bytes(bytes(bad))
    # a zero extent beside an impossible one: no payload, still invalid
    struct.pack_into("<QQ", bad, offsets["extents"], 0, 2**63)
    with pytest.raises(ckpt.CheckpointError):
        _from_bytes(bytes(bad))


@pytest.mark.parametrize("field", ["name_len", "rank", "extents"])
def test_truncation_inside_each_header_field_rejected(field):
    raw, offsets = _header_fields()
    start = offsets[field]
    end = start + (16 if field == "extents" else 8)
    lead = _to_bytes({"ok": np.zeros(2)})  # cuts also land mid-file
    for cut in range(max(start, 1), end + 1):
        for prefix in (b"", lead):
            with pytest.raises(ckpt.CheckpointError):
                _from_bytes(prefix + raw[:cut])


def test_random_header_corruption_never_escapes():
    rng = np.random.default_rng(0)
    raw, _ = _header_fields()
    for _ in range(500):
        bad = bytearray(raw)
        at = int(rng.integers(0, 40))
        bad[at:at + 8] = rng.integers(0, 256, size=8, dtype=np.uint8).tobytes()
        try:
            back = _from_bytes(bytes(bad[:len(raw)]))
        except ckpt.CheckpointError:
            continue
        assert sum(a.size for a in back.values()) * 8 <= len(raw)


def test_non_utf8_name_rejected():
    raw = bytearray(_to_bytes({"ab": np.zeros(1)}))
    raw[8] = 0xFF
    with pytest.raises(ckpt.CheckpointError):
        _from_bytes(bytes(raw))



def test_loaded_arrays_own_writeable_c_contiguous_buffers(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {"m": rng.normal(size=(3, 4)), "s": np.array(1.5), "e": np.zeros((0, 3)),
               "t": np.asfortranarray(rng.normal(size=(2, 3, 2)))}
    ckpt.save(tmp_path / "t.ckpt", tensors)
    for back in (ckpt.load(tmp_path / "t.ckpt"), _from_bytes(_to_bytes(tensors))):
        for name, arr in back.items():
            assert arr.flags.c_contiguous and arr.flags.writeable, name
            assert arr.flags.owndata and arr.base is None, name
            assert arr.dtype == np.float64 and np.array_equal(arr, tensors[name]), name


def test_short_payload_read_rejected():
    """A payload read that returns fewer bytes than the header promised (the
    file shrank under the reader) is a CheckpointError."""

    class Shrinking(io.BytesIO):
        def readinto(self, buf):
            return max(super().readinto(buf) - 8, 0)

    with pytest.raises(ckpt.CheckpointError, match="truncated"):
        ckpt.read_entries(Shrinking(_to_bytes({"x": np.ones(3)})))
