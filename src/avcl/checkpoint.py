"""Flat binary container of named float64 tensors.

Entry layout (all integers little-endian unsigned 64-bit):

    [name_len u64][name utf-8][rank u64][extent u64 x rank][payload f64 ...]

The payload is the tensor's C-order raw little-endian float64 bytes, so a
write/read round-trip is bit-exact. A file is just the concatenation of its
entries; readers consume until EOF. Names must be unique within a file.
"""

from __future__ import annotations

import io
import struct

import numpy as np

_U64 = struct.Struct("<Q")
_F64LE = np.dtype("<f8")


class CheckpointError(ValueError):
    """Malformed container bytes or invalid entry set."""


def write_entries(fh, tensors: dict[str, np.ndarray]) -> int:
    """Append entries to a binary file handle; returns bytes written."""
    written = 0
    for name, arr in tensors.items():
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim and not a.flags.c_contiguous:
            a = np.ascontiguousarray(a)
        nb = name.encode("utf-8")
        fh.write(_U64.pack(len(nb)))
        fh.write(nb)
        fh.write(_U64.pack(a.ndim))
        for ext in a.shape:
            fh.write(_U64.pack(ext))
        payload = a.astype(_F64LE, copy=False).tobytes(order="C")
        fh.write(payload)
        written += 8 + len(nb) + 8 + 8 * a.ndim + len(payload)
    return written


def read_entries(fh) -> dict[str, np.ndarray]:
    """Read entries from a seekable handle until EOF. Every length, rank and
    extent is checked against the bytes left before anything is read, so a
    hostile header fails with :class:`CheckpointError` instead of an
    unbounded allocation. Duplicate names are an error."""
    start = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(start)

    def take(n: int, what: str) -> bytes:
        if n > end - fh.tell():
            raise CheckpointError(f"truncated {what}")
        return fh.read(n)

    out: dict[str, np.ndarray] = {}
    while fh.tell() < end:
        (name_len,) = _U64.unpack(take(8, "entry header"))
        try:
            name = take(name_len, "entry name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("entry name is not utf-8") from None
        (rank,) = _U64.unpack(take(8, "rank"))
        ext_b = take(8 * rank, "extents")
        shape = tuple(_U64.unpack_from(ext_b, 8 * i)[0] for i in range(rank))
        count = 0 if 0 in shape else 1
        for ext in shape:
            count *= ext
            if 8 * count > end - fh.tell():
                raise CheckpointError("truncated payload")
        payload = take(8 * count, "payload")
        if name in out:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        arr = np.frombuffer(payload, dtype=_F64LE, count=count).astype(np.float64)
        try:
            out[name] = arr.reshape(shape).copy(order="C")
        except ValueError:
            raise CheckpointError(f"invalid extents {shape} for {name!r}") from None
    return out


def serialized_size(tensors: dict[str, np.ndarray]) -> int:
    """Exact byte size the entries would occupy on disk."""
    total = 0
    for name, arr in tensors.items():
        a = np.asarray(arr)
        total += 8 + len(name.encode("utf-8")) + 8 + 8 * a.ndim + 8 * a.size
    return total


def save(path, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        write_entries(fh, tensors)


def load(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return read_entries(fh)


def to_bytes(tensors: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    write_entries(buf, tensors)
    return buf.getvalue()


def from_bytes(data: bytes) -> dict[str, np.ndarray]:
    return read_entries(io.BytesIO(data))
