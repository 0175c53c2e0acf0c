"""Flat binary container of named float64 tensors.

Entry layout (all integers little-endian unsigned 64-bit):

    [name_len u64][name utf-8][rank u64][extent u64 x rank][payload f64 ...]

The payload is the tensor's C-order raw little-endian float64 bytes, so a
write/read round-trip is bit-exact. A file is just the concatenation of its
entries; readers consume until EOF. Names must be unique within a file.

The reader returns one owned, writeable, C-contiguous array per entry, and
a restore adopts them as they are: each module's flat parameter values
(whose named parameters are views of it), its optimizer moments and the
memory columns are these arrays, never copies into a model built first.
Every read is checked by one rule, :func:`check_layout`: exactly the names
a declared name -> shape layout gives, each at its shape, with finite
values.  What a file holds is declared where it is read.
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
from pathlib import Path

import numpy as np

_U64 = struct.Struct("<Q")
_F64LE = np.dtype("<f8")


class CheckpointError(ValueError):
    """Malformed container bytes or invalid entry set."""


def write_entries(fh, tensors: dict[str, np.ndarray]) -> None:
    """Append entries to a binary file handle; :func:`serialized_size`
    gives the bytes they take."""
    for name, arr in tensors.items():
        a = np.asarray(arr, dtype=np.float64)
        nb = name.encode("utf-8")
        fh.write(_U64.pack(len(nb)))
        fh.write(nb)
        fh.write(_U64.pack(a.ndim))
        for ext in a.shape:
            fh.write(_U64.pack(ext))
        # written from the array's own buffer: a bytes copy of a large
        # memory column cost more than the write itself
        payload = np.ascontiguousarray(a, dtype=_F64LE)
        fh.write(payload)


def read_entries(fh) -> dict[str, np.ndarray]:
    """Read entries from a seekable handle until EOF. Every length, rank and
    extent is checked against the bytes left before anything is read, so a
    hostile header fails with :class:`CheckpointError` instead of an
    unbounded allocation. Duplicate names are an error. The handle's
    position is asked once: the offset is then counted from the bytes each
    read returns, and a short read is a truncation."""
    pos = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(pos)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > end - pos or len(raw := fh.read(n)) != n:
            raise CheckpointError(f"truncated {what}")
        pos += n
        return raw

    out: dict[str, np.ndarray] = {}
    while pos < end:
        (name_len,) = _U64.unpack(take(8, "entry header"))
        raw = take(name_len + 8, "entry name and rank")
        try:
            name = raw[:name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("entry name is not utf-8") from None
        (rank,) = _U64.unpack_from(raw, name_len)
        shape = struct.unpack(f"<{rank}Q", take(8 * rank, "extents"))
        count = 0 if 0 in shape else 1
        for ext in shape:
            count *= ext
            if 8 * count > end - pos:
                raise CheckpointError("truncated payload")
        if name in out:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        try:
            arr = np.empty(shape, dtype=np.float64)
        except (ValueError, OverflowError):
            raise CheckpointError(f"invalid extents {shape} for {name!r}") from None
        # the payload lands in the array's own buffer: no bytes copy
        if fh.readinto(arr) != arr.nbytes:
            raise CheckpointError("truncated payload")
        pos += arr.nbytes
        if not _F64LE.isnative:
            arr.byteswap(inplace=True)
        out[name] = arr
    return out


def check_layout(tensors: dict[str, np.ndarray],
                 layout: dict[str, tuple[int, ...]]) -> None:
    """:class:`CheckpointError` unless ``tensors`` holds exactly the names of
    ``layout`` (name -> shape), each at its shape and with finite values.
    The error lists the missing and unexpected names, or names the first
    tensor, in layout order, of another shape or with a non-finite value."""
    if tensors.keys() != layout.keys():
        raise CheckpointError(
            "tensors do not match the layout: missing "
            f"{sorted(layout.keys() - tensors.keys())}, unexpected "
            f"{sorted(tensors.keys() - layout.keys())}")
    for name, shape in layout.items():
        arr = tensors[name]
        if arr.shape != shape:
            raise CheckpointError(f"shape mismatch for tensor {name!r}: "
                                  f"{arr.shape}, not {shape}")
        # count_nonzero has no Python-level wrapper, unlike .all()
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            raise CheckpointError(f"non-finite value in tensor {name!r}")


def serialized_size(tensors: dict[str, np.ndarray]) -> int:
    """Exact byte size the entries would occupy on disk."""
    total = 0
    for name, arr in tensors.items():
        a = np.asarray(arr)
        total += 8 + len(name.encode("utf-8")) + 8 + 8 * a.ndim + 8 * a.size
    return total


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open ``<path>.tmp`` for writing and, once the block completes, rename
    it over ``path``: readers see the old file or the whole new one, never a
    partial one.  If the block or the rename fails, the temporary file is
    removed and the error propagates.  The temporary name does not match
    ``task_*.ckpt``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after the rename


def save(path, tensors: dict[str, np.ndarray]) -> None:
    with atomic_open(path, "wb") as fh:
        write_entries(fh, tensors)


def load(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return read_entries(fh)
