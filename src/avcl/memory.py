"""Rehearsal memory.

A columnar reservoir of past training pairs: one preallocated
``(capacity, ...)`` float64 array per stored field, plus slot-indexed
insertion steps and source tasks.  A strategy stores exactly the fields its
replay reads — patches and their grid ids always, pooled features for the
feature-drift penalty, localized queries and selection scores for
attention-guided selection — so no field is ever a placeholder.  Alongside
the store: batch-wise reservoir insertion, uniform replay sampling, the
feature-drift penalty applied to replayed features, and a snapshot of a
fixed handful of tensors for the checkpoint container.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import avcl.checkpoint as cp
import avcl.tensor as tt
from avcl.tensor import Tensor


class RehearsalError(ValueError):
    pass


@dataclass
class ReservoirMemory:
    """Slots ``[0, count)`` hold the stored pairs.  ``fields`` maps a field
    name to its ``(capacity, ...)`` column and is created by the first
    insert; grid ids are stored as exact float64 like every other field.
    ``tasks`` is diagnostics only and never read by training logic."""

    capacity: int
    seen_count: int = 0
    count: int = 0
    fields: dict[str, np.ndarray] = field(default_factory=dict)
    steps: np.ndarray = field(init=False)
    tasks: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.capacity < 0:
            raise RehearsalError("capacity must be non-negative")
        self.steps = np.zeros(self.capacity, dtype=np.int64)
        self.tasks = np.full(self.capacity, -1, dtype=np.int64)

    def __len__(self):
        return self.count


def reservoir_insert(mem: ReservoirMemory, batch: dict[str, np.ndarray],
                     step: int, task: int, rng: np.random.Generator) -> None:
    """Algorithm-R insertion of every row of ``batch`` (field name ->
    ``(B, ...)`` array): the t-th streamed row survives with probability
    capacity/t.  Zero capacity is a no-op that also skips the random draws,
    so disabled-memory runs consume no generator state."""
    batch = {k: np.asarray(v, dtype=np.float64) for k, v in batch.items()}
    rows = {v.shape[0] if v.ndim else -1 for v in batch.values()}
    if len(rows) != 1 or -1 in rows:
        raise RehearsalError("batch fields need one common row count")
    if mem.fields and ({k: v.shape[1:] for k, v in mem.fields.items()}
                       != {k: v.shape[1:] for k, v in batch.items()}):
        raise RehearsalError("batch fields do not match the stored fields")
    b = rows.pop()
    if mem.capacity == 0:
        mem.seen_count += b
        return
    if not mem.fields:
        mem.fields = {k: np.zeros((mem.capacity,) + v.shape[1:])
                      for k, v in batch.items()}
    slot_row: dict[int, int] = {}  # a later row replacing a slot wins
    for row in range(b):
        mem.seen_count += 1
        if mem.count < mem.capacity:
            slot_row[mem.count] = row
            mem.count += 1
            continue
        j = int(rng.integers(0, mem.seen_count))
        if j < mem.capacity:
            slot_row[j] = row
    if not slot_row:
        return
    slots = np.fromiter(slot_row.keys(), dtype=np.int64)
    picks = np.fromiter(slot_row.values(), dtype=np.int64)
    for name, col in mem.fields.items():
        col[slots] = batch[name][picks]
    mem.steps[slots] = step
    mem.tasks[slots] = task


def sample_replay(mem: ReservoirMemory, batch: int,
                  rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform-with-replacement draw of ``batch`` stored pairs: one
    ``(batch, ...)`` copy per stored field."""
    if mem.count == 0:
        raise RehearsalError("cannot replay from an empty memory")
    if batch < 1:
        raise RehearsalError("replay batch must be positive")
    picks = rng.integers(0, mem.count, size=batch)
    return {name: col[picks] for name, col in mem.fields.items()}


def der_penalty(feat_audio: Tensor, feat_video: Tensor,
                stored_audio: np.ndarray, stored_video: np.ndarray) -> Tensor:
    """Feature-drift penalty: summed per-modality MSE between the replayed
    batch's current pooled features and the features stored with the
    entries. Stored values enter as constants, so the gradient reaches only
    the current features."""
    if feat_audio.shape != stored_audio.shape or feat_video.shape != stored_video.shape:
        raise RehearsalError("replayed feature shapes do not match stored")
    return tt.add(tt.mse(feat_audio, tt.constant(stored_audio)),
                  tt.mse(feat_video, tt.constant(stored_video)))


def plus_capacity(raw_capacity: int, audio_patches: int, audio_dim: int,
                  video_patches: int, video_dim: int,
                  kappa_audio: int, kappa_video: int) -> int:
    """Entry budget when only selected patches are stored: scale the
    full-grid entry count up until total stored patch bytes match the
    full-grid budget to within one selected entry."""
    raw_elems = audio_patches * audio_dim + video_patches * video_dim
    sel_elems = kappa_audio * audio_dim + kappa_video * video_dim
    if raw_capacity < 0 or raw_elems <= 0 or sel_elems <= 0:
        raise RehearsalError("invalid capacity scaling inputs")
    return (raw_capacity * raw_elems) // sel_elems


# ---------------------------------------------------------------------------
# snapshots

_FIELD = "memory/field/"


def snapshot_arrays(mem: ReservoirMemory) -> dict[str, np.ndarray]:
    """Flat named-array view of the memory in slot order: five bookkeeping
    tensors plus one ``(count, ...)`` tensor per stored field, so a load
    restores the exact reservoir state."""
    n = mem.count
    out: dict[str, np.ndarray] = {
        "memory/capacity": np.array([float(mem.capacity)]),
        "memory/seen": np.array([float(mem.seen_count)]),
        "memory/count": np.array([float(n)]),
        "memory/steps": mem.steps[:n].astype(np.float64),
        "memory/tasks": mem.tasks[:n].astype(np.float64),
    }
    for name in sorted(mem.fields):
        out[_FIELD + name] = mem.fields[name][:n]
    return out


def memory_bytes(mem: ReservoirMemory) -> int:
    """Exact serialized size of the snapshot (empty memory = header only)."""
    return cp.serialized_size(snapshot_arrays(mem))


def memory_from_arrays(arrays: dict[str, np.ndarray]) -> ReservoirMemory:
    """Inverse of :func:`snapshot_arrays`; ``arrays`` may hold other keys."""
    try:
        capacity = int(arrays["memory/capacity"][0])
        seen = int(arrays["memory/seen"][0])
        count = int(arrays["memory/count"][0])
        steps, tasks = arrays["memory/steps"], arrays["memory/tasks"]
    except (KeyError, IndexError, ValueError, OverflowError) as exc:
        raise RehearsalError(f"snapshot bookkeeping unreadable: {exc}") from None
    stored = {k[len(_FIELD):]: v for k, v in arrays.items() if k.startswith(_FIELD)}
    if not 0 <= count <= min(capacity, seen):
        raise RehearsalError("snapshot entry count inconsistent")
    if (steps.shape != (count,) or tasks.shape != (count,)
            or (count and not stored)
            or any(v.ndim == 0 or len(v) != count for v in stored.values())):
        raise RehearsalError("snapshot columns do not match the entry count")
    mem = ReservoirMemory(capacity, seen_count=seen, count=count)
    mem.steps[:count] = steps
    mem.tasks[:count] = tasks
    for name, col in stored.items():
        mem.fields[name] = np.zeros((capacity,) + col.shape[1:])
        mem.fields[name][:count] = col
    return mem
