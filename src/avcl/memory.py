"""Rehearsal memory.

A columnar reservoir of past training pairs: one float64 array per stored
field, plus insertion steps and source tasks, all grown by doubling up to
the capacity as entries arrive.  The memory is generic over its fields: the
caller names them, with their per-entry shapes, when it builds the memory,
and every insert and every restore is checked against that layout.
Alongside the store: batch-wise reservoir insertion, uniform replay
sampling, the feature-drift penalty applied to replayed features, and a
snapshot of a fixed handful of tensors for the checkpoint container.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

import avcl.checkpoint as cp
import avcl.tensor as tt
from avcl.tensor import Tensor


class RehearsalError(ValueError):
    pass


@dataclass
class ReservoirMemory:
    """Rows ``[0, count)`` of every column hold the stored pairs; each column
    has between ``count`` and ``min(capacity, 2 * count)`` rows, and rows
    past ``count`` are never read.  ``fields`` maps a field name to its
    column; ``layout`` (field name -> per-entry shape) gives it one zero-row
    column per field at construction.  ``tasks`` is diagnostics only and
    never read by training logic."""

    capacity: int
    layout: InitVar[dict[str, tuple[int, ...]]]
    seen_count: int = 0
    count: int = 0
    fields: dict[str, np.ndarray] = field(init=False)
    steps: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    tasks: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def __post_init__(self, layout):
        if self.capacity < 0:
            raise RehearsalError("capacity must be non-negative")
        self.fields = {name: np.empty((0, *shape)) for name, shape in layout.items()}

    def __len__(self):
        return self.count


def _grow(mem: ReservoirMemory, filled: int) -> None:
    """Double every column, or more if ``mem.count`` needs it, up to the
    capacity; rows past the ``filled`` ones kept are left uninitialised."""
    rows = min(mem.capacity, max(mem.count, 2 * len(mem.steps)))

    def grown(col: np.ndarray) -> np.ndarray:
        out = np.empty((rows,) + col.shape[1:], col.dtype)
        out[:filled] = col[:filled]
        return out

    mem.fields = {name: grown(col) for name, col in mem.fields.items()}
    mem.steps, mem.tasks = grown(mem.steps), grown(mem.tasks)


def reservoir_insert(mem: ReservoirMemory, batch: dict[str, np.ndarray],
                     step: int, task: int, rng: np.random.Generator) -> None:
    """Algorithm-R insertion of every row of ``batch`` (field name ->
    ``(B, ...)`` array, exactly the memory's fields at their per-entry
    shapes): the t-th streamed row survives with probability
    capacity/t.  Zero capacity is a no-op that also skips the random draws,
    so disabled-memory runs consume no generator state."""
    batch = {k: np.asarray(v, dtype=np.float64) for k, v in batch.items()}
    rows = {v.shape[0] if v.ndim else -1 for v in batch.values()}
    if len(rows) != 1 or -1 in rows:
        raise RehearsalError("batch fields need one common row count")
    if ({k: v.shape[1:] for k, v in mem.fields.items()}
            != {k: v.shape[1:] for k, v in batch.items()}):
        raise RehearsalError("batch fields do not match the stored fields")
    b = rows.pop()
    if mem.capacity == 0:
        mem.seen_count += b
        return
    filled = mem.count
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
    if mem.count > len(mem.steps):
        _grow(mem, filled)
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
    return tt.add(tt.mse(feat_audio, Tensor(stored_audio)),
                  tt.mse(feat_video, Tensor(stored_video)))


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
    """Flat named-array view of the memory in slot order: four bookkeeping
    tensors (capacity, seen count, insertion steps, source tasks) plus one
    ``(count, ...)`` tensor per stored field, so a load restores the exact
    reservoir state."""
    n = mem.count
    out: dict[str, np.ndarray] = {
        "memory/capacity": np.array([float(mem.capacity)]),
        "memory/seen": np.array([float(mem.seen_count)]),
        "memory/steps": mem.steps[:n].astype(np.float64),
        "memory/tasks": mem.tasks[:n].astype(np.float64),
    }
    for name in sorted(mem.fields):
        out[_FIELD + name] = mem.fields[name][:n]
    return out


def memory_bytes(mem: ReservoirMemory) -> int:
    """Exact serialized size of the snapshot (an empty memory's holds only
    headers)."""
    return cp.serialized_size(snapshot_arrays(mem))


def memory_from_arrays(arrays: dict[str, np.ndarray], capacity: int,
                       fields: dict[str, tuple[int, ...]]) -> ReservoirMemory:
    """Inverse of :func:`snapshot_arrays`, reading only the ``memory/`` keys
    of ``arrays``.  They must be exactly a snapshot of the stored ``fields``
    (name -> per-entry shape), one entry per ``memory/steps`` value, all
    finite (:func:`checkpoint.check_layout`); then the stored capacity must
    be ``capacity``, the entry count exactly the smaller of it and the seen
    count (what every reservoir holds), and the insertion steps and source
    tasks integers (a step at least 0, a task at least -1, the task of a run
    that never set one).  Field columns are
    adopted as they are when they own writeable C-contiguous float64
    buffers, as the checkpoint reader returns them; views, such as those of
    :func:`snapshot_arrays`, are copied."""
    section = {k: v for k, v in arrays.items() if k.startswith("memory/")}
    # sizes the layout; the check names a missing or misshaped memory/steps
    count = np.size(section.get("memory/steps", ()))
    try:
        cp.check_layout(section, {
            "memory/capacity": (1,), "memory/seen": (1,), "memory/steps": (count,),
            "memory/tasks": (count,),
            **{_FIELD + name: (count, *shape) for name, shape in fields.items()}})
    except cp.CheckpointError as exc:
        raise RehearsalError(f"snapshot: {exc}") from None
    stored_capacity = int(section["memory/capacity"][0])
    seen = int(section["memory/seen"][0])
    if stored_capacity != capacity:
        raise RehearsalError(f"snapshot capacity {stored_capacity} does not "
                             f"match the configured {capacity}")
    if count != min(capacity, seen) or seen >= 2 ** 63:
        raise RehearsalError(f"snapshot entry count {count} inconsistent: a "
                             f"reservoir of capacity {capacity} that saw {seen} "
                             "pairs holds the smaller of the two")
    for name, low in (("memory/steps", 0), ("memory/tasks", -1)):
        col = section[name]
        if not ((col >= low) & (col < 2.0 ** 63) & (col == np.floor(col))).all():
            raise RehearsalError(f"snapshot tensor {name!r} holds a value that is "
                                 f"no integer of at least {low}")
    mem = ReservoirMemory(capacity, fields, seen_count=seen, count=count,
                          steps=section["memory/steps"].astype(np.int64),
                          tasks=section["memory/tasks"].astype(np.int64))
    mem.fields = {name: np.require(section[_FIELD + name], np.float64, "CWO")
                  for name in fields}
    return mem
