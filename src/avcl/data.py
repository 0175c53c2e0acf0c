"""Synthetic correlated audio-video scenes and their patch-level plumbing.

A scene pair is Gaussian background noise with a class-specific signature
pattern added at a planted location: a time band in the spectrogram and a
box spanning a few frames in the clip. Within a correlated pair the two
signatures share one temporal placement draw (the band sits at the same
relative position as the frame span), so matching audio to video requires
actual spatio-temporal correspondence, not just class statistics. With
probability 1 - correlation the audio signature instead comes from an
independently drawn decoy class at an independent position.

Each signature is added through one slice, and the same slice paints a
boolean cell mask beside the values.  Each geometry states its patch blocks
once; one :func:`patchify` cuts values and cell masks alike into patches,
and a patch's ground truth is that any of its cells is painted.

A :class:`DataConfig` is the one description of a task sequence: the
geometry, the pair counts and each task's classes all derive from it.  A
task file therefore holds only tensors, the five :class:`SampleSet` arrays
of each split in one checkpoint container, and is read back against the
config that generated it.  One field -> (shape, dtype) layout allocates a
split, and a split read back is checked and cast against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from avcl import checkpoint as ckpt

# planted-signature geometry, as fractions of the full extent
_VIDEO_BOX_FRACTION = 0.375
_AUDIO_BAND_FRACTION = 0.25
_CLASS_STREAM_TAG = 0x5EED_C1A5  # keeps class streams clear of sample streams
_SAMPLE_STREAM_TAG = 0x5A3B_1E5


class DataError(ValueError):
    """Invalid dataset geometry, contents, or file bytes."""


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


class _Blocks:
    """A patch grid stated once by ``blocks``, one (count, size) pair per
    axis: the axis holds ``count`` blocks of ``size`` cells, and a patch is
    one block of every axis.  Everything else derives from the blocks."""

    @property
    def shape(self) -> tuple[int, ...]:  # cells per axis
        return tuple(n * s for n, s in self.blocks)

    @property
    def grid(self) -> tuple[int, ...]:  # blocks per axis
        return tuple(n for n, _ in self.blocks)

    @property
    def patches(self) -> int:
        return math.prod(self.grid)

    @property
    def patch_dim(self) -> int:
        return math.prod(s for _, s in self.blocks)


@dataclass(frozen=True)
class AudioGeometry(_Blocks):
    time_bins: int = 64
    freq_bins: int = 16
    patch: int = 4

    def __post_init__(self):
        if min(self.time_bins, self.freq_bins, self.patch) < 1:
            raise DataError("audio grid extents and patch size must be at least 1")
        if self.time_bins % self.patch or self.freq_bins % self.patch:
            raise DataError("audio patch size must divide both grid extents")

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        p = self.patch
        return (self.time_bins // p, p), (self.freq_bins // p, p)


@dataclass(frozen=True)
class VideoGeometry(_Blocks):
    frames: int = 4
    height: int = 32
    width: int = 32
    patch: int = 8

    def __post_init__(self):
        if min(self.frames, self.height, self.width, self.patch) < 1:
            raise DataError("video grid extents and patch size must be at least 1")
        if self.height % self.patch or self.width % self.patch:
            raise DataError("video patch size must divide height and width")

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        p = self.patch
        return (self.frames, 1), (self.height // p, p), (self.width // p, p)


@dataclass(frozen=True)
class SceneGeometry:
    audio: AudioGeometry = field(default_factory=AudioGeometry)
    video: VideoGeometry = field(default_factory=VideoGeometry)


# ---------------------------------------------------------------------------
# classes and scenes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    class_ids: tuple[int, ...]


@dataclass(frozen=True)
class SyntheticClass:
    """Deterministic signature patterns for one semantic class.

    Pattern entries are sign * U[1, 1.5]; the generator multiplies by the
    amplitude knob at placement time, so planted cells carry |value| well
    above amplitude * 1.0 over unit background noise.
    """

    class_id: int
    correlation: float
    audio_pattern: np.ndarray  # (band_width, freq_bins)
    video_pattern: np.ndarray  # (span_frames, box_h, box_w)


def signature_shapes(geom: SceneGeometry) -> tuple[tuple[int, int], tuple[int, int, int]]:
    a, v = geom.audio, geom.video
    band_w = max(a.patch, round(_AUDIO_BAND_FRACTION * a.time_bins))
    span = max(1, v.frames // 2)
    box_h = max(v.patch, round(_VIDEO_BOX_FRACTION * v.height))
    box_w = max(v.patch, round(_VIDEO_BOX_FRACTION * v.width))
    return (band_w, a.freq_bins), (span, box_h, box_w)


def make_class(class_id: int, master_seed: int, geom: SceneGeometry,
               correlation: float = 1.0) -> SyntheticClass:
    """Signatures are a pure function of (class_id, master_seed)."""
    rng = np.random.default_rng(
        np.random.SeedSequence([master_seed, _CLASS_STREAM_TAG, class_id]))
    (band_w, fbins), (span, box_h, box_w) = signature_shapes(geom)
    audio = rng.choice([-1.0, 1.0], size=(band_w, fbins)) * rng.uniform(1.0, 1.5, (band_w, fbins))
    video = rng.choice([-1.0, 1.0], size=(span, box_h, box_w)) * rng.uniform(1.0, 1.5, (span, box_h, box_w))
    return SyntheticClass(class_id, correlation, audio, video)


def _relative_band_start(frame0: int, span: int, geom: SceneGeometry, band_w: int) -> int:
    v, a = geom.video, geom.audio
    denom = v.frames - span
    u = frame0 / denom if denom > 0 else 0.0
    return int(round(u * (a.time_bins - band_w)))


def _plant(values: np.ndarray, region: tuple[slice, ...],
           signature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` with ``signature`` added over ``region``, and the boolean
    cell mask painted through the same slice."""
    values[region] += signature
    cells = np.zeros(values.shape, dtype=bool)
    cells[region] = True
    return values, cells


def generate_pair(cls: SyntheticClass, rng: np.random.Generator, geom: SceneGeometry,
                  decoys: tuple[SyntheticClass, ...] = (),
                  noise_std: float = 1.0, amplitude: float = 3.0,
                  ) -> tuple[tuple[np.ndarray, np.ndarray],
                             tuple[np.ndarray, np.ndarray], bool]:
    """One audio-video pair: ``((audio, audio_cells), (video, video_cells),
    matched)``.  Values have the cell shape of their geometry; each boolean
    cell mask is painted through the slice its signature was added through,
    so it marks exactly the planted cells.

    Draw order is fixed so a per-sample seed reproduces the pair bit-exactly:
    video placement, video noise, co-occurrence coin, decoy pick + independent
    audio placement (only when unmatched), audio noise.
    """
    a, v = geom.audio, geom.video
    (band_w, _), (span, box_h, box_w) = signature_shapes(geom)

    frame0 = int(rng.integers(0, v.frames - span + 1))
    r0 = int(rng.integers(0, v.height - box_h + 1))
    c0 = int(rng.integers(0, v.width - box_w + 1))
    video = _plant(rng.normal(0.0, noise_std, size=v.shape),
                   np.s_[frame0:frame0 + span, r0:r0 + box_h, c0:c0 + box_w],
                   amplitude * cls.video_pattern)

    matched = bool(rng.random() < cls.correlation)
    if matched or not decoys:
        audio_cls, band_frame = cls, frame0
    else:
        audio_cls = decoys[int(rng.integers(0, len(decoys)))]
        band_frame = int(rng.integers(0, v.frames - span + 1))
    band_start = _relative_band_start(band_frame, span, geom, band_w)
    audio = _plant(rng.normal(0.0, noise_std, size=a.shape),
                   np.s_[band_start:band_start + band_w],
                   amplitude * audio_cls.audio_pattern)
    return audio, video, matched


# ---------------------------------------------------------------------------
# patch grids
# ---------------------------------------------------------------------------


@dataclass
class PatchSet:
    """A batch of flattened patches plus the grid bookkeeping to invert them.

    ``indices[b, i]`` is the flat grid index of patch i in row b, so selected
    subsets stay traceable to their original positions. Audio flat order is
    time-major (time_block * num_freq + freq_block); video is frame-major
    ((frame * rows + row) * cols + col). Patch contents are row-major p*p.
    """

    patches: np.ndarray  # (B, n, patch_dim)
    indices: np.ndarray  # (B, n) int64 flat grid indices
    modality: str  # "audio" | "video"
    grid: tuple[int, ...]  # the geometry's grid: blocks per axis

    def __post_init__(self):
        self.patches = np.asarray(self.patches, dtype=np.float64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.patches.ndim != 3 or self.indices.shape != self.patches.shape[:2]:
            raise DataError("patches must be (B, n, patch_dim) with aligned indices")
        if self.modality not in ("audio", "video"):
            raise DataError(f"unknown modality {self.modality!r}")
        total = self.total_patches
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= total):
            raise DataError("patch index outside the grid")

    @property
    def total_patches(self) -> int:
        return math.prod(self.grid)

    @property
    def count(self) -> int:
        return self.patches.shape[1]


def patchify(values: np.ndarray, geom: AudioGeometry | VideoGeometry) -> np.ndarray:
    """(..., *geom.shape) -> (..., geom.patches, geom.patch_dim), keeping the
    dtype: patches in row-major grid order (audio time-major, video
    frame-major), each patch's cells row-major."""
    arr = np.asarray(values)
    k = len(geom.blocks)
    if arr.shape[-k:] != geom.shape:
        raise DataError(f"cell grid {arr.shape[-k:]} does not match geometry {geom.shape}")
    lead = arr.shape[:-k]
    x = arr.reshape(lead + sum(geom.blocks, ()))  # (..., n0, s0, n1, s1, ...)
    n = len(lead)
    counts, sizes = range(n, n + 2 * k, 2), range(n + 1, n + 2 * k, 2)
    x = x.transpose((*range(n), *counts, *sizes))  # (..., n0, n1, ..., s0, s1, ...)
    return np.ascontiguousarray(x.reshape(lead + (geom.patches, geom.patch_dim)))


def full_patchset(patches: np.ndarray, modality: str, geom: SceneGeometry) -> PatchSet:
    """Wrap a (B, n_full, patch_dim) array as an unselected PatchSet."""
    g = getattr(geom, modality)
    b, n = patches.shape[:2]
    if n != g.patches:
        raise DataError("patch count does not match geometry")
    idx = np.broadcast_to(np.arange(n, dtype=np.int64), (b, n)).copy()
    return PatchSet(patches, idx, modality, g.grid)


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def random_mask(rng: np.random.Generator, batch: int, count: int, prob: float) -> np.ndarray:
    """Independent Bernoulli(prob) masks, True = masked.

    Rows that come out fully masked are redrawn (a sample must keep at least
    one visible patch). prob must lie in [0, 1).
    """
    if not 0.0 <= prob < 1.0:
        raise DataError("mask probability must lie in [0, 1)")
    mask = rng.random((batch, count)) < prob
    for b in range(batch):
        while mask[b].all():
            mask[b] = rng.random(count) < prob
    return mask


# ---------------------------------------------------------------------------
# task sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataConfig:
    num_tasks: int = 4
    classes_per_task: int = 5
    train_pairs: int = 256
    eval_pairs: int = 64
    correlation: float = 1.0
    noise_std: float = 1.0
    amplitude: float = 3.0
    seed: int = 1
    geometry: SceneGeometry = field(default_factory=SceneGeometry)

    def __post_init__(self):
        if min(self.num_tasks, self.classes_per_task, self.train_pairs,
               self.eval_pairs) < 1:
            raise DataError("num_tasks, classes_per_task, train_pairs and "
                            "eval_pairs must be at least 1")
        if not 0.0 <= self.correlation <= 1.0:
            raise DataError("correlation strength must lie in [0, 1]")
        if self.noise_std < 0.0:
            raise DataError("noise_std must be non-negative")
        if self.seed < 0:
            raise DataError("seed must be non-negative")


@dataclass
class SampleSet:
    """Patchified pairs plus ground truth for one split of one task; the
    fields are laid out by :func:`_split_layout`."""

    audio_patches: np.ndarray  # (n, M, p_a^2)
    video_patches: np.ndarray  # (n, N, p_v^2)
    audio_truth: np.ndarray  # (n, M) bool
    video_truth: np.ndarray  # (n, N) bool
    class_ids: np.ndarray  # (n,) int64

    def __len__(self):
        return self.audio_patches.shape[0]


@dataclass
class TaskData:
    spec: TaskSpec
    train: SampleSet
    eval: SampleSet


def _split_layout(geom: SceneGeometry, n: int) -> dict[str, tuple[tuple[int, ...], type]]:
    """:class:`SampleSet` field -> (shape, dtype), for a split of ``n`` pairs."""
    a, v = geom.audio, geom.video
    return {"audio_patches": ((n, a.patches, a.patch_dim), np.float64),
            "video_patches": ((n, v.patches, v.patch_dim), np.float64),
            "audio_truth": ((n, a.patches), np.bool_),
            "video_truth": ((n, v.patches), np.bool_),
            "class_ids": ((n,), np.int64)}


def build_task_specs(cfg: DataConfig) -> list[TaskSpec]:
    c = cfg.classes_per_task
    return [TaskSpec(k, tuple(range(k * c, (k + 1) * c))) for k in range(cfg.num_tasks)]


def _build_split(cfg: DataConfig, spec: TaskSpec, classes: dict[int, SyntheticClass],
                 n: int, split_tag: int) -> SampleSet:
    """``n`` pairs, each from its own seed, patchified as they are drawn;
    the truth masks are cut from the split's painted cells at once."""
    geom = cfg.geometry
    a, v = geom.audio, geom.video
    out = {name: np.empty(shape, dtype)
           for name, (shape, dtype) in _split_layout(geom, n).items()}
    audio_cells, video_cells = np.empty((n, *a.shape), bool), np.empty((n, *v.shape), bool)
    task_classes = [classes[c] for c in spec.class_ids]
    for i in range(n):
        cls = task_classes[i % len(task_classes)]
        decoys = tuple(c for c in task_classes if c.class_id != cls.class_id)
        rng = np.random.default_rng(np.random.SeedSequence(
            [cfg.seed, _SAMPLE_STREAM_TAG, spec.task_id, split_tag, i]))
        (audio, audio_cells[i]), (video, video_cells[i]), _ = generate_pair(
            cls, rng, geom, decoys, cfg.noise_std, cfg.amplitude)
        out["audio_patches"][i] = patchify(audio, a)
        out["video_patches"][i] = patchify(video, v)
        out["class_ids"][i] = cls.class_id
    out["audio_truth"][:] = patchify(audio_cells, a).any(-1)
    out["video_truth"][:] = patchify(video_cells, v).any(-1)
    return SampleSet(**out)


def build_sequence(cfg: DataConfig) -> list[TaskData]:
    """Deterministic task sequence; every sample derives from its own seed."""
    specs = build_task_specs(cfg)
    classes = {
        cid: make_class(cid, cfg.seed, cfg.geometry, cfg.correlation)
        for s in specs for cid in s.class_ids
    }
    out = []
    for spec in specs:
        train = _build_split(cfg, spec, classes, cfg.train_pairs, 0)
        evl = _build_split(cfg, spec, classes, cfg.eval_pairs, 1)
        out.append(TaskData(spec, train, evl))
    return out


# ---------------------------------------------------------------------------
# task files
# ---------------------------------------------------------------------------


def write_task_file(path, task: TaskData) -> None:
    """Save the ten split tensors of ``task``, ``{train,eval}/<field>`` for
    each :class:`SampleSet` field, as one checkpoint container.

    Masks and class ids are stored as float64 like every entry.  Nothing
    else is written: the dataset's ``[data]`` config holds the geometry,
    the pair counts and, through :func:`build_task_specs`, the classes.
    """
    ckpt.save(path, {f"{name}/{f.name}": getattr(split, f.name)
                     for name, split in (("train", task.train), ("eval", task.eval))
                     for f in fields(SampleSet)})


def read_task_file(path, cfg: DataConfig, spec: TaskSpec) -> TaskData:
    """Load the task ``spec`` from a file written by :func:`write_task_file`.

    The file must hold exactly the ten tensors, each at the shape ``cfg``
    gives it and finite (:func:`checkpoint.check_layout`); truth masks must
    hold only 0 and 1 and class ids only those of ``spec``.  Each is then
    cast to its field's dtype.  Anything else raises :class:`DataError`
    naming the file and the tensor.
    """
    layouts = {"train": _split_layout(cfg.geometry, cfg.train_pairs),
               "eval": _split_layout(cfg.geometry, cfg.eval_pairs)}
    try:
        tensors = ckpt.load(path)
        ckpt.check_layout(tensors, {f"{name}/{attr}": shape
                                    for name, layout in layouts.items()
                                    for attr, (shape, _) in layout.items()})
    except ckpt.CheckpointError as e:
        raise DataError(f"{path}: {e}") from e
    allowed = {"audio_truth": (0, 1), "video_truth": (0, 1), "class_ids": spec.class_ids}

    def split(name: str) -> SampleSet:
        arrays = {}
        for attr, (_, dtype) in layouts[name].items():
            key = f"{name}/{attr}"
            if attr in allowed and not np.isin(tensors[key], allowed[attr]).all():
                raise DataError(f"{path}: tensor {key!r} holds a value not among "
                                f"{allowed[attr]}")
            arrays[attr] = tensors[key].astype(dtype, copy=False)
        return SampleSet(**arrays)

    return TaskData(spec, split("train"), split("eval"))
