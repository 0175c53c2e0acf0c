"""Evaluation: zero-shot cross-modal retrieval, continual-learning metrics
(average accuracy / forgetting over a lower-triangular task matrix),
modality-gap tracking, selection quality against planted ground truth, and
attention-map CSV export."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

import avcl.tensor as tt
from avcl import checkpoint as ckpt


class EvalError(ValueError):
    pass


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norms, 1e-30)


@dataclass(frozen=True)
class RetrievalReport:
    """Top-K recall percentages per direction, keyed by K."""

    audio_to_video: dict[int, float]
    video_to_audio: dict[int, float]
    size: int

    def headline(self) -> float:
        """Scalar score for the task matrix: mean recall over every K and
        both directions."""
        vals = list(self.audio_to_video.values()) + list(self.video_to_audio.values())
        return float(np.mean(vals))


def _ranks(sim: np.ndarray) -> np.ndarray:
    """Rank of the diagonal entry per row under descending similarity,
    candidates tied on similarity ordered by index (so an equal-similarity
    candidate with a smaller index outranks the true pair)."""
    n = sim.shape[0]
    true = sim[np.arange(n), np.arange(n)]
    better = (sim > true[:, None]).sum(axis=1)
    idx = np.arange(n)
    tied_earlier = ((sim == true[:, None]) & (idx[None, :] < idx[:, None])).sum(axis=1)
    return 1 + better + tied_earlier


def zero_shot_retrieval(audio_feats: np.ndarray, video_feats: np.ndarray,
                        ks: tuple[int, ...] = (1, 5, 10)) -> RetrievalReport:
    """Bidirectional R@K over cosine similarity; row i of each matrix is the
    ground-truth pair."""
    a = _normalize_rows(audio_feats)
    v = _normalize_rows(video_feats)
    if a.shape != v.shape or a.ndim != 2:
        raise EvalError("feature matrices must share shape (n, D)")
    n = a.shape[0]
    if n < max(ks):
        raise EvalError(f"need at least {max(ks)} pairs, got {n}")
    sim = a @ v.T
    ranks_av = _ranks(sim)
    ranks_va = _ranks(sim.T)
    return RetrievalReport(
        audio_to_video={k: float((ranks_av <= k).mean() * 100.0) for k in ks},
        video_to_audio={k: float((ranks_va <= k).mean() * 100.0) for k in ks},
        size=n)


# ---------------------------------------------------------------------------
# task matrix metrics


def check_acc_matrix(acc: list[list[float]]) -> None:
    if not acc:
        raise EvalError("empty accuracy matrix")
    for t, row in enumerate(acc):
        if len(row) != t + 1:
            raise EvalError("accuracy matrix must be lower-triangular")
        for v in row:
            if not 0.0 <= v <= 100.0:
                raise EvalError("accuracy values must lie in [0, 100]")


def average_accuracy(acc: list[list[float]]) -> float:
    """Mean of the final row: overall score after the last task."""
    check_acc_matrix(acc)
    return float(np.mean(acc[-1]))


def average_forgetting(acc: list[list[float]]) -> float:
    """Mean over earlier tasks of (best score while training, minus final
    score); negative when a task ends better than it ever was."""
    check_acc_matrix(acc)
    t_final = len(acc) - 1
    if t_final < 1:
        raise EvalError("forgetting needs at least two tasks")
    drops = []
    for i in range(t_final):
        peak = max(acc[t][i] for t in range(i, t_final))
        drops.append(peak - acc[t_final][i])
    return float(np.mean(drops))


# ---------------------------------------------------------------------------
# modality gap


def modality_gap(audio_feats: np.ndarray, video_feats: np.ndarray) -> float:
    """Distance between the centroids of the two L2-normalized embedding
    clouds."""
    a, v = np.asarray(audio_feats), np.asarray(video_feats)
    if a.size == 0 or v.size == 0:
        raise EvalError("modality gap needs nonempty feature sets")
    if a.shape[-1] != v.shape[-1]:
        raise EvalError("feature dimensions disagree")
    ca = _normalize_rows(a).mean(axis=0)
    cv = _normalize_rows(v).mean(axis=0)
    return float(np.linalg.norm(ca - cv))


def mean_gap_decline(gaps: list[float]) -> float:
    """Average per-task drop of the gap across a sequence (positive =
    shrinking gap)."""
    if len(gaps) < 2:
        raise EvalError("need gaps from at least two tasks")
    diffs = [gaps[t] - gaps[t + 1] for t in range(len(gaps) - 1)]
    return float(np.mean(diffs))


# ---------------------------------------------------------------------------
# selection quality


@dataclass(frozen=True)
class QualityReport:
    recall: float | None  # None when the truth mask is empty
    precision: float


def selection_quality(selected: np.ndarray, truth: np.ndarray) -> QualityReport:
    """Overlap of selected patch ids with the planted-source truth mask."""
    truth = np.asarray(truth, dtype=bool)
    selected = np.asarray(selected, dtype=np.int64)
    if selected.ndim != 1 or len(set(selected.tolist())) != len(selected):
        raise EvalError("selected must be a flat list of distinct indices")
    if len(selected) == 0:
        raise EvalError("selected set is empty")
    if np.any(selected < 0) or np.any(selected >= truth.size):
        raise EvalError("selected index outside the truth grid")
    hits = int(truth[selected].sum())
    total = int(truth.sum())
    recall = None if total == 0 else hits / total
    return QualityReport(recall=recall, precision=hits / len(selected))


# ---------------------------------------------------------------------------
# attention export


def export_attention(maps: np.ndarray, path) -> None:
    """Write head-averaged softmaxed cross-attention as CSV rows keyed by
    (sample, query patch), one column per key patch, full float64 precision."""
    maps = np.array(maps, dtype=np.float64)  # a copy the softmax overwrites
    if maps.ndim != 4:
        raise EvalError("maps must be (B, H, queries, keys) logits")
    probs = tt.softmax_inplace(maps, -1).mean(axis=1)  # (B, Q, K)
    b, q, k = probs.shape
    with ckpt.atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "query"] + [f"key_{j}" for j in range(k)])
        for s in range(b):
            for qi in range(q):
                writer.writerow([s, qi] + [f"{x:.17g}" for x in probs[s, qi]])
