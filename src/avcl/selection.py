"""Replay-guided patch selection.

Pure numpy, no autodiff: importance scoring from cross-attention maps,
importance-sorted query/key gathering, past-vs-current correlation scores,
probabilistic video patch selection, audio time-chunk selection, and the
final patch gather, on the tape's numpy softmax and sigmoid kernels.

Randomness protocol (relied on by tests and by bit-exact replays), owned by
``_select_rows`` for both modalities: every select_* call spawns one child
generator per batch row via ``rng.spawn(B)`` and consumes, per row, first
the Bernoulli exclusion draws (a single ``random(kappa)`` call — drawn even
when correlation is absent so that a run with no memory consumes the same
stream as one with correlation forced to zero), then the modality's own
weighted draws-without-replacement one ``random()`` at a time: patches by
importance for video, the time-chunk schedule for audio. Degenerate video
rows that select "everything with positive mass" skip the weighted draws
entirely.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

import avcl.tensor as tt
from avcl.data import PatchSet


class SelectionError(ValueError):
    pass


def kappa(count: int, ratio: float) -> int:
    """Patch budget: round-half-up of count*ratio, at least 1."""
    if not 0.0 < ratio <= 1.0:
        raise SelectionError(f"sampling ratio must be in (0, 1], got {ratio}")
    if count < 1:
        raise SelectionError("patch count must be positive")
    return max(1, int(np.floor(count * ratio + 0.5)))


def importance_scores(audio_map: np.ndarray, video_map: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch attention probabilities, averaged over heads and queries.

    audio_map (B,H,N,M) holds video-query/audio-key logits; softmax over its
    last axis and the mean over (heads, video queries) gives I_a (B,M).
    video_map (B,H,M,N) gives I_v (B,N) the same way. Rows sum to 1.
    """
    if not (np.isfinite(audio_map).all() and np.isfinite(video_map).all()):
        raise SelectionError("attention maps must be finite")
    return (tt.softmax_inplace(audio_map.copy(), -1).mean(axis=(1, 2)),
            tt.softmax_inplace(video_map.copy(), -1).mean(axis=(1, 2)))


def _top_kappa(importance: np.ndarray, kap: int) -> np.ndarray:
    """Per row, the kappa most important patches in ascending importance,
    ties by index: the scored patches of both gathering and selection."""
    n = importance.shape[1]
    if not 1 <= kap <= n:
        raise SelectionError(f"kappa {kap} out of range for {n} patches")
    return np.argsort(importance, axis=1, kind="stable")[:, -kap:]


@dataclass
class LocalizedQueries:
    pooled: np.ndarray  # (B, H, d) importance-weighted mean of top-k queries
    keys: np.ndarray  # (B, H, kappa, d) gathered keys, ascending importance
    indices: np.ndarray  # (B, kappa) source patch ids, ascending importance


def gather_localized(q: np.ndarray, k: np.ndarray, importance: np.ndarray,
                     kap: int) -> LocalizedQueries:
    """Gather the :func:`_top_kappa` queries and keys and pool the queries
    with their importance values as weights."""
    b, h, n, d = q.shape
    if k.shape != q.shape or importance.shape != (b, n):
        raise SelectionError("query/key/importance shapes disagree")
    top = _top_kappa(importance, kap)
    weights = np.take_along_axis(importance, top, axis=1)  # (B, kappa)
    totals = weights.sum(axis=1)
    if np.any(totals <= 0.0):
        raise SelectionError("gathered importance mass must be positive")
    qg = np.take_along_axis(q, top[:, None, :, None], axis=2)  # (B,H,kappa,d)
    kg = np.take_along_axis(k, top[:, None, :, None], axis=2)
    pooled = (qg * weights[:, None, :, None]).sum(axis=2) / totals[:, None, None]
    return LocalizedQueries(pooled, kg, top)


def _scaled_scores(pooled: np.ndarray, keys: np.ndarray, beta: float) -> np.ndarray:
    d = keys.shape[-1]
    return np.einsum("bhd,bhkd->bhk", pooled, keys) / (beta * np.sqrt(d))


def correlation_scores(keys: np.ndarray, q_now: np.ndarray,
                       q_past: np.ndarray, beta: float) -> np.ndarray:
    """Per-patch probability that the PAST pooled query attends the patch
    more strongly than the current one.

    For each head and gathered key, the current and past attention scores
    enter a two-way softmax; the past-side component, averaged over heads,
    is the correlation score. Computed as sigmoid(past - now) for stability.
    """
    if beta <= 0.0:
        raise SelectionError("beta must be positive")
    a_now = _scaled_scores(q_now, keys, beta)
    a_past = _scaled_scores(q_past, keys, beta)
    return tt.stable_sigmoid(a_past - a_now).mean(axis=1)


def _draw_without_replacement(rng: np.random.Generator, weights: np.ndarray,
                              count: int) -> list[int]:
    """Sequential multinomial-without-replacement by cumulative inversion."""
    w = weights.astype(np.float64).copy()
    out: list[int] = []
    for _ in range(count):
        cum = np.cumsum(w)
        total = cum[-1]  # sequential total so r < cum[-1] always holds
        if total <= 0.0:
            break
        r = rng.random() * total
        idx = int(np.searchsorted(cum, r, side="right"))
        out.append(idx)
        w[idx] = 0.0
    return out


def _select_rows(importance: np.ndarray, correlation: np.ndarray | None,
                 kap: int, rng: np.random.Generator,
                 draw: Callable[[np.ndarray, np.ndarray, np.random.Generator],
                                Sequence[int]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The per-row protocol both selectors share.

    ``correlation[:, j]`` belongs to the j-th scored (:func:`_top_kappa`)
    patch.  Per row and child generator: Bernoulli(correlation) flags on the
    scored patches from one ``random(kappa)`` call, then ``draw(importance_row,
    flagged, child)``, which returns at most kappa distinct picks.  A short row
    is filled deterministically with unpicked patches by ascending correlation
    (least past-correlated first, unscored patches counting as zero),
    index-stable.  Returns (ascending indices (B, kappa), flags (B, n))."""
    b, n = importance.shape
    scored = _top_kappa(importance, kap)
    if correlation is not None and correlation.shape != (b, kap):
        raise SelectionError("correlation must be (B, kappa)")
    selected = np.empty((b, kap), dtype=np.int64)
    flags = np.zeros((b, n), dtype=bool)
    for row, child in enumerate(rng.spawn(b)):
        draws = child.random(kap)
        c_full = np.zeros(n)
        if correlation is not None:
            flags[row, scored[row][draws < correlation[row]]] = True
            c_full[scored[row]] = correlation[row]
        picks = np.asarray(draw(importance[row], flags[row], child), dtype=np.int64)
        if len(picks) < kap:
            cand = np.setdiff1d(np.arange(n), picks)
            fill = cand[np.lexsort((cand, c_full[cand]))][:kap - len(picks)]
            picks = np.concatenate([picks, fill])
        selected[row] = np.sort(picks)
    return selected, flags


def select_video(importance: np.ndarray, correlation: np.ndarray | None,
                 kap: int, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Draw kappa distinct video patches per row, proportional to importance
    with Bernoulli(correlation)-flagged patches zeroed out.

    correlation=None means "no memory yet": no patch is ever flagged, but
    the Bernoulli stream is still consumed so runs with and without stored
    correlation stay stream-aligned. Returns (ascending indices (B, kappa),
    full-length exclusion flags (B, n))."""
    def draw(imp_row, flagged, child):
        weights = np.where(flagged, 0.0, imp_row)
        positive = weights > 0.0
        if positive.sum() < kap:
            return np.flatnonzero(positive)
        return _draw_without_replacement(child, weights, kap)

    return _select_rows(importance, correlation, kap, rng, draw)


def select_audio(importance: np.ndarray, correlation: np.ndarray | None,
                 kap: int, chunk_size: int, grid: tuple[int, int],
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Audio selection over whole time chunks.

    Per row: flag scored patches by Bernoulli(correlation); sum importance
    over frequency, average-pool over chunks of ``chunk_size`` time steps
    (a partial tail chunk is truncated away); draw a full chunk ordering by
    multinomial-without-replacement on chunk importance; accumulate each
    chunk's unflagged patches in flat order until the budget is met, pruning
    the final chunk's tail to land exactly on kappa. Rows that run out of
    unflagged chunk patches fall back to ascending-correlation fill.
    Returns (ascending indices (B, kappa), full-length flags (B, M))."""
    num_time, num_freq = grid
    if num_time * num_freq != importance.shape[1]:
        raise SelectionError("grid does not match importance width")
    if chunk_size < 1 or chunk_size > num_time:
        raise SelectionError("chunk_size must lie in [1, num_time]")
    num_chunks = num_time // chunk_size
    span = chunk_size * num_freq

    def draw(imp_row, flagged, child):
        time_mass = imp_row.reshape(num_time, num_freq).sum(axis=1)
        chunk_mass = time_mass[:num_chunks * chunk_size]
        chunk_mass = chunk_mass.reshape(num_chunks, chunk_size).mean(axis=1)
        chunk_order = _draw_without_replacement(child, chunk_mass, num_chunks)
        # zero-mass chunks (possible on generic inputs) keep a deterministic
        # ascending-index order at the end of the schedule
        chunk_order += sorted(set(range(num_chunks)) - set(chunk_order))
        picks: list[int] = []
        for c in chunk_order:
            kept = np.flatnonzero(~flagged[c * span:(c + 1) * span]) + c * span
            picks.extend(kept[:kap - len(picks)])
            if len(picks) == kap:
                break
        return picks

    return _select_rows(importance, correlation, kap, rng, draw)


def gather_selected(ps: PatchSet, selected: np.ndarray) -> PatchSet:
    """Row-wise patch gather; indices metadata keeps the original grid ids."""
    b, kap = selected.shape
    if ps.patches.shape[0] != b:
        raise SelectionError("batch size mismatch")
    n = ps.patches.shape[1]
    if np.any(selected < 0) or np.any(selected >= n):
        raise SelectionError("selected index out of range")
    if any(len(np.unique(selected[i])) != kap for i in range(b)):
        raise SelectionError("selected indices must be distinct per row")
    patches = np.take_along_axis(ps.patches, selected[:, :, None], axis=1)
    indices = np.take_along_axis(ps.indices, selected, axis=1)
    return PatchSet(np.ascontiguousarray(patches), np.ascontiguousarray(indices),
                    ps.modality, ps.grid)
