"""Replay-guided patch selection.

Pure numpy, no autodiff: importance scoring from cross-attention maps,
importance-sorted query/key gathering, past-vs-current correlation scores,
probabilistic video patch selection, audio time-chunk selection, and the
final patch gather, on the tape's numpy softmax and sigmoid kernels.

Randomness protocol (relied on by tests and by bit-exact replays), the same
for both modalities: every select_* call spawns one child generator per
batch row via ``rng.spawn(B)`` and takes each child's uniforms in a single
``random(kappa + draws)`` call.  The first kappa are the Bernoulli exclusion
draws (taken even when correlation is absent, so that a run with no memory
consumes the same stream as one with correlation forced to zero); the rest
feed the modality's weighted draws-without-replacement, one uniform per
pick: kappa patch draws by importance for video, one draw per time chunk
for audio.  One call yields the same values as ``random(kappa)`` followed by
scalar ``random()`` calls.  A degenerate row, whose positive mass runs out
before its draws do, leaves uniforms it never uses; the children are
discarded, so the parent stream's state and spawn count do not change.
The draws run for all rows at once.
"""

from __future__ import annotations

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


def _uniforms(rng: np.random.Generator, b: int, count: int) -> np.ndarray:
    """(B, count): row i holds the first ``count`` uniforms of the i-th of
    ``B`` children spawned from ``rng``, taken in one call per child."""
    return np.array([child.random(count) for child in rng.spawn(b)]).reshape(b, count)


def _draw_without_replacement(weights: np.ndarray, uniforms: np.ndarray
                              ) -> np.ndarray:
    """Sequential multinomial-without-replacement by cumulative inversion,
    all rows at once: draw t of row i inverts ``uniforms[i, t]`` on the
    row's running cumulative sum.  Returns the picks (B, draws) in draw
    order; once a row's mass is gone, its remaining picks are n, one past
    its last entry."""
    b, n = weights.shape
    w = np.zeros((b, n + 1))  # column n: the sink that spent rows pick
    w[:, :n] = weights
    rows = np.arange(b)
    picks = np.empty(uniforms.shape, dtype=np.int64)
    for t, u in enumerate(uniforms.T):
        cum = np.cumsum(w, axis=1)
        r = u * cum[:, -1]  # sequential total, so r < total always holds
        # the count of entries <= r is searchsorted(cum, r, side="right");
        # a spent row (total 0, so r 0) counts all n
        picks[:, t] = idx = (cum[:, :n] <= r[:, None]).sum(axis=1)
        w[rows, idx] = 0.0
    return picks


def _flag(importance: np.ndarray, correlation: np.ndarray | None, kap: int,
          uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scored (:func:`_top_kappa`) patches (B, kappa) and the Bernoulli
    flags (B, n): ``correlation[:, j]`` belongs to the j-th scored patch,
    which is flagged when ``uniforms[:, j]`` falls below it."""
    b, n = importance.shape
    scored = _top_kappa(importance, kap)
    if correlation is not None and correlation.shape != (b, kap):
        raise SelectionError("correlation must be (B, kappa)")
    flags = np.zeros((b, n), dtype=bool)
    if correlation is not None:
        np.put_along_axis(flags, scored, uniforms[:, :kap] < correlation, axis=1)
    return scored, flags


def _complete(picked: np.ndarray, scored: np.ndarray,
              correlation: np.ndarray | None, kap: int) -> np.ndarray:
    """Ascending indices (B, kappa) of the pick mask (B, n), which holds at
    most kappa picks per row.  A short row is filled deterministically with
    unpicked patches by ascending correlation (least past-correlated first,
    unscored patches counting as zero), index-stable."""
    n = picked.shape[1]
    for row in np.flatnonzero(np.count_nonzero(picked, axis=1) < kap):
        c_full = np.zeros(n)
        if correlation is not None:
            c_full[scored[row]] = correlation[row]
        cand = np.flatnonzero(~picked[row])
        need = kap - (n - len(cand))
        picked[row, cand[np.lexsort((cand, c_full[cand]))][:need]] = True
    return np.nonzero(picked)[1].reshape(-1, kap)


def select_video(importance: np.ndarray, correlation: np.ndarray | None,
                 kap: int, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Draw kappa distinct video patches per row, proportional to importance
    with Bernoulli(correlation)-flagged patches zeroed out.

    correlation=None means "no memory yet": no patch is ever flagged, but
    the Bernoulli uniforms are still drawn so runs with and without stored
    correlation stay stream-aligned. Returns (ascending indices (B, kappa),
    full-length exclusion flags (B, n))."""
    b, n = importance.shape
    uniforms = _uniforms(rng, b, 2 * kap)  # kappa Bernoulli, then kappa draws
    scored, flags = _flag(importance, correlation, kap, uniforms)
    picks = _draw_without_replacement(np.where(flags, 0.0, importance),
                                      uniforms[:, kap:])
    picked = np.zeros((b, n + 1), dtype=bool)  # column n: no pick
    np.put_along_axis(picked, picks, True, axis=1)
    return _complete(picked[:, :n], scored, correlation, kap), flags


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
    b, m = importance.shape
    num_time, num_freq = grid
    if num_time * num_freq != m:
        raise SelectionError("grid does not match importance width")
    if chunk_size < 1 or chunk_size > num_time:
        raise SelectionError("chunk_size must lie in [1, num_time]")
    num_chunks = num_time // chunk_size
    span = chunk_size * num_freq
    uniforms = _uniforms(rng, b, kap + num_chunks)
    scored, flags = _flag(importance, correlation, kap, uniforms)
    time_mass = importance.reshape(b, num_time, num_freq).sum(axis=2)
    chunk_mass = time_mass[:, :num_chunks * chunk_size]
    chunk_mass = chunk_mass.reshape(b, num_chunks, chunk_size).mean(axis=2)
    picks = _draw_without_replacement(chunk_mass, uniforms[:, kap:])
    # the schedule: drawn chunks in draw order, then the zero-mass chunks
    # (possible on generic inputs) in ascending order
    rank = np.tile(np.arange(num_chunks + 1) + num_chunks, (b, 1))
    np.put_along_axis(rank, picks, np.arange(num_chunks), axis=1)
    order = np.argsort(rank[:, :num_chunks], axis=1)
    patches = (order[:, :, None] * span + np.arange(span)).reshape(b, -1)
    kept = ~np.take_along_axis(flags, patches, axis=1)
    picked = np.zeros((b, m), dtype=bool)
    np.put_along_axis(picked, patches, kept & (np.cumsum(kept, axis=1) <= kap), axis=1)
    return _complete(picked, scored, correlation, kap), flags


def gather_selected(ps: PatchSet, selected: np.ndarray) -> PatchSet:
    """Row-wise patch gather; indices metadata keeps the original grid ids."""
    b = selected.shape[0]
    if ps.patches.shape[0] != b:
        raise SelectionError("batch size mismatch")
    n = ps.patches.shape[1]
    if np.any(selected < 0) or np.any(selected >= n):
        raise SelectionError("selected index out of range")
    ordered = np.sort(selected, axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise SelectionError("selected indices must be distinct per row")
    patches = np.take_along_axis(ps.patches, selected[:, :, None], axis=1)
    indices = np.take_along_axis(ps.indices, selected, axis=1)
    return PatchSet(np.ascontiguousarray(patches), np.ascontiguousarray(indices),
                    ps.modality, ps.grid)
