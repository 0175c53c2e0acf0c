"""Audio-video matching head over frozen fusion tokens.

A small set of per-modality query/key/value projections plus a two-layer
scoring head. Cross-attention runs both ways (video queries attending audio
keys and vice versa); its logit maps drive patch importance downstream, and
the attended values feed a binary real-pair/shuffled-pair classifier.

The module trains against the backbone's fusion outputs computed WITHOUT
gradients: the matching loss may never touch backbone weights, and the
training step asserts exactly that every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import avcl.tensor as tt
from avcl import backbone as bb
from avcl.data import PatchSet
from avcl.tensor import Tensor


@dataclass
class AvmParams:
    heads: int
    params: dict[str, Tensor]

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for k, p in self.params.items():
            if k not in arrays:
                raise KeyError(f"missing parameter {k!r}")
            if arrays[k].shape != p.shape:
                raise ValueError(f"shape mismatch for {k!r}")
            p.data = np.ascontiguousarray(arrays[k], dtype=np.float64)


def init_avm(cfg: bb.BackboneConfig, rng: np.random.Generator,
             head_hidden: int | None = None) -> AvmParams:
    # Fan-in scaling: unlike the backbone blocks there is no normalization
    # anywhere in this head, so a fixed small init would shrink activations
    # multiplicatively across the three layers and stall training.
    d = cfg.embed_dim
    hidden = d if head_hidden is None else int(head_hidden)
    if hidden < 1:
        raise ValueError("head_hidden must be positive")
    p: dict[str, Tensor] = {}
    for mod in ("audio", "video"):
        for proj in ("wq", "wk", "wv"):
            p[f"avm/{mod}/{proj}"] = tt.parameter((d, d), rng, scale=d ** -0.5)
    p["avm/head/w1"] = tt.parameter((2 * d, hidden), rng, scale=(2 * d) ** -0.5)
    p["avm/head/b1"] = tt.parameter(np.zeros(hidden))
    p["avm/head/w2"] = tt.parameter((hidden, 1), rng, scale=hidden ** -0.5)
    p["avm/head/b2"] = tt.parameter(np.zeros(1))
    return AvmParams(cfg.heads, p)


def param_count(params: dict[str, Tensor]) -> int:
    return sum(int(t.size) for t in params.values())


def size_ratio(avm: AvmParams, state: bb.BackboneState) -> float:
    """Matching-module parameter count relative to the backbone's."""
    return param_count(avm.params) / param_count(state.params)


def project_qkv(avm: AvmParams, tokens: Tensor, modality: str):
    """(B, n, D) fusion tokens -> per-head q, k, v of shape (B, H, n, d)."""
    out = []
    for proj in ("wq", "wk", "wv"):
        x = tt.matmul(tokens, avm.params[f"avm/{modality}/{proj}"])
        out.append(bb._split_heads(x, avm.heads))
    return tuple(out)


@dataclass
class CrossAttention:
    """Bidirectional cross-attention logits plus the projections behind them.

    audio_map[b, h, i, j] scores video query i against audio key j (so a
    softmax over its last axis distributes attention across audio patches);
    video_map is the transpose direction.
    """

    audio_map: Tensor  # (B, H, N, M)
    video_map: Tensor  # (B, H, M, N)
    q_audio: Tensor  # (B, H, M, d)
    k_audio: Tensor
    v_audio: Tensor
    q_video: Tensor  # (B, H, N, d)
    k_video: Tensor
    v_video: Tensor


def cross_attention(avm: AvmParams, o_a: Tensor, o_v: Tensor,
                    beta: float = 1.0) -> CrossAttention:
    q_a, k_a, v_a = project_qkv(avm, o_a, "audio")
    q_v, k_v, v_v = project_qkv(avm, o_v, "video")
    audio_map = tt.attention_logits(q_v, k_a, beta)
    video_map = tt.attention_logits(q_a, k_v, beta)
    return CrossAttention(audio_map, video_map, q_a, k_a, v_a, q_v, k_v, v_v)


def matching_forward(avm: AvmParams, o_a: Tensor, o_v: Tensor) -> Tensor:
    """Probability that each (audio, video) row is a genuine pair; (B,)."""
    ca = cross_attention(avm, o_a, o_v, beta=1.0)
    att_a = tt.matmul(tt.softmax(ca.audio_map, axis=-1), ca.v_audio)  # (B,H,N,d)
    att_v = tt.matmul(tt.softmax(ca.video_map, axis=-1), ca.v_video)  # (B,H,M,d)
    pooled_a = tt.mean(att_a, axis=2)  # patch-wise mean per head -> (B,H,d)
    pooled_v = tt.mean(att_v, axis=2)
    b, h, d = pooled_a.shape
    flat = tt.concat([tt.reshape(pooled_a, (b, h * d)),
                      tt.reshape(pooled_v, (b, h * d))], axis=1)  # (B, 2D)
    hid = tt.gelu(tt.linear(flat, avm.params["avm/head/w1"], avm.params["avm/head/b1"]))
    logit = tt.linear(hid, avm.params["avm/head/w2"], avm.params["avm/head/b2"])
    return tt.reshape(tt.sigmoid(logit), (b,))


def negative_pairing(rng: np.random.Generator, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels (1=real) and audio donor rows with floor(B/2) shuffled negatives.

    Negative rows receive another row's audio via a uniform random
    derangement of the negative subset; a singleton subset borrows from a
    uniformly random other row. No negative keeps its own audio.
    """
    if batch < 2:
        raise ValueError("need at least two rows to build negatives")
    donors = np.arange(batch)
    labels = np.ones(batch)
    neg = rng.permutation(batch)[: batch // 2]
    labels[neg] = 0.0
    if len(neg) == 1:
        others = np.delete(np.arange(batch), neg[0])
        donors[neg[0]] = others[int(rng.integers(0, len(others)))]
        return labels, donors
    while True:
        perm = rng.permutation(len(neg))
        if not np.any(perm == np.arange(len(neg))):
            break
    donors[neg] = neg[perm]
    return labels, donors


def fusion_tokens(state: bb.BackboneState, aps: PatchSet, vps: PatchSet
                  ) -> tuple[Tensor, Tensor]:
    """Unmasked no-grad backbone forward; constants w.r.t. the tape."""
    with tt.no_grad():
        fwd = bb.forward_fused(state, bb.embed(aps, state), bb.embed(vps, state),
                               None, None)
    return fwd.o_a, fwd.o_v


def _reindex(ps: PatchSet, rows: np.ndarray) -> PatchSet:
    return PatchSet(ps.patches[rows], ps.indices[rows], ps.modality, ps.grid, ps.patch)


def avm_train_step(avm: AvmParams, state: bb.BackboneState, aps: PatchSet,
                   vps: PatchSet, opt, rng: np.random.Generator) -> float:
    """One matching update: shuffle negatives, BCE, step only the AVM.

    Returns the scalar loss. Backbone gradients are asserted to be exactly
    zero after the backward pass — the matching objective must never train
    the backbone.
    """
    labels, donors = negative_pairing(rng, aps.patches.shape[0])
    o_a, o_v = fusion_tokens(state, _reindex(aps, donors), vps)
    yhat = matching_forward(avm, o_a, o_v)
    loss = tt.bce(yhat, Tensor(labels))
    loss.backward()
    for name, p in state.params.items():
        if p.grad is not None and np.any(p.grad != 0.0):
            raise AssertionError(f"matching loss leaked into backbone param {name}")
    opt.step()
    opt.zero_grad()
    return loss.item()


def matching_accuracy(avm: AvmParams, state: bb.BackboneState, aps: PatchSet,
                      vps: PatchSet, rng: np.random.Generator) -> float:
    """Held-out accuracy under the training pairing protocol (0.5 threshold)."""
    labels, donors = negative_pairing(rng, aps.patches.shape[0])
    o_a, o_v = fusion_tokens(state, _reindex(aps, donors), vps)
    with tt.no_grad():
        yhat = matching_forward(avm, o_a, o_v)
    pred = (yhat.data >= 0.5).astype(float)
    return float((pred == labels).mean())
