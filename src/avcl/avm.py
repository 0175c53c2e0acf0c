"""Audio-video matching head over frozen fusion tokens.

A small set of per-modality query/key/value projections plus a two-layer
scoring head. Cross-attention runs both ways (video queries attending audio
keys and vice versa); its logit maps, arrays off the tape that raise
``tt.NumericError`` when non-finite, drive patch importance downstream, and
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
class AvmParams(tt.Parameters):
    heads: int
    flat: Tensor
    params: dict[str, Tensor]


def param_table(cfg: bb.BackboneConfig) -> tt.ParamTable:
    """Every matching-head parameter, in the order :func:`init_avm` draws
    them and checkpoints store them.

    Fan-in scaling: unlike the backbone blocks there is no normalization
    anywhere in this head, so a fixed small init would shrink activations
    multiplicatively across the three layers and stall training."""
    d = cfg.embed_dim
    t = {f"avm/{mod}/{proj}": ((d, d), d ** -0.5)
         for mod in ("audio", "video") for proj in ("wq", "wk", "wv")}
    t.update({"avm/head/w1": ((2 * d, d), (2 * d) ** -0.5),
              "avm/head/b1": ((d,), tt.ZEROS),
              "avm/head/w2": ((d, 1), d ** -0.5),
              "avm/head/b2": ((1,), tt.ZEROS)})
    return t


def init_avm(cfg: bb.BackboneConfig, rng: np.random.Generator) -> AvmParams:
    return AvmParams(cfg.heads, *tt.init_parameters(param_table(cfg), rng))


def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, n, d = x.shape
    return tt.transpose(tt.reshape(x, (b, n, heads, d // heads)), (0, 2, 1, 3))


def _project(avm: AvmParams, tokens: Tensor, modality: str, proj: str) -> Tensor:
    """(B, n, D) fusion tokens -> per-head ``proj`` (wq, wk or wv) of shape
    (B, H, n, d)."""
    return _split_heads(tt.matmul(tokens, avm.params[f"avm/{modality}/{proj}"]),
                        avm.heads)


@dataclass
class CrossAttention:
    """Bidirectional cross-attention logits plus the queries and keys behind
    them.

    audio_map[b, h, i, j] scores video query i against audio key j (so a
    softmax over its last axis distributes attention across audio patches);
    video_map is the transpose direction.
    """

    audio_map: np.ndarray  # (B, H, N, M)
    video_map: np.ndarray  # (B, H, M, N)
    q_audio: np.ndarray  # (B, H, M, d)
    k_audio: np.ndarray
    q_video: np.ndarray  # (B, H, N, d)
    k_video: np.ndarray


def cross_attention(avm: AvmParams, o_a: Tensor, o_v: Tensor,
                    beta: float) -> CrossAttention:
    """Raw logit maps for patch selection and attention export, as arrays off
    the tape (the matching head runs the fused :func:`tt.attention`)."""
    with tt.no_grad():
        q_a, k_a = (_project(avm, o_a, "audio", p).data for p in ("wq", "wk"))
        q_v, k_v = (_project(avm, o_v, "video", p).data for p in ("wq", "wk"))
    audio_map, _ = tt.scaled_logits(q_v, k_a, beta)
    video_map, _ = tt.scaled_logits(q_a, k_v, beta)
    if not (np.isfinite(audio_map).all() and np.isfinite(video_map).all()):
        raise tt.NumericError("non-finite cross-attention logits")
    return CrossAttention(audio_map, video_map, q_a, k_a, q_v, k_v)


def matching_forward(avm: AvmParams, o_a: Tensor, o_v: Tensor) -> Tensor:
    """Probability that each (audio, video) row is a genuine pair; (B,)."""
    q_a, k_a, v_a = (_project(avm, o_a, "audio", p) for p in ("wq", "wk", "wv"))
    q_v, k_v, v_v = (_project(avm, o_v, "video", p) for p in ("wq", "wk", "wv"))
    att_a = tt.attention(q_v, k_a, v_a)  # video queries over audio; (B,H,N,d)
    att_v = tt.attention(q_a, k_v, v_v)  # (B,H,M,d)
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
                  ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Unmasked no-grad backbone pass; constants w.r.t. the tape.  Returns
    the fusion tokens (o_a, o_v) and the encoder outputs (enc_a, enc_v)."""
    with tt.no_grad():
        enc_a, enc_v = bb.encode(state, aps, vps, None, None)
        o_a, o_v = bb.forward_fused(state, enc_a, enc_v, None, None)
    return o_a, o_v, enc_a, enc_v


def _shuffled_tokens(state: bb.BackboneState, o_a: Tensor, o_v: Tensor,
                     enc_a: Tensor, enc_v: Tensor, rng: np.random.Generator
                     ) -> tuple[np.ndarray, Tensor, Tensor]:
    """Pair labels and the joint fusion tokens of the batch with its audio
    shuffled among the negative rows.

    A positive row keeps its own audio, so its tokens are the scoring pass's
    (o_a, o_v); only the negative rows are fused again, from
    ``enc_a[donors]`` and ``enc_v`` (the encoders work per row, so that is
    exactly the encoding of the shuffled audio).
    """
    labels, donors = negative_pairing(rng, enc_a.shape[0])
    neg = np.flatnonzero(labels == 0.0)
    with tt.no_grad():
        f_a, f_v = bb.forward_fused(state, Tensor(enc_a.data[donors[neg]]),
                                    Tensor(enc_v.data[neg]), None, None)
    s_a, s_v = o_a.data.copy(), o_v.data.copy()
    s_a[neg], s_v[neg] = f_a.data, f_v.data
    return labels, Tensor(s_a), Tensor(s_v)


def avm_train_step(avm: AvmParams, state: bb.BackboneState, o_a: Tensor,
                   o_v: Tensor, enc_a: Tensor, enc_v: Tensor, opt,
                   rng: np.random.Generator) -> float:
    """One matching update: shuffle negatives, BCE, step only the AVM.

    Takes the batch's unmasked fusion tokens and encoder outputs from
    :func:`fusion_tokens` and returns the scalar loss; the step's tape is
    freed on return.  The trainer runs it right after the scoring pass,
    before the backbone's masked forward pass, while the backbone
    gradients are still zero.  They are asserted to be exactly zero after
    the backward pass, by one test of the backbone's flat gradient — the
    matching objective must never train the backbone.
    """
    labels, s_a, s_v = _shuffled_tokens(state, o_a, o_v, enc_a, enc_v, rng)
    yhat = matching_forward(avm, s_a, s_v)
    loss = tt.bce(yhat, Tensor(labels))
    loss.backward()
    if state.flat.grad.any():
        name = next(k for k, p in state.params.items() if p.grad.any())
        raise AssertionError(f"matching loss leaked into backbone param {name}")
    opt.step()
    opt.zero_grad()
    return loss.item()


def matching_accuracy(avm: AvmParams, state: bb.BackboneState, o_a: Tensor,
                      o_v: Tensor, enc_a: Tensor, enc_v: Tensor,
                      rng: np.random.Generator) -> float:
    """Held-out accuracy under the training pairing protocol (0.5 threshold)."""
    labels, s_a, s_v = _shuffled_tokens(state, o_a, o_v, enc_a, enc_v, rng)
    with tt.no_grad():
        yhat = matching_forward(avm, s_a, s_v)
    pred = (yhat.data >= 0.5).astype(float)
    return float((pred == labels).mean())
