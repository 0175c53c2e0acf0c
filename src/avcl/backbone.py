"""Two-stream masked autoencoding backbone with shared fusion.

The forward pass runs in stages; each caller runs only those it reads:

* ``encode`` -> (enc_a, enc_v): linear embedding plus a learned positional
  table per modality, then per-modality pre-norm transformer encoders;
* ``forward_fused`` -> (o_a, o_v): joint fusion over both modalities'
  encoder outputs, read by the matching module and the decoder;
* ``decode``: (o_a, o_v) go back to their full-length slots, masked slots
  become a learned mask token plus the positional embedding of the slot's
  grid id, then a shared decoder and per-modality linear heads reconstruct
  the patches;
* ``contrastive_features`` -> (c_a, c_v): single-modality fusion over each
  modality's encoder outputs + per-modality layernorm + visibility-weighted
  mean pool + L2 normalization.  Retrieval reads only these, so evaluation
  never runs the joint fusion.

Every transformer block (encoders, joint fusion, contrastive fusion,
decoder) is one call of ``tt.prenorm_block``: a single tape node when
gradients are recorded, plain numpy under ``no_grad``, where a block keeps
no intermediate past its last use.  A recorded block keeps only what its
backward rule cannot cheaply rebuild (see ``tt.prenorm_block``).

Losses: the reconstruction term is one ``tt.masked_mse`` node per
modality, which keeps only the residual and the mask for its backward pass,
not the squared errors; the contrastive loss and the objective's weighted
sum are small primitive chains over (B, B) and scalar values.

Masking semantics: a masked training batch enters the encoders as its
visible tokens only (``visible_tokens``): each row's visible patches come
first, and the batch is cut to its largest visible count.  Rows with fewer
visible patches are padded with some of their masked ones, which key
masking hides from every attention layer; that is exactly equivalent to
dropping them, since all other ops are per-token.  So key masking covers
padding only, and a batch whose rows see equally many patches runs with no
bias at all.  Only the decoder works at full length: ``decode`` scatters
the visible outputs back to their slots and fills every masked slot with
the mask token.  Unmasked callers (the matching module's scoring pass,
evaluation) pass ``None`` masks and never compact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import avcl.tensor as tt
from avcl.data import PatchSet, SceneGeometry
from avcl.tensor import Tensor

_NEG_BIAS = -1e30  # exp() underflows to exactly 0 after max subtraction


@dataclass(frozen=True)
class BackboneConfig:
    embed_dim: int = 32
    heads: int = 4
    encoder_layers: int = 2
    fusion_layers: int = 1
    decoder_layers: int = 1
    mlp_ratio: int = 2
    mask_prob: float = 0.8
    temperature: float = 0.07  # contrastive softmax temperature
    contrastive_weight: float = 0.1  # weight of the contrastive term
    layernorm_eps: float = 1e-6

    def __post_init__(self):
        if min(self.embed_dim, self.heads, self.mlp_ratio) < 1:
            raise ValueError("embed_dim, heads and mlp_ratio must be at least 1")
        if min(self.encoder_layers, self.fusion_layers, self.decoder_layers) < 0:
            raise ValueError("layer counts must be non-negative")
        if self.embed_dim % self.heads:
            raise ValueError("embed_dim must be a multiple of heads")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ValueError("mask_prob must lie in [0, 1)")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.layernorm_eps <= 0:
            raise ValueError("layernorm_eps must be positive")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads


@dataclass
class BackboneState(tt.Parameters):
    cfg: BackboneConfig
    flat: Tensor
    params: dict[str, Tensor]


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


_W = 0.02  # std of every backbone weight draw


def _block_table(prefix: str, dim: int, hidden: int) -> tt.ParamTable:
    """One pre-norm block's parameters, in draw order."""
    ones, zeros = ((dim,), tt.ONES), ((dim,), tt.ZEROS)
    t = {"ln1/gain": ones, "ln1/bias": zeros}
    for w in ("wq", "wk", "wv", "wo"):
        t[f"attn/{w}"] = ((dim, dim), _W)
        t[f"attn/b{w[1]}"] = zeros
    t.update({"ln2/gain": ones, "ln2/bias": zeros,
              "mlp/w1": ((dim, hidden), _W), "mlp/b1": ((hidden,), tt.ZEROS),
              "mlp/w2": ((hidden, dim), _W), "mlp/b2": zeros})
    return {f"{prefix}/{name}": rule for name, rule in t.items()}


def param_table(cfg: BackboneConfig, geom: SceneGeometry) -> tt.ParamTable:
    """Every backbone parameter, in the order :func:`init_backbone` draws
    them and checkpoints store them."""
    d = cfg.embed_dim
    hidden = cfg.mlp_ratio * d
    a, v = geom.audio, geom.video
    t = {"audio_embed/weight": ((a.patch_dim, d), _W),
         "audio_embed/bias": ((d,), tt.ZEROS),
         "video_embed/weight": ((v.patch_dim, d), _W),
         "video_embed/bias": ((d,), tt.ZEROS),
         "audio_pos": ((a.patches, d), _W),
         "video_pos": ((v.patches, d), _W),
         "audio_mask_token": ((d,), _W),
         "video_mask_token": ((d,), _W)}
    for i in range(cfg.encoder_layers):
        t.update(_block_table(f"enc_audio/{i}", d, hidden))
        t.update(_block_table(f"enc_video/{i}", d, hidden))
    for i in range(cfg.fusion_layers):
        t.update(_block_table(f"fusion/{i}", d, hidden))
    for i in range(cfg.decoder_layers):
        t.update(_block_table(f"decoder/{i}", d, hidden))
    for tag in ("audio", "video"):
        t[f"ln_{tag}/gain"] = ((d,), tt.ONES)
        t[f"ln_{tag}/bias"] = ((d,), tt.ZEROS)
    t.update({"decoder_head_audio/weight": ((d, a.patch_dim), _W),
              "decoder_head_audio/bias": ((a.patch_dim,), tt.ZEROS),
              "decoder_head_video/weight": ((d, v.patch_dim), _W),
              "decoder_head_video/bias": ((v.patch_dim,), tt.ZEROS)})
    return t


def init_backbone(cfg: BackboneConfig, geom: SceneGeometry,
                  rng: np.random.Generator) -> BackboneState:
    return BackboneState(cfg, *tt.init_parameters(param_table(cfg, geom), rng))


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------


def visible_tokens(ps: PatchSet, mask: np.ndarray
                   ) -> tuple[PatchSet, np.ndarray, np.ndarray]:
    """Each row's visible patches first, cut to the batch's largest visible
    count ``k``.

    Returns the compact (B, k) patch set, its mask (True only on padding
    columns, which hold masked patches) and ``slots``: for every full-length
    slot, its row in the flattened (B * k) compact outputs, or -1 where the
    slot is masked.  Patches and grid ids are constants, so the gather
    records nothing on the tape; ``embed`` reads the positions off the
    gathered grid ids.
    """
    k = int((~mask).sum(axis=1).max())
    keep = np.argsort(mask, axis=1, kind="stable")[:, :k]
    compact = PatchSet(np.take_along_axis(ps.patches, keep[:, :, None], axis=1),
                       np.take_along_axis(ps.indices, keep, axis=1),
                       ps.modality, ps.grid)
    rank = np.cumsum(~mask, axis=1) - 1  # a visible slot's compact column
    rows = np.arange(mask.shape[0])[:, None]
    slots = np.where(mask, -1, rows * k + rank)
    return compact, np.take_along_axis(mask, keep, axis=1), slots


def key_bias(mask: np.ndarray | None) -> Tensor | None:
    """(B, n) True=masked -> (B, 1, 1, n) additive attention bias."""
    if mask is None or not mask.any():
        return None
    return Tensor((_NEG_BIAS * mask.astype(np.float64))[:, None, None, :])


def embed(ps: PatchSet, state: BackboneState) -> Tensor:
    """out[b, i] = W . patch[b, i] + bias + pos[original_index[b, i]]."""
    p = state.params
    w = p[f"{ps.modality}_embed/weight"]
    b = p[f"{ps.modality}_embed/bias"]
    pos = p[f"{ps.modality}_pos"]
    x = tt.linear(Tensor(ps.patches), w, b)
    return tt.add(x, tt.gather_rows(pos, ps.indices))


_BLOCK_PARAMS = ("ln1/gain", "ln1/bias", "attn/wq", "attn/bq", "attn/wk", "attn/bk",
                 "attn/wv", "attn/bv", "attn/wo", "attn/bo", "ln2/gain", "ln2/bias",
                 "mlp/w1", "mlp/b1", "mlp/w2", "mlp/b2")


def _block(params, prefix, x: Tensor, bias: Tensor | None, cfg: BackboneConfig) -> Tensor:
    """One pre-norm block (layernorm -> attention -> residual -> layernorm ->
    MLP -> residual), recorded as one tape node by ``tt.prenorm_block``."""
    return tt.prenorm_block(x, [params[f"{prefix}/{name}"] for name in _BLOCK_PARAMS],
                            bias, cfg.heads, cfg.layernorm_eps)


def _stack(params, base, count, x, bias, cfg):
    for i in range(count):
        x = _block(params, f"{base}/{i}", x, bias, cfg)
    return x


def encode_modality(state: BackboneState, x: Tensor, modality: str,
                    mask: np.ndarray | None) -> Tensor:
    return _stack(state.params, f"enc_{modality}", state.cfg.encoder_layers,
                  x, key_bias(mask), state.cfg)


def encode(state: BackboneState, aps: PatchSet, vps: PatchSet,
           m_a: np.ndarray | None, m_v: np.ndarray | None
           ) -> tuple[Tensor, Tensor]:
    """Embedding and per-modality encoder for both modalities."""
    return (encode_modality(state, embed(aps, state), "audio", m_a),
            encode_modality(state, embed(vps, state), "video", m_v))


def forward_fused(state: BackboneState, enc_a: Tensor, enc_v: Tensor,
                  m_a: np.ndarray | None, m_v: np.ndarray | None
                  ) -> tuple[Tensor, Tensor]:
    """Joint fusion over both modalities' visible tokens, split back into
    the audio and video tokens (o_a, o_v).  The pad masks come as a pair,
    or both None when every token is visible."""
    cfg = state.cfg
    na, nv = enc_a.shape[1], enc_v.shape[1]
    joint_mask = None if m_a is None else np.concatenate([m_a, m_v], axis=1)
    fused = _stack(state.params, "fusion", cfg.fusion_layers,
                   tt.concat([enc_a, enc_v], axis=1), key_bias(joint_mask), cfg)
    return tt.narrow(fused, 1, 0, na), tt.narrow(fused, 1, na, nv)


def _decoder_input(state: BackboneState, o: Tensor, ps: PatchSet,
                   slots: np.ndarray) -> Tensor:
    """Full-length decoder input: each slot reads its compact output row, or,
    where masked, the mask token plus the position of its grid id; one
    gather over [outputs; mask token + positions] does both."""
    params = state.params
    b, k, d = o.shape
    tok = tt.add(tt.reshape(params[f"{ps.modality}_mask_token"], (1, d)),
                 params[f"{ps.modality}_pos"])
    table = tt.concat([tt.reshape(o, (b * k, d)), tok], axis=0)
    return tt.gather_rows(table, np.where(slots < 0, b * k + ps.indices, slots))


def decode(state: BackboneState, o_a: Tensor, o_v: Tensor, aps: PatchSet,
           vps: PatchSet, slots_a: np.ndarray, slots_v: np.ndarray
           ) -> tuple[Tensor, Tensor]:
    """Scatter the compact fusion outputs back to the full-length slots of
    ``aps``/``vps`` (``slots_*`` from :func:`visible_tokens`), mask tokens
    into the masked slots, shared decoder block(s) per modality, then
    per-modality linear heads."""
    cfg, params = state.cfg, state.params
    a_tilde = _decoder_input(state, o_a, aps, slots_a)
    v_tilde = _decoder_input(state, o_v, vps, slots_v)
    da = _stack(params, "decoder", cfg.decoder_layers, a_tilde, None, cfg)
    dv = _stack(params, "decoder", cfg.decoder_layers, v_tilde, None, cfg)
    rec_a = tt.linear(da, params["decoder_head_audio/weight"], params["decoder_head_audio/bias"])
    rec_v = tt.linear(dv, params["decoder_head_video/weight"], params["decoder_head_video/bias"])
    return rec_a, rec_v


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def reconstruction_loss(recon_a: Tensor, recon_v: Tensor,
                        target_a: np.ndarray, target_v: np.ndarray,
                        m_a: np.ndarray, m_v: np.ndarray) -> Tensor:
    """Sum over modalities of batch-mean masked-element MSE
    (:func:`tensor.masked_mse`, one tape node per modality).

    Unmasked positions never contribute, so a row with nothing masked adds
    zero, and a batch with nothing masked in either modality has a zero
    loss with zero gradients.
    """
    return tt.add(tt.masked_mse(recon_a, target_a, m_a),
                  tt.masked_mse(recon_v, target_v, m_v))


def contrastive_features(state: BackboneState, enc_a: Tensor, enc_v: Tensor,
                         m_a: np.ndarray | None, m_v: np.ndarray | None
                         ) -> tuple[Tensor, Tensor]:
    """Single-modality fusion pass + modality layernorm + visible-mean pool.

    Takes the per-modality ENCODER outputs of ``encode`` (one encoder pass
    serves both objectives). The fusion blocks then run
    over one modality's tokens alone (no cross-modal concatenation), so each
    pooled feature depends only on its own modality — the cross-modal tie
    comes solely from the contrastive objective.
    """
    cfg, params = state.cfg, state.params

    def pooled(enc, mask, tag):
        f = _stack(params, "fusion", cfg.fusion_layers, enc, key_bias(mask), cfg)
        f = tt.layernorm(f, params[f"ln_{tag}/gain"], params[f"ln_{tag}/bias"],
                         cfg.layernorm_eps)
        if mask is not None and mask.any():
            w = Tensor((~mask).astype(np.float64)[:, :, None])
            pool = tt.weighted_mean_pool(f, axis=1, weights=w)
        else:
            pool = tt.mean(f, axis=1)
        return tt.l2_normalize(pool, axis=-1)

    return pooled(enc_a, m_a, "audio"), pooled(enc_v, m_v, "video")


def contrastive_loss(c_a: Tensor, c_v: Tensor, temperature: float) -> Tensor:
    """Symmetric paired-softmax loss over the batch similarity matrix.

    loss = -(1/B) * sum_i [log softmax_row(S)_ii + log softmax_col(S)_ii]
    with S = c_a c_v^T / temperature. Requires B >= 2.
    """
    b = c_a.shape[0]
    if b < 2:
        raise tt.ShapeError("contrastive loss needs at least two pairs")
    sims = tt.mul(tt.matmul(c_a, tt.swap_last(c_v)), 1.0 / temperature)
    eye = Tensor(np.eye(b))
    diag_row = tt.sum_(tt.mul(tt.log(tt.softmax(sims, axis=1)), eye))
    diag_col = tt.sum_(tt.mul(tt.log(tt.softmax(sims, axis=0)), eye))
    return tt.mul(tt.add(diag_row, diag_col), -1.0 / b)


def pretrain_objective(recon: Tensor, contrast: Tensor, penalty: Tensor | None,
                       contrastive_weight: float, penalty_weight: float) -> Tensor:
    """total = recon + lambda * contrast + alpha * penalty (penalty optional)."""
    total = tt.add(recon, tt.mul(contrast, contrastive_weight))
    if penalty is not None and penalty_weight != 0.0:
        total = tt.add(total, tt.mul(penalty, penalty_weight))
    return total
