"""Backbone: embedding, masked encode / fusion / decode stages, losses."""

import numpy as np
import pytest

import avcl.tensor as tt
from avcl import backbone as bb
from avcl import data as dd
from avcl.tensor import Tensor

GEOM = dd.SceneGeometry(dd.AudioGeometry(16, 8, 4), dd.VideoGeometry(2, 16, 16, 8))
CFG = bb.BackboneConfig(embed_dim=16, heads=2)


def make_state(seed=0, cfg=CFG, geom=GEOM):
    return bb.init_backbone(cfg, geom, np.random.default_rng(seed))


def patch_batch(rng, b, geom=GEOM):
    a = rng.normal(size=(b, geom.audio.patches, geom.audio.patch_dim))
    v = rng.normal(size=(b, geom.video.patches, geom.video.patch_dim))
    return (dd.full_patchset(a, "audio", geom), dd.full_patchset(v, "video", geom))


def test_config_validation():
    with pytest.raises(ValueError):
        bb.BackboneConfig(embed_dim=30, heads=4)
    with pytest.raises(ValueError):
        bb.BackboneConfig(mask_prob=1.0)
    assert CFG.head_dim == 8


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def test_embed_zero_patches_zero_bias_gives_positions():
    st = make_state()
    g = GEOM.audio
    zeros = np.zeros((2, g.patches, g.patch_dim))
    ps = dd.full_patchset(zeros, "audio", GEOM)
    st.params["audio_embed/bias"].data[...] = 0.0
    out = bb.embed(ps, st)
    want = st.params["audio_pos"].data
    assert np.allclose(out.data[0], want, atol=1e-15)
    assert np.allclose(out.data[1], want, atol=1e-15)


def test_embed_matches_explicit_loop():
    st = make_state(1)
    rng = np.random.default_rng(3)
    ps, _ = patch_batch(rng, 2)
    out = bb.embed(ps, st).data
    w = st.params["audio_embed/weight"].data
    b = st.params["audio_embed/bias"].data
    pos = st.params["audio_pos"].data
    for bi in range(2):
        for i in range(ps.count):
            want = w.T @ ps.patches[bi, i] + b + pos[ps.indices[bi, i]]
            assert np.allclose(out[bi, i], want, atol=1e-12)


def test_embed_respects_selected_indices():
    st = make_state(1)
    rng = np.random.default_rng(4)
    ps, _ = patch_batch(rng, 1)
    sub = dd.PatchSet(ps.patches[:, [5, 7]], ps.indices[:, [5, 7]], "audio",
                      ps.grid)
    full = bb.embed(ps, st).data
    part = bb.embed(sub, st).data
    assert np.allclose(part[0, 0], full[0, 5], atol=1e-15)
    assert np.allclose(part[0, 1], full[0, 7], atol=1e-15)


# ---------------------------------------------------------------------------
# encode -> joint fusion -> decode
# ---------------------------------------------------------------------------


def fused(st, aps, vps, m_a, m_v):
    """Encoder outputs and joint-fusion tokens of one batch."""
    enc_a, enc_v = bb.encode(st, aps, vps, m_a, m_v)
    return (enc_a, enc_v) + bb.forward_fused(st, enc_a, enc_v, m_a, m_v)


def decoded(st, aps, vps, m_a, m_v):
    """The training path: each modality cut to its visible tokens, encode and
    joint fusion on those, then decode at full length."""
    vis_a, pad_a, slots_a = bb.visible_tokens(aps, m_a)
    vis_v, pad_v, slots_v = bb.visible_tokens(vps, m_v)
    enc_a, enc_v, o_a, o_v = fused(st, vis_a, vis_v, pad_a, pad_v)
    return (enc_a, enc_v, o_a, o_v) + bb.decode(st, o_a, o_v, aps, vps,
                                                slots_a, slots_v)


def unmasked(ps):
    return np.zeros(ps.indices.shape, dtype=bool)


def test_forward_token_counts_and_split():
    st = make_state()
    rng = np.random.default_rng(5)
    aps, vps = patch_batch(rng, 2)
    enc_a, enc_v, o_a, o_v = fused(st, aps, vps, None, None)
    for t, n in ((enc_a, GEOM.audio.patches), (o_a, GEOM.audio.patches),
                 (enc_v, GEOM.video.patches), (o_v, GEOM.video.patches)):
        assert t.shape == (2, n, CFG.embed_dim)


def test_forward_deterministic():
    st = make_state()
    rng = np.random.default_rng(6)
    aps, vps = patch_batch(rng, 2)
    m_a = np.zeros((2, aps.count), dtype=bool)
    m_a[:, :5] = True
    f1 = decoded(st, aps, vps, m_a, unmasked(vps))
    f2 = decoded(st, aps, vps, m_a, unmasked(vps))
    for t1, t2 in zip(f1, f2):
        assert np.array_equal(t1.data, t2.data)


def test_masked_tokens_equivalent_to_dropping_them():
    """Key-masked visible outputs == literally dropping masked tokens, for
    the encoders and the joint fusion alike."""
    st = make_state(7)
    rng = np.random.default_rng(8)
    aps, vps = patch_batch(rng, 2)
    m_a = rng.random((2, aps.count)) < 0.5
    m_v = rng.random((2, vps.count)) < 0.5
    full = fused(st, aps, vps, m_a, m_v)
    for bi in range(2):
        keep_a = ~m_a[bi]
        keep_v = ~m_v[bi]
        sub_a = dd.PatchSet(aps.patches[bi:bi + 1, keep_a], aps.indices[bi:bi + 1, keep_a],
                            "audio", aps.grid)
        sub_v = dd.PatchSet(vps.patches[bi:bi + 1, keep_v], vps.indices[bi:bi + 1, keep_v],
                            "video", vps.grid)
        dropped = fused(st, sub_a, sub_v, None, None)
        for got, want, keep in zip(dropped, full, (keep_a, keep_v, keep_a, keep_v)):
            assert np.allclose(got.data[0], want.data[bi][keep], atol=1e-9)


def test_masked_content_cannot_leak():
    """Changing a masked patch's content must not move any output."""
    st = make_state(9)
    rng = np.random.default_rng(10)
    aps, vps = patch_batch(rng, 1)
    m_a = np.zeros((1, aps.count), dtype=bool)
    m_a[0, 3] = True
    m_v = np.zeros((1, vps.count), dtype=bool)
    m_v[0, 1] = True

    def outputs(a_patches):
        ps = dd.PatchSet(a_patches, aps.indices, "audio", aps.grid)
        return decoded(st, ps, vps, m_a, m_v)

    base = outputs(aps.patches)
    tampered = aps.patches.copy()
    tampered[0, 3] = 1e3
    out = outputs(tampered)
    assert base[0].shape[1] == aps.count - 1  # only visible tokens are encoded
    for t_base, t_out in zip(base, out):  # the decoder sees mask tokens
        assert np.array_equal(t_base.data, t_out.data)


def test_permutation_equivariance_with_positions_zeroed():
    st = make_state(11)
    st.params["audio_pos"].data[...] = 0.0
    rng = np.random.default_rng(12)
    aps, vps = patch_batch(rng, 1)
    o_a = fused(st, aps, vps, None, None)[2]
    perm = aps.patches.copy()
    perm[0, [2, 7]] = perm[0, [7, 2]]
    aps2 = dd.PatchSet(perm, aps.indices, "audio", aps.grid)
    o_a2 = fused(st, aps2, vps, None, None)[2]
    want = o_a.data[0].copy()
    want[[2, 7]] = want[[7, 2]]
    assert np.allclose(o_a2.data[0], want, atol=1e-10)


def test_decoder_sees_mask_token_plus_position():
    """Decoding compact outputs == decoding, unmasked, full-length tokens
    whose visible slots hold the outputs and whose masked slots hold mask
    token + the positional embedding of the slot's grid id; the patch set is
    a subset, so grid id and slot differ."""
    st = make_state(13)
    rng = np.random.default_rng(14)
    full_a, vps = patch_batch(rng, 2)
    rows = np.array([1, 5, 6])
    aps = dd.PatchSet(full_a.patches[:, rows], full_a.indices[:, rows], "audio",
                      full_a.grid)
    m_a = np.array([[False, True, False], [True, True, False]])
    _, _, o_a, o_v, rec_a, rec_v = decoded(st, aps, vps, m_a, unmasked(vps))
    tok = st.params["audio_mask_token"].data + st.params["audio_pos"].data
    written = np.stack([[o_a.data[0, 0], tok[5], o_a.data[0, 1]],
                        [tok[1], tok[5], o_a.data[1, 0]]])
    _, _, slots = bb.visible_tokens(aps, unmasked(aps))
    _, _, slots_v = bb.visible_tokens(vps, unmasked(vps))
    want_a, want_v = bb.decode(st, Tensor(written), o_v, aps, vps, slots, slots_v)
    assert np.array_equal(rec_a.data, want_a.data)
    assert np.array_equal(rec_v.data, want_v.data)
    # the padding column (row 1 sees one patch, k = 2) never reaches the decoder
    _, _, slots = bb.visible_tokens(aps, m_a)
    moved = o_a.data.copy()
    moved[1, 1] += 7.0
    rec_moved, _ = bb.decode(st, Tensor(moved), o_v, aps, vps, slots, slots_v)
    assert np.array_equal(rec_moved.data, rec_a.data)


@pytest.mark.parametrize("mask", [
    [[False, True, True, False, True], [True, True, False, True, True]],  # padding
    [[True, False, True, False, True], [False, True, True, True, False]],  # equal
    [[False, False, False, False, False], [True, False, True, True, True]],  # k == n
], ids=["padded", "equal_counts", "fully_visible_row"])
def test_visible_tokens_then_scatter_is_identity_on_visible_slots(mask):
    st = make_state(15)
    mask = np.array(mask)
    b, n = mask.shape
    rng = np.random.default_rng(16)
    cols = np.array([0, 2, 3, 5, 7])
    full, _ = patch_batch(rng, b)
    ps = dd.PatchSet(full.patches[:, cols], full.indices[:, cols], "audio",
                     full.grid)
    vis, mask_k, slots = bb.visible_tokens(ps, mask)
    counts = (~mask).sum(axis=1)
    assert vis.count == counts.max()
    for bi in range(b):  # visible patches first, in slot order; padding masked
        c = counts[bi]
        assert np.array_equal(vis.patches[bi, :c], ps.patches[bi, ~mask[bi]])
        assert np.array_equal(vis.indices[bi, :c], ps.indices[bi, ~mask[bi]])
        assert not mask_k[bi, :c].any() and mask_k[bi, c:].all()
    assert (bb.key_bias(mask_k) is None) == (counts.min() == counts.max())
    assert np.array_equal(slots < 0, mask)
    # scatter the compact embeddings back: visible slots get their own
    # embedding back, masked slots the mask token plus their position
    got = bb._decoder_input(st, bb.embed(vis, st), ps, slots).data
    want = bb.embed(ps, st).data
    assert np.array_equal(got[~mask], want[~mask])
    tok = st.params["audio_mask_token"].data + st.params["audio_pos"].data
    assert np.array_equal(got[mask], tok[ps.indices[mask]])


def test_scatter_back_gradients():
    """Finite-difference check of the decoder input's scatter back, through
    the compact outputs, the mask token and the positional table."""
    st = make_state(17)
    rng = np.random.default_rng(18)
    ps, _ = patch_batch(rng, 2)
    mask = rng.random((2, ps.count)) < 0.6
    mask[0, :3] = [False, True, False]
    _, mask_k, slots = bb.visible_tokens(ps, mask)
    o = tt.parameter(rng.normal(size=mask_k.shape + (CFG.embed_dim,)))
    weights = rng.normal(size=(2, ps.count, CFG.embed_dim))

    def objective():
        x = bb._decoder_input(st, o, ps, slots)
        return tt.sum_(tt.mul(tt.mul(x, x), Tensor(weights)))

    from test_tensor import check_grads
    check_grads(objective, [o, st.params["audio_mask_token"],
                            st.params["audio_pos"]], tol=1e-6)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _split_heads(x, heads):
    b, n, d = x.shape
    return tt.transpose(tt.reshape(x, (b, n, heads, d // heads)), (0, 2, 1, 3))


def _merge_heads(x):
    b, h, n, hd = x.shape
    return tt.reshape(tt.transpose(x, (0, 2, 1, 3)), (b, n, h * hd))


def _unfused_block(params, prefix, x, bias, cfg):
    """The primitive chain ``tt.prenorm_block`` fuses, one tape node per op."""
    from test_tensor import unfused_attention

    def linear(h, name):
        return tt.linear(h, params[f"{prefix}/{name[0]}"], params[f"{prefix}/{name[1]}"])

    eps = cfg.layernorm_eps
    h = tt.layernorm(x, params[f"{prefix}/ln1/gain"], params[f"{prefix}/ln1/bias"], eps)
    q, k, v = (_split_heads(linear(h, (f"attn/w{c}", f"attn/b{c}")), cfg.heads)
               for c in "qkv")
    att = _merge_heads(unfused_attention(q, k, v, bias))
    x = tt.add(x, linear(att, ("attn/wo", "attn/bo")))
    h = tt.layernorm(x, params[f"{prefix}/ln2/gain"], params[f"{prefix}/ln2/bias"], eps)
    m = linear(tt.gelu(linear(h, ("mlp/w1", "mlp/b1"))), ("mlp/w2", "mlp/b2"))
    return tt.add(x, m)


@pytest.mark.parametrize("padded", [False, True])
def test_isolated_block_matches_the_unfused_chain_bit_for_bit(padded):
    """One block's output, input gradient and all 16 parameter gradients
    equal the primitive chain's exactly, with and without a key bias that
    hides padding columns on some rows."""
    rng = np.random.default_rng(29)
    st = make_state(7)
    x0 = rng.normal(size=(3, 6, CFG.embed_dim))
    w = rng.normal(size=x0.shape)
    bias = None
    if padded:
        mask = np.arange(6)[None, :] >= np.array([4, 6, 1])[:, None]
        bias = bb.key_bias(mask)
    got = []
    for block in (bb._block, _unfused_block):
        for p in st.params.values():
            p.zero_grad()
        x = Tensor(x0.copy(), requires_grad=True)
        y = block(st.params, "fusion/0", x, bias, CFG)
        tt.backward(tt.sum_(tt.mul(y, w)))
        got.append([y.data, x.grad] + [st.params[f"fusion/0/{name}"].grad.copy()
                                       for name in bb._BLOCK_PARAMS])
    for name, fused_arr, chain_arr in zip(["out", "x"] + list(bb._BLOCK_PARAMS), *got):
        assert np.array_equal(fused_arr, chain_arr), name
        assert fused_arr.any() or name == "attn/bk", name  # bk's is analytically 0


def test_fused_blocks_match_the_unfused_chain(monkeypatch):
    """A full masked step (encoders, joint fusion, decoder, contrastive pass;
    rows see different visible counts, so padding is key-masked) matches
    the primitive chain in every block.  Not bit for bit: where a block's
    input has consumers outside the block, the tape sums its gradient in
    another order."""
    rng = np.random.default_rng(31)
    aps, vps = patch_batch(rng, 3)
    m_a = rng.random(aps.indices.shape) < 0.6
    m_v = rng.random(vps.indices.shape) < 0.6
    assert len(set((~m_a).sum(axis=1))) > 1  # some rows are padded

    def step():
        st = make_state(5)
        vis_a, pad_a, slots_a = bb.visible_tokens(aps, m_a)
        vis_v, pad_v, slots_v = bb.visible_tokens(vps, m_v)
        enc_a, enc_v, o_a, o_v = fused(st, vis_a, vis_v, pad_a, pad_v)
        ra, rv = bb.decode(st, o_a, o_v, aps, vps, slots_a, slots_v)
        c_a, c_v = bb.contrastive_features(st, enc_a, enc_v, pad_a, pad_v)
        loss = bb.pretrain_objective(
            bb.reconstruction_loss(ra, rv, aps.patches, vps.patches, m_a, m_v),
            bb.contrastive_loss(c_a, c_v, CFG.temperature), None,
            CFG.contrastive_weight, 0.0)
        loss.backward()
        return ([t.data for t in (o_a, o_v, ra, rv, c_a, c_v, loss)],
                {k: p.grad for k, p in st.params.items()})

    outs, grads = step()
    monkeypatch.setattr(bb, "_block", _unfused_block)
    want_outs, want_grads = step()
    for got, want in zip(outs, want_outs):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    largest = max(np.abs(g).max() for g in want_grads.values())
    for k in grads:
        np.testing.assert_allclose(grads[k], want_grads[k], rtol=1e-12,
                                   atol=1e-12 * largest, err_msg=k)


def test_reconstruction_perfect_is_zero():
    rng = np.random.default_rng(15)
    ta = rng.normal(size=(2, 4, 6))
    tv = rng.normal(size=(2, 3, 5))
    m_a = rng.random((2, 4)) < 0.5
    m_a[0, 0] = True  # ensure something is masked
    m_v = np.zeros((2, 3), dtype=bool)
    loss = bb.reconstruction_loss(Tensor(ta), Tensor(tv), ta, tv, m_a, m_v)
    assert loss.item() == 0.0


def test_reconstruction_offset_one_fully_masked_is_two():
    rng = np.random.default_rng(16)
    ta = rng.normal(size=(3, 4, 6))
    tv = rng.normal(size=(3, 5, 7))
    loss = bb.reconstruction_loss(Tensor(ta + 1.0), Tensor(tv + 1.0), ta, tv,
                                  np.ones((3, 4), bool), np.ones((3, 5), bool))
    assert abs(loss.item() - 2.0) <= 1e-12


def test_reconstruction_matches_loop_oracle():
    rng = np.random.default_rng(17)
    b, na, nv, pa, pv = 3, 5, 4, 6, 8
    ra, rv = rng.normal(size=(b, na, pa)), rng.normal(size=(b, nv, pv))
    ta, tv = rng.normal(size=(b, na, pa)), rng.normal(size=(b, nv, pv))
    m_a = rng.random((b, na)) < 0.6
    m_v = rng.random((b, nv)) < 0.6
    m_a[1] = False  # a zero-masked row must contribute zero for that modality
    loss = bb.reconstruction_loss(Tensor(ra), Tensor(rv), ta, tv, m_a, m_v).item()
    want = 0.0
    for target, recon, mask in ((ta, ra, m_a), (tv, rv, m_v)):
        acc = 0.0
        for bi in range(b):
            cnt = int(mask[bi].sum())
            if cnt == 0:
                continue
            se = 0.0
            for i in range(target.shape[1]):
                if mask[bi, i]:
                    se += float(((recon[bi, i] - target[bi, i]) ** 2).sum())
            acc += se / (cnt * target.shape[2])
        want += acc / b
    assert abs(loss - want) <= 1e-12


def test_reconstruction_ignores_unmasked_positions():
    rng = np.random.default_rng(18)
    ta = rng.normal(size=(2, 4, 6))
    tv = rng.normal(size=(2, 3, 5))
    m_a = np.zeros((2, 4), bool)
    m_a[:, 1] = True
    m_v = np.zeros((2, 3), bool)
    ra = ta.copy()
    ra[:, 0] = 99.0  # unmasked garbage must not matter
    l1 = bb.reconstruction_loss(Tensor(ra), Tensor(tv), ta, tv, m_a, m_v).item()
    assert l1 == 0.0


def test_reconstruction_all_unmasked_is_zero():
    """Nothing masked in either modality: no target, so a zero loss that
    moves no weight."""
    rng = np.random.default_rng(0)
    ra = tt.parameter(rng.normal(size=(2, 3, 4)))
    rv = tt.parameter(rng.normal(size=(2, 3, 4)))
    loss = bb.reconstruction_loss(ra, rv, np.zeros((2, 3, 4)), np.zeros((2, 3, 4)),
                                  np.zeros((2, 3), bool), np.zeros((2, 3), bool))
    assert loss.item() == 0.0
    loss.backward()
    assert not ra.grad.any() and not rv.grad.any()


def test_contrastive_orthonormal_value():
    # B=2, orthonormal pairs, temperature 1 -> 2*log(1+e^-1)
    c = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = bb.contrastive_loss(Tensor(c), Tensor(c), 1.0).item()
    assert abs(loss - 2 * np.log(1 + np.exp(-1))) <= 1e-12


def test_contrastive_degenerate_identical_rows():
    b = 5
    c = np.tile(np.array([[0.6, 0.8]]), (b, 1))
    loss = bb.contrastive_loss(Tensor(c), Tensor(c), 0.5).item()
    assert abs(loss - 2 * np.log(b)) <= 1e-12


def test_contrastive_alignment_decreases_loss():
    rng = np.random.default_rng(19)
    b, d = 6, 8
    a = rng.normal(size=(b, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    noise = rng.normal(size=(b, d))
    worse = a + 0.9 * noise
    better = a + 0.1 * noise
    worse /= np.linalg.norm(worse, axis=1, keepdims=True)
    better /= np.linalg.norm(better, axis=1, keepdims=True)
    l_better = bb.contrastive_loss(Tensor(a), Tensor(better), 0.2).item()
    l_worse = bb.contrastive_loss(Tensor(a), Tensor(worse), 0.2).item()
    assert l_better < l_worse


def test_contrastive_requires_two():
    c = np.ones((1, 4))
    with pytest.raises(tt.ShapeError):
        bb.contrastive_loss(Tensor(c), Tensor(c), 1.0)


def test_contrastive_matches_loop_oracle():
    rng = np.random.default_rng(20)
    b, d = 4, 6
    ca = rng.normal(size=(b, d))
    cv = rng.normal(size=(b, d))
    ca /= np.linalg.norm(ca, axis=1, keepdims=True)
    cv /= np.linalg.norm(cv, axis=1, keepdims=True)
    tau = 0.07
    got = bb.contrastive_loss(Tensor(ca), Tensor(cv), tau).item()
    s = ca @ cv.T / tau
    want = 0.0
    for i in range(b):
        want -= np.log(np.exp(s[i, i]) / np.exp(s[i]).sum())
        want -= np.log(np.exp(s[i, i]) / np.exp(s[:, i]).sum())
    want /= b
    assert abs(got - want) <= 1e-12


def test_pooled_features_unit_norm_and_visibility():
    st = make_state(21)
    rng = np.random.default_rng(22)
    aps, vps = patch_batch(rng, 3)
    m_a = dd.random_mask(rng, 3, aps.count, 0.7)
    m_v = dd.random_mask(rng, 3, vps.count, 0.7)
    ea = bb.encode_modality(st, bb.embed(aps, st), "audio", m_a)
    ev = bb.encode_modality(st, bb.embed(vps, st), "video", m_v)
    c_a, c_v = bb.contrastive_features(st, ea, ev, m_a, m_v)
    assert np.allclose(np.linalg.norm(c_a.data, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(c_v.data, axis=1), 1.0, atol=1e-12)
    # masked tokens must not affect the pooled features: recompute from dropped set
    for bi in range(3):
        keep = ~m_a[bi]
        sub = dd.PatchSet(aps.patches[bi:bi + 1, keep], aps.indices[bi:bi + 1, keep],
                          "audio", aps.grid)
        esub = bb.encode_modality(st, bb.embed(sub, st), "audio", None)
        csub, _ = bb.contrastive_features(st, esub, esub, None, None)
        assert np.allclose(csub.data[0], c_a.data[bi], atol=1e-9)


def test_pooled_features_keep_their_bits_without_a_ones_placeholder(monkeypatch):
    """The pool's denominator is ``sum_(w)``, broadcast by the division, not
    the sum of ``w`` times an array of ones; both are the same exact small
    integers, so masked features and their gradients keep every bit."""

    def ones_placeholder_pool(x, axis, weights=None):
        ax = tt._norm_axes(axis, x.ndim)[0]
        w = tt.as_tensor(weights)
        num = tt.sum_(tt.mul(x, w), axis=ax)
        den = tt.sum_(tt.mul(w, Tensor(np.ones_like(x.data))), axis=ax)
        return tt.div(num, den)

    rng = np.random.default_rng(17)
    aps, vps = patch_batch(rng, 3)
    m_a = rng.random(aps.indices.shape) < 0.5
    m_v = rng.random(vps.indices.shape) < 0.5
    vis_a, pad_a, _ = bb.visible_tokens(aps, m_a)
    vis_v, pad_v, _ = bb.visible_tokens(vps, m_v)
    assert pad_a.any() and pad_v.any()
    results = []
    for _ in range(2):
        st = make_state(6)
        enc_a, enc_v = bb.encode(st, vis_a, vis_v, pad_a, pad_v)
        c_a, c_v = bb.contrastive_features(st, enc_a, enc_v, pad_a, pad_v)
        bb.contrastive_loss(c_a, c_v, CFG.temperature).backward()
        results.append((c_a.data, c_v.data,
                        {k: p.grad for k, p in st.params.items()}))
        monkeypatch.setattr(tt, "weighted_mean_pool", ones_placeholder_pool)
    (a1, v1, g1), (a2, v2, g2) = results
    assert np.array_equal(a1, a2) and np.array_equal(v1, v2)
    for k in g1:
        assert np.array_equal(g1[k], g2[k]), k


def test_objective_arithmetic():
    r = Tensor(np.array(1.25), requires_grad=True)
    c = Tensor(np.array(2.0))
    p = Tensor(np.array(4.0))
    total = bb.pretrain_objective(r, c, p, 0.1, 0.5)
    assert abs(total.item() - (1.25 + 0.2 + 2.0)) <= 1e-15
    assert abs(bb.pretrain_objective(r, c, None, 0.1, 0.5).item() - 1.45) <= 1e-15
    assert abs(bb.pretrain_objective(r, c, p, 0.1, 0.0).item() - 1.45) <= 1e-15


def test_composite_loss_gradients_flow_everywhere():
    """End-to-end FD check of the full pretraining objective on a tiny net."""
    geom = dd.SceneGeometry(dd.AudioGeometry(8, 4, 4), dd.VideoGeometry(1, 8, 16, 8))
    cfg = bb.BackboneConfig(embed_dim=8, heads=2, encoder_layers=1)
    st = bb.init_backbone(cfg, geom, np.random.default_rng(23))
    rng = np.random.default_rng(24)
    aps = dd.full_patchset(rng.normal(size=(2, geom.audio.patches, geom.audio.patch_dim)),
                           "audio", geom)
    vps = dd.full_patchset(rng.normal(size=(2, geom.video.patches, geom.video.patch_dim)),
                           "video", geom)
    m_a = np.array([[True, False], [False, True]])
    m_v = np.array([[True, False], [False, True]])

    def objective():
        vis_a, pad_a, slots_a = bb.visible_tokens(aps, m_a)
        vis_v, pad_v, slots_v = bb.visible_tokens(vps, m_v)
        enc_a, enc_v, o_a, o_v = fused(st, vis_a, vis_v, pad_a, pad_v)
        ra, rv = bb.decode(st, o_a, o_v, aps, vps, slots_a, slots_v)
        rec = bb.reconstruction_loss(ra, rv, aps.patches, vps.patches, m_a, m_v)
        c_a, c_v = bb.contrastive_features(st, enc_a, enc_v, pad_a, pad_v)
        con = bb.contrastive_loss(c_a, c_v, cfg.temperature)
        return bb.pretrain_objective(rec, con, None, cfg.contrastive_weight, 0.0)

    # FD-check a few representative parameters (full sweep is too slow here)
    from test_tensor import check_grads
    names = ["audio_embed/weight", "audio_mask_token", "fusion/0/attn/wq",
             "ln_video/gain", "decoder_head_audio/bias", "video_pos"]
    check_grads(objective, [st.params[n] for n in names], tol=2e-4)
