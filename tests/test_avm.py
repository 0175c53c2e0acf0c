"""Matching-head tests: brute-force forward oracles, pairing protocol,
sharpening behaviour, and the backbone stop-gradient guarantee."""

from dataclasses import fields

import numpy as np
import pytest

import avcl.avm as av
import avcl.backbone as bb
import avcl.data as dd
import avcl.tensor as tt
from avcl import checkpoint as cp
from avcl import trainer as tr
from avcl.optim import Adam, zero_moments
from avcl.tensor import Tensor

GEOM = dd.SceneGeometry(
    audio=dd.AudioGeometry(time_bins=16, freq_bins=8, patch=4),
    video=dd.VideoGeometry(frames=2, height=16, width=16, patch=8),
)
CFG = bb.BackboneConfig(embed_dim=16, heads=2, encoder_layers=1,
                        fusion_layers=1, decoder_layers=1)


def _setup(seed=0):
    rng = np.random.default_rng(seed)
    state = bb.init_backbone(CFG, GEOM, rng)
    avm = av.init_avm(CFG, rng)
    return state, avm, rng


def _fresh_adam(part, lr):
    return Adam(part.flat, *zero_moments(part.flat), lr=lr)


def _tokens(rng, batch):
    m = GEOM.audio.patches
    n = GEOM.video.patches
    o_a = Tensor(rng.normal(size=(batch, m, CFG.embed_dim)))
    o_v = Tensor(rng.normal(size=(batch, n, CFG.embed_dim)))
    return o_a, o_v


def _softmax_np(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _project_np(avm, tokens, modality):
    h = avm.heads
    b, n, dim = tokens.shape
    out = []
    for proj in ("wq", "wk", "wv"):
        w = avm.params[f"avm/{modality}/{proj}"].data
        x = tokens @ w
        out.append(x.reshape(b, n, h, dim // h).transpose(0, 2, 1, 3))
    return out


def test_cross_attention_matches_loop_oracle():
    state, avm, rng = _setup()
    o_a, o_v = _tokens(rng, 2)
    ca = av.cross_attention(avm, o_a, o_v, beta=0.4)
    q_v, _, _ = _project_np(avm, o_v.data, "video")
    _, k_a, _ = _project_np(avm, o_a.data, "audio")
    d = CFG.embed_dim // CFG.heads
    b, h, n, m = ca.audio_map.shape
    for bi in range(b):
        for hi in range(h):
            for i in range(n):
                for j in range(m):
                    want = q_v[bi, hi, i] @ k_a[bi, hi, j] / (0.4 * np.sqrt(d))
                    assert abs(ca.audio_map[bi, hi, i, j] - want) < 1e-12


def test_cross_attention_returns_arrays_and_rejects_non_finite_maps():
    """The maps, queries and keys are plain arrays; query/key weights large
    enough to overflow q.k raise NumericError instead of a numpy warning."""
    state, avm, rng = _setup(5)
    o_a, o_v = _tokens(rng, 2)
    ca = av.cross_attention(avm, o_a, o_v, 0.4)
    assert all(type(getattr(ca, f.name)) is np.ndarray for f in fields(ca))
    for key in ("audio/wq", "audio/wk", "video/wq", "video/wk"):
        avm.params[f"avm/{key}"].data = avm.params[f"avm/{key}"].data * 1e170
    with pytest.raises(tt.NumericError, match="cross-attention"):
        av.cross_attention(avm, o_a, o_v, 0.4)


def test_matching_forward_matches_numpy_oracle():
    state, avm, rng = _setup(3)
    o_a, o_v = _tokens(rng, 3)
    got = av.matching_forward(avm, o_a, o_v).data

    q_a, k_a, v_a = _project_np(avm, o_a.data, "audio")
    q_v, k_v, v_v = _project_np(avm, o_v.data, "video")
    d = CFG.embed_dim // CFG.heads
    att_a = _softmax_np(q_v @ k_a.transpose(0, 1, 3, 2) / np.sqrt(d)) @ v_a
    att_v = _softmax_np(q_a @ k_v.transpose(0, 1, 3, 2) / np.sqrt(d)) @ v_v
    b = o_a.shape[0]
    flat = np.concatenate([att_a.mean(axis=2).reshape(b, -1),
                           att_v.mean(axis=2).reshape(b, -1)], axis=1)
    w1, b1 = avm.params["avm/head/w1"].data, avm.params["avm/head/b1"].data
    w2, b2 = avm.params["avm/head/w2"].data, avm.params["avm/head/b2"].data
    from scipy.special import erf
    hid = flat @ w1 + b1
    hid = 0.5 * hid * (1.0 + erf(hid / np.sqrt(2.0)))
    want = 1.0 / (1.0 + np.exp(-(hid @ w2 + b2))).reshape(b)
    assert np.max(np.abs(got - want)) < 1e-12


def test_zero_head_scores_one_half():
    state, avm, rng = _setup()
    for key in ("avm/head/w1", "avm/head/b1", "avm/head/w2", "avm/head/b2"):
        avm.params[key].data = np.zeros_like(avm.params[key].data)
    o_a, o_v = _tokens(rng, 2)
    got = av.matching_forward(avm, o_a, o_v).data
    assert np.all(got == 0.5)


def test_lower_beta_sharpens_attention():
    state, avm, rng = _setup(7)
    o_a, o_v = _tokens(rng, 4)
    entropies = []
    for beta in (1.0, 0.4, 0.1):
        ca = av.cross_attention(avm, o_a, o_v, beta=beta)
        p = _softmax_np(ca.audio_map)
        entropies.append(float(-(p * np.log(p + 1e-300)).sum(axis=-1).mean()))
    assert entropies[0] > entropies[1] > entropies[2]


def test_beta_only_rescales_logits():
    state, avm, rng = _setup(9)
    o_a, o_v = _tokens(rng, 2)
    base = av.cross_attention(avm, o_a, o_v, beta=1.0).audio_map
    scaled = av.cross_attention(avm, o_a, o_v, beta=0.25).audio_map
    assert np.max(np.abs(scaled - base / 0.25)) < 1e-9


def test_negative_pairing_protocol():
    rng = np.random.default_rng(0)
    for batch in (2, 3, 4, 5, 8, 9):
        for _ in range(200):
            labels, donors = av.negative_pairing(rng, batch)
            neg = np.flatnonzero(labels == 0.0)
            pos = np.flatnonzero(labels == 1.0)
            assert len(neg) == batch // 2
            # positives keep their own audio; negatives never do
            assert np.all(donors[pos] == pos)
            assert np.all(donors[neg] != neg)
            if len(neg) > 1:
                # donors of the negative subset stay within the subset
                assert set(donors[neg]) <= set(neg)
                # and form a permutation (no reuse)
                assert len(set(donors[neg])) == len(neg)


def test_negative_pairing_rejects_singleton_batch():
    with pytest.raises(ValueError):
        av.negative_pairing(np.random.default_rng(0), 1)


def test_negative_positions_are_uniform():
    rng = np.random.default_rng(1)
    batch, trials = 5, 4000
    counts = np.zeros(batch)
    for _ in range(trials):
        labels, _ = av.negative_pairing(rng, batch)
        counts += labels == 0.0
    expect = trials * (batch // 2) / batch
    sd = np.sqrt(trials * (batch // 2) / batch * (1 - (batch // 2) / batch))
    assert np.all(np.abs(counts - expect) < 5 * sd)


def _batch(rng, batch=6, correlation=1.0, num_classes=4):
    classes = [dd.make_class(c, 11, GEOM, correlation) for c in range(num_classes)]
    audio = np.empty((batch, GEOM.audio.patches, GEOM.audio.patch_dim))
    video = np.empty((batch, GEOM.video.patches, GEOM.video.patch_dim))
    for i in range(batch):
        cls = classes[i % num_classes]
        decoys = tuple(c for c in classes if c is not cls)
        (a, _), (v, _), _ = dd.generate_pair(cls, rng, GEOM, decoys=decoys)
        audio[i] = dd.patchify(a, GEOM.audio)
        video[i] = dd.patchify(v, GEOM.video)
    aps = dd.full_patchset(audio, "audio", GEOM)
    vps = dd.full_patchset(video, "video", GEOM)
    return aps, vps


def _encoded(state, aps, vps):
    """Unmasked encoder outputs, as the scoring pass hands them on."""
    _, _, enc_a, enc_v = av.fusion_tokens(state, aps, vps)
    return enc_a, enc_v


def test_negative_rows_fusion_matches_fusing_the_whole_shuffled_batch():
    """The step re-fuses only the negative rows and reuses the scoring
    pass's tokens for the positive ones; together they must equal the
    fusion of the whole shuffled batch, bit for bit."""
    state, _, rng = _setup(4)
    aps, vps = _batch(rng, batch=6)
    o_a, o_v, enc_a, enc_v = av.fusion_tokens(state, aps, vps)
    labels, s_a, s_v = av._shuffled_tokens(state, o_a, o_v, enc_a, enc_v,
                                           np.random.default_rng(8))
    _, donors = av.negative_pairing(np.random.default_rng(8), 6)
    assert np.array_equal(donors == np.arange(6), labels == 1.0)
    want = bb.forward_fused(state, Tensor(enc_a.data[donors]), enc_v, None, None)
    assert np.array_equal(s_a.data, want[0].data)
    assert np.array_equal(s_v.data, want[1].data)


@pytest.mark.parametrize("batch", [2, 5, 8])
def test_avm_step_fuses_only_the_negative_rows(monkeypatch, batch):
    state, avm, rng = _setup(5)
    aps, vps = _batch(rng, batch=batch)
    tokens = av.fusion_tokens(state, aps, vps)
    rows = []
    fuse = bb.forward_fused

    def counting(state, enc_a, enc_v, m_a, m_v):
        rows.append((enc_a.shape[0], enc_v.shape[0]))
        return fuse(state, enc_a, enc_v, m_a, m_v)

    monkeypatch.setattr(bb, "forward_fused", counting)
    av.avm_train_step(avm, state, *tokens, _fresh_adam(avm, 1e-3), rng)
    assert rows == [(batch // 2, batch // 2)]


def test_reused_encoder_outputs_match_encoding_the_shuffled_batch():
    """The step fuses ``enc_a[donors]`` instead of re-encoding the shuffled
    audio; both must give the same tokens, bit for bit."""
    state, _, rng = _setup(4)
    aps, vps = _batch(rng)
    enc_a, enc_v = _encoded(state, aps, vps)
    _, donors = av.negative_pairing(np.random.default_rng(8), len(aps.patches))
    shuffled = dd.PatchSet(aps.patches[donors], aps.indices[donors], "audio",
                           aps.grid)
    want = av.fusion_tokens(state, shuffled, vps)
    assert np.array_equal(want[2].data, enc_a.data[donors])
    got = bb.forward_fused(state, Tensor(enc_a.data[donors]), enc_v, None, None)
    assert np.array_equal(got[0].data, want[0].data)
    assert np.array_equal(got[1].data, want[1].data)


def test_train_step_never_touches_backbone():
    state, avm, rng = _setup(5)
    aps, vps = _batch(rng)
    before = {k: v.copy() for k, v in state.named_arrays().items()}
    avm_before = {k: t.data.copy() for k, t in avm.params.items()}
    opt = _fresh_adam(avm, 1e-3)
    loss = av.avm_train_step(avm, state, *av.fusion_tokens(state, aps, vps),
                             opt, rng)
    assert np.isfinite(loss)
    after = state.named_arrays()
    for k in before:
        assert np.array_equal(before[k], after[k]), k
        p = state.params[k]
        assert p.grad is None or not np.any(p.grad)
    # the head itself must have moved
    assert any(not np.array_equal(avm.params[k].data, avm_before[k])
               for k in avm_before)
    assert opt.step_count == 1


def test_training_learns_to_separate_pairs():
    # Optimization mechanics on a small fixed pool: the loss must fall well
    # below chance (log 2) and the learned head must separate the pool's
    # real from shuffled pairs. Distribution-level accuracy is exercised by
    # the acceptance suite, which prepares the backbone first.
    state, avm, rng = _setup(13)
    opt = _fresh_adam(avm, 3e-3)
    pool = [av.fusion_tokens(state, *_batch(rng, batch=8)) for _ in range(4)]
    losses = []
    for step in range(400):
        idx = step % len(pool)
        # per-batch seeded rng keeps each batch's positive/negative pairing
        # fixed across visits, so the task itself is stationary
        losses.append(av.avm_train_step(avm, state, *pool[idx], opt,
                                        np.random.default_rng(1000 + idx)))
    assert np.mean(losses[-20:]) < 0.35 < np.mean(losses[:20])
    correct = [av.matching_accuracy(avm, state, *tokens,
                                    np.random.default_rng(1000 + idx))
               for idx, tokens in enumerate(pool)]
    assert np.mean(correct) > 0.8


def test_size_ratio_is_small():
    state, avm, _ = _setup()
    size = sum(p.size for p in avm.params.values())
    assert 0.0 < size / sum(p.size for p in state.params.values()) < 0.5


def test_step_is_deterministic():
    outs = []
    for _ in range(2):
        state, avm, rng = _setup(21)
        opt = _fresh_adam(avm, 1e-3)
        tokens = av.fusion_tokens(state, *_batch(np.random.default_rng(2), batch=4))
        step_rng = np.random.default_rng(77)
        loss = av.avm_train_step(avm, state, *tokens, opt, step_rng)
        outs.append((loss, {k: v.data.copy() for k, v in avm.params.items()}))
    assert outs[0][0] == outs[1][0]
    for k in outs[0][1]:
        assert np.array_equal(outs[0][1][k], outs[1][1][k])


def test_restored_avm_checks_shapes():
    """The matching module the checkpoint reader restores is the flat
    ``model/avm@...`` tensor itself, each parameter a view of it; a
    mis-shaped or missing one is a checkpoint error."""
    tcfg = tr.TrainConfig("stella", memory_capacity=4, **{
        name: tr.STRATEGY_KNOBS[name] for name in tr.STRATEGIES["stella"].knobs})
    run = tr.init_run(CFG, tcfg, GEOM)
    key = tr._table_key("avm", av.param_table(CFG))
    arrays = {k: v.copy() for k, v in tr._checkpoint_arrays(run, [[0.0]], [0.0]).items()}

    def restore():
        return tr._restore_run(arrays, 1, 0, CFG, tcfg, GEOM)[0]["avm"]

    back = restore()
    assert back.flat.data is arrays[key] and back.flat.requires_grad
    assert list(back.params) == list(av.param_table(CFG))
    for k, p in back.params.items():
        assert np.shares_memory(p.data, arrays[key]) and p.requires_grad
        assert np.shares_memory(p.grad, back.flat.grad)
        assert np.array_equal(p.data, run.avm.params[k].data)
    arrays[key] = arrays[key][:-1]
    with pytest.raises(cp.CheckpointError, match="shape mismatch"):
        restore()
    arrays["model/avm@0123456789abcdef"] = arrays.pop(key)
    with pytest.raises(cp.CheckpointError, match=f"missing.*{key}"):
        restore()


def test_adam_takes_its_moments_at_construction():
    _, avm, _ = _setup()
    opt = _fresh_adam(avm, 1e-3)
    for p in avm.params.values():
        p.grad[...] = 1.0
    opt.step()
    arrays = opt.named_arrays("opt/avm")
    assert sorted(arrays) == ["opt/avm/m", "opt/avm/v"]  # moments only
    total = sum(p.size for p in avm.params.values())
    m, v = arrays["opt/avm/m"], arrays["opt/avm/v"]
    assert m.shape == v.shape == (total,)
    fresh = Adam(avm.flat, m, v, lr=1e-3)
    assert fresh.step_count == 0  # the trainer sets it from its loss records
    assert fresh.m is m and fresh.v is v
    assert np.array_equal(fresh.m, opt.m) and np.array_equal(fresh.v, opt.v)
    with pytest.raises(ValueError, match="shape mismatch"):
        Adam(avm.flat, m, np.zeros(total + 3), lr=1e-3)
    with pytest.raises(ValueError, match="shape mismatch"):
        Adam(avm.flat, m[:-1], v, lr=1e-3)
    with pytest.raises(ValueError, match="shape mismatch"):
        Adam(avm.flat, m, v[None], lr=1e-3)


def test_backbone_isolation_names_the_first_leaking_parameter():
    """The isolation check is one test over all backbone gradients; a
    nonzero one fails the step before the head moves, naming the first
    backbone parameter that holds it."""
    state, avm, rng = _setup(6)
    aps, vps = _batch(rng)
    tokens = av.fusion_tokens(state, aps, vps)
    names = list(state.params)
    first, later = names[len(names) // 2], names[-1]
    state.params[later].grad.flat[0] = 1.0
    state.params[first].grad.flat[-1] = -1e-300
    avm_before = {k: t.data.copy() for k, t in avm.params.items()}
    opt = _fresh_adam(avm, 1e-3)
    with pytest.raises(AssertionError) as exc:
        av.avm_train_step(avm, state, *tokens, opt, rng)
    assert str(exc.value) == f"matching loss leaked into backbone param {first}"
    assert opt.step_count == 0
    assert all(np.array_equal(avm.params[k].data, avm_before[k]) for k in avm_before)
