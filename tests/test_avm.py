"""Matching-head tests: brute-force forward oracles, pairing protocol,
sharpening behaviour, and the backbone stop-gradient guarantee."""

import numpy as np
import pytest

import avcl.avm as av
import avcl.backbone as bb
import avcl.data as dd
import avcl.tensor as tt
from avcl.optim import Adam
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
                    assert abs(ca.audio_map.data[bi, hi, i, j] - want) < 1e-12


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
        p = _softmax_np(ca.audio_map.data)
        entropies.append(float(-(p * np.log(p + 1e-300)).sum(axis=-1).mean()))
    assert entropies[0] > entropies[1] > entropies[2]


def test_beta_only_rescales_logits():
    state, avm, rng = _setup(9)
    o_a, o_v = _tokens(rng, 2)
    base = av.cross_attention(avm, o_a, o_v, beta=1.0).audio_map.data
    scaled = av.cross_attention(avm, o_a, o_v, beta=0.25).audio_map.data
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
        a, v, _ = dd.generate_pair(cls, rng, GEOM, decoys=decoys)
        audio[i] = dd.patchify_audio(a.values[None], GEOM.audio)[0]
        video[i] = dd.patchify_video(v.values[None], GEOM.video)[0]
    aps = dd.full_patchset(audio, "audio", GEOM)
    vps = dd.full_patchset(video, "video", GEOM)
    return aps, vps


def test_train_step_never_touches_backbone():
    state, avm, rng = _setup(5)
    aps, vps = _batch(rng)
    before = {k: v.copy() for k, v in state.named_arrays().items()}
    avm_before = {k: t.data.copy() for k, t in avm.params.items()}
    opt = Adam(avm.params, lr=1e-3)
    loss = av.avm_train_step(avm, state, aps, vps, opt, rng)
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
    opt = Adam(avm.params, lr=3e-3)
    pool = [_batch(rng, batch=8) for _ in range(4)]
    losses = []
    for step in range(400):
        idx = step % len(pool)
        aps, vps = pool[idx]
        # per-batch seeded rng keeps each batch's positive/negative pairing
        # fixed across visits, so the task itself is stationary
        losses.append(av.avm_train_step(avm, state, aps, vps, opt,
                                        np.random.default_rng(1000 + idx)))
    assert np.mean(losses[-20:]) < 0.35 < np.mean(losses[:20])
    correct = [av.matching_accuracy(avm, state, aps, vps,
                                    np.random.default_rng(1000 + idx))
               for idx, (aps, vps) in enumerate(pool)]
    assert np.mean(correct) > 0.8


def test_size_ratio_is_small():
    state, avm, _ = _setup()
    assert 0.0 < av.size_ratio(avm, state) < 0.5


def test_step_is_deterministic():
    outs = []
    for _ in range(2):
        state, avm, rng = _setup(21)
        opt = Adam(avm.params, lr=1e-3)
        aps, vps = _batch(np.random.default_rng(2), batch=4)
        step_rng = np.random.default_rng(77)
        loss = av.avm_train_step(avm, state, aps, vps, opt, step_rng)
        outs.append((loss, {k: v.data.copy() for k, v in avm.params.items()}))
    assert outs[0][0] == outs[1][0]
    for k in outs[0][1]:
        assert np.array_equal(outs[0][1][k], outs[1][1][k])


def test_load_arrays_checks_shapes():
    _, avm, _ = _setup()
    arrays = {k: p.data.copy() for k, p in avm.params.items()}
    fresh = av.init_avm(CFG, np.random.default_rng(1))
    fresh.load_arrays(arrays)
    for k, p in avm.params.items():
        assert np.array_equal(fresh.params[k].data, p.data)
    arrays["avm/head/w1"] = arrays["avm/head/w1"][:-1]
    with pytest.raises(ValueError, match="shape mismatch"):
        fresh.load_arrays(arrays)
    del arrays["avm/head/w1"]
    with pytest.raises(KeyError):
        fresh.load_arrays(arrays)


def test_adam_load_arrays_checks_shapes():
    _, avm, _ = _setup()
    opt = Adam(avm.params, lr=1e-3)
    for p in avm.params.values():
        p.grad = np.ones_like(p.data)
    opt.step()
    arrays = opt.named_arrays("opt/avm")
    fresh = Adam(avm.params, lr=1e-3)
    fresh.load_arrays("opt/avm", arrays)
    assert fresh.step_count == 1
    assert all(np.array_equal(fresh.m[k], opt.m[k]) for k in opt.m)
    arrays["opt/avm/v/avm/head/b1"] = np.zeros(3)
    with pytest.raises(ValueError, match="shape mismatch"):
        fresh.load_arrays("opt/avm", arrays)
