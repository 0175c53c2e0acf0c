"""Continual trainer: strategy wiring, degeneracies, artifacts, resume."""

import contextlib
import dataclasses
import functools
import gc
import inspect
import sys
import weakref

import numpy as np
import pytest

import avcl.checkpoint as cp
import avcl.memory as rm
import avcl.tensor as tt
import avcl.selection as sel
import avcl.trainer as tr
from avcl import avm as am
from avcl import backbone as bb
from avcl import data as dt


@pytest.fixture(scope="module")
def geom():
    return dt.SceneGeometry(dt.AudioGeometry(32, 8, 4),
                            dt.VideoGeometry(2, 16, 16, 8))


@pytest.fixture(scope="module")
def tasks(geom):
    cfg = dt.DataConfig(num_tasks=2, classes_per_task=2, train_pairs=16,
                        eval_pairs=12, seed=5, geometry=geom)
    return dt.build_sequence(cfg)


@pytest.fixture(scope="module")
def mcfg():
    return bb.BackboneConfig(embed_dim=16, heads=2, encoder_layers=1,
                             fusion_layers=1, decoder_layers=1, mask_prob=0.5)


def _cfg(strategy, **kw):
    row = tr.STRATEGIES[strategy]
    base = dict(batch=4, epochs=1, memory_capacity=6, train_seed=3)
    if row.memory is None:
        base["memory_capacity"] = 0
    base.update({name: tr.STRATEGY_KNOBS[name] for name in row.knobs})
    if row.selector:
        base["chunk_size"] = 2
    base.update(kw)
    return tr.TrainConfig(strategy, **base)


def _records(run):
    """The losses.csv table: a step column (a record's index), then the
    five losses."""
    return np.array([[i] + r.row() for i, r in enumerate(run.records)])


# --------------------------------------------------------------------------
# configuration validation


def test_config_rejects_unknown_strategy():
    with pytest.raises(tr.TrainError):
        tr.TrainConfig("sgd")


def test_config_strategy_conditional_fields():
    # finetune keeps no memory
    with pytest.raises(tr.TrainError):
        tr.TrainConfig("finetune", memory_capacity=4)
    # alpha is for the penalized family only
    with pytest.raises(tr.TrainError):
        _cfg("er", alpha=0.5)
    with pytest.raises(tr.TrainError):
        _cfg("derpp", alpha=None)
    with pytest.raises(tr.TrainError):
        _cfg("stella_plus", alpha=0.5)
    # beta only for attention-scored strategies
    with pytest.raises(tr.TrainError):
        _cfg("stella", beta=None)
    with pytest.raises(tr.TrainError):
        _cfg("derpp", beta=0.4)
    # sampling ratios only for selecting strategies
    with pytest.raises(tr.TrainError):
        _cfg("random_select", rho_audio=None)
    with pytest.raises(tr.TrainError):
        _cfg("er", rho_audio=0.5)
    # richer strategies need a memory to rehearse from
    with pytest.raises(tr.TrainError):
        _cfg("stella", memory_capacity=0)


def test_config_rejects_bad_ranges():
    with pytest.raises(tr.TrainError):
        _cfg("er", lr=0.0)
    with pytest.raises(tr.TrainError):
        _cfg("derpp", alpha=-0.1)
    with pytest.raises(tr.TrainError):
        _cfg("stella", rho_video=1.5)
    with pytest.raises(tr.TrainError):
        _cfg("stella", beta=0.0)
    for strategy in tr.STRATEGIES:  # the contrastive loss needs two pairs
        with pytest.raises(tr.TrainError):
            _cfg(strategy, batch=1)
    with pytest.raises(tr.TrainError):
        _cfg("er", epochs=0)


def test_rng_streams_are_named_independent_and_reproducible():
    a = tr.rng_streams(11)
    b = tr.rng_streams(11)
    c = tr.rng_streams(12)
    assert set(a) == set(tr.STREAM_NAMES)
    for name in tr.STREAM_NAMES:
        assert a[name].random() == b[name].random()
    draws = [tr.rng_streams(11)[n].random() for n in tr.STREAM_NAMES]
    assert len(set(draws)) == len(draws)  # streams do not mirror one another
    assert c["mask"].random() != tr.rng_streams(11)["mask"].random()


# --------------------------------------------------------------------------
# degenerate-configuration equivalences


def test_er_capacity_zero_matches_finetune_bitwise(tasks, geom, mcfg):
    run_f, acc_f, gaps_f = tr.run_sequence(tasks, geom, mcfg, _cfg("finetune"))
    run_e, acc_e, gaps_e = tr.run_sequence(tasks, geom, mcfg,
                                           _cfg("er", memory_capacity=0))
    assert np.array_equal(_records(run_f), _records(run_e))
    assert acc_f == acc_e and gaps_f == gaps_e


def test_derpp_alpha_zero_matches_er_bitwise(tasks, geom, mcfg):
    run_e, acc_e, _ = tr.run_sequence(tasks, geom, mcfg, _cfg("er"))
    run_d, acc_d, _ = tr.run_sequence(tasks, geom, mcfg,
                                      _cfg("derpp", alpha=0.0))
    assert np.array_equal(_records(run_e), _records(run_d))
    assert acc_e == acc_d


def test_stella_rho_one_matches_derpp_bitwise(tasks, geom, mcfg):
    """At full sampling ratio the selection machinery is an identity map and
    the run must equal the raw-rehearsal penalized baseline exactly; only the
    matching-module loss column (absent from the baseline) may differ."""
    run_d, acc_d, _ = tr.run_sequence(tasks, geom, mcfg, _cfg("derpp"))
    run_s, acc_s, _ = tr.run_sequence(
        tasks, geom, mcfg, _cfg("stella", rho_audio=1.0, rho_video=1.0))
    rec_d, rec_s = _records(run_d), _records(run_s)
    # columns: step, recon, contrast, penalty, avm, total
    assert np.array_equal(rec_d[:, :4], rec_s[:, :4])
    assert np.array_equal(rec_d[:, 5], rec_s[:, 5])
    assert np.all(rec_d[:, 4] == 0.0) and np.all(rec_s[:, 4] != 0.0)
    assert acc_d == acc_s


def test_same_seed_same_trajectory(tasks, geom, mcfg):
    run_a, acc_a, gaps_a = tr.run_sequence(tasks, geom, mcfg, _cfg("stella"))
    run_b, acc_b, gaps_b = tr.run_sequence(tasks, geom, mcfg, _cfg("stella"))
    assert np.array_equal(_records(run_a), _records(run_b))
    assert acc_a == acc_b and gaps_a == gaps_b


def test_finetune_and_er_diverge_exactly_at_first_replay(tasks, geom, mcfg):
    run_f, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg("finetune"))
    run_e, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg("er"))
    rec_f, rec_e = _records(run_f), _records(run_e)
    # step 0 trains before anything is replayable -> identical losses;
    # step 1 rehearses the entries stored during step 0 -> trajectories split
    assert np.array_equal(rec_f[0], rec_e[0])
    assert not np.array_equal(rec_f[1], rec_e[1])


# --------------------------------------------------------------------------
# strategy-specific structure


def test_stella_memory_stores_raw_pairs_with_scores(tasks, geom, mcfg):
    run, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg("stella"))
    kap_a = sel.kappa(geom.audio.patches, 0.5)
    kap_v = sel.kappa(geom.video.patches, 0.5)
    assert len(run.mem) == 6
    f = {k: v[:len(run.mem)] for k, v in run.mem.fields.items()}
    assert set(f) == {"audio_patches", "video_patches", "feat_audio",
                      "feat_video", "q_audio", "q_video", "imp_audio",
                      "imp_video", "corr_audio", "corr_video"}
    assert f["audio_patches"].shape == (6, geom.audio.patches,
                                        geom.audio.patch_dim)
    assert f["video_patches"].shape == (6, geom.video.patches,
                                        geom.video.patch_dim)
    assert f["q_audio"].shape == (6, mcfg.heads, mcfg.head_dim)
    assert f["feat_audio"].shape == (6, mcfg.embed_dim)
    assert f["imp_audio"].shape == (6, geom.audio.patches)
    assert np.allclose(f["imp_audio"].sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(f["imp_video"].sum(axis=1), 1.0, atol=1e-9)
    assert f["corr_audio"].shape == (6, kap_a)
    assert f["corr_video"].shape == (6, kap_v)
    assert np.all((f["corr_audio"] >= 0.0) & (f["corr_audio"] <= 1.0))
    assert set(run.mem.tasks[:len(run.mem)]) <= {0, 1}


def test_stella_plus_memory_and_capacity(tasks, geom, mcfg):
    run, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg("stella_plus"))
    kap_a = sel.kappa(geom.audio.patches, 0.5)
    kap_v = sel.kappa(geom.video.patches, 0.5)
    expected = rm.plus_capacity(6, geom.audio.patches, geom.audio.patch_dim,
                                geom.video.patches, geom.video.patch_dim,
                                kap_a, kap_v)
    assert run.mem.capacity == expected == 12
    n = len(run.mem)
    f = {k: v[:n] for k, v in run.mem.fields.items()}
    # selected patches with their grid ids and queries; no features or scores
    assert set(f) == {"audio_patches", "audio_indices", "video_patches",
                      "video_indices", "q_audio", "q_video"}
    assert f["audio_patches"].shape == (n, kap_a, geom.audio.patch_dim)
    assert f["video_patches"].shape == (n, kap_v, geom.video.patch_dim)
    # stored grid ids are distinct and strictly ascending
    assert np.all(np.diff(f["audio_indices"], axis=1) > 0)
    assert np.all(np.diff(f["video_indices"], axis=1) > 0)


@pytest.mark.parametrize("strategy", list(tr.STRATEGIES))
def test_fresh_memory_holds_the_layout_with_zero_rows(geom, mcfg, strategy):
    """A fresh memory lists exactly the layout's fields before any insert;
    a strategy without a memory has neither entries nor fields."""
    run = tr.init_run(mcfg, _cfg(strategy), geom)
    capacity, fields = tr._memory_layout(mcfg, _cfg(strategy), geom)
    assert run.mem.capacity == capacity
    assert {k: v.shape for k, v in run.mem.fields.items()} == {
        k: (0, *shape) for k, shape in fields.items()}
    assert bool(fields) == (tr.STRATEGIES[strategy].memory is not None)


@pytest.mark.parametrize("strategy", list(tr.STRATEGIES)[1:])
def test_only_selected_entries_store_grid_ids(geom, mcfg, strategy):
    _, fields = tr._memory_layout(mcfg, _cfg(strategy), geom)
    ids = {"audio_indices", "video_indices"}
    assert ids <= set(fields) if strategy == "stella_plus" else not ids & set(fields)


def test_unscored_strategies_store_blank_scores(tasks, geom, mcfg):
    """Unscored strategies store no queries or scores; only the penalized
    ones keep the pooled features the penalty reads.  None stores grid ids:
    a full grid's are the same in every row."""
    patches = {"audio_patches", "video_patches"}
    run, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg("er"))
    assert set(run.mem.fields) == patches
    for strategy in ("derpp", "random_select"):
        run, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg(strategy))
        assert set(run.mem.fields) == patches | {"feat_audio", "feat_video"}
        assert run.mem.fields["feat_audio"].shape[1:] == (16,)


def _recorded(monkeypatch, module, name, log):
    """Swap ``module.name`` for a wrapper that appends ``(name, bound
    arguments, result)`` to ``log``."""
    fn = getattr(module, name)
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.append((name, signature.bind(*args, **kwargs).arguments, out))
        return out

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("strategy", ["stella", "random_select"])
def test_selection_inputs_of_a_replaying_step(tasks, geom, mcfg, monkeypatch,
                                              strategy):
    """What a replaying step hands the selectors: audio then video, current
    batch then replay, at the configured budgets.  ``stella`` selects the
    current batch with the scoring pass's importance and correlation and
    the replay with the scores stored beside it; ``random_select`` uses
    uniform importance and no correlation for both."""
    cfg = _cfg(strategy, rho_video=0.25)
    run = tr.init_run(mcfg, cfg, geom)
    train = tasks[0].train
    batches = [(dt.full_patchset(train.audio_patches[lo:lo + 4], "audio", geom),
                dt.full_patchset(train.video_patches[lo:lo + 4], "video", geom))
               for lo in (0, 4)]
    tr.train_step(run, mcfg, cfg, *batches[0])
    selects, scores = [], []
    for name in ("select_audio", "select_video"):
        _recorded(monkeypatch, sel, name, selects)
    for name in ("importance_scores", "correlation_scores"):
        _recorded(monkeypatch, sel, name, scores)
    _recorded(monkeypatch, rm, "sample_replay", scores)
    tr.train_step(run, mcfg, cfg, *batches[1])

    assert [name for name, _, _ in selects] == ["select_audio", "select_video"] * 2
    m, n = geom.audio.patches, geom.video.patches
    kap_a, kap_v = sel.kappa(m, 0.5), sel.kappa(n, 0.25)
    assert kap_a != kap_v
    assert [args["kap"] for _, args, _ in selects] == [kap_a, kap_v] * 2
    for _, args, _ in selects[::2]:
        assert args["chunk_size"] == 2
        a = geom.audio
        assert args["grid"] == (a.time_bins // a.patch, a.freq_bins // a.patch)
    replay = next(out for name, _, out in scores if name == "sample_replay")
    if strategy == "stella":
        assert [name for name, _, _ in scores] == [
            "sample_replay", "importance_scores", "correlation_scores",
            "correlation_scores"]
        (imp_a, imp_v), corr_a, corr_v = [out for _, _, out in scores[1:]]
        want = [(imp_a, corr_a), (imp_v, corr_v),
                (replay["imp_audio"], replay["corr_audio"]),
                (replay["imp_video"], replay["corr_video"])]
    else:
        assert [name for name, _, _ in scores] == ["sample_replay"]
        rb = cfg.batch
        want = [(np.full((4, m), 1.0 / m), None), (np.full((4, n), 1.0 / n), None),
                (np.full((rb, m), 1.0 / m), None), (np.full((rb, n), 1.0 / n), None)]
    for (name, args, _), (imp, corr) in zip(selects, want):
        assert np.array_equal(args["importance"], imp), name
        if corr is None:
            assert args["correlation"] is None, name
        else:
            assert np.array_equal(args["correlation"], corr), name


def test_penalty_is_zero_until_memory_is_replayable(tasks, geom, mcfg):
    run, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg("derpp"))
    rec = _records(run)
    assert rec[0, 3] == 0.0  # nothing stored before the first step
    assert np.all(rec[1:, 3] > 0.0)


def test_avm_loss_present_only_for_scoring_strategies(tasks, geom, mcfg):
    for strategy in ("finetune", "er", "derpp", "random_select"):
        run, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg(strategy))
        assert np.all(_records(run)[:, 4] == 0.0)
        assert run.avm is None and run.a_opt is None
    run, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg("stella"))
    assert np.all(_records(run)[:, 4] > 0.0)


def test_acc_matrix_is_lower_triangular_and_bounded(tasks, geom, mcfg):
    _, acc, gaps = tr.run_sequence(tasks, geom, mcfg, _cfg("er"))
    assert [len(row) for row in acc] == [1, 2]
    assert all(0.0 <= v <= 100.0 for row in acc for v in row)
    assert len(gaps) == 2 and all(g >= 0.0 for g in gaps)


def test_single_task_sequence_gives_one_by_one_matrix(tasks, geom, mcfg):
    _, acc, _ = tr.run_sequence(tasks[:1], geom, mcfg, _cfg("finetune"))
    assert len(acc) == 1 and len(acc[0]) == 1


def test_eval_features_do_not_depend_on_eval_batching(tasks, geom, mcfg):
    run, _, _ = tr.run_sequence(tasks[:1], geom, mcfg, _cfg("finetune"))
    a1, v1 = tr.eval_features(run.state, tasks[0].eval, geom, batch=3)
    for kw in ({}, {"batch": 32}):  # the default splits the 12 pairs 8 + 4
        a2, v2 = tr.eval_features(run.state, tasks[0].eval, geom, **kw)
        assert np.array_equal(a1, a2) and np.array_equal(v1, v2)


def _count_calls(monkeypatch, calls, module, name):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_one_backbone_pass_per_distinct_input(tasks, geom, mcfg, monkeypatch):
    """A stella step encodes its two distinct inputs once each (the unmasked
    scoring batch and the masked training batch) and runs one no-grad
    scoring pass; the matching-module step reuses that pass's encoder
    outputs and only re-runs the joint fusion.  Evaluation reads the
    single-modality features alone and never runs the joint fusion."""
    cfg = _cfg("stella")
    run = tr.init_run(mcfg, cfg, geom)
    calls = {}
    for module, name in ((bb, "encode_modality"), (bb, "forward_fused"),
                         (am, "fusion_tokens")):
        _count_calls(monkeypatch, calls, module, name)
    train = tasks[0].train
    for lo in (0, 4):  # the second step also replays
        aps = dt.full_patchset(train.audio_patches[lo:lo + 4], "audio", geom)
        vps = dt.full_patchset(train.video_patches[lo:lo + 4], "video", geom)
        calls.clear()
        tr.train_step(run, mcfg, cfg, aps, vps)
        assert calls == {"encode_modality": 4, "fusion_tokens": 1,
                         "forward_fused": 3}
    calls.clear()
    tr.eval_features(run.state, tasks[0].eval, geom, batch=8)
    assert calls == {"encode_modality": 4}  # two batches of 12 pairs


def test_matching_step_ends_before_the_backbone_records(tasks, geom, mcfg,
                                                       monkeypatch):
    """One tape at a time: when ``encode`` receives the masked batch of a
    replaying stella step, the matching-module update has returned, and the
    scoring pass's fusion tokens and the matching head's output are freed,
    by reference counting alone (the cycle collector is off)."""
    cfg = _cfg("stella")
    run = tr.init_run(mcfg, cfg, geom)
    train = tasks[0].train
    batches = [(dt.full_patchset(train.audio_patches[lo:lo + 4], "audio", geom),
                dt.full_patchset(train.video_patches[lo:lo + 4], "video", geom))
               for lo in (0, 4)]
    tr.train_step(run, mcfg, cfg, *batches[0])
    refs, events = {}, []
    fusion_tokens, matching_forward = am.fusion_tokens, am.matching_forward
    avm_train_step, encode = am.avm_train_step, bb.encode

    def tokens(*args):
        out = fusion_tokens(*args)
        refs["o_a"], refs["o_v"] = (weakref.ref(t.data) for t in out[:2])
        return out

    def forward(*args):
        out = matching_forward(*args)
        refs["match"] = weakref.ref(out.data)
        return out

    def step(*args):
        loss = avm_train_step(*args)
        events.append("avm_train_step")
        return loss

    def masked_encode(state, aps, vps, m_a, m_v):
        if m_a is not None:
            events.append(("masked encode",
                           [name for name, ref in refs.items() if ref() is not None]))
        return encode(state, aps, vps, m_a, m_v)

    for module, name, fn in ((am, "fusion_tokens", tokens),
                             (am, "matching_forward", forward),
                             (am, "avm_train_step", step),
                             (bb, "encode", masked_encode)):
        monkeypatch.setattr(module, name, fn)
    enabled = gc.isenabled()
    gc.disable()
    try:
        rec = tr.train_step(run, mcfg, cfg, *batches[1])
    finally:
        if enabled:
            gc.enable()
    assert rec.penalty > 0.0  # the step replayed
    assert set(refs) == {"o_a", "o_v", "match"}
    assert events == ["avm_train_step", ("masked encode", [])]  # none alive


def test_softmax_runs_only_in_the_contrastive_loss(tasks, geom, mcfg, monkeypatch):
    """Attention runs as one fused node, so a replaying derpp step calls
    ``tt.softmax`` only for the two directions of the contrastive loss."""
    cfg = _cfg("derpp")
    run = tr.init_run(mcfg, cfg, geom)
    callers = []
    softmax = tt.softmax

    def recorded(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return softmax(*args, **kwargs)

    monkeypatch.setattr(tt, "softmax", recorded)
    train = tasks[0].train
    for lo in (0, 4):  # the second step also replays
        aps = dt.full_patchset(train.audio_patches[lo:lo + 4], "audio", geom)
        vps = dt.full_patchset(train.video_patches[lo:lo + 4], "video", geom)
        callers.clear()
        tr.train_step(run, mcfg, cfg, aps, vps)
        assert callers == ["contrastive_loss", "contrastive_loss"]
    assert len(run.mem) > 0


def _full_length(ps, mask):
    """``visible_tokens`` without compaction: the full-length set, key-masked
    by the full mask, and slots that leave every token in place."""
    b, n = mask.shape
    return ps, mask, np.where(mask, -1, np.arange(b * n).reshape(b, n))


def _warm_derpp_run(tasks, geom, mcfg):
    """A derpp run two steps in, so the next step replays and penalizes."""
    cfg = _cfg("derpp")
    run = tr.init_run(mcfg, cfg, geom)
    train = tasks[0].train
    batches = [(dt.full_patchset(train.audio_patches[lo:lo + 4], "audio", geom),
                dt.full_patchset(train.video_patches[lo:lo + 4], "video", geom))
               for lo in (0, 4, 8)]
    for aps, vps in batches[:2]:
        tr.train_step(run, mcfg, cfg, aps, vps)
    return run, cfg, batches[2]


def test_visible_token_step_matches_key_masked_full_length(tasks, geom, mcfg,
                                                           monkeypatch):
    """One masked step on the compact visible tokens gives the losses and
    backbone gradients of the key-masked full-length path, up to the order
    of float sums over exact-zero attention weights."""
    run, cfg, (aps, vps) = _warm_derpp_run(tasks, geom, mcfg)

    def one_step(r):
        grads = {}
        step = r.b_opt.step

        def record_then_step():
            grads.update({k: p.grad.copy() for k, p in r.state.params.items()})
            step()

        monkeypatch.setattr(r.b_opt, "step", record_then_step)
        return tr.train_step(r, mcfg, cfg, aps, vps), grads

    # a second run, random streams included, from the same checkpoint arrays
    # (copied, so the two runs share no buffer); restore reads a checkpoint
    # written after a task, so it gets one accuracy row and one gap, which
    # no step reads
    arrays = {k: v.copy() for k, v in tr._checkpoint_arrays(run, [[0.0]], [0.0]).items()}
    ref, _, _ = tr._restore_run(arrays, 1, run.global_step, mcfg, cfg, geom)
    for r in (run, ref):
        _assert_flat_views(r)
    assert not np.shares_memory(ref.state.flat.data, run.state.flat.data)
    assert not np.shares_memory(ref.b_opt.m, run.b_opt.m)
    with monkeypatch.context() as m:
        m.setattr(bb, "visible_tokens", _full_length)
        want_rec, want_grads = one_step(ref)
    got_rec, got_grads = one_step(run)
    assert want_rec.penalty > 0.0  # the step replayed and penalized
    np.testing.assert_allclose(got_rec.row(), want_rec.row(), rtol=1e-12,
                               atol=0)
    assert got_grads.keys() == want_grads.keys() == run.state.params.keys()
    # key biases get analytically zero gradients, i.e. rounding noise; hold
    # them to the scale of the largest gradient
    scale = max(np.abs(g).max() for g in want_grads.values())
    for name, want in want_grads.items():
        np.testing.assert_allclose(got_grads[name], want, rtol=1e-12,
                                   atol=1e-12 * scale, err_msg=name)


def test_masked_encoders_see_only_visible_tokens(tasks, geom, mcfg, monkeypatch):
    """Every masked encoder call of a replaying derpp step runs on at most
    the batch's largest visible count of tokens, not the full grid."""
    run, cfg, (aps, vps) = _warm_derpp_run(tasks, geom, mcfg)
    seen = []
    encode_modality = bb.encode_modality

    def counted(state, x, modality, mask):
        seen.append((x.shape[1], mask, modality))
        return encode_modality(state, x, modality, mask)

    monkeypatch.setattr(bb, "encode_modality", counted)
    tr.train_step(run, mcfg, cfg, aps, vps)
    assert len(seen) == 2
    for tokens, mask, modality in seen:
        assert mask is not None and tokens == mask.shape[1]
        assert tokens == (~mask).sum(axis=1).max()
        assert tokens < (aps if modality == "audio" else vps).count


def test_each_block_is_one_tape_node(tasks, geom, mcfg, monkeypatch):
    """The tape budget of a replaying derpp step: the backward sweep reaches
    exactly one node per block call (7 on this geometry: two encoders, the
    joint fusion, the decoder per modality and the contrastive fusion per
    modality), no layernorm, attention or gelu node except the two
    ``ln_audio``/``ln_video`` layernorms before pooling, and one
    reconstruction node per modality."""
    run, cfg, (aps, vps) = _warm_derpp_run(tasks, geom, mcfg)
    made_by = {}
    make, backward = tt._make, tt.backward
    block_calls = []
    sweeps = []

    def recorded_make(data, parents, grad_fn):
        out = make(data, parents, grad_fn)
        if out._grad_fn is not None:
            made_by[id(out)] = sys._getframe(1).f_code.co_name
        return out

    def counted_block(*args, **kwargs):
        block_calls.append(1)
        return block(*args, **kwargs)

    def walked_backward(loss):
        ops = {}
        seen, stack = {id(loss)}, [loss]
        while stack:
            node = stack.pop()
            if node._grad_fn is not None:
                ops[made_by[id(node)]] = ops.get(made_by[id(node)], 0) + 1
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        sweeps.append(ops)
        return backward(loss)

    block = tt.prenorm_block
    monkeypatch.setattr(tt, "_make", recorded_make)
    monkeypatch.setattr(tt, "prenorm_block", counted_block)
    monkeypatch.setattr(tt, "backward", walked_backward)
    rec = tr.train_step(run, mcfg, cfg, aps, vps)
    assert rec.penalty > 0.0  # the step replayed
    (ops,) = sweeps
    assert len(block_calls) == ops["prenorm_block"] == 7
    assert ops.get("layernorm") == 2
    assert "attention" not in ops and "gelu" not in ops
    assert ops["masked_mse"] == 2


def test_threaded_evaluation_leaves_grad_mode_on(tasks, geom, mcfg):
    run, _, _ = tr.run_sequence(tasks[:1], geom, mcfg, _cfg("finetune"))
    serial = tr.evaluate_tasks(run.state, tasks, 1, geom, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers' no_grad blocks
    try:
        for _ in range(5):
            assert tr.evaluate_tasks(run.state, tasks, 1, geom, workers=3) == serial
            assert tt.add(tt.parameter(np.ones(2)), 1.0).requires_grad
    finally:
        sys.setswitchinterval(interval)


def test_restore_rejects_bad_optimizer_state(tasks, geom, mcfg, tmp_path):
    cfg = _cfg("stella")
    tr.run_sequence(tasks[:1], geom, mcfg, cfg, tmp_path)
    ckpt = tmp_path / "task_00.ckpt"
    arrays = cp.load(ckpt)
    arrays["opt/avm/m"] = arrays["opt/avm/m"][:-1]
    cp.save(ckpt, arrays)
    with pytest.raises(ValueError, match="shape mismatch"):
        tr.run_sequence(tasks, geom, mcfg, cfg, tmp_path)


def _stella_checkpoint(tasks, geom, mcfg, tmp_path):
    """The run, checkpoint arrays and configuration of a one-task stella
    run."""
    cfg = _cfg("stella")
    run, _, _ = tr.run_sequence(tasks[:1], geom, mcfg, cfg, tmp_path)
    return run, cp.load(tmp_path / "task_00.ckpt"), cfg


def _stream_state(gen):
    """Everything a stream's next draws and spawns depend on."""
    ss = gen.bit_generator.seed_seq
    return gen.bit_generator.state, ss.entropy, ss.spawn_key, ss.n_children_spawned


def _next_draws(streams):
    """Each stream's next draws, a 32-bit one first, and its next spawns'."""
    return {name: (gen.integers(0, 2 ** 32, dtype=np.uint32), gen.random(3).tolist(),
                   [child.random(2).tolist() for child in gen.spawn(2)])
            for name, gen in streams.items()}


def test_stream_words_round_trip():
    """The seven words per stream and the seed give back all six streams:
    equal states, and equal next draws and next spawns, also for a stream
    holding half of a 64-bit draw and for one that has spawned children."""
    streams = tr.rng_streams(11)
    for gen in streams.values():
        gen.random(5)
    streams["mask"].integers(0, 2 ** 32, dtype=np.uint32)  # keeps the other half
    assert streams["mask"].bit_generator.state["has_uint32"] == 1
    streams["selection"].spawn(3)
    words = tr._stream_words(streams)
    assert words.shape == (len(tr.STREAM_NAMES), 7)
    assert words[tr.STREAM_NAMES.index("selection"), 6] == 3
    back = tr._streams_from_words(words, 11)
    assert list(back) == list(tr.STREAM_NAMES)
    for name in tr.STREAM_NAMES:
        assert _stream_state(back[name]) == _stream_state(streams[name]), name
    assert _next_draws(back) == _next_draws(streams)


def test_restore_draws_no_random_number(tasks, geom, mcfg, tmp_path, monkeypatch):
    """Restoring builds the run from the checkpoint alone: it initialises no
    parameter and draws no random number, and its streams are in exactly
    the states the saving run left them in."""
    saved, arrays, cfg = _stella_checkpoint(tasks, geom, mcfg, tmp_path)

    def no_draws(*args, **kwargs):
        raise AssertionError("restore drew random numbers")

    for owner, name in ((np.random, "default_rng"), (bb, "init_backbone"),
                        (am, "init_avm")):
        monkeypatch.setattr(owner, name, no_draws)
    steps = tasks[0].train.audio_patches.shape[0] // cfg.batch
    run, _, _ = tr._restore_run(arrays, 1, steps, mcfg, cfg, geom)
    assert run.avm is not None
    assert list(run.streams) == list(tr.STREAM_NAMES)
    for name, gen in saved.streams.items():
        assert _stream_state(run.streams[name]) == _stream_state(gen), name


def test_restored_parameters_and_moments_are_the_readers_arrays(
        tasks, geom, mcfg, tmp_path):
    """Each module's flat values are the reader's ``model/<module>@...``
    array, each parameter a view of it at its table offset, and the
    optimizer steps that very leaf."""
    _, arrays, cfg = _stella_checkpoint(tasks, geom, mcfg, tmp_path)
    steps = tasks[0].train.audio_patches.shape[0] // cfg.batch
    run, _, _ = tr._restore_run(arrays, 1, steps, mcfg, cfg, geom)
    for part, opt, module, table in (
            (run.state, run.b_opt, "backbone", bb.param_table(mcfg, geom)),
            (run.avm, run.a_opt, "avm", am.param_table(mcfg))):
        flat = arrays[tr._table_key(module, table)]
        assert part.flat.data is flat and part.flat.requires_grad
        assert list(part.params) == list(table)
        lo = 0
        for k, p in part.params.items():
            hi = lo + p.size
            assert p.data.base is flat and p.requires_grad, k
            assert np.shares_memory(p.data, flat[lo:hi]), k
            assert np.array_equal(p.data, flat[lo:hi].reshape(p.shape)), k
            assert np.shares_memory(p.grad, part.flat.grad[lo:hi]), k
            lo = hi
        assert lo == flat.size
        assert opt.param is part.flat
        assert opt.m is arrays[f"opt/{module}/m"] and opt.v is arrays[f"opt/{module}/v"]
        assert opt.m.shape == flat.shape
        assert opt.step_count == steps


def test_model_tensors_must_be_exactly_the_configured_models(tasks, geom, mcfg,
                                                             tmp_path):
    """The restore takes the backbone's ``model/`` tensor and, for a
    scoring strategy, the matching module's ``model/avm@...`` one; each
    must be exactly the module's flat values under its parameter table's
    name, at its size, with finite values.  A model of another arrangement
    is another name, even at the same value count."""
    _, arrays, cfg = _stella_checkpoint(tasks, geom, mcfg, tmp_path)
    steps = tasks[0].train.audio_patches.shape[0] // cfg.batch

    def restore(tensors, tcfg=cfg):
        return tr._restore_run(tensors, 1, steps, mcfg, tcfg, geom)[0]

    b_key = tr._table_key("backbone", bb.param_table(mcfg, geom))
    a_key = tr._table_key("avm", am.param_table(mcfg))
    assert {k for k in arrays if k.startswith("model/")} == {b_key, a_key}
    deeper = bb.init_backbone(dataclasses.replace(mcfg, encoder_layers=2), geom,
                              np.random.default_rng(0))
    assert deeper.flat.size > restore(arrays).state.flat.size
    deeper_key = tr._table_key("backbone", bb.param_table(deeper.cfg, geom))
    with pytest.raises(cp.CheckpointError, match=f"unexpected.*{deeper_key}"):
        restore({**{k: v for k, v in arrays.items() if k != b_key},
                 deeper_key: deeper.flat.data})
    # encoder, fusion and decoder layers 1/1/1 against 0/2/2: as many blocks
    arranged = dataclasses.replace(mcfg, encoder_layers=0, fusion_layers=2,
                                   decoder_layers=2)
    arranged_table = bb.param_table(arranged, geom)
    assert tt.table_size(arranged_table) == arrays[b_key].size
    arranged_key = tr._table_key("backbone", arranged_table)
    assert arranged_key != b_key
    with pytest.raises(cp.CheckpointError,
                       match=f"missing \\['{b_key}'\\], unexpected \\['{arranged_key}'\\]"):
        restore({**{k: v for k, v in arrays.items() if k != b_key},
                 arranged_key: arrays[b_key]})
    nan_at = np.zeros(arrays[a_key].size)
    nan_at[-1] = np.nan
    cases = [("model/bogus", np.zeros(2), "unexpected \\['model/bogus'\\]"),
             (b_key, None, f"missing \\['{b_key}'\\]"),
             (b_key, np.zeros(3), f"shape mismatch.*'{b_key}'"),
             (b_key, np.full(arrays[b_key].size, np.inf), f"non-finite.*'{b_key}'"),
             ("model/avm@bogus", np.zeros(2), "unexpected \\['model/avm@bogus'\\]"),
             (a_key, None, f"missing \\['{a_key}'\\]"),
             (a_key, nan_at, f"non-finite.*'{a_key}'")]
    for key, value, message in cases:
        bad = dict(arrays)
        if value is None:
            del bad[key]
        else:
            bad[key] = value
        with pytest.raises(cp.CheckpointError, match=message) as exc:
            restore(bad)
        if key.startswith("model/avm@"):  # the backbone's own key is intact
            assert b_key not in str(exc.value)
    # a strategy without the matching module restores none, and takes a
    # checkpoint of one as a stray tensor
    derpp = _cfg("derpp")
    _, fields = tr._memory_layout(mcfg, derpp, geom)
    plain = {k: v for k, v in arrays.items()
             if not k.startswith(("model/avm@", "opt/avm/", "memory/field/"))
             or k.removeprefix("memory/field/") in fields}
    assert restore(plain, derpp).avm is None
    with pytest.raises(cp.CheckpointError, match=f"unexpected \\['{a_key}'\\]"):
        restore({**plain, a_key: arrays[a_key]}, derpp)


def test_empty_task_list_is_rejected(geom, mcfg):
    with pytest.raises(tr.TrainError):
        tr.run_sequence([], geom, mcfg, _cfg("finetune"))


# --------------------------------------------------------------------------
# artifacts and resume


def test_run_directory_artifacts(tasks, geom, mcfg, tmp_path):
    run, acc, gaps = tr.run_sequence(tasks, geom, mcfg, _cfg("stella"),
                                     tmp_path)
    lines = (tmp_path / "losses.csv").read_text().strip().splitlines()
    assert lines[0] == "step,recon,contrast,penalty,avm,total"
    assert len(lines) - 1 == run.global_step
    # float64 round-trip through the CSV text
    first = lines[1].split(",")
    assert float(first[1]) == run.records[0].recon
    assert tr.read_acc_csv(tmp_path / "acc_matrix.csv") == acc
    gap_lines = (tmp_path / "gaps.csv").read_text().strip().splitlines()
    assert gap_lines[0] == "task,gap"
    assert [float(l.split(",")[1]) for l in gap_lines[1:]] == gaps
    for t in range(len(tasks)):
        assert (tmp_path / f"task_{t:02d}.ckpt").exists()
    # the memory and the random streams live in the ckpt
    assert not list(tmp_path.glob("memory_*"))
    assert not list(tmp_path.glob("*.rng.json"))
    capacity, fields = tr._memory_layout(mcfg, _cfg("stella"), geom)
    assert capacity == run.mem.capacity
    snap = rm.memory_from_arrays(cp.load(tmp_path / "task_01.ckpt"),
                                 capacity, fields)
    n = len(run.mem)
    assert len(snap) == n and snap.seen_count == run.mem.seen_count
    for name, col in run.mem.fields.items():
        assert np.array_equal(snap.fields[name], col[:n]), name
    arrays = cp.load(tmp_path / "task_01.ckpt")
    assert np.array_equal(arrays["run/streams"], tr._stream_words(run.streams))
    assert arrays["run/streams"][tr.STREAM_NAMES.index("selection"), 6] > 0  # spawned
    assert not any(k in arrays for k in ("run/step", "run/tasks_done"))


@pytest.mark.parametrize("strategy", tr.STRATEGIES)
def test_checkpoint_layout_declares_what_a_save_writes(tasks, geom, mcfg, tmp_path,
                                                       monkeypatch, strategy):
    """After every task, the tensors a checkpoint holds outside ``memory/``
    have exactly the names and shapes that restore checks them against."""
    cfg = _cfg(strategy)
    checkpoint_arrays, written = tr._checkpoint_arrays, []

    def record(run, acc, gaps):
        out = checkpoint_arrays(run, acc, gaps)
        written.append((len(acc), run.global_step, {
            k: v.shape for k, v in out.items() if not k.startswith("memory/")}))
        return out

    monkeypatch.setattr(tr, "_checkpoint_arrays", record)
    tr.run_sequence(tasks, geom, mcfg, cfg, tmp_path)
    assert [done for done, _, _ in written] == [1, 2]
    for done, steps, shapes in written:
        assert shapes == tr._checkpoint_layout(tr._param_tables(mcfg, cfg, geom),
                                               done, steps)


def _assert_flat_views(run):
    """Every parameter's value and gradient are views of its module's flat
    buffers, which the optimizer steps; a rebinding would leave the
    checkpoint's flat tensor behind the model."""
    for part, opt in ((run.state, run.b_opt), (run.avm, run.a_opt)):
        if part is None:
            continue
        assert opt.param is part.flat
        for k, p in part.params.items():
            assert np.shares_memory(p.data, part.flat.data), k
            assert np.shares_memory(p.grad, part.flat.grad), k


@pytest.mark.parametrize("strategy", tr.STRATEGIES)
def test_resume_reproduces_uninterrupted_run(tasks, geom, mcfg, tmp_path,
                                             strategy):
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    cfg = _cfg(strategy)
    run_full, acc_full, gaps_full = tr.run_sequence(tasks, geom, mcfg, cfg,
                                                    full_dir)
    tr.run_sequence(tasks[:1], geom, mcfg, cfg, part_dir)
    run_res, acc_res, gaps_res = tr.run_sequence(tasks, geom, mcfg, cfg,
                                                 part_dir)
    _assert_flat_views(run_full)  # after a run's steps
    _assert_flat_views(run_res)  # after a restore and the steps that follow
    assert np.array_equal(_records(run_full), _records(run_res))
    assert acc_full == acc_res and gaps_full == gaps_res
    for k, v in run_full.state.named_arrays().items():
        assert np.array_equal(v, run_res.state.named_arrays()[k]), k
    # the step counts come from the loss records of the restored task
    assert run_res.b_opt.step_count == len(run_res.records)
    if run_res.a_opt is not None:
        assert run_res.a_opt.step_count == len(run_res.records)
    assert ((full_dir / "task_01.ckpt").read_bytes()
            == (part_dir / "task_01.ckpt").read_bytes())


_PATCHES = {"audio_patches", "video_patches"}
_FEATS = {"feat_audio", "feat_video"}
_QUERIES = {"q_audio", "q_video"}
_STORED = {
    "finetune": set(),
    "er": _PATCHES,
    "derpp": _PATCHES | _FEATS,
    "random_select": _PATCHES | _FEATS,
    "stella": _PATCHES | _FEATS | _QUERIES | {"imp_audio", "imp_video",
                                              "corr_audio", "corr_video"},
    "stella_plus": _PATCHES | _QUERIES | {"audio_indices", "video_indices"},
}


@pytest.mark.parametrize("strategy", tr.STRATEGIES)
def test_checkpoint_keys_are_pinned(tasks, geom, mcfg, tmp_path, strategy):
    """Every checkpoint key outside the model is pinned, so a key that only
    repeats another one (a step count, an entry count) cannot come back
    unnoticed, and so is the format the checkpoint declares.  The model is
    one flat tensor per module, named after its parameter table, and the
    optimizer moments are one flat ``m`` and one flat ``v`` per module, one
    value per parameter value.  A checkpoint written before a change to
    these keys would still declare the old format, so such a change must
    come with a new ``CHECKPOINT_FORMAT``."""
    run, _, _ = tr.run_sequence(tasks[:1], geom, mcfg, _cfg(strategy), tmp_path)
    arrays = cp.load(tmp_path / "task_00.ckpt")
    modules = {"backbone": run.state} | ({"avm": run.avm} if run.avm else {})
    tables = {"backbone": bb.param_table(mcfg, geom), "avm": am.param_table(mcfg)}
    moments = {f"opt/{name}/{kind}" for name in modules for kind in "mv"}
    assert {k for k in arrays if k.startswith("opt/")} == moments
    assert ({k for k in arrays if k.startswith("model/")}
            == {tr._table_key(name, tables[name]) for name in modules})
    for name, module in modules.items():
        total = sum(p.size for p in module.params.values())
        assert np.array_equal(arrays[tr._table_key(name, tables[name])],
                              np.concatenate([p.data for p in module.params.values()],
                                             axis=None))
        for kind in "mv":
            assert arrays[f"opt/{name}/{kind}"].shape == (total,)
    rest = {k for k in arrays if not k.startswith(("model/", "opt/"))}
    bump = ("the checkpoint keys changed: a layout change must bump "
            "trainer.CHECKPOINT_FORMAT (so older checkpoints exit 3) and re-pin "
            "these keys")
    assert rest == ({"memory/capacity", "memory/seen", "memory/steps",
                     "memory/tasks", "run/format", "run/records", "run/streams",
                     "run/acc/00", "run/gaps"}
                    | {f"memory/field/{name}" for name in _STORED[strategy]}), bump
    assert np.array_equal(arrays["run/format"], [1]), bump
    assert arrays["run/streams"].shape == (6, 7), bump
    assert arrays["run/records"].shape == (run.global_step, 5)


def test_resume_skips_completed_tasks(tasks, geom, mcfg, tmp_path):
    cfg = _cfg("er")
    run_a, _, _ = tr.run_sequence(tasks, geom, mcfg, cfg, tmp_path)
    steps_done = run_a.global_step
    run_b, _, _ = tr.run_sequence(tasks, geom, mcfg, cfg, tmp_path)
    assert run_b.global_step == steps_done  # nothing retrained


def test_loss_csv_rewritten_cleanly_after_resume(tasks, geom, mcfg, tmp_path):
    cfg = _cfg("er")
    tr.run_sequence(tasks[:1], geom, mcfg, cfg, tmp_path)
    # simulate a torn write from a crash mid-task
    (tmp_path / "losses.csv").write_text("step,recon\n0,garbage\n")
    run, _, _ = tr.run_sequence(tasks, geom, mcfg, cfg, tmp_path)
    lines = (tmp_path / "losses.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == run.global_step


class _Crash(Exception):
    pass


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("when", ["after", "during"])
def test_crash_at_any_artifact_write_resumes_bit_identically(
        tasks, geom, mcfg, tmp_path, monkeypatch, when):
    """Kill the run right after (or in the middle of) each artifact write in
    turn; resuming the directory must give exactly the uninterrupted run:
    losses, accuracy rows, gaps, weights and every file's bytes."""
    cfg = _cfg("stella")
    real = cp.atomic_open
    writes = []

    @contextlib.contextmanager
    def crashing(at, path, *args, **kwargs):
        writes.append(path)
        with real(path, *args, **kwargs) as fh:
            yield fh
            if when == "during" and len(writes) == at:
                fh.flush()
                fh.truncate(fh.tell() // 2)  # a torn write
                raise _Crash(path)
        if when == "after" and len(writes) == at:
            raise _Crash(path)

    def run_crashing_at(run_dir, at):
        writes.clear()
        with monkeypatch.context() as mp:
            mp.setattr(cp, "atomic_open", functools.partial(crashing, at))
            return tr.run_sequence(tasks, geom, mcfg, cfg, run_dir)

    run_full, acc_full, gaps_full = run_crashing_at(tmp_path / "full", 0)
    want_files = _dir_bytes(tmp_path / "full")
    total = len(writes)
    assert total == 2 * 5  # five artifacts per task, the checkpoint last
    for at in range(1, total + 1):
        run_dir = tmp_path / f"crash_{at:02d}"
        with pytest.raises(_Crash):
            run_crashing_at(run_dir, at)
        run, acc, gaps = tr.run_sequence(tasks, geom, mcfg, cfg, run_dir)
        assert np.array_equal(_records(run), _records(run_full)), at
        assert acc == acc_full and gaps == gaps_full
        for k, v in run_full.state.named_arrays().items():
            assert np.array_equal(v, run.state.named_arrays()[k]), (at, k)
        assert _dir_bytes(run_dir) == want_files, at
