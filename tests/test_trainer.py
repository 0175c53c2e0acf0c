"""Continual trainer: strategy wiring, degeneracies, artifacts, resume."""

import json
import sys

import numpy as np
import pytest

import avcl.checkpoint as cp
import avcl.memory as rm
import avcl.tensor as tt
import avcl.selection as sel
import avcl.trainer as tr
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
    base = dict(batch=4, epochs=1, memory_capacity=6, train_seed=3)
    if strategy == "finetune":
        base["memory_capacity"] = 0
    if strategy in tr.PENALIZED:
        base["alpha"] = 0.5
    if strategy in tr.SCORING:
        base["beta"] = 0.4
    if strategy in tr.SELECTING:
        base.update(rho_audio=0.5, rho_video=0.5, chunk_size=2)
    base.update(kw)
    return tr.TrainConfig(strategy, **base)


def _records(run):
    return np.array([r.row() for r in run.records])


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
    with pytest.raises(tr.TrainError):
        _cfg("stella", batch=1)  # matching head needs a negatives partner
    with pytest.raises(tr.TrainError):
        _cfg("er", epochs=0)


def test_config_effective_defaults():
    cfg = _cfg("er")
    assert cfg.effective_avm_lr == cfg.lr
    assert cfg.effective_replay_batch == cfg.batch
    cfg = _cfg("stella", avm_lr=3e-3, replay_batch=2)
    assert cfg.effective_avm_lr == 3e-3
    assert cfg.effective_replay_batch == 2


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
    assert set(f) == {"audio_patches", "audio_indices", "video_patches",
                      "video_indices", "feat_audio", "feat_video", "q_audio",
                      "q_video", "imp_audio", "imp_video", "corr_audio",
                      "corr_video"}
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
    assert set(run.mem.tasks) <= {0, 1}


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


def test_unscored_strategies_store_blank_scores(tasks, geom, mcfg):
    """Unscored strategies store no queries or scores; only the penalized
    ones keep the pooled features the penalty reads."""
    patches = {"audio_patches", "audio_indices", "video_patches",
               "video_indices"}
    run, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg("er"))
    assert set(run.mem.fields) == patches
    for strategy in ("derpp", "random_select"):
        run, _, _ = tr.run_sequence(tasks, geom, mcfg, _cfg(strategy))
        assert set(run.mem.fields) == patches | {"feat_audio", "feat_video"}
        assert run.mem.fields["feat_audio"].shape[1:] == (16,)


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
    a2, v2 = tr.eval_features(run.state, tasks[0].eval, geom, batch=32)
    assert np.array_equal(a1, a2) and np.array_equal(v1, v2)


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
    arrays["opt/avm/m/avm/head/b1"] = np.zeros(1)
    cp.save(ckpt, arrays)
    with pytest.raises(ValueError, match="shape mismatch"):
        tr.run_sequence(tasks, geom, mcfg, cfg, tmp_path)


def test_empty_task_list_is_rejected(geom, mcfg):
    with pytest.raises(tr.TrainError):
        tr.run_sequence([], geom, mcfg, _cfg("finetune"))


# --------------------------------------------------------------------------
# artifacts and resume


def test_run_directory_artifacts(tasks, geom, mcfg, tmp_path):
    run, acc, gaps = tr.run_sequence(tasks, geom, mcfg, _cfg("stella"),
                                     tmp_path)
    lines = (tmp_path / "losses.csv").read_text().strip().splitlines()
    assert lines[0] == "step,recon,contrast,penalty,avm"
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
        assert (tmp_path / f"task_{t:02d}.rng.json").exists()
    assert not list(tmp_path.glob("memory_*"))  # the memory lives in the ckpt
    snap = rm.memory_from_arrays(cp.load(tmp_path / "task_01.ckpt"))
    assert len(snap) == len(run.mem) and snap.seen_count == run.mem.seen_count
    for name, col in run.mem.fields.items():
        assert np.array_equal(snap.fields[name], col), name
    blob = json.loads((tmp_path / "task_01.rng.json").read_text())
    assert set(blob) == set(tr.STREAM_NAMES)


@pytest.mark.parametrize("strategy", ["er", "stella", "stella_plus"])
def test_resume_reproduces_uninterrupted_run(tasks, geom, mcfg, tmp_path,
                                             strategy):
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    cfg = _cfg(strategy)
    run_full, acc_full, gaps_full = tr.run_sequence(tasks, geom, mcfg, cfg,
                                                    full_dir)
    tr.run_sequence(tasks[:1], geom, mcfg, cfg, part_dir)
    run_res, acc_res, gaps_res = tr.run_sequence(tasks, geom, mcfg, cfg,
                                                 part_dir)
    assert np.array_equal(_records(run_full), _records(run_res))
    assert acc_full == acc_res and gaps_full == gaps_res
    for k, v in run_full.state.named_arrays().items():
        assert np.array_equal(v, run_res.state.named_arrays()[k]), k
    assert ((full_dir / "task_01.ckpt").read_bytes()
            == (part_dir / "task_01.ckpt").read_bytes())


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
