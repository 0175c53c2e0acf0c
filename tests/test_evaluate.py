"""Evaluation metric tests: independently coded rank/formula oracles, the
hand-evaluated forgetting example, gap properties, and export round-trips."""

import numpy as np
import pytest

import avcl.evaluate as ev


# ---------------------------------------------------------------------------
# retrieval


def _rank_oracle(audio, video, ks):
    a = audio / np.linalg.norm(audio, axis=1, keepdims=True)
    v = video / np.linalg.norm(video, axis=1, keepdims=True)
    n = len(a)
    out_av, out_va = {k: 0 for k in ks}, {k: 0 for k in ks}
    for i in range(n):
        for direction, out in ((0, out_av), (1, out_va)):
            sims = [(a[i] @ v[j] if direction == 0 else v[i] @ a[j], j)
                    for j in range(n)]
            order = sorted(sims, key=lambda t: (-t[0], t[1]))
            rank = [j for _, j in order].index(i) + 1
            for k in ks:
                out[k] += rank <= k
    return ({k: (cnt / n) * 100.0 for k, cnt in out_av.items()},
            {k: (cnt / n) * 100.0 for k, cnt in out_va.items()})


def test_identical_features_retrieve_perfectly():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(12, 6))
    rep = ev.zero_shot_retrieval(feats, feats.copy(), ks=(1, 5, 10))
    assert rep.audio_to_video[1] == 100.0
    assert rep.video_to_audio[1] == 100.0
    assert rep.headline() == 100.0


def test_adversarial_shuffle_scores_zero_at_k1():
    n = 20
    eye = np.eye(n)
    video = np.roll(eye, 1, axis=0)  # true pair similarity is minimal (0)
    rep = ev.zero_shot_retrieval(eye, video, ks=(1,))
    assert rep.audio_to_video[1] == 0.0
    assert rep.video_to_audio[1] == 0.0


def test_retrieval_matches_rank_loop_oracle():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = int(rng.integers(10, 51))
        d = int(rng.integers(2, 9))
        audio = rng.normal(size=(n, d))
        video = rng.normal(size=(n, d))
        if trial % 3 == 0:  # force similarity ties
            video[: n // 2] = video[0]
        rep = ev.zero_shot_retrieval(audio, video, ks=(1, 5, 10))
        want_av, want_va = _rank_oracle(audio, video, (1, 5, 10))
        assert rep.audio_to_video == want_av, f"trial {trial}"
        assert rep.video_to_audio == want_va
        assert rep.audio_to_video[1] <= rep.audio_to_video[5] <= rep.audio_to_video[10]


def test_retrieval_needs_enough_pairs():
    feats = np.eye(4)
    with pytest.raises(ev.EvalError):
        ev.zero_shot_retrieval(feats, feats, ks=(1, 5))


# ---------------------------------------------------------------------------
# task-matrix metrics


def test_average_accuracy_examples():
    assert ev.average_accuracy([[42.0]]) == 42.0
    assert ev.average_accuracy([[50.0], [40.0, 60.0], [30.0, 50.0, 70.0]]) == 50.0


def test_average_accuracy_matches_formula_on_random_matrices():
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = int(rng.integers(1, 6))
        acc = [[float(x) for x in rng.uniform(0, 100, size=row + 1)]
               for row in range(t)]
        assert ev.average_accuracy(acc) == pytest.approx(sum(acc[-1]) / t, abs=1e-12)


def test_acc_matrix_validation():
    with pytest.raises(ev.EvalError):
        ev.average_accuracy([])
    with pytest.raises(ev.EvalError):
        ev.average_accuracy([[10.0, 20.0]])  # not lower-triangular
    with pytest.raises(ev.EvalError):
        ev.average_accuracy([[150.0]])  # out of range


def test_forgetting_hand_worked_example():
    acc = [[50.0], [40.0, 60.0], [30.0, 50.0, 70.0]]
    # task 0: peak max(50, 40) = 50, final 30 -> 20; task 1: 60 - 50 = 10
    assert ev.average_forgetting(acc) == 15.0


def test_forgetting_edge_cases():
    assert ev.average_forgetting([[10.0], [10.0, 90.0]]) == 0.0
    # non-decreasing columns mean nothing was ever better than the end
    acc = [[10.0], [20.0, 5.0], [30.0, 6.0, 1.0]]
    assert ev.average_forgetting(acc) <= 0.0
    with pytest.raises(ev.EvalError):
        ev.average_forgetting([[42.0]])


def test_forgetting_matches_formula_on_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = int(rng.integers(2, 7))
        acc = [[float(x) for x in rng.uniform(0, 100, size=row + 1)]
               for row in range(t)]
        drops = [max(acc[tt][i] for tt in range(i, t - 1)) - acc[t - 1][i]
                 for i in range(t - 1)]
        assert ev.average_forgetting(acc) == pytest.approx(
            sum(drops) / (t - 1), abs=1e-12)


# ---------------------------------------------------------------------------
# modality gap


def test_gap_zero_for_identical_clouds():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(9, 5))
    assert ev.modality_gap(feats, feats.copy()) == 0.0


def test_gap_of_orthonormal_point_masses_is_sqrt_two():
    a = np.tile(np.eye(4)[0], (6, 1))
    v = np.tile(np.eye(4)[1], (6, 1))
    assert ev.modality_gap(a, v) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_gap_matches_direct_formula():
    rng = np.random.default_rng(5)
    a, v = rng.normal(size=(7, 6)), rng.normal(size=(11, 6))
    na = a / np.linalg.norm(a, axis=1, keepdims=True)
    nv = v / np.linalg.norm(v, axis=1, keepdims=True)
    want = np.linalg.norm(na.mean(axis=0) - nv.mean(axis=0))
    assert ev.modality_gap(a, v) == pytest.approx(want, abs=1e-12)


def test_gap_invariant_under_joint_rotation():
    rng = np.random.default_rng(6)
    a, v = rng.normal(size=(8, 6)), rng.normal(size=(10, 6))
    base = ev.modality_gap(a, v)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        assert abs(ev.modality_gap(a @ q, v @ q) - base) < 1e-9


def test_gap_rejects_empty_or_mismatched():
    with pytest.raises(ev.EvalError):
        ev.modality_gap(np.zeros((0, 3)), np.ones((2, 3)))
    with pytest.raises(ev.EvalError):
        ev.modality_gap(np.ones((2, 3)), np.ones((2, 4)))


def test_mean_gap_decline():
    assert ev.mean_gap_decline([3.0, 2.0, 1.0]) == 1.0
    assert ev.mean_gap_decline([1.0, 2.0]) == -1.0
    with pytest.raises(ev.EvalError):
        ev.mean_gap_decline([1.0])


# ---------------------------------------------------------------------------
# selection quality


def test_quality_perfect_and_disjoint():
    truth = np.zeros(10, dtype=bool)
    truth[[2, 5, 7]] = True
    perfect = ev.selection_quality(np.array([2, 5, 7]), truth)
    assert perfect.recall == 1.0 and perfect.precision == 1.0
    disjoint = ev.selection_quality(np.array([0, 1, 3]), truth)
    assert disjoint.recall == 0.0 and disjoint.precision == 0.0


def test_quality_empty_truth_reports_absent_recall():
    rep = ev.selection_quality(np.array([1, 2]), np.zeros(6, dtype=bool))
    assert rep.recall is None and rep.precision == 0.0


def test_quality_validation():
    truth = np.ones(5, dtype=bool)
    with pytest.raises(ev.EvalError):
        ev.selection_quality(np.array([1, 1]), truth)  # duplicates
    with pytest.raises(ev.EvalError):
        ev.selection_quality(np.array([9]), truth)  # out of range
    with pytest.raises(ev.EvalError):
        ev.selection_quality(np.array([], dtype=np.int64), truth)


def test_uniform_random_selection_recall_matches_expectation():
    rng = np.random.default_rng(7)
    n, kap, t = 40, 10, 12
    truth = np.zeros(n, dtype=bool)
    truth[rng.choice(n, size=t, replace=False)] = True
    trials = 10_000
    recalls = np.empty(trials)
    for i in range(trials):
        sel = rng.choice(n, size=kap, replace=False)
        recalls[i] = ev.selection_quality(sel, truth).recall
    expect = kap / n
    sem = recalls.std(ddof=1) / np.sqrt(trials)
    assert abs(recalls.mean() - expect) < 3 * sem + 1e-12


# ---------------------------------------------------------------------------
# attention export


def _read_attention(path):
    """An exported attention CSV back as (samples, queries, keys)."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 2:].reshape(int(table[-1, 0]) + 1, -1, table.shape[1] - 2)


def test_uniform_logits_export_uniform_grid(tmp_path):
    maps = np.zeros((2, 3, 4, 5))
    path = tmp_path / "attn.csv"
    ev.export_attention(maps, path)
    back = _read_attention(path)
    assert back.shape == (2, 4, 5)
    assert np.allclose(back, 0.2, atol=1e-15)


def test_export_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(8)
    maps = rng.normal(size=(3, 2, 5, 7)) * 4.0
    path = tmp_path / "attn.csv"
    ev.export_attention(maps, path)
    back = _read_attention(path)
    shifted = maps - maps.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    want = (e / e.sum(axis=-1, keepdims=True)).mean(axis=1)
    assert np.array_equal(back, want)  # %.17g round-trips float64 exactly
    assert np.all(np.abs(back.sum(axis=-1) - 1.0) < 1e-9)
