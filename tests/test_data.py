"""Scene generator, patch bijection, masking and task sequences."""

import numpy as np
import pytest

from avcl import data as dd


GEOM = dd.SceneGeometry()


def _small_cfg(**kw):
    base = dict(num_tasks=2, classes_per_task=3, train_pairs=12, eval_pairs=6, seed=5)
    base.update(kw)
    return dd.DataConfig(**base)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def _box(cells):
    """Bounding box of the painted cells: one half-open (lo, hi) per axis."""
    box = []
    for axis in range(cells.ndim):
        others = tuple(a for a in range(cells.ndim) if a != axis)
        hit = np.flatnonzero(cells.any(axis=others))
        box.append((int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def test_default_patch_counts():
    assert GEOM.audio.patches == 64
    assert GEOM.video.patches == 64
    assert GEOM.audio.patch_dim == 16
    assert GEOM.video.patch_dim == 64
    assert GEOM.audio.grid == (16, 4) and GEOM.audio.shape == (64, 16)
    assert GEOM.video.grid == (4, 4, 4) and GEOM.video.shape == (4, 32, 32)


def test_patch_count_formula_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.choice([2, 4, 8]))
        t = p * int(rng.integers(1, 9))
        f = p * int(rng.integers(1, 5))
        g = dd.AudioGeometry(t, f, p)
        assert g.patches == (t // p) * (f // p)
        fr = int(rng.integers(1, 5))
        h = p * int(rng.integers(1, 6))
        w = p * int(rng.integers(1, 6))
        v = dd.VideoGeometry(fr, h, w, p)
        assert v.patches == fr * (h // p) * (w // p)


def test_indivisible_patch_rejected():
    with pytest.raises(dd.DataError):
        dd.AudioGeometry(65, 16, 4)
    with pytest.raises(dd.DataError):
        dd.VideoGeometry(4, 30, 32, 8)


def test_correlated_pair_contains_both_signatures():
    cls = dd.make_class(0, 123, GEOM, correlation=1.0)
    rng = np.random.default_rng(9)
    (audio, audio_cells), (video, video_cells), matched = dd.generate_pair(cls, rng, GEOM)
    assert matched
    assert audio.shape == audio_cells.shape == GEOM.audio.shape
    assert video.shape == video_cells.shape == GEOM.video.shape
    # planted regions visibly hotter than the noise floor
    assert np.abs(video[video_cells]).mean() > 2.0
    assert np.abs(audio[audio_cells]).mean() > 2.0


def test_planted_region_energy_over_1000_pairs():
    # generator contract: mean |value| inside the planted regions >= 3x the
    # background noise std, measured empirically over 1000 pairs
    cls = dd.make_class(3, 77, GEOM, correlation=1.0)
    rng = np.random.default_rng(1234)
    a_tot = a_cnt = v_tot = v_cnt = 0.0
    for _ in range(1000):
        (audio, audio_cells), (video, video_cells), _ = dd.generate_pair(cls, rng, GEOM)
        band = np.abs(audio[audio_cells])
        box = np.abs(video[video_cells])
        a_tot += band.sum()
        a_cnt += band.size
        v_tot += box.sum()
        v_cnt += box.size
    assert a_tot / a_cnt >= 3.0
    assert v_tot / v_cnt >= 3.0


def test_correlation_zero_decouples_audio_class():
    # with correlation 0 the audio signature must come from a decoy class
    geom = GEOM
    cls = dd.make_class(0, 42, geom, correlation=0.0)
    decoy = dd.make_class(1, 42, geom, correlation=0.0)
    rng = np.random.default_rng(7)
    n_matched = 0
    for _ in range(50):
        (audio, audio_cells), _, matched = dd.generate_pair(cls, rng, geom, decoys=(decoy,))
        n_matched += matched
        signature = audio[audio_cells].reshape(decoy.audio_pattern.shape)
        # the planted band correlates with the decoy's pattern, not ours
        corr_decoy = float(np.sum(signature * decoy.audio_pattern))
        corr_own = float(np.sum(signature * cls.audio_pattern))
        assert corr_decoy > corr_own
    assert n_matched == 0


def test_correlation_strength_statistics():
    cls = dd.make_class(0, 42, GEOM, correlation=0.7)
    decoy = dd.make_class(1, 42, GEOM)
    rng = np.random.default_rng(11)
    n = 400
    matched = sum(dd.generate_pair(cls, rng, GEOM, (decoy,))[2] for _ in range(n))
    # binomial(400, 0.7): 3 sigma ~ 27.5
    assert abs(matched - 0.7 * n) < 4 * np.sqrt(n * 0.21)


def test_matched_pair_shares_temporal_placement():
    cls = dd.make_class(2, 9, GEOM, correlation=1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        (_, audio_cells), (_, video_cells), _ = dd.generate_pair(cls, rng, GEOM)
        (t0, t1), _ = _box(audio_cells)
        (f0, f1), _, _ = _box(video_cells)
        assert t0 == dd._relative_band_start(f0, f1 - f0, GEOM, t1 - t0)


def test_class_signatures_deterministic_and_distinct():
    a1 = dd.make_class(4, 99, GEOM)
    a2 = dd.make_class(4, 99, GEOM)
    assert np.array_equal(a1.audio_pattern, a2.audio_pattern)
    assert np.array_equal(a1.video_pattern, a2.video_pattern)
    # different seed -> different signatures
    b = dd.make_class(4, 100, GEOM)
    assert not np.array_equal(a1.audio_pattern, b.audio_pattern)
    # 20 classes pairwise distinct with comfortable margin
    classes = [dd.make_class(c, 31, GEOM) for c in range(20)]
    for i in range(20):
        for j in range(i + 1, 20):
            da = np.linalg.norm(classes[i].audio_pattern - classes[j].audio_pattern)
            dv = np.linalg.norm(classes[i].video_pattern - classes[j].video_pattern)
            assert da > 1.0 and dv > 1.0


# ---------------------------------------------------------------------------
# patchify
# ---------------------------------------------------------------------------


def test_patchify_audio_against_loop_oracle():
    rng = np.random.default_rng(5)
    g = GEOM.audio
    grid = rng.normal(size=(g.time_bins, g.freq_bins))
    patches = dd.patchify(grid, g)
    assert patches.shape == (g.patches, g.patch_dim)
    p, num_freq = g.patch, g.freq_bins // g.patch
    for ti in range(g.time_bins // p):
        for fi in range(num_freq):
            flat = ti * num_freq + fi
            want = grid[ti * p:(ti + 1) * p, fi * p:(fi + 1) * p].reshape(-1)
            assert np.array_equal(patches[flat], want)


def test_patchify_video_against_loop_oracle():
    rng = np.random.default_rng(6)
    g = GEOM.video
    clip = rng.normal(size=(g.frames, g.height, g.width))
    patches = dd.patchify(clip, g)
    p = g.patch
    rows, cols = g.height // p, g.width // p
    for fr in range(g.frames):
        for r in range(rows):
            for c in range(cols):
                flat = (fr * rows + r) * cols + c
                want = clip[fr, r * p:(r + 1) * p, c * p:(c + 1) * p].reshape(-1)
                assert np.array_equal(patches[flat], want)


def test_patchify_keeps_leading_axes_and_dtype():
    rng = np.random.default_rng(7)
    g = GEOM.video
    clips = rng.normal(size=(3, 2) + g.shape)
    patches = dd.patchify(clips, g)
    assert patches.shape == (3, 2, g.patches, g.patch_dim)
    assert np.array_equal(patches[2, 1], dd.patchify(clips[2, 1], g))
    cells = clips > 0
    assert dd.patchify(cells, g).dtype == bool
    with pytest.raises(dd.DataError):
        dd.patchify(clips[..., :-1], g)
    with pytest.raises(dd.DataError):
        dd.patchify(np.zeros(g.shape[1:]), g)


def _audio_truth_loops(band, g):
    """Reference: the patches whose time interval meets the band."""
    (start, stop), _ = band
    num_time, num_freq = g.time_bins // g.patch, g.freq_bins // g.patch
    mask = np.zeros(num_time * num_freq, dtype=bool)
    for ti in range(num_time):
        lo, hi = ti * g.patch, (ti + 1) * g.patch
        if lo < stop and start < hi:
            mask[ti * num_freq:(ti + 1) * num_freq] = True
    return mask


def _video_truth_loops(region, g):
    """Reference: the patches whose frame, row and column intervals all meet
    the box."""
    (f0, f1), (r0, r1), (c0, c1) = region
    rows, cols = g.height // g.patch, g.width // g.patch
    mask = np.zeros(g.frames * rows * cols, dtype=bool)
    for fr in range(f0, f1):
        for pr in range(rows):
            if not (pr * g.patch < r1 and r0 < (pr + 1) * g.patch):
                continue
            for pc in range(cols):
                if pc * g.patch < c1 and c0 < (pc + 1) * g.patch:
                    mask[(fr * rows + pr) * cols + pc] = True
    return mask


def test_truth_masks_match_geometric_oracle():
    """The painted cells are one full box of the signature's shape, and the
    truth masks the splits store, ``patchify(cells).any(-1)``, are exactly
    the patches that box intersects, on grid-aligned and unaligned boxes."""
    for geom in (GEOM,
                 dd.SceneGeometry(dd.AudioGeometry(32, 8, 4), dd.VideoGeometry(2, 16, 16, 8)),
                 dd.SceneGeometry(dd.AudioGeometry(24, 6, 2), dd.VideoGeometry(3, 24, 40, 4))):
        cls = dd.make_class(1, 55, geom, correlation=0.5)
        decoys = (dd.make_class(2, 55, geom),)
        (band_w, fbins), video_shape = dd.signature_shapes(geom)
        rng = np.random.default_rng(8)
        for _ in range(20):
            (_, audio_cells), (_, video_cells), _ = dd.generate_pair(cls, rng, geom, decoys)
            band, region = _box(audio_cells), _box(video_cells)
            assert tuple(hi - lo for lo, hi in band) == (band_w, fbins)
            assert tuple(hi - lo for lo, hi in region) == video_shape
            assert audio_cells.sum() == band_w * fbins
            assert video_cells.sum() == np.prod(video_shape)
            assert np.array_equal(dd.patchify(audio_cells, geom.audio).any(-1),
                                  _audio_truth_loops(band, geom.audio))
            assert np.array_equal(dd.patchify(video_cells, geom.video).any(-1),
                                  _video_truth_loops(region, geom.video))


def test_patchset_validation_and_indices():
    rng = np.random.default_rng(9)
    arr = rng.normal(size=(2, GEOM.audio.patches, GEOM.audio.patch_dim))
    ps = dd.full_patchset(arr, "audio", GEOM)
    assert ps.indices.shape == (2, 64)
    assert np.array_equal(ps.indices[0], np.arange(64))
    with pytest.raises(dd.DataError):
        dd.PatchSet(arr, np.full((2, 64), 64), "audio", (16, 4))  # out of range
    with pytest.raises(dd.DataError):
        dd.PatchSet(arr, ps.indices, "smell", (16, 4))


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def test_mask_prob_zero_masks_nothing():
    rng = np.random.default_rng(1)
    m = dd.random_mask(rng, 8, 64, 0.0)
    assert not m.any()


def test_mask_prob_bounds():
    rng = np.random.default_rng(1)
    with pytest.raises(dd.DataError):
        dd.random_mask(rng, 2, 4, 1.0)
    with pytest.raises(dd.DataError):
        dd.random_mask(rng, 2, 4, -0.1)


def test_mask_rate_matches_binomial():
    rng = np.random.default_rng(2)
    m = dd.random_mask(rng, 500, 64, 0.8)
    rate = m.mean()
    # 32000 draws at p=.8 (resampling negligible): 4 sigma ~ 0.009
    assert abs(rate - 0.8) < 0.01


def test_no_row_fully_masked():
    rng = np.random.default_rng(3)
    # tiny rows at high prob force the resampling path
    m = dd.random_mask(rng, 2000, 3, 0.85)
    assert not m.all(axis=1).any()


# ---------------------------------------------------------------------------
# sequences and files
# ---------------------------------------------------------------------------


def test_sequence_deterministic():
    cfg = _small_cfg()
    s1 = dd.build_sequence(cfg)
    s2 = dd.build_sequence(cfg)
    assert np.array_equal(s1[1].train.audio_patches, s2[1].train.audio_patches)
    assert np.array_equal(s1[0].eval.video_patches, s2[0].eval.video_patches)
    s3 = dd.build_sequence(_small_cfg(seed=6))
    assert not np.array_equal(s1[0].train.audio_patches, s3[0].train.audio_patches)


def test_sequence_class_layout():
    cfg = _small_cfg()
    seq = dd.build_sequence(cfg)
    assert [t.spec.class_ids for t in seq] == [(0, 1, 2), (3, 4, 5)]
    assert set(seq[1].train.class_ids) == {3, 4, 5}
    # balanced assignment
    counts = np.bincount(seq[0].train.class_ids, minlength=3)
    assert counts.max() - counts.min() <= 1
