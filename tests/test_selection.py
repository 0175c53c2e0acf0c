"""Selection pipeline tests.

The weighted-draw oracles below re-implement the documented randomness
protocol (one spawned child per row; Bernoulli draws first, then one
uniform per weighted pick) in plain Python loops, and must match the
vectorised implementation bit-for-bit on identically seeded generators.
"""

import numpy as np
import pytest

import avcl.selection as sel
from avcl.data import (AudioGeometry, SceneGeometry, VideoGeometry,
                       full_patchset, generate_pair, make_class, patchify)


# ---------------------------------------------------------------------------
# oracles


def _oracle_flags(child, correlation, kap):
    draws = child.random(kap)
    if correlation is None:
        return draws >= 2.0  # all False; draws still consumed
    return np.array([draws[j] < correlation[j] for j in range(kap)])


def _oracle_draw(child, weights, count):
    w = [float(x) for x in weights]
    picks = []
    for _ in range(count):
        cums, acc = [], 0.0
        for x in w:
            acc += x
            cums.append(acc)
        if cums[-1] <= 0.0:
            break
        r = child.random() * cums[-1]
        for j, cj in enumerate(cums):
            if cj > r:
                picks.append(j)
                w[j] = 0.0
                break
    return picks


def _oracle_fill(taken, c_full, need):
    rest = [i for i in range(len(c_full)) if i not in taken]
    rest.sort(key=lambda i: (c_full[i], i))
    return rest[:need]


def _oracle_video_row(i_row, c_row, kap, child):
    order = np.argsort(i_row, kind="stable")
    scored = order[-kap:]
    marks = _oracle_flags(child, c_row, kap)
    flagged = {int(scored[j]) for j in range(kap) if marks[j]}
    c_full = [0.0] * len(i_row)
    if c_row is not None:
        for j in range(kap):
            c_full[int(scored[j])] = float(c_row[j])
    w = [0.0 if i in flagged else float(i_row[i]) for i in range(len(i_row))]
    positive = [i for i, x in enumerate(w) if x > 0.0]
    picks = _oracle_draw(child, w, kap) if len(positive) >= kap else positive[:]
    if len(picks) < kap:
        picks.extend(_oracle_fill(set(picks), c_full, kap - len(picks)))
    return sorted(picks), flagged


def _oracle_audio_row(i_row, c_row, kap, chunk, grid, child):
    num_time, num_freq = grid
    order = np.argsort(i_row, kind="stable")
    scored = order[-kap:]
    marks = _oracle_flags(child, c_row, kap)
    flagged = {int(scored[j]) for j in range(kap) if marks[j]}
    c_full = [0.0] * len(i_row)
    if c_row is not None:
        for j in range(kap):
            c_full[int(scored[j])] = float(c_row[j])
    time_mass = i_row.reshape(num_time, num_freq).sum(axis=1)
    num_chunks = num_time // chunk
    chunk_mass = time_mass[:num_chunks * chunk].reshape(num_chunks, chunk).mean(axis=1)
    chunk_order = _oracle_draw(child, chunk_mass, num_chunks)
    chunk_order += sorted(set(range(num_chunks)) - set(chunk_order))
    picks, count = [], 0
    for c in chunk_order:
        lo, hi = c * chunk * num_freq, (c + 1) * chunk * num_freq
        kept = [i for i in range(lo, hi) if i not in flagged]
        take = kept[:kap - count]
        picks.extend(take)
        count += len(take)
        if count == kap:
            break
    if count < kap:
        picks.extend(_oracle_fill(set(picks), c_full, kap - count))
    return sorted(picks), flagged


def _softmax_rows(rng, b, n):
    z = rng.normal(size=(b, n)) * 2.0
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# budgets and scoring


def test_budget_rounds_half_up_with_floor_of_one():
    assert sel.kappa(64, 0.5) == 32
    assert sel.kappa(7, 0.5) == 4  # 3.5 rounds up
    assert sel.kappa(10, 0.04) == 1  # 0.4 floors to 0, lifted to 1
    assert sel.kappa(64, 1.0) == 64
    assert sel.kappa(3, 0.5) == 2
    with pytest.raises(sel.SelectionError):
        sel.kappa(64, 0.0)
    with pytest.raises(sel.SelectionError):
        sel.kappa(64, 1.2)


def test_importance_matches_per_element_softmax_average():
    rng = np.random.default_rng(0)
    b, h, n, m = 3, 2, 5, 7
    audio_map = rng.normal(size=(b, h, n, m))
    video_map = rng.normal(size=(b, h, m, n))
    i_a, i_v = sel.importance_scores(audio_map, video_map)
    assert i_a.shape == (b, m) and i_v.shape == (b, n)
    for row in range(b):
        expect = np.zeros(m)
        for head in range(h):
            for q in range(n):
                logits = audio_map[row, head, q]
                e = np.exp(logits - logits.max())
                expect += e / e.sum()
        expect /= h * n
        assert np.max(np.abs(i_a[row] - expect)) < 1e-12
    assert np.allclose(i_a.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(i_v.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(sel.SelectionError):
        sel.importance_scores(audio_map * np.inf, video_map)


def test_localized_gather_oracle():
    rng = np.random.default_rng(1)
    b, h, n, d, kap = 4, 3, 9, 6, 4
    q = rng.normal(size=(b, h, n, d))
    k = rng.normal(size=(b, h, n, d))
    imp = _softmax_rows(rng, b, n)
    loc = sel.gather_localized(q, k, imp, kap)
    assert loc.pooled.shape == (b, h, d)
    assert loc.keys.shape == (b, h, kap, d)
    assert loc.indices.shape == (b, kap)
    for row in range(b):
        order = sorted(range(n), key=lambda i: (imp[row, i], 0))
        top = order[-kap:]
        assert list(loc.indices[row]) == top
        weights = np.array([imp[row, i] for i in top])
        for head in range(h):
            pooled = sum(weights[j] * q[row, head, top[j]] for j in range(kap))
            pooled /= weights.sum()
            assert np.max(np.abs(loc.pooled[row, head] - pooled)) < 1e-12
            for j in range(kap):
                assert np.array_equal(loc.keys[row, head, j], k[row, head, top[j]])


def test_localized_gather_breaks_ties_by_original_position():
    imp = np.array([[0.25, 0.25, 0.25, 0.25]])
    q = np.zeros((1, 1, 4, 2))
    k = np.zeros((1, 1, 4, 2))
    loc = sel.gather_localized(q, k, imp, 2)
    assert list(loc.indices[0]) == [2, 3]  # stable sort keeps index order


def test_correlation_is_two_way_softmax_over_past_and_current():
    rng = np.random.default_rng(2)
    b, h, kap, d = 3, 4, 5, 8
    keys = rng.normal(size=(b, h, kap, d))
    q_now = rng.normal(size=(b, h, d))
    q_past = rng.normal(size=(b, h, d))
    beta = 0.4
    c = sel.correlation_scores(keys, q_now, q_past, beta)
    assert c.shape == (b, kap)
    for row in range(b):
        for j in range(kap):
            acc = 0.0
            for head in range(h):
                a_now = q_now[row, head] @ keys[row, head, j] / (beta * np.sqrt(d))
                a_past = q_past[row, head] @ keys[row, head, j] / (beta * np.sqrt(d))
                e_now, e_past = np.exp(a_now), np.exp(a_past)
                acc += e_past / (e_now + e_past)
            assert abs(c[row, j] - acc / h) < 1e-12
    assert np.all(c >= 0.0) and np.all(c <= 1.0)
    # swapping roles complements the score
    c_swap = sel.correlation_scores(keys, q_past, q_now, beta)
    assert np.max(np.abs(c + c_swap - 1.0)) < 1e-12


def test_correlation_is_stable_for_extreme_logits():
    keys = np.full((1, 1, 2, 4), 50.0)
    q_now = np.full((1, 1, 4), 50.0)
    q_past = -q_now
    c = sel.correlation_scores(keys, q_now, q_past, 0.4)
    assert np.all(np.isfinite(c))
    assert np.all(c >= 0.0) and np.all(c <= 1.0)
    assert c[0, 0] < 1e-12


# ---------------------------------------------------------------------------
# video selection


def test_video_selection_replays_documented_randomness_protocol():
    for case in range(30):
        rng = np.random.default_rng(100 + case)
        b = int(rng.integers(1, 5))
        n = int(rng.integers(2, 20))
        kap = int(rng.integers(1, n + 1))
        imp = _softmax_rows(rng, b, n)
        corr = None if case % 3 == 0 else rng.random((b, kap))
        seed = 9000 + case
        got, flags = sel.select_video(imp, corr, kap, np.random.default_rng(seed))
        children = np.random.default_rng(seed).spawn(b)
        for row in range(b):
            c_row = None if corr is None else corr[row]
            want, flagged = _oracle_video_row(imp[row], c_row, kap, children[row])
            assert list(got[row]) == want, f"case {case} row {row}"
            assert set(np.flatnonzero(flags[row])) == flagged


def test_video_selection_outputs_distinct_ascending_budget():
    rng = np.random.default_rng(3)
    for _ in range(50):
        b = int(rng.integers(1, 4))
        n = int(rng.integers(2, 16))
        kap = sel.kappa(n, float(rng.uniform(0.05, 1.0)))
        imp = _softmax_rows(rng, b, n)
        corr = rng.random((b, kap))
        got, flags = sel.select_video(imp, corr, kap, rng)
        assert got.shape == (b, kap) and flags.shape == (b, n)
        for row in range(b):
            vals = list(got[row])
            assert vals == sorted(set(vals))
            assert all(0 <= v < n for v in vals)


def test_video_full_ratio_without_memory_is_identity():
    rng = np.random.default_rng(4)
    imp = _softmax_rows(rng, 3, 12)
    got, flags = sel.select_video(imp, None, 12, np.random.default_rng(7))
    assert np.array_equal(got, np.tile(np.arange(12), (3, 1)))
    assert not flags.any()


def test_video_no_memory_equals_zero_correlation_bitwise():
    rng = np.random.default_rng(5)
    imp = _softmax_rows(rng, 4, 10)
    kap = 4
    a, fa = sel.select_video(imp, None, kap, np.random.default_rng(42))
    b, fb = sel.select_video(imp, np.zeros((4, kap)), kap, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert np.array_equal(fa, fb)


def test_video_flagged_patches_excluded_when_enough_remain():
    rng = np.random.default_rng(6)
    imp = _softmax_rows(rng, 2, 12)
    kap = 3
    corr = np.ones((2, 12))[:, :kap]  # certain flags on the top-3 patches
    got, flags = sel.select_video(imp, corr, kap, rng)
    for row in range(2):
        order = np.argsort(imp[row], kind="stable")
        assert set(np.flatnonzero(flags[row])) == set(order[-kap:])
        assert not (set(got[row]) & set(order[-kap:]))


def test_video_degenerate_rows_still_meet_budget():
    # correlation 1 makes every scored patch certainly flagged; at full
    # budget nothing has positive masked importance left and the ascending
    # (correlation, index) fill must restore the whole set
    imp = np.array([[0.1, 0.2, 0.3, 0.4]])
    got, flags = sel.select_video(imp, np.ones((1, 4)), 4, np.random.default_rng(0))
    assert flags.all()
    assert list(got[0]) == [0, 1, 2, 3]
    # partial budget: the single unflagged patch is forced, the fill tops up
    # from the flagged ones lowest-index first (their correlations tie at 1)
    imp2 = np.array([[0.2, 0.2, 0.3, 0.3]])
    got2, flags2 = sel.select_video(imp2, np.ones((1, 3)), 3, np.random.default_rng(1))
    assert list(np.flatnonzero(flags2[0])) == [1, 2, 3]
    assert list(got2[0]) == [0, 1, 2]


def test_video_fallback_with_distinct_correlations_matches_oracle():
    # high distinct correlations on a tight budget force the fallback fill
    # often; the bit-exact oracle checks its ascending-correlation ordering
    rng = np.random.default_rng(77)
    fallbacks = 0
    for case in range(40):
        imp = _softmax_rows(rng, 2, 5)
        corr = rng.uniform(0.7, 1.0, size=(2, 4))
        seed = 3000 + case
        got, flags = sel.select_video(imp, corr, 4, np.random.default_rng(seed))
        children = np.random.default_rng(seed).spawn(2)
        for row in range(2):
            want, flagged = _oracle_video_row(imp[row], corr[row], 4, children[row])
            assert list(got[row]) == want
            if len(flagged) >= 2:  # fewer than 4 unflagged patches remain
                fallbacks += 1
    assert fallbacks > 20  # the regime this test exists for actually occurs


def test_video_selection_frequency_tracks_importance():
    # kappa=1 reduces to one multinomial draw: empirical pick rates must
    # match the importance weights themselves
    imp = np.array([[0.5, 0.3, 0.15, 0.05]])
    trials = 4000
    counts = np.zeros(4)
    rng = np.random.default_rng(11)
    for _ in range(trials):
        got, _ = sel.select_video(imp, None, 1, rng)
        counts[got[0, 0]] += 1
    freq = counts / trials
    sigma = np.sqrt(imp[0] * (1 - imp[0]) / trials)
    assert np.all(np.abs(freq - imp[0]) < 5 * sigma + 1e-9)


# ---------------------------------------------------------------------------
# audio selection


def test_audio_selection_replays_documented_randomness_protocol():
    for case in range(30):
        rng = np.random.default_rng(200 + case)
        b = int(rng.integers(1, 4))
        num_time = int(rng.integers(2, 9))
        num_freq = int(rng.integers(1, 5))
        m = num_time * num_freq
        chunk = int(rng.integers(1, num_time + 1))
        kap = int(rng.integers(1, m + 1))
        imp = _softmax_rows(rng, b, m)
        corr = None if case % 3 == 0 else rng.random((b, kap))
        seed = 5000 + case
        got, flags = sel.select_audio(imp, corr, kap, chunk, (num_time, num_freq),
                                      np.random.default_rng(seed))
        children = np.random.default_rng(seed).spawn(b)
        for row in range(b):
            c_row = None if corr is None else corr[row]
            want, flagged = _oracle_audio_row(imp[row], c_row, kap, chunk,
                                              (num_time, num_freq), children[row])
            assert list(got[row]) == want, f"case {case} row {row}"
            assert set(np.flatnonzero(flags[row])) == flagged


def test_audio_budget_met_exactly_across_random_configs():
    rng = np.random.default_rng(12)
    for _ in range(200):
        num_time = int(rng.integers(2, 9))
        num_freq = int(rng.integers(1, 5))
        m = num_time * num_freq
        chunk = int(rng.integers(1, num_time + 1))
        kap = sel.kappa(m, float(rng.uniform(0.05, 1.0)))
        imp = _softmax_rows(rng, 2, m)
        corr = rng.random((2, kap))
        got, _ = sel.select_audio(imp, corr, kap, chunk, (num_time, num_freq), rng)
        assert got.shape == (2, kap)
        for row in range(2):
            vals = list(got[row])
            assert vals == sorted(set(vals))
            assert all(0 <= v < m for v in vals)


def test_audio_selections_are_whole_chunks_with_one_pruned_tail():
    rng = np.random.default_rng(13)
    num_time, num_freq, chunk = 8, 2, 2
    m = num_time * num_freq
    per_chunk = chunk * num_freq
    for trial in range(50):
        imp = _softmax_rows(rng, 1, m)
        kap = sel.kappa(m, float(rng.uniform(0.2, 0.95)))
        got, _ = sel.select_audio(imp, None, kap, chunk, (num_time, num_freq), rng)
        chunk_ids = got[0] // per_chunk
        counts = np.bincount(chunk_ids, minlength=num_time // chunk)
        partial = counts[(counts > 0) & (counts < per_chunk)]
        assert len(partial) <= 1, f"trial {trial}: {counts}"
        # a pruned tail is a flat-order prefix of its chunk
        if len(partial) == 1:
            cid = int(np.flatnonzero((counts > 0) & (counts < per_chunk))[0])
            inside = got[0][chunk_ids == cid] - cid * per_chunk
            assert list(inside) == list(range(len(inside)))


def test_audio_full_ratio_without_memory_is_identity():
    rng = np.random.default_rng(14)
    # both a dividing and a truncating chunk size: the truncated tail times
    # are only reachable through the deterministic fill, which must still
    # restore the identity at full budget
    for num_time, chunk in ((6, 2), (7, 2)):
        m = num_time * 3
        imp = _softmax_rows(rng, 2, m)
        got, flags = sel.select_audio(imp, None, m, chunk, (num_time, 3),
                                      np.random.default_rng(21))
        assert np.array_equal(got, np.tile(np.arange(m), (2, 1)))
        assert not flags.any()


def test_audio_no_memory_equals_zero_correlation_bitwise():
    rng = np.random.default_rng(15)
    imp = _softmax_rows(rng, 3, 12)
    kap = 5
    a, fa = sel.select_audio(imp, None, kap, 2, (6, 2), np.random.default_rng(33))
    b, fb = sel.select_audio(imp, np.zeros((3, kap)), kap, 2, (6, 2),
                             np.random.default_rng(33))
    assert np.array_equal(a, b)
    assert np.array_equal(fa, fb)


def test_audio_chunk_order_follows_chunk_importance():
    # one chunk holds nearly all the mass; with a budget of one chunk it
    # should be picked almost always
    num_time, num_freq, chunk = 4, 2, 2
    m = num_time * num_freq
    imp = np.full((1, m), 0.01 / (m - 4))
    imp[0, 4:8] = 0.99 / 4  # second chunk (times 2-3)
    imp /= imp.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(16)
    hits = 0
    trials = 500
    for _ in range(trials):
        got, _ = sel.select_audio(imp, None, 4, chunk, (num_time, num_freq), rng)
        if list(got[0]) == [4, 5, 6, 7]:
            hits += 1
    assert hits / trials > 0.95


def test_audio_rejects_bad_chunk_and_grid():
    imp = _softmax_rows(np.random.default_rng(17), 1, 12)
    with pytest.raises(sel.SelectionError):
        sel.select_audio(imp, None, 4, 7, (6, 2), np.random.default_rng(0))
    with pytest.raises(sel.SelectionError):
        sel.select_audio(imp, None, 4, 2, (5, 2), np.random.default_rng(0))


def test_both_selectors_match_their_oracles_across_a_seeded_sweep():
    """Row-batched selection against the per-row oracles, index for index
    and flag for flag: batches of 1 to 16 rows, every budget from 1 to n,
    importance with exact zeros (so some rows run out of positive mass and
    take the fill), absent, all-zero and random correlation, and chunk sizes
    that need not divide the time grid, with zero-mass chunks among them."""
    seen = {"fill": 0, "truncated": 0, "zero_chunk": 0}
    for case in range(200):
        rng = np.random.default_rng(7000 + case)
        b = int(rng.integers(1, 17))
        n = int(rng.integers(1, 33))
        num_time = int(rng.integers(1, 9))
        num_freq = int(rng.integers(1, 5))
        m = num_time * num_freq
        chunk = int(rng.integers(1, num_time + 1))
        kap_v = int(rng.integers(1, n + 1))
        kap_a = int(rng.integers(1, m + 1))
        imp_v = _softmax_rows(rng, b, n)
        imp_v[rng.random((b, n)) < rng.uniform(0.0, 0.8)] = 0.0
        imp_a = _softmax_rows(rng, b, m)
        silent = rng.random((b, num_time)) < rng.uniform(0.0, 0.6)
        imp_a.reshape(b, num_time, num_freq)[silent] = 0.0

        def corr(kap):
            return [None, np.zeros((b, kap)), rng.random((b, kap))][case % 3]

        corr_v, corr_a = corr(kap_v), corr(kap_a)
        seed = 8000 + case
        got, flags = sel.select_video(imp_v, corr_v, kap_v, np.random.default_rng(seed))
        children = np.random.default_rng(seed).spawn(b)
        for row in range(b):
            c_row = None if corr_v is None else corr_v[row]
            want, flagged = _oracle_video_row(imp_v[row], c_row, kap_v, children[row])
            assert list(got[row]) == want, f"video case {case} row {row}"
            assert set(np.flatnonzero(flags[row])) == flagged
            seen["fill"] += int(np.count_nonzero(imp_v[row] * ~flags[row]) < kap_v)
        got, flags = sel.select_audio(imp_a, corr_a, kap_a, chunk,
                                      (num_time, num_freq), np.random.default_rng(seed))
        children = np.random.default_rng(seed).spawn(b)
        for row in range(b):
            c_row = None if corr_a is None else corr_a[row]
            want, flagged = _oracle_audio_row(imp_a[row], c_row, kap_a, chunk,
                                              (num_time, num_freq), children[row])
            assert list(got[row]) == want, f"audio case {case} row {row}"
            assert set(np.flatnonzero(flags[row])) == flagged
        num_chunks = num_time // chunk
        seen["truncated"] += int(num_time % chunk != 0)
        chunk_silent = silent[:, :num_chunks * chunk].reshape(b, num_chunks, chunk)
        seen["zero_chunk"] += int(chunk_silent.all(axis=2).any())
    assert min(seen.values()) >= 20, seen  # every regime is actually swept


# ---------------------------------------------------------------------------
# gather


def test_gather_selected_matches_loop_and_remaps_indices():
    geom = SceneGeometry(audio=AudioGeometry(time_bins=32, freq_bins=8, patch=4),
                         video=VideoGeometry(frames=2, height=16, width=16, patch=8))
    cls = make_class(0, 7, geom)
    (audio, _), _, _ = generate_pair(cls, np.random.default_rng(60), geom)
    patches = patchify(np.stack([audio, audio * 0.5]), geom.audio)
    aps = full_patchset(patches, "audio", geom)
    selected = np.array([[0, 3, 5], [7, 1, 2]])
    with pytest.raises(sel.SelectionError):
        sel.gather_selected(aps, np.array([[0, 0, 1], [1, 2, 3]]))
    with pytest.raises(sel.SelectionError):
        sel.gather_selected(aps, np.array([[0, 1, 99], [1, 2, 3]]))
    out = sel.gather_selected(aps, selected)
    assert out.patches.shape == (2, 3, aps.patches.shape[2])
    assert out.modality == "audio" and out.grid == aps.grid
    for row in range(2):
        for j, idx in enumerate(selected[row]):
            assert np.array_equal(out.patches[row, j], aps.patches[row, idx])
            assert out.indices[row, j] == aps.indices[row, idx]


def test_video_selection_frequency_monotone_in_importance():
    """Raising one patch's importance (others fixed, no flags) must not
    decrease how often that patch is selected."""
    trials = 10_000
    n, kap, j = 8, 3, 3
    base = np.array([0.05, 0.10, 0.15, 0.05, 0.20, 0.10, 0.25, 0.10])

    def freq(weights, seed):
        imp = np.tile(weights / weights.sum(), (trials, 1))
        got, _ = sel.select_video(imp, None, kap, np.random.default_rng(seed))
        return float((got == j).any(axis=1).mean())

    boosted = base.copy()
    boosted[j] *= 3.0
    f_base, f_boost = freq(base, 81), freq(boosted, 82)
    sigma = np.sqrt(0.25 / trials)
    assert f_boost >= f_base - 3.0 * sigma
    assert f_boost > f_base  # the chosen boost is far above noise level


def test_audio_selection_frequency_monotone_in_importance():
    trials = 10_000
    grid = (8, 2)  # 16 patches, chunked over time
    kap, chunk, j = 6, 2, 9
    rng0 = np.random.default_rng(4)
    base = rng0.random(16) + 0.05

    def freq(weights, seed):
        imp = np.tile(weights / weights.sum(), (trials, 1))
        got, _ = sel.select_audio(imp, None, kap, chunk, grid,
                                  np.random.default_rng(seed))
        return float((got == j).any(axis=1).mean())

    boosted = base.copy()
    boosted[j] *= 4.0
    f_base, f_boost = freq(base, 83), freq(boosted, 84)
    sigma = np.sqrt(0.25 / trials)
    assert f_boost >= f_base - 3.0 * sigma
