"""Rehearsal memory tests: reservoir statistics, replay sampling, the
feature-drift penalty, byte accounting, and snapshot round-trips."""

import io

import numpy as np
import pytest
from scipy import stats

import avcl.checkpoint as cp
import avcl.memory as rm
import avcl.tensor as tt
from avcl.tensor import Tensor


def _batch(step, rows=1, m=6, n=8, pa=4, pv=5, h=2, d=3, feat=7,
           kap_a=3, kap_v=4, scored=True, seed=None):
    """``rows`` pairs with every field a scoring strategy stores; ``id``
    carries the step so tests can trace where a stored row came from."""
    rng = np.random.default_rng(step if seed is None else seed)
    batch = {
        "id": np.full((rows, 1), float(step)),
        "audio_patches": rng.normal(size=(rows, m, pa)),
        "audio_indices": np.tile(np.arange(m), (rows, 1)),
        "video_patches": rng.normal(size=(rows, n, pv)),
        "video_indices": np.tile(np.arange(n), (rows, 1)),
        "feat_audio": rng.normal(size=(rows, feat)),
        "feat_video": rng.normal(size=(rows, feat)),
    }
    if scored:
        batch.update(q_audio=rng.normal(size=(rows, h, d)),
                     q_video=rng.normal(size=(rows, h, d)),
                     imp_audio=rng.random((rows, m)),
                     imp_video=rng.random((rows, n)),
                     corr_audio=rng.random((rows, kap_a)),
                     corr_video=rng.random((rows, kap_v)))
    return batch


def _layout(**kw):
    """Field name -> per-entry shape of what ``_batch(**kw)`` holds."""
    return {k: v.shape[1:] for k, v in _batch(0, **kw).items()}


LAYOUT = _layout()


def _insert(mem, step, rng, task=-1, **kw):
    rm.reservoir_insert(mem, _batch(step, **kw), step, task, rng)


def _ids(mem):
    return [int(i) for i in mem.fields["id"][:len(mem), 0]]


# ---------------------------------------------------------------------------
# reservoir


def test_reservoir_keeps_everything_under_capacity():
    mem = rm.ReservoirMemory(10, LAYOUT)
    rng = np.random.default_rng(0)
    for step in range(10):
        _insert(mem, step, rng)
    assert _ids(mem) == list(range(10))
    assert list(mem.steps[:len(mem)]) == list(range(10))
    assert mem.seen_count == 10


def test_reservoir_never_exceeds_capacity():
    mem = rm.ReservoirMemory(5, LAYOUT)
    rng = np.random.default_rng(1)
    for step in range(200):
        _insert(mem, step % 7, rng, seed=step)
        assert len(mem) <= 5
        assert mem.seen_count == step + 1
    assert all(col.shape[0] == 5 for col in mem.fields.values())


def _rows(mem):
    """Row counts of every column, bookkeeping included."""
    return {len(col) for col in [mem.steps, mem.tasks, *mem.fields.values()]}


def test_columns_grow_geometrically_up_to_capacity():
    """Whatever the batch sizes, every column holds at least ``count`` rows
    and at most ``min(capacity, 2 * count)``; none is sized by the capacity
    before entries exist."""
    rng = np.random.default_rng(20)
    for capacity in (1, 5, 16, 37):
        mem = rm.ReservoirMemory(capacity, LAYOUT)
        assert _rows(mem) == {0} and set(mem.fields) == set(LAYOUT)
        for step in range(40):
            _insert(mem, step, rng, rows=int(rng.integers(0, 7)))
            (rows,) = _rows(mem)
            assert len(mem) <= rows <= min(capacity, 2 * len(mem)), (capacity, step)
        assert len(mem) == capacity


def test_huge_capacity_allocates_nothing_up_front():
    mem = rm.ReservoirMemory(10 ** 11, LAYOUT)
    assert _rows(mem) == {0} and set(mem.fields) == set(LAYOUT)
    _insert(mem, 0, np.random.default_rng(21), rows=3)
    assert _rows(mem) == {3} and len(mem) == 3


def test_zero_capacity_is_a_noop_that_skips_the_draw():
    mem = rm.ReservoirMemory(0, LAYOUT)
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    for step in range(50):
        _insert(mem, step, rng, rows=2)
    assert len(mem) == 0 and mem.seen_count == 100 and _rows(mem) == {0}
    assert rng.bit_generator.state == before  # generator untouched


def test_batch_insert_matches_row_by_row_insert():
    """A whole batch draws and lands exactly as its rows inserted one at a
    time, including two rows of one batch replacing the same slot."""
    whole, single = rm.ReservoirMemory(3, LAYOUT), rm.ReservoirMemory(3, LAYOUT)
    r1, r2 = np.random.default_rng(16), np.random.default_rng(16)
    for step in range(40):
        batch = _batch(step, rows=4)
        batch["id"] = step * 10 + np.arange(4.0)[:, None]
        rm.reservoir_insert(whole, batch, step, 0, r1)
        for row in range(4):
            rm.reservoir_insert(single, {k: v[row:row + 1] for k, v in batch.items()},
                                step, 0, r2)
        assert _ids(whole) == _ids(single)
    assert whole.seen_count == single.seen_count == 160
    assert r1.bit_generator.state == r2.bit_generator.state


def test_layout_mismatch_rejected():
    """A batch whose field names or row shapes differ from the stored ones."""
    mem = rm.ReservoirMemory(3, LAYOUT)
    rng = np.random.default_rng(0)
    _insert(mem, 0, rng)
    with pytest.raises(rm.RehearsalError):  # a row shape differs
        _insert(mem, 1, rng, kap_a=2)
    with pytest.raises(rm.RehearsalError):  # score fields missing
        _insert(mem, 1, rng, scored=False)
    with pytest.raises(rm.RehearsalError):  # an extra field
        rm.reservoir_insert(mem, {**_batch(1), "x": np.zeros((1, 2))}, 1, -1, rng)
    assert len(mem) == 1 and mem.seen_count == 1


def test_first_batch_is_checked_against_the_layout():
    """The layout is fixed at construction, so even the first batch, and a
    batch into a zero-capacity memory, must carry exactly its fields."""
    for capacity in (3, 0):
        mem = rm.ReservoirMemory(capacity, LAYOUT)
        rng = np.random.default_rng(0)
        with pytest.raises(rm.RehearsalError):  # score fields missing
            _insert(mem, 0, rng, scored=False)
        with pytest.raises(rm.RehearsalError):  # a row shape differs
            _insert(mem, 0, rng, kap_a=2)
        with pytest.raises(rm.RehearsalError):  # an extra field
            rm.reservoir_insert(mem, {**_batch(0), "x": np.zeros((1, 2))}, 0, -1, rng)
        assert len(mem) == 0 and mem.seen_count == 0 and _rows(mem) == {0}


def test_entry_misaligned_indices_rejected():
    mem = rm.ReservoirMemory(3, LAYOUT)
    bad = _batch(1, rows=2)
    bad["audio_indices"] = bad["audio_indices"][:1]
    with pytest.raises(rm.RehearsalError):  # row counts disagree
        rm.reservoir_insert(mem, bad, 1, -1, np.random.default_rng(0))
    with pytest.raises(rm.RehearsalError):  # a field without rows
        rm.reservoir_insert(mem, {**_batch(1), "x": np.float64(1.0)}, 1, -1,
                            np.random.default_rng(0))
    assert len(mem) == 0 and mem.seen_count == 0


def test_second_item_survives_half_the_time_at_capacity_one():
    first, second = {"id": np.zeros((1, 1))}, {"id": np.ones((1, 1))}
    rng = np.random.default_rng(3)
    trials, kept = 20000, 0
    for _ in range(trials):
        mem = rm.ReservoirMemory(1, {"id": (1,)})
        rm.reservoir_insert(mem, first, 0, -1, rng)
        rm.reservoir_insert(mem, second, 1, -1, rng)
        kept += mem.steps[0] == 1
    sigma = np.sqrt(0.25 / trials)
    assert abs(kept / trials - 0.5) < 3 * sigma


def test_reservoir_inclusion_is_uniform():
    capacity, stream, trials = 20, 400, 400
    counts = np.zeros(stream)
    batch = _batch(0, rows=stream, scored=False)
    batch["id"] = np.arange(float(stream))[:, None]
    rng = np.random.default_rng(4)
    for _ in range(trials):
        mem = rm.ReservoirMemory(capacity, _layout(scored=False))
        rm.reservoir_insert(mem, batch, 0, -1, rng)
        np.add.at(counts, _ids(mem), 1)
    p = stats.chisquare(counts).pvalue
    assert p > 0.01, f"inclusion not uniform: p={p}"


# ---------------------------------------------------------------------------
# replay


def _filled(capacity, scored=True):
    mem = rm.ReservoirMemory(capacity, _layout(scored=scored))
    rng = np.random.default_rng(5)
    for step in range(capacity):
        _insert(mem, step, rng, scored=scored)
    return mem


def test_replay_of_single_entry_repeats_it():
    mem = _filled(1)
    batch = rm.sample_replay(mem, 4, np.random.default_rng(6))
    assert set(batch) == set(mem.fields)
    assert np.all(batch["id"] == 0)
    for name in ("audio_patches", "q_video", "corr_audio"):
        assert batch[name].shape == (4,) + mem.fields[name].shape[1:]
        for row in range(4):
            assert np.array_equal(batch[name][row], mem.fields[name][0])


def test_replay_returns_stored_values_bit_identical():
    mem = _filled(4, scored=False)
    batch = rm.sample_replay(mem, 16, np.random.default_rng(7))
    assert "imp_audio" not in batch and "corr_video" not in batch
    for row in range(16):
        src = _batch(int(batch["id"][row, 0]), scored=False)
        assert np.array_equal(batch["audio_patches"][row], src["audio_patches"][0])
        assert np.array_equal(batch["video_indices"][row], src["video_indices"][0])
        assert np.array_equal(batch["feat_audio"][row], src["feat_audio"][0])


def test_mutating_a_replay_batch_leaves_the_memory_unchanged():
    mem = _filled(3)
    before = {k: v.copy() for k, v in mem.fields.items()}
    batch = rm.sample_replay(mem, 5, np.random.default_rng(17))
    for arr in batch.values():
        arr[...] = -1.0
    for k, v in mem.fields.items():
        assert np.array_equal(v, before[k]), k


def test_replay_frequencies_are_uniform():
    mem = _filled(8)
    batch = rm.sample_replay(mem, 100_000, np.random.default_rng(8))
    counts = np.bincount(batch["id"][:, 0].astype(int), minlength=8)
    p = stats.chisquare(counts).pvalue
    assert p > 0.01, f"replay not uniform: p={p}"


def test_replay_errors():
    with pytest.raises(rm.RehearsalError):
        rm.sample_replay(rm.ReservoirMemory(3, LAYOUT), 2, np.random.default_rng(0))
    with pytest.raises(rm.RehearsalError):
        rm.sample_replay(_filled(2), 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# drift penalty


def test_penalty_zero_when_features_unchanged():
    stored_a, stored_v = np.ones((3, 5)), np.full((3, 5), 2.0)
    pen = rm.der_penalty(Tensor(stored_a.copy()), Tensor(stored_v.copy()),
                         stored_a, stored_v)
    assert pen.item() == 0.0


def test_penalty_of_unit_offset_is_exactly_two():
    rng = np.random.default_rng(9)
    stored_a, stored_v = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    pen = rm.der_penalty(Tensor(stored_a + 1.0), Tensor(stored_v + 1.0),
                         stored_a, stored_v)
    assert abs(pen.item() - 2.0) < 1e-15


def test_penalty_gradient_reaches_current_features_only():
    rng = np.random.default_rng(10)
    stored_a, stored_v = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    fa = tt.parameter(stored_a + 0.5)
    fv = tt.parameter(stored_v - 0.25)
    pen = rm.der_penalty(fa, fv, stored_a, stored_v)
    pen.backward()
    # d/dx mean((x-s)^2) = 2(x-s)/numel, summed per modality
    assert np.allclose(fa.grad, 2 * 0.5 / stored_a.size, atol=1e-15)
    assert np.allclose(fv.grad, 2 * -0.25 / stored_v.size, atol=1e-15)


def test_penalty_shape_mismatch_rejected():
    with pytest.raises(rm.RehearsalError):
        rm.der_penalty(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                       np.zeros((2, 4)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# bytes + capacity scaling


def test_memory_bytes_empty_is_header_only():
    mem = rm.ReservoirMemory(4, LAYOUT)
    arrays = rm.snapshot_arrays(mem)
    assert set(arrays) == {"memory/capacity", "memory/seen", "memory/steps",
                           "memory/tasks", *("memory/field/" + k for k in LAYOUT)}
    assert all(len(v) == 0 for k, v in arrays.items() if k.startswith("memory/field/"))
    assert rm.memory_bytes(mem) == cp.serialized_size(arrays)
    _insert(mem, 0, np.random.default_rng(11))
    assert rm.memory_bytes(mem) > cp.serialized_size(arrays)


def test_snapshot_tensor_count_does_not_depend_on_entry_count():
    mem = rm.ReservoirMemory(50, LAYOUT)
    rng = np.random.default_rng(18)
    sizes = []
    for step in range(60):
        _insert(mem, step, rng, rows=3)
        sizes.append(len(rm.snapshot_arrays(mem)))
    assert set(sizes) == {4 + len(mem.fields)}


def test_selected_layout_halves_patch_payload_at_half_ratio():
    # default-scale grids: audio 64 patches of 16 values, video 64 of 64
    full = _batch(0, m=64, n=64, pa=16, pv=64)
    sel = _batch(0, m=32, n=32, pa=16, pv=64)
    full_payload = full["audio_patches"].nbytes + full["video_patches"].nbytes
    sel_payload = sel["audio_patches"].nbytes + sel["video_patches"].nbytes
    assert sel_payload * 2 == full_payload


def test_raw_score_and_query_overhead_is_small_at_default_scale():
    scale = dict(m=64, n=64, pa=16, pv=64, h=4, d=8, feat=32, kap_a=32, kap_v=32)
    mem = rm.ReservoirMemory(8, _layout(**scale))
    rm.reservoir_insert(mem, _batch(0, rows=8, **scale), 0, -1,
                        np.random.default_rng(0))
    arrays = rm.snapshot_arrays(mem)
    overhead = {k: v for k, v in arrays.items()
                if k.split("/")[-1] in ("q_audio", "q_video", "imp_audio",
                                        "imp_video", "corr_audio", "corr_video")}
    frac = cp.serialized_size(overhead) / cp.serialized_size(arrays)
    assert frac <= 0.10, f"overhead fraction {frac:.3f}"


def test_plus_capacity_doubles_entries_at_half_ratio_default_scale():
    assert rm.plus_capacity(64, 64, 16, 64, 64, 32, 32) == 128


def test_plus_capacity_matches_byte_budget_within_one_entry():
    rng = np.random.default_rng(12)
    for _ in range(100):
        m, n = int(rng.integers(4, 100)), int(rng.integers(4, 100))
        pa, pv = int(rng.integers(1, 80)), int(rng.integers(1, 80))
        ka, kv = int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1))
        cap = int(rng.integers(1, 200))
        plus = rm.plus_capacity(cap, m, pa, n, pv, ka, kv)
        raw_elems, sel_elems = m * pa + n * pv, ka * pa + kv * pv
        assert plus * sel_elems <= cap * raw_elems < (plus + 1) * sel_elems
        assert plus >= cap
    with pytest.raises(rm.RehearsalError):
        rm.plus_capacity(4, 0, 0, 0, 0, 1, 1)


# ---------------------------------------------------------------------------
# snapshots


def _churned_memory(scored=True):
    mem = rm.ReservoirMemory(3, _layout(scored=scored))
    rng = np.random.default_rng(13)
    for step in range(9):
        _insert(mem, step, rng, task=step % 2, scored=scored)
    return mem


def _container_bytes(arrays):
    buf = io.BytesIO()
    cp.write_entries(buf, arrays)
    return buf.getvalue()


def _through_container(mem):
    raw = _container_bytes(rm.snapshot_arrays(mem))
    return rm.memory_from_arrays(cp.read_entries(io.BytesIO(raw)),
                                 mem.capacity, _field_shapes(mem))


def _field_shapes(mem):
    return {k: v.shape[1:] for k, v in mem.fields.items()}


def test_snapshot_roundtrip_preserves_everything():
    for scored in (True, False):
        mem = _churned_memory(scored)
        back = _through_container(mem)
        assert back.capacity == mem.capacity
        assert back.seen_count == mem.seen_count
        n = len(back)
        assert n == len(mem)
        assert np.array_equal(back.steps[:n], mem.steps[:n])
        assert np.array_equal(back.tasks[:n], mem.tasks[:n])
        assert set(back.fields) == set(mem.fields)
        for name, col in mem.fields.items():
            assert np.array_equal(back.fields[name][:n], col[:n]), name


def test_snapshot_is_in_slot_order_and_deterministic():
    mem = _churned_memory()
    arrays = rm.snapshot_arrays(mem)
    assert list(arrays["memory/steps"]) == list(mem.steps[:len(mem)])
    assert np.array_equal(arrays["memory/field/audio_patches"],
                          mem.fields["audio_patches"][:len(mem)])
    assert _container_bytes(arrays) == _container_bytes(rm.snapshot_arrays(mem))
    assert not any("entry" in k for k in arrays)


def test_partially_filled_snapshot_roundtrips():
    """A restored partial memory holds exactly its entries, and the next
    insert grows every column as it would have grown the original."""
    mem = rm.ReservoirMemory(5, LAYOUT)
    _insert(mem, 0, np.random.default_rng(19), rows=2)
    back = _through_container(mem)
    assert len(back) == 2 and _rows(back) == {2}
    assert _container_bytes(rm.snapshot_arrays(back)) == _container_bytes(rm.snapshot_arrays(mem))
    for m in (mem, back):
        _insert(m, 1, np.random.default_rng(22), rows=1)
    assert len(back) == 3 and _rows(back) == _rows(mem) == {4}
    assert _container_bytes(rm.snapshot_arrays(back)) == _container_bytes(rm.snapshot_arrays(mem))


def test_inconsistent_snapshot_rejected():
    mem = _churned_memory()
    good = rm.snapshot_arrays(mem)
    # every column one row longer: four entries at capacity 3
    over = {k: np.concatenate([v, v[:1]]) if k not in
            ("memory/capacity", "memory/seen") else v for k, v in good.items()}
    broken = [
        {k: v for k, v in good.items() if k != "memory/steps"},
        {k: v for k, v in good.items() if not k.startswith("memory/field/")},
        over,
        {**good, "memory/steps": np.zeros(())},  # the entry count has no length
        # not the configured capacity: rejected before anything is allocated
        {**good, "memory/capacity": np.array([1e15])},
        {**good, "memory/capacity": np.array([4.0])},
        {**good, "memory/seen": np.array([2.0])},  # fewer seen than stored
        {**good, "memory/seen": np.array([1e30])},  # beyond the int64 draws
        {**good, "memory/tasks": np.zeros(2)},
        # insertion steps (at least 0) and source tasks (at least -1, unset)
        # are integers an int64 holds: checked before the cast, which would
        # warn on a NaN and truncate a fraction
        {**good, "memory/steps": good["memory/steps"] + [0.0, np.nan, 0.0]},
        {**good, "memory/steps": good["memory/steps"] + [0.0, 0.5, 0.0]},
        {**good, "memory/steps": np.full(3, np.inf)},
        {**good, "memory/steps": np.full(3, 2.0 ** 63)},
        {**good, "memory/steps": np.full(3, -1.0)},
        {**good, "memory/tasks": good["memory/tasks"] + [0.0, 0.5, 0.0]},
        {**good, "memory/tasks": np.full(3, -2.0)},
        {**good, "memory/field/feat_audio": good["memory/field/feat_audio"][:2]},
        # every field is the run's own, at its own per-entry shape
        {k: v for k, v in good.items() if k != "memory/field/feat_audio"},
        {**good, "memory/field/extra": np.zeros((len(mem), 4))},
        {**good, "memory/field/imp_audio": np.zeros((len(mem), 1000))},
        # every stored value is finite
        {**good, "memory/field/feat_audio": np.full_like(good["memory/field/feat_audio"], np.nan)},
        {**good, "memory/field/q_video": np.full_like(good["memory/field/q_video"], -np.inf)},
        # the per-entry layout of earlier versions is not read
        {"memory/capacity": np.array([3.0]), "memory/seen": np.array([9.0]),
         "memory/layout": np.array([0.0]), "memory/count": np.array([1.0]),
         "memory/entry/00000000/meta": np.zeros(3)},
    ]
    for arrays in broken:
        with pytest.raises(rm.RehearsalError):
            rm.memory_from_arrays(arrays, 3, _field_shapes(mem))


@pytest.mark.parametrize("inserts", [9, 0])  # full, never inserted into
@pytest.mark.parametrize("damage", ["missing", "extra", "short", "misshaped"])
def test_snapshot_fields_checked_by_one_comparison(inserts, damage):
    """Every stored field column, of a full memory or of an empty one, must
    be the layout's field at ``(count, *shape)``."""
    mem = rm.ReservoirMemory(3, LAYOUT)
    rng = np.random.default_rng(13)
    for step in range(inserts):
        _insert(mem, step, rng)
    arrays = rm.snapshot_arrays(mem)
    key = "memory/field/imp_audio"
    if damage == "missing":
        del arrays[key]
    elif damage == "extra":
        arrays["memory/field/extra"] = np.zeros((len(mem), 4))
    elif damage == "short":  # one row short, or a row where none is stored
        arrays[key] = np.zeros((abs(len(mem) - 1),) + LAYOUT["imp_audio"])
    else:
        arrays[key] = np.zeros((len(mem), LAYOUT["imp_audio"][0] + 1))
    damaged = "memory/field/extra" if damage == "extra" else key
    with pytest.raises(rm.RehearsalError, match=f"snapshot: .*'{damaged}'"):
        rm.memory_from_arrays(arrays, 3, LAYOUT)


def test_snapshot_resume_is_bit_identical():
    mem = _churned_memory()
    back = _through_container(mem)
    b1 = rm.sample_replay(mem, 32, np.random.default_rng(14))
    b2 = rm.sample_replay(back, 32, np.random.default_rng(14))
    for name in b1:
        assert np.array_equal(b1[name], b2[name]), name
    # continued insertion also replays identically
    r1, r2 = np.random.default_rng(15), np.random.default_rng(15)
    for step in range(9, 30):
        _insert(mem, step, r1)
        _insert(back, step, r2)
    assert np.array_equal(mem.steps[:len(mem)], back.steps[:len(back)])
    assert _ids(mem) == _ids(back)


def test_full_snapshot_columns_are_adopted_without_a_copy():
    """A full or partly filled snapshot is restored by keeping the owned,
    writeable columns the checkpoint reader returns; the next insert that
    needs room grows a partial one."""
    partial = rm.ReservoirMemory(5, LAYOUT)
    _insert(partial, 0, np.random.default_rng(23), rows=3)
    for mem in (_churned_memory(), partial):
        arrays = cp.read_entries(io.BytesIO(_container_bytes(rm.snapshot_arrays(mem))))
        back = rm.memory_from_arrays(arrays, mem.capacity, _field_shapes(mem))
        n = len(mem)
        for name, col in back.fields.items():
            assert col is arrays["memory/field/" + name], name
            assert np.array_equal(col, mem.fields[name][:n]), name
    _insert(back, 1, np.random.default_rng(24), rows=1)
    assert len(back) == 4 and _rows(back) == {5}
    for name, col in back.fields.items():
        assert col is not arrays["memory/field/" + name], name
        assert np.array_equal(col[:3], arrays["memory/field/" + name]), name


@pytest.mark.parametrize("inserts", [9, 2])  # full, partially filled
def test_restore_from_snapshot_views_never_aliases_the_source(inserts):
    mem = rm.ReservoirMemory(3, LAYOUT)
    rng = np.random.default_rng(13)
    for step in range(inserts):
        _insert(mem, step, rng)
    back = rm.memory_from_arrays(rm.snapshot_arrays(mem), mem.capacity,
                                 _field_shapes(mem))
    for name, col in mem.fields.items():
        assert back.fields[name].shape == col[:len(mem)].shape, name
        assert not np.shares_memory(back.fields[name], col), name
    before = {k: v.copy() for k, v in mem.fields.items()}
    _insert(back, inserts, np.random.default_rng(14))
    for name, col in mem.fields.items():
        assert np.array_equal(col, before[name]), name
