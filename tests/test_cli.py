"""Command-line workflow: dataset round trip, runs, reports, exit codes."""

import contextlib
import dataclasses
import hashlib
import json
import math
import re
import shutil
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

from avcl import checkpoint as ckpt
from avcl import cli
from avcl import config as cf
from avcl import data as dt
from avcl import evaluate as ev
from avcl import memory as rm
from avcl import tensor as tt
from avcl import trainer as tr

CFG = """\
[data]
num_tasks = 2
classes_per_task = 2
train_pairs = 16
eval_pairs = 12
audio_time_bins = 32
audio_freq_bins = 8
video_frames = 2
video_height = 16
video_width = 16

[model]
embed_dim = 16
heads = 2
encoder_layers = 1
mask_prob = 0.5

[train]
strategy = stella
batch = 4
epochs = 1
memory_capacity = 6
train_seed = 3
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a config file, a generated dataset and one stella run."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.ini"
    cfg.write_text(CFG)
    assert cli.main(["generate-data", "--config", str(cfg),
                     "--out", str(root / "data")]) == 0
    assert cli.main(["run", "--config", str(cfg), "--data", str(root / "data"),
                     "--out", str(root / "run_stella")]) == 0
    return root


def _variant(ws, name, old, new):
    path = ws / f"cfg_{name}.ini"
    path.write_text(CFG.replace(old, new))
    return path


# ---------------------------------------------------------------------------
# generate-data


def test_generate_writes_manifest_with_correct_hashes(ws):
    data = ws / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["tasks"] == ["task_00.bin", "task_01.bin"]
    for name, digest in manifest["sha256"].items():
        actual = hashlib.sha256((data / name).read_bytes()).hexdigest()
        assert actual == digest
    # the resolved config is kept next to the data
    assert cf.load_config(data / "config.ini") == cf.parse_config(CFG)


def test_crash_during_generate_leaves_no_torn_task_file(ws, monkeypatch):
    """A write that fails partway through a task file leaves neither a torn
    file under its final name nor a manifest; regenerating then loads."""
    data = ws / "data_crash"
    write_entries = ckpt.write_entries

    def torn(fh, tensors):
        if fh.name.endswith("task_01.bin.tmp"):
            fh.write(b"\0" * 64)
            raise OSError("disk full")
        return write_entries(fh, tensors)

    monkeypatch.setattr(ckpt, "write_entries", torn)
    args = ["generate-data", "--config", str(ws / "cfg.ini"), "--out", str(data)]
    assert cli.main(args) == 3
    assert (data / "task_00.bin").is_file()
    assert not (data / "task_01.bin").exists()
    assert not (data / "manifest.json").exists()
    monkeypatch.undo()
    assert cli.main(args) == 0
    dcfg = cf.parse_config(CFG).data
    tasks = cli.load_tasks(data, dcfg)
    want = cli.load_tasks(ws / "data", dcfg)
    for got_task, want_task in zip(tasks, want):
        assert np.array_equal(got_task.train.audio_patches,
                              want_task.train.audio_patches)
    assert sorted(p.name for p in data.iterdir()) == [
        "config.ini", "manifest.json", "task_00.bin", "task_01.bin"]


def test_load_tasks_round_trip(ws):
    dcfg = cf.parse_config(CFG).data
    tasks = cli.load_tasks(ws / "data", dcfg)
    assert [t.spec.task_id for t in tasks] == [0, 1]
    assert [t.spec.class_ids for t in tasks] == [(0, 1), (2, 3)]
    assert len(tasks[0].train) == 16 and len(tasks[0].eval) == 12
    for got, want in zip(tasks, dt.build_sequence(dcfg)):
        assert np.array_equal(got.eval.video_truth, want.eval.video_truth)
        assert np.array_equal(got.train.class_ids, want.train.class_ids)


def test_task_file_keys_are_pinned(ws):
    """A task file holds the ten split tensors and nothing else, and the
    manifest hashes config.ini with them: a second copy of anything the
    config states needs an edit here."""
    data = ws / "data"
    assert sorted(ckpt.load(data / "task_00.bin")) == sorted(
        f"{split}/{field}" for split in ("train", "eval")
        for field in ("audio_patches", "video_patches", "audio_truth",
                      "video_truth", "class_ids"))
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["format"] == 2
    assert sorted(manifest) == ["format", "sha256", "tasks"]
    assert sorted(manifest["sha256"]) == ["config.ini", "task_00.bin",
                                          "task_01.bin"]


#: SHA-256 of each task file ``generate-data`` writes for ``CFG``
TASK_FILE_SHA256 = {
    "task_00.bin": "40595b0e871f2116f23272bd020a1a7d493225b665ac64b7bca08180b000c744",
    "task_01.bin": "5dda28b0df6fca077ec207bb3319adecb8e669bb6bdc094a59fa5b49d0cffd85",
}


def test_task_file_bytes_are_pinned(ws):
    """The generator's output is pinned byte for byte.  A dataset written
    before a change to it would still pass its manifest's hashes, so such a
    change must come with a new manifest ``format``."""
    data = ws / "data"
    got = {name: hashlib.sha256((data / name).read_bytes()).hexdigest()
           for name in TASK_FILE_SHA256}
    assert got == TASK_FILE_SHA256, (
        "generate-data wrote other task files: a generator change must bump the "
        "manifest `format` (so older datasets exit 3) and re-pin these hashes")


# ---------------------------------------------------------------------------
# run


def test_run_writes_resolved_config_and_artifacts(ws):
    run = ws / "run_stella"
    assert cf.load_config(run / "config.ini") == cf.parse_config(CFG)
    for name in ("acc_matrix.csv", "gaps.csv", "losses.csv", "retrieval.json",
                 "task_00.ckpt", "task_01.ckpt", "task_01.rng.json"):
        assert (run / name).is_file(), name
    acc = tr.read_acc_csv(run / "acc_matrix.csv")
    assert len(acc) == 2 and len(acc[1]) == 2


def test_run_is_deterministic_across_directories(ws):
    cfg = ws / "cfg.ini"
    assert cli.main(["run", "--config", str(cfg), "--data", str(ws / "data"),
                     "--out", str(ws / "run_again")]) == 0
    assert ((ws / "run_again" / "acc_matrix.csv").read_bytes()
            == (ws / "run_stella" / "acc_matrix.csv").read_bytes())
    assert ((ws / "run_again" / "task_01.ckpt").read_bytes()
            == (ws / "run_stella" / "task_01.ckpt").read_bytes())


def test_run_summary_prints_gap_decline_and_memory_bytes(ws, capsys):
    """A finished two-task run prints the mean decline of its gaps.csv and
    the stored size of its final memory, the snapshot in task_01.ckpt."""
    run, args = _resume_copy(ws, "run_summary")
    capsys.readouterr()
    assert cli.main(args) == 0  # every task is done: restore, then summarise
    lines = capsys.readouterr().out.splitlines()
    gaps = [float(line.split(",")[1])
            for line in (run / "gaps.csv").read_text().splitlines()[1:]]
    assert f"gap decline = {ev.mean_gap_decline(gaps):.6g}" in lines
    snapshot = {k: v for k, v in ckpt.load(run / "task_01.ckpt").items()
                if k.startswith("memory/")}
    assert f"memory bytes = {ckpt.serialized_size(snapshot)}" in lines


def test_run_resumes_from_last_completed_task(ws):
    cfg = ws / "cfg.ini"
    run = ws / "run_resume"
    shutil.copytree(ws / "run_stella", run)
    full = (run / "task_01.ckpt").read_bytes()
    (run / "task_01.ckpt").unlink()
    (run / "task_01.rng.json").unlink()
    assert cli.main(["run", "--config", str(cfg), "--data", str(ws / "data"),
                     "--out", str(run)]) == 0
    assert (run / "task_01.ckpt").read_bytes() == full


def _resume_copy(ws, name):
    run = ws / name
    shutil.copytree(ws / "run_stella", run)
    return run, ["run", "--config", str(ws / "cfg.ini"),
                 "--data", str(ws / "data"), "--out", str(run)]


def test_truncated_rng_state_exits_3(ws, capsys):
    run, args = _resume_copy(ws, "run_bad_rng")
    text = (run / "task_01.rng.json").read_text()
    (run / "task_01.rng.json").write_text(text[:len(text) // 2])
    assert cli.main(args) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["missing_stream", "bad_state",
                                    "huge_spawn_count"])
def test_malformed_rng_state_exits_3(ws, capsys, damage):
    """Valid JSON that lacks a stream, holds a state the generator rejects
    or a spawn count beyond its range is a data error, not a traceback or
    an unbounded replay."""
    run, args = _resume_copy(ws, f"run_rng_{damage}")
    blob = json.loads((run / "task_01.rng.json").read_text())
    if damage == "missing_stream":
        del blob["mask"]
    elif damage == "bad_state":
        blob["mask"]["state"] = 7
    else:
        blob["selection"]["n_children_spawned"] = 2 ** 40
    (run / "task_01.rng.json").write_text(json.dumps(blob))
    assert cli.main(args) == 3
    assert "data error" in capsys.readouterr().err


def test_huge_memory_capacity_runs(ws):
    """Memory columns grow with the stored entries, so a capacity far beyond
    the data allocates nothing up front."""
    cfg = _variant(ws, "huge_capacity", "memory_capacity = 6",
                   "memory_capacity = 100000000000")
    run = ws / "run_huge_capacity"
    assert cli.main(["run", "--config", str(cfg), "--data", str(ws / "data"),
                     "--out", str(run)]) == 0
    arrays = ckpt.load(run / "task_01.ckpt")
    assert len(arrays["memory/steps"]) == arrays["memory/seen"][0] == 32


# ---------------------------------------------------------------------------
# hostile checkpoints: one table, one runner


def _damaged_copy(ws, name, damage):
    """Resumable copy of the stella run whose last checkpoint ``damage``
    edits in place; returns the run directory and its ``run`` arguments."""
    run, args = _resume_copy(ws, name)
    arrays = ckpt.load(run / "task_01.ckpt")
    damage(arrays)
    ckpt.save(run / "task_01.ckpt", arrays)
    return run, args


def _tables(**layers):
    """Module name -> (checkpoint key of its flat values, parameter table)
    of ``CFG``'s configuration, its backbone layer counts replaced by
    ``layers``."""
    cfg = cf.parse_config(CFG)
    return tr._param_tables(dataclasses.replace(cfg.model, **layers), cfg.train,
                            cfg.data.geometry)


def _param_slices(table):
    """Parameter name -> its slice of the module's flat values (and flat
    moments), in table order."""
    bounds = np.cumsum([0] + [math.prod(shape) for shape, _ in table.values()])
    return {k: slice(lo, hi) for k, lo, hi in zip(table, bounds[:-1], bounds[1:])}


B_KEY, B_TABLE = _tables()["backbone"]
A_KEY, A_TABLE = _tables()["avm"]
#: a backbone of more values, and one of as many values in another
#: arrangement of its layers (encoder, fusion and decoder layers 0/2/2
#: against the configured 1/1/1)
DEEPER_KEY, DEEPER_TABLE = _tables(encoder_layers=2)["backbone"]
ARRANGED_KEY, ARRANGED_TABLE = _tables(encoder_layers=0, fusion_layers=2,
                                       decoder_layers=2)["backbone"]


def _layout_error(missing=(), unexpected=()):
    return (f"tensors do not match the layout: missing {sorted(missing)}, "
            f"unexpected {sorted(unexpected)}")


def _edit(key, change):
    """Damage: the tensor under ``key`` becomes ``change(tensor)``."""
    def damage(arrays):
        arrays[key] = change(arrays[key])
    return damage


def _put(key, value=np.zeros(3)):
    """Damage: ``value`` under ``key``."""
    def damage(arrays):
        arrays[key] = value
    return damage


def _drop(key):
    return lambda arrays: arrays.pop(key)


def _poke(index, value):
    """A change that writes ``value`` at ``index`` of the tensor."""
    def change(arr):
        arr[index] = value
        return arr
    return change


def _other_backbone(key, table):
    """Damage: the backbone's values under another model's ``key``, cut or
    repeated to that model's size."""
    def damage(arrays):
        values = arrays.pop(B_KEY)
        if key == ARRANGED_KEY:
            assert values.size == tt.table_size(table)
        arrays[key] = np.resize(values, tt.table_size(table))
    return damage


def _per_parameter_model(arrays):
    """The model one ``model/<name>`` tensor per parameter, as checkpoints
    before the flat parameter layout stored it (moments already flat)."""
    for key, table in _tables().values():
        flat = arrays.pop(key)
        for name, part in _param_slices(table).items():
            arrays[f"model/{name}"] = flat[part].reshape(table[name][0])


def _per_parameter_moments(arrays):
    """One moment per parameter and kind (``opt/<module>/m/<name>``), as
    checkpoints before the flat moment layout stored them."""
    for module, (_, table) in _tables().items():
        for name, part in _param_slices(table).items():
            shape = table[name][0]
            for kind in "mv":
                flat = arrays[f"opt/{module}/{kind}"]
                arrays[f"opt/{module}/{kind}/{name}"] = flat[part].reshape(shape)
        del arrays[f"opt/{module}/m"], arrays[f"opt/{module}/v"]


def _narrow_head(arrays):
    """A matching head (with its moments) narrower than the ``embed_dim``
    it always has."""
    cuts = {"avm/head/w1": np.s_[:, :8], "avm/head/b1": np.s_[:8],
            "avm/head/w2": np.s_[:8]}

    def narrow(flat):
        return {name: flat[part].reshape(A_TABLE[name][0])[cuts.get(name, ...)]
                for name, part in _param_slices(A_TABLE).items()}

    parts = narrow(arrays.pop(A_KEY))
    narrow_key = tr._model_key("avm", ((k, p.shape) for k, p in parts.items()))
    for name, flat in [(narrow_key, parts)] + [
            (f"opt/avm/{kind}", narrow(arrays[f"opt/avm/{kind}"])) for kind in "mv"]:
        arrays[name] = np.concatenate(list(flat.values()), axis=None)


def _oversize_field(arrays):
    count = len(arrays["memory/steps"])
    arrays["memory/field/imp_audio"] = np.zeros((count, 100_000))


def _cut_memory(arrays):
    """Fewer entries than every reservoir holds, the smaller of its
    capacity and the pairs it saw: here 6 cut to 4."""
    count = len(arrays["memory/steps"])
    assert count == arrays["memory/capacity"][0] == 6 < arrays["memory/seen"][0]
    for key in arrays:
        if key.startswith("memory/") and key not in ("memory/capacity",
                                                     "memory/seen"):
            arrays[key] = arrays[key][:4]


def _last_of(table, name):
    return _param_slices(table)[name].stop - 1


class Hostile(NamedTuple):
    """A damaged checkpoint: ``damage`` (None for none) edits the tensors of
    ``task_00.ckpt`` of the ``source`` strategy's run (``config``'s if
    None), and every command that reads it under the ``config`` strategy's
    configuration exits 3 with ``fragment`` in its error.  ``allocates``
    marks damage that is found only once the memory's columns exist."""
    damage: Callable | None
    fragment: str
    config: str = "stella"
    source: str | None = None
    allocates: bool = False


#: row name -> hostile checkpoint; ``eval``, ``export-attention`` and
#: resume each reject every row (:func:`hostile`)
HOSTILE = {
    # the model tensors: exactly the configured modules' flat values
    "backbone_missing": Hostile(_drop(B_KEY), _layout_error(missing=[B_KEY])),
    "backbone_reshaped": Hostile(_edit(B_KEY, lambda flat: flat[:-1]),
                                 f"shape mismatch for tensor {B_KEY!r}"),
    "backbone_deeper": Hostile(_other_backbone(DEEPER_KEY, DEEPER_TABLE),
                               _layout_error([B_KEY], [DEEPER_KEY])),
    "backbone_arranged": Hostile(_other_backbone(ARRANGED_KEY, ARRANGED_TABLE),
                                 _layout_error([B_KEY], [ARRANGED_KEY])),
    "model_stray": Hostile(_put("model/bogus"),
                           _layout_error(unexpected=["model/bogus"])),
    "avm_stray": Hostile(_put("model/avm/bogus"),
                         _layout_error(unexpected=["model/avm/bogus"])),
    "avm_narrow": Hostile(_narrow_head, f"missing [{A_KEY!r}"),
    "backbone_nan": Hostile(
        _edit(B_KEY, _poke(_param_slices(B_TABLE)["fusion/0/mlp/w1"].start, np.nan)),
        f"non-finite value in tensor {B_KEY!r}"),
    "avm_nan": Hostile(
        _edit(A_KEY, _poke(_param_slices(A_TABLE)["avm/head/b1"].start, np.nan)),
        f"non-finite value in tensor {A_KEY!r}"),
    "per_parameter_model": Hostile(
        _per_parameter_model, "predates the flat parameter layout (one model tensor "
        "per module); start the run again"),
    # a checkpoint of another strategy: the matching module and its moments
    # are there exactly when the configured strategy scores
    "stella_under_derpp": Hostile(None, _layout_error(
        unexpected=[A_KEY, "opt/avm/m", "opt/avm/v"]), "derpp", "stella"),
    "stella_under_er": Hostile(None, _layout_error(
        unexpected=[A_KEY, "opt/avm/m", "opt/avm/v"]), "er", "stella"),
    "stella_under_finetune": Hostile(None, _layout_error(
        unexpected=[A_KEY, "opt/avm/m", "opt/avm/v"]), "finetune", "stella"),
    "derpp_under_stella": Hostile(None, _layout_error(
        missing=[A_KEY, "opt/avm/m", "opt/avm/v"]), "stella", "derpp"),
    # stray tensors anywhere, including the run/step and run/tasks_done of
    # checkpoints older than the flat moment layout
    "opt_backbone_stray": Hostile(_put("opt/backbone/bogus"),
                                  _layout_error(unexpected=["opt/backbone/bogus"])),
    "opt_avm_without_avm": Hostile(_put("opt/avm/m"),
                                   _layout_error(unexpected=["opt/avm/m"]), "derpp"),
    "junk": Hostile(_put("junk"), _layout_error(unexpected=["junk"])),
    "acc_row_past_tasks": Hostile(_put("run/acc/07"),
                                  _layout_error(unexpected=["run/acc/07"])),
    "memory_stray": Hostile(_put("memory/bogus"),
                            _layout_error(unexpected=["memory/bogus"])),
    "opt_unknown_module": Hostile(_put("opt/avm2/m"),
                                  _layout_error(unexpected=["opt/avm2/m"])),
    "run_step": Hostile(lambda arrays: arrays.update(
        {"run/step": np.array(float(len(arrays["run/records"])))}),
        _layout_error(unexpected=["run/step"])),
    "run_tasks_done": Hostile(_put("run/tasks_done", np.array(1.0)),
                              _layout_error(unexpected=["run/tasks_done"])),
    # the optimizer moments
    "moment_v_inf": Hostile(
        _edit("opt/backbone/v", _poke(_last_of(B_TABLE, "audio_pos"), np.inf)),
        "non-finite value in tensor 'opt/backbone/v'"),
    "moment_avm_m_inf": Hostile(
        _edit("opt/avm/m", _poke(_last_of(A_TABLE, "avm/head/w2"), np.inf)),
        "non-finite value in tensor 'opt/avm/m'"),
    "moment_m_nan": Hostile(_edit("opt/backbone/m", _poke(0, np.nan)),
                            "non-finite value in tensor 'opt/backbone/m'"),
    "per_parameter_moments": Hostile(
        _per_parameter_moments, "predates the flat moment layout (one m and one v "
        "per module); start the run again"),
    # the loss records: five losses per step the finished tasks took
    "records_missing": Hostile(_drop("run/records"),
                               _layout_error(missing=["run/records"])),
    "records_flat": Hostile(_edit("run/records", np.ravel),
                            "shape mismatch for tensor 'run/records'"),
    "records_narrow": Hostile(_edit("run/records", lambda rec: rec[:, :3]),
                              "shape mismatch for tensor 'run/records'"),
    # the layout that also stored each step, which is no longer read
    "records_wide": Hostile(
        _edit("run/records", lambda rec: np.column_stack([np.arange(len(rec)), rec])),
        "shape mismatch for tensor 'run/records'"),
    "records_short": Hostile(_edit("run/records", lambda rec: rec[:-1]),
                             "shape mismatch for tensor 'run/records'"),
    "records_nan": Hostile(_edit("run/records", _poke((0, 0), np.nan)),
                           "non-finite value in tensor 'run/records'"),
    # accuracy rows and gaps that do not fit the finished tasks
    "acc_width": Hostile(_put("run/acc/00", np.full(5, 10.0)),
                         "shape mismatch for tensor 'run/acc/00'"),
    "acc_range": Hostile(_put("run/acc/00", np.array([150.0])),
                         "accuracy values must lie in [0, 100]"),
    "gaps_long": Hostile(_edit("run/gaps", lambda g: np.concatenate([g, [0.1, 0.2]])),
                         "tensor 'run/gaps'"),
    "gaps_empty": Hostile(_put("run/gaps", np.zeros(0)), "tensor 'run/gaps'"),
    "gaps_nan": Hostile(_edit("run/gaps", _poke(0, np.nan)),
                        "non-finite value in tensor 'run/gaps'"),
    # the rehearsal memory
    "memory_capacity_huge": Hostile(_put("memory/capacity", np.array([1e15])),
                                    "snapshot capacity 1000000000000000 does not "
                                    "match the configured 6"),
    "memory_steps_short": Hostile(_edit("memory/steps", lambda s: s[:-1]),
                                  "snapshot: shape mismatch for tensor 'memory/tasks'"),
    "memory_field_inf": Hostile(_edit("memory/field/q_audio", _poke((0, 0, 0), np.inf)),
                                "snapshot: non-finite value in tensor "
                                "'memory/field/q_audio'"),
    "memory_field_nan": Hostile(_edit("memory/field/audio_patches",
                                      _poke((-1, -1, -1), np.nan)),
                                "snapshot: non-finite value in tensor "
                                "'memory/field/audio_patches'"),
    "memory_ids_off_grid": Hostile(
        _edit("memory/field/audio_indices", lambda ids: ids + 1000),
        "snapshot tensor 'memory/field/audio_indices' holds a value that is no "
        "grid id", "stella_plus", allocates=True),
    "memory_ids_fraction": Hostile(
        _edit("memory/field/video_indices", lambda ids: ids + 0.5),
        "snapshot tensor 'memory/field/video_indices' holds a value that is no "
        "grid id", "stella_plus", allocates=True),
    "memory_audio_ids_repeated": Hostile(
        _edit("memory/field/audio_indices", _poke((slice(None), 1), 0)),
        "snapshot tensor 'memory/field/audio_indices' repeats a grid id",
        "stella_plus", allocates=True),
    "memory_video_ids_repeated": Hostile(
        _edit("memory/field/video_indices", _poke((slice(None), 1), 0)),
        "snapshot tensor 'memory/field/video_indices' repeats a grid id",
        "stella_plus", allocates=True),
    "memory_steps_nan": Hostile(_edit("memory/steps", _poke(-1, np.nan)),
                                "snapshot: non-finite value in tensor 'memory/steps'"),
    "memory_tasks_fraction": Hostile(_edit("memory/tasks", _poke(-1, 0.5)),
                                     "snapshot tensor 'memory/tasks' holds a value "
                                     "that is no integer"),
    "memory_field_oversize": Hostile(_oversize_field,
                                     "snapshot: shape mismatch for tensor "
                                     "'memory/field/imp_audio'"),
    "memory_field_stray": Hostile(_put("memory/field/extra", np.zeros((6, 4))),
                                  _layout_error(unexpected=["memory/field/extra"])),
    "memory_cut": Hostile(_cut_memory, "snapshot entry count 4 inconsistent"),
}


def _strategy_config(ws, strategy):
    """``CFG`` for ``strategy`` (its knobs at their defaults)."""
    text = CFG.replace("strategy = stella\n", f"strategy = {strategy}\n")
    if not tr.STRATEGIES[strategy].memory:
        text = text.replace("memory_capacity = 6", "memory_capacity = 0")
    path = ws / f"cfg_{strategy}.ini"
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def finished(ws):
    """Strategy -> (config, finished run directory) on the workspace's
    dataset; each strategy runs once."""
    runs = {"stella": (ws / "cfg.ini", ws / "run_stella")}

    def get(strategy):
        if strategy not in runs:
            cfg, run = _strategy_config(ws, strategy), ws / f"finished_{strategy}"
            assert cli.main(["run", "--config", str(cfg), "--data", str(ws / "data"),
                             "--out", str(run)]) == 0
            runs[strategy] = cfg, run
        return runs[strategy]

    return get


@pytest.fixture
def hostile(ws, finished, capsys, monkeypatch, tmp_path):
    """The runner of :data:`HOSTILE`: ``hostile(name)`` writes the row's
    damaged ``task_00.ckpt`` into a copy of the ``config`` strategy's run cut
    back to its first task, then runs ``eval``, ``export-attention`` and
    resume on it.  Each exits 3, warning-free, with ``data error`` and the
    row's fragment in its error, before any step and, unless the row
    ``allocates``, before the memory's columns exist; no ``--out`` file or
    next checkpoint appears.  Under a configuration that does not score,
    ``export-attention`` stops at its guard (exit 2) before reading."""
    def run(name):
        row = HOSTILE[name]
        cfg, source = finished(row.config)
        run_dir = tmp_path / "run"
        shutil.copytree(source, run_dir)
        for path in ("task_01.ckpt", "task_01.rng.json"):
            (run_dir / path).unlink()
        arrays = ckpt.load(finished(row.source or row.config)[1] / "task_00.ckpt")
        if row.damage is not None:
            row.damage(arrays)
        ckpt.save(run_dir / "task_00.ckpt", arrays)

        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name}: read past the damage")

        monkeypatch.setattr(tr, "train_step", forbidden)
        if not row.allocates:
            monkeypatch.setattr(rm, "ReservoirMemory", forbidden)
        given = ["--config", str(cfg), "--data", str(ws / "data")]
        read = given + ["--ckpt", str(run_dir / "task_00.ckpt")]
        export = 3 if tr.STRATEGIES[row.config].attention else 2
        capsys.readouterr()
        for args, code, said in [
                (["eval", *read, "--out", str(run_dir / "eval.json")], 3, None),
                (["export-attention", *read, "--out", str(run_dir / "maps.csv")],
                 export, None if export == 3 else "sets no beta"),
                (["run", *given, "--out", str(run_dir)], 3, None)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(args) == code, args[0]
            err = capsys.readouterr().err
            if said is None:
                assert err.startswith("data error: ") and row.fragment in err, err
            else:
                assert said in err, err
        for path in ("eval.json", "maps.csv", "task_01.ckpt"):
            assert not (run_dir / path).exists(), path

    return run


_RUN_ROWS = set()


def _table_test(cases):
    """A test of :data:`HOSTILE` rows through :func:`hostile`: ``cases``
    maps each case id to a row name, or is the name of the one row."""
    if isinstance(cases, str):
        _RUN_ROWS.add(cases)

        def test(hostile):
            hostile(cases)
        return test
    _RUN_ROWS.update(cases.values())

    @pytest.mark.parametrize("row", list(cases.values()), ids=list(cases))
    def test(hostile, row):
        hostile(row)
    return test


# the rows, grouped by what they damage
test_bad_model_tensor_exits_3 = _table_test(
    {"missing": "backbone_missing", "reshaped": "backbone_reshaped"})
test_checkpoint_of_another_model_exits_3 = _table_test(
    {"extra": "model_stray", "missing": "backbone_missing",
     "deeper": "backbone_deeper", "avm_extra": "avm_stray",
     "arranged": "backbone_arranged"})
test_matching_head_of_another_width_exits_3 = _table_test("avm_narrow")
test_checkpoint_of_another_strategy_exits_3 = _table_test(
    {s: s for s in ("stella_under_derpp", "stella_under_er", "stella_under_finetune",
                    "derpp_under_stella")})
test_per_parameter_model_checkpoint_exits_3 = _table_test("per_parameter_model")
test_stray_optimizer_moment_exits_3 = _table_test(
    {"stella": "opt_backbone_stray", "derpp": "opt_avm_without_avm",
     "stella-junk": "junk", "stella-run/acc/07": "acc_row_past_tasks",
     "stella-memory/bogus": "memory_stray", "stella-opt/avm2/m": "opt_unknown_module",
     "stella-run/step": "run_step", "stella-run/tasks_done": "run_tasks_done"})
test_non_finite_model_tensor_exits_3 = _table_test(
    {"model/fusion/0/mlp/w1": "backbone_nan", "model/avm/head/b1": "avm_nan"})
test_non_finite_optimizer_moment_exits_3_before_training = _table_test(
    {"opt/backbone/v/audio_pos": "moment_v_inf",
     "opt/avm/m/avm/head/w2": "moment_avm_m_inf", "opt/backbone/m": "moment_m_nan"})
test_per_parameter_moment_checkpoint_exits_3_before_training = _table_test(
    "per_parameter_moments")
test_bad_run_records_exits_3 = _table_test(
    {"missing": "records_missing", "flat": "records_flat", "narrow": "records_narrow",
     "wide": "records_wide", "short": "records_short"})
test_bad_run_history_exits_3_before_training = _table_test(
    {"acc_width": "acc_width", "acc_range": "acc_range", "gaps_long": "gaps_long",
     "gaps_empty": "gaps_empty", "records_nan": "records_nan", "gaps_nan": "gaps_nan"})
test_hostile_memory_capacity_exits_3_before_allocating = _table_test(
    "memory_capacity_huge")
test_inconsistent_memory_snapshot_exits_3 = _table_test("memory_steps_short")
test_bad_memory_value_exits_3_before_training = _table_test(
    {"stella-q_audio-inf": "memory_field_inf",
     "stella-audio_patches-nan": "memory_field_nan",
     "stella_plus-audio_indices-off_grid": "memory_ids_off_grid",
     "stella_plus-video_indices-fraction": "memory_ids_fraction",
     "stella_plus-audio_indices-repeated": "memory_audio_ids_repeated",
     "stella_plus-video_indices-repeated": "memory_video_ids_repeated"})
test_bad_memory_bookkeeping_exits_3_before_training = _table_test(
    {"steps-nan": "memory_steps_nan", "tasks-0.5": "memory_tasks_fraction"})
test_hostile_memory_field_exits_3_before_allocating = _table_test(
    {"oversize": "memory_field_oversize", "extra": "memory_field_stray",
     "cut": "memory_cut"})


def test_every_hostile_row_is_run():
    assert _RUN_ROWS == set(HOSTILE)


def test_checkpoint_past_the_dataset_exits_3_before_any_layout(ws, capsys,
                                                              monkeypatch):
    """A checkpoint of more finished tasks than the dataset has is a data
    error before a layout of its size is built: for resume, by the number
    in its file name; for ``eval`` and ``export-attention``, by the length
    of its ``run/gaps``."""
    run, args = _resume_copy(ws, "run_past_the_dataset")
    last = 999_999
    for suffix in (".ckpt", ".rng.json"):
        shutil.copy(run / f"task_01{suffix}", run / f"task_{last}{suffix}")
    arrays = ckpt.load(run / "task_01.ckpt")
    arrays["run/gaps"] = np.zeros(last + 1)
    ckpt.save(run / "task_01.ckpt", arrays)

    def no_layout(*args, **kwargs):
        raise AssertionError("built a layout past the dataset")

    monkeypatch.setattr(tr, "_checkpoint_layout", no_layout)
    given = ["--config", str(ws / "cfg.ini"), "--data", str(ws / "data"),
             "--ckpt", str(run / "task_01.ckpt")]
    capsys.readouterr()
    assert cli.main(args) == 3  # resume
    assert f"task_{last}.ckpt is past the 2 tasks" in capsys.readouterr().err
    for command in ("eval", "export-attention"):
        assert cli.main([command, *given, "--out", str(run / "out")]) == 3
        err = capsys.readouterr().err
        assert f"'run/gaps' holds {last + 1} gaps" in err, err
    assert not (run / "out").exists()


def test_unknown_strategy_exits_2_without_partial_run_dir(ws, capsys):
    bad = _variant(ws, "warp", "strategy = stella", "strategy = warp")
    code = cli.main(["run", "--config", str(bad), "--data", str(ws / "data"),
                     "--out", str(ws / "run_warp")])
    assert code == 2
    assert not (ws / "run_warp").exists()
    assert "unknown strategy" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["finetune", "er", "derpp"])
def test_single_pair_batch_exits_2_without_partial_run_dir(ws, capsys, strategy):
    """The contrastive loss needs two pairs, whatever the strategy."""
    capacity = 0 if strategy == "finetune" else 6
    cfg = _variant(ws, f"batch1_{strategy}",
                   "strategy = stella\nbatch = 4\nepochs = 1\nmemory_capacity = 6",
                   f"strategy = {strategy}\nbatch = 1\nepochs = 1\n"
                   f"memory_capacity = {capacity}")
    run = ws / f"run_batch1_{strategy}"
    assert cli.main(["run", "--config", str(cfg), "--data", str(ws / "data"),
                     "--out", str(run)]) == 2
    assert not run.exists()
    assert "batch must be at least 2" in capsys.readouterr().err


def test_run_with_nothing_masked_exits_0(ws):
    """At mask_prob 0 no batch has a reconstruction target: the term is
    zero and training goes on."""
    cfg = _variant(ws, "nomask", "mask_prob = 0.5", "mask_prob = 0.0")
    run = ws / "run_nomask"
    assert cli.main(["run", "--config", str(cfg), "--data", str(ws / "data"),
                     "--out", str(run)]) == 0
    rows = (run / "losses.csv").read_text().strip().splitlines()[1:]
    assert rows and all(float(r.split(",")[1]) == 0.0 for r in rows)


@pytest.mark.parametrize("section,key,value", [
    ("data", "num_tasks", "0"), ("data", "classes_per_task", "0"),
    ("data", "train_pairs", "-1"), ("data", "correlation", "2.0"),
    ("data", "noise_std", "-1.0"), ("data", "seed", "-1"),
    ("data", "audio_time_bins", "0"), ("data", "audio_patch", "0"),
    ("data", "video_frames", "0"), ("data", "video_patch", "0"),
    ("model", "embed_dim", "0"), ("model", "heads", "0"),
    ("model", "encoder_layers", "-1"), ("model", "mlp_ratio", "0"),
    ("model", "layernorm_eps", "-1.0"), ("train", "train_seed", "-1"),
])
def test_out_of_range_value_exits_2_without_output(ws, capsys, section, key,
                                                  value):
    """Each value is checked by its config dataclass before anything is
    built, so neither a dataset nor a run directory appears."""
    line = re.compile(rf"^{key} = .*$", re.M)
    text = (line.sub(f"{key} = {value}", CFG) if line.search(CFG) else
            CFG.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    tag = f"{key}{value}"
    cfg = ws / f"cfg_{tag}.ini"
    cfg.write_text(text)
    data, run = ws / f"data_{tag}", ws / f"run_{tag}"
    assert cli.main(["generate-data", "--config", str(cfg),
                     "--out", str(data)]) == 2
    assert cli.main(["run", "--config", str(cfg), "--data", str(ws / "data"),
                     "--out", str(run)]) == 2
    assert not data.exists() and not run.exists()
    err = capsys.readouterr().err
    assert err.count(f"config error: [{section}]: ") == 2, err


def test_tampered_data_exits_3_without_partial_run_dir(ws, capsys):
    data = ws / "data_tampered"
    shutil.copytree(ws / "data", data)
    blob = bytearray((data / "task_01.bin").read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    (data / "task_01.bin").write_bytes(bytes(blob))
    code = cli.main(["run", "--config", str(ws / "cfg.ini"),
                     "--data", str(data), "--out", str(ws / "run_tampered")])
    assert code == 3
    assert not (ws / "run_tampered").exists()
    assert "manifest hash" in capsys.readouterr().err


def _rehash(data, name):
    """Rewrite the manifest hash of ``name`` so that only the content checks
    behind the hash check can catch an edit."""
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["sha256"][name] = hashlib.sha256((data / name).read_bytes()).hexdigest()
    (data / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("key,shape", [("train/audio_truth", (16, 3)),
                                       ("eval/class_ids", (5,)),
                                       ("train/video_truth", None),
                                       ("train/extra", "stray")])
def test_misshaped_task_tensor_exits_3_without_partial_run_dir(ws, capsys, key,
                                                               shape):
    """A task file holds exactly the ten split tensors at the shapes the
    config gives: a misshaped, missing or stray one is refused before
    training."""
    tag = key.replace("/", "_")
    data, run = ws / f"data_bad_{tag}", ws / f"run_bad_{tag}"
    shutil.copytree(ws / "data", data)
    tensors = ckpt.load(data / "task_01.bin")
    if shape is None:
        del tensors[key]
    elif shape == "stray":
        tensors[key] = np.zeros(3)
    else:
        tensors[key] = tensors[key][..., :shape[-1]]
        assert tensors[key].shape == shape
    ckpt.save(data / "task_01.bin", tensors)
    _rehash(data, "task_01.bin")
    code = cli.main(["run", "--config", str(ws / "cfg.ini"),
                     "--data", str(data), "--out", str(run)])
    assert code == 3
    assert not run.exists()
    err = capsys.readouterr().err
    assert "task_01.bin" in err and key in err, err


@pytest.mark.parametrize("key,value", [("train/audio_truth", 0.5),
                                       ("eval/class_ids", 1e300),
                                       ("train/audio_patches", np.nan),
                                       ("eval/video_patches", np.inf)])
def test_out_of_range_task_tensor_exits_3_without_partial_run_dir(ws, capsys,
                                                                  key, value):
    """Truth masks hold only 0 and 1, class ids only the task's classes and
    patches only finite values; a task file breaking any of them is refused
    before training."""
    tag = key.replace("/", "_")
    data, run = ws / f"data_range_{tag}", ws / f"run_range_{tag}"
    shutil.copytree(ws / "data", data)
    tensors = ckpt.load(data / "task_01.bin")
    tensors[key] = np.full_like(tensors[key], value)
    ckpt.save(data / "task_01.bin", tensors)
    _rehash(data, "task_01.bin")
    code = cli.main(["run", "--config", str(ws / "cfg.ini"),
                     "--data", str(data), "--out", str(run)])
    assert code == 3
    assert not run.exists()
    err = capsys.readouterr().err
    assert "task_01.bin" in err and key in err, err


def test_edited_dataset_config_exits_3(ws, capsys):
    """config.ini is hashed with the task files, so the statement of what
    the data is cannot drift from the data."""
    data = ws / "data_cfg_edit"
    shutil.copytree(ws / "data", data)
    text = (data / "config.ini").read_text()
    (data / "config.ini").write_text(text.replace("seed = 1", "seed = 7"))
    code = cli.main(["run", "--config", str(ws / "cfg.ini"),
                     "--data", str(data), "--out", str(ws / "run_cfg_edit")])
    assert code == 3
    assert not (ws / "run_cfg_edit").exists()
    assert "config.ini does not match its manifest hash" in capsys.readouterr().err


def test_format_1_dataset_exits_3(ws, capsys):
    data = ws / "data_format1"
    shutil.copytree(ws / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["format"] = 1
    (data / "manifest.json").write_text(json.dumps(manifest))
    code = cli.main(["run", "--config", str(ws / "cfg.ini"),
                     "--data", str(data), "--out", str(ws / "run_format1")])
    assert code == 3
    assert not (ws / "run_format1").exists()
    assert "regenerate it with generate-data" in capsys.readouterr().err


def test_reordered_manifest_exits_3(ws, capsys):
    """The manifest's task order must be the config's: two task files of
    one shape are not interchangeable."""
    data = ws / "data_reordered"
    shutil.copytree(ws / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["tasks"].reverse()
    (data / "manifest.json").write_text(json.dumps(manifest))
    code = cli.main(["run", "--config", str(ws / "cfg.ini"),
                     "--data", str(data), "--out", str(ws / "run_reordered")])
    assert code == 3
    assert not (ws / "run_reordered").exists()
    assert "does not list the 2 task files" in capsys.readouterr().err


def test_missing_manifest_exits_3(ws, tmp_path):
    code = cli.main(["run", "--config", str(ws / "cfg.ini"),
                     "--data", str(tmp_path), "--out", str(tmp_path / "run")])
    assert code == 3


def test_non_string_task_names_exit_3_without_partial_run_dir(ws, capsys):
    data = ws / "data_int_names"
    shutil.copytree(ws / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["tasks"] = [1, 2]
    (data / "manifest.json").write_text(json.dumps(manifest))
    code = cli.main(["run", "--config", str(ws / "cfg.ini"),
                     "--data", str(data), "--out", str(ws / "run_int_names")])
    assert code == 3
    assert not (ws / "run_int_names").exists()
    assert "task names must be strings" in capsys.readouterr().err


def test_config_data_mismatch_exits_2(ws):
    bad = _variant(ws, "tasks3", "num_tasks = 2", "num_tasks = 3")
    code = cli.main(["run", "--config", str(bad), "--data", str(ws / "data"),
                     "--out", str(ws / "run_mismatch")])
    assert code == 2
    assert not (ws / "run_mismatch").exists()


@pytest.mark.parametrize("key,value", [("seed", "7"), ("correlation", "0.5"),
                                       ("amplitude", "9.0")])
def test_data_section_unlike_the_datasets_exits_2(ws, capsys, key, value):
    """The run's [data] must be the one that generated the dataset; else
    the run directory's config.ini would describe data it never saw."""
    cfg = _variant(ws, f"data_{key}", "[data]\n", f"[data]\n{key} = {value}\n")
    run, out = ws / f"run_data_{key}", ws / f"out_data_{key}"
    common = ["--config", str(cfg), "--data", str(ws / "data")]
    ckpt_arg = ["--ckpt", str(ws / "run_stella" / "task_01.ckpt")]
    assert cli.main(["run", *common, "--out", str(run)]) == 2
    assert cli.main(["eval", *common, *ckpt_arg, "--out", str(out)]) == 2
    assert cli.main(["export-attention", *common, *ckpt_arg,
                     "--out", str(out)]) == 2
    assert not run.exists() and not out.exists()
    err = capsys.readouterr().err
    assert err.count("config error: [data] differs from the dataset's") == 3, err
    assert err.count(f"config.ini in {key}\n") == 3, err


def test_chunk_longer_than_audio_time_grid_exits_2(ws, capsys):
    # audio_time_bins = 32 with 4-bin patches: 8 time patches
    cf.parse_config(CFG.replace("train_seed = 3", "train_seed = 3\nchunk_size = 8"))
    bad = _variant(ws, "chunk9", "train_seed = 3", "train_seed = 3\nchunk_size = 9")
    code = cli.main(["run", "--config", str(bad), "--data", str(ws / "data"),
                     "--out", str(ws / "run_chunk9")])
    assert code == 2
    assert not (ws / "run_chunk9").exists()
    assert "chunk_size" in capsys.readouterr().err


def test_resume_under_different_config_exits_2(ws, capsys):
    other = _variant(ws, "cap8", "memory_capacity = 6", "memory_capacity = 8")
    code = cli.main(["run", "--config", str(other), "--data", str(ws / "data"),
                     "--out", str(ws / "run_stella")])
    assert code == 2
    assert "different configuration" in capsys.readouterr().err


def test_divergent_run_exits_4(ws, capsys):
    bad = _variant(ws, "hot", "[train]\nstrategy = stella",
                   "[train]\nlr = 1e200\nstrategy = stella")
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", "--config", str(bad), "--data", str(ws / "data"),
                         "--out", str(ws / "run_hot")])
    assert code == 4
    assert "divergence" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_reports_every_task(ws, capsys):
    code = cli.main(["eval", "--config", str(ws / "cfg.ini"),
                     "--data", str(ws / "data"),
                     "--ckpt", str(ws / "run_stella" / "task_01.ckpt")])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert [t["task"] for t in blob["tasks"]] == [0, 1]
    assert blob["tasks"][0]["pairs"] == 12
    assert set(blob["tasks"][0]["audio_to_video"]) == {"1", "5", "10"}
    # the final acc-matrix row was computed from this same checkpoint
    acc = tr.read_acc_csv(ws / "run_stella" / "acc_matrix.csv")
    assert [t["headline"] for t in blob["tasks"]] == pytest.approx(acc[1])


def test_eval_workers_do_not_change_results(ws):
    args = ["eval", "--config", str(ws / "cfg.ini"), "--data", str(ws / "data"),
            "--ckpt", str(ws / "run_stella" / "task_01.ckpt")]
    out1, out3 = ws / "e1.json", ws / "e3.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out3), "--eval-workers", "3"]) == 0
    assert out1.read_text() == out3.read_text()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_eval_workers_below_one_exit_2(ws, capsys, workers):
    run_dir, out = ws / f"run_workers{workers}", ws / f"eval_workers{workers}.json"
    code = cli.main(["run", "--config", str(ws / "cfg.ini"), "--data", str(ws / "data"),
                     "--out", str(run_dir), "--eval-workers", workers])
    assert code == 2
    assert not run_dir.exists()
    code = cli.main(["eval", "--config", str(ws / "cfg.ini"), "--data", str(ws / "data"),
                     "--ckpt", str(ws / "run_stella" / "task_01.ckpt"),
                     "--out", str(out), "--eval-workers", workers])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("--eval-workers must be at least 1") == 2


def test_eval_missing_checkpoint_exits_3(ws):
    code = cli.main(["eval", "--config", str(ws / "cfg.ini"),
                     "--data", str(ws / "data"),
                     "--ckpt", str(ws / "nope.ckpt")])
    assert code == 3


# ---------------------------------------------------------------------------
# report


def test_report_aggregates_and_sorts_by_average_accuracy(ws, capsys):
    er_cfg = _variant(ws, "er", "strategy = stella", "strategy = er")
    assert cli.main(["run", "--config", str(er_cfg), "--data", str(ws / "data"),
                     "--out", str(ws / "run_er")]) == 0
    assert cli.main(["run", "--config", str(ws / "cfg.ini"),
                     "--data", str(ws / "data"),
                     "--out", str(ws / "run_stella2")]) == 0
    capsys.readouterr()  # drop the run commands' own output
    code = cli.main(["report", str(ws / "run_stella"), str(ws / "run_stella2"),
                     str(ws / "run_er")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["strategy", "runs", "avg_acc_mean", "avg_acc_std",
                          "forgetting_mean", "forgetting_std"]
    assert "a2v@1_mean" in header and "v2a@10_std" in header
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert set(rows) == {"stella", "er"}
    assert rows["stella"][1] == "2" and rows["er"][1] == "1"
    # two identical stella runs: zero std, mean equals the single-run value
    acc = tr.read_acc_csv(ws / "run_stella" / "acc_matrix.csv")
    assert float(rows["stella"][2]) == pytest.approx(ev.average_accuracy(acc),
                                                     rel=1e-5)
    assert float(rows["stella"][3]) == 0.0
    # rows are ordered by descending mean average accuracy
    means = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert means == sorted(means, reverse=True)


def test_report_json_output(ws):
    out = ws / "report.json"
    assert cli.main(["report", str(ws / "run_stella"),
                     "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob[0]["strategy"] == "stella" and blob[0]["runs"] == 1
    assert np.isfinite(blob[0]["avg_acc_mean"])


def test_report_on_unfinished_directory_exits_3(ws, tmp_path):
    assert cli.main(["report", str(tmp_path)]) == 3


def _without_cutoff_5(text):
    blob = json.loads(text)
    for task in blob["tasks"]:
        for direction in ("audio_to_video", "video_to_audio"):
            del task[direction]["5"]
    return json.dumps(blob)


def _non_integer_size(text):
    blob = json.loads(text)
    blob["tasks"][0]["size"] = "twelve"
    return json.dumps(blob)


def _first_task_report_only(text):
    blob = json.loads(text)
    del blob["tasks"][1:]
    return json.dumps(blob)


@pytest.mark.parametrize("name,damage", [
    ("retrieval.json", lambda text: '{"x": 1}'),
    ("retrieval.json", lambda text: "[1, 2]"),
    ("retrieval.json", _without_cutoff_5),
    ("retrieval.json", _non_integer_size),
    ("acc_matrix.csv", lambda text: "abc,1\n"),
    ("retrieval.json", _first_task_report_only),
    ("retrieval.json", lambda text: '{"tasks": []}'),
], ids=["no_tasks_key", "json_list", "missing_cutoff", "non_integer_size",
        "non_numeric_accuracy", "fewer_task_reports", "no_task_reports"])
def test_report_on_malformed_run_dir_exits_3(ws, tmp_path, capsys, name, damage):
    run = tmp_path / "run"
    shutil.copytree(ws / "run_stella", run)
    (run / name).write_text(damage((run / name).read_text()))
    assert cli.main(["report", str(run)]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "report_csv", "report_json",
                                     "export_attention"])
def test_failed_out_write_leaves_no_partial_file(ws, capsys, monkeypatch,
                                                 command):
    """A write of an ``--out`` file that fails partway through exits 3 and
    leaves no file under the ``--out`` name."""
    ckpt_args = ["--config", str(ws / "cfg.ini"), "--data", str(ws / "data"),
                 "--ckpt", str(ws / "run_stella" / "task_01.ckpt")]
    out, args = {
        "eval": ("torn_eval.json", ["eval"] + ckpt_args),
        "report_csv": ("torn_report.csv", ["report", str(ws / "run_stella")]),
        "report_json": ("torn_report.json", ["report", str(ws / "run_stella")]),
        "export_attention": ("torn_maps.csv", ["export-attention"] + ckpt_args),
    }[command]
    out = ws / out
    real = ckpt.atomic_open

    @contextlib.contextmanager
    def torn(path, *a, **kw):
        with real(path, *a, **kw) as fh:
            yield fh
            fh.flush()
            fh.truncate(fh.tell() // 2)
            raise OSError("disk full")

    monkeypatch.setattr(ckpt, "atomic_open", torn)
    assert cli.main(args + ["--out", str(out)]) == 3
    assert not out.exists()
    assert not list(ws.glob("*.tmp"))
    assert "disk full" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export-attention


def _read_attention(path):
    """An exported attention CSV back as (samples, queries, keys)."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 2:].reshape(int(table[-1, 0]) + 1, -1, table.shape[1] - 2)


def test_export_attention_round_trips(ws):
    out = ws / "maps.csv"
    code = cli.main(["export-attention", "--config", str(ws / "cfg.ini"),
                     "--data", str(ws / "data"),
                     "--ckpt", str(ws / "run_stella" / "task_01.ckpt"),
                     "--out", str(out), "--rows", "3"])
    assert code == 0
    probs = _read_attention(out)
    # audio direction: one row of key-probabilities per video query patch
    assert probs.shape == (3, 8, 16)
    assert np.allclose(probs.sum(axis=-1), 1.0)


def test_export_attention_video_direction(ws):
    out = ws / "maps_v.csv"
    code = cli.main(["export-attention", "--config", str(ws / "cfg.ini"),
                     "--data", str(ws / "data"),
                     "--ckpt", str(ws / "run_stella" / "task_01.ckpt"),
                     "--out", str(out), "--rows", "2", "--direction", "video"])
    assert code == 0
    assert _read_attention(out).shape == (2, 16, 8)


def test_export_attention_needs_a_scoring_checkpoint(ws, capsys):
    ft_cfg = _variant(ws, "ft", "strategy = stella\nbatch = 4",
                      "strategy = finetune\nbatch = 4\nmemory_capacity = 0")
    ft_cfg.write_text(ft_cfg.read_text().replace("memory_capacity = 6\n", ""))
    assert cli.main(["run", "--config", str(ft_cfg), "--data", str(ws / "data"),
                     "--out", str(ws / "run_ft")]) == 0
    code = cli.main(["export-attention", "--config", str(ft_cfg),
                     "--data", str(ws / "data"),
                     "--ckpt", str(ws / "run_ft" / "task_01.ckpt"),
                     "--out", str(ws / "maps_ft.csv")])
    assert code == 2
    assert "no matching module" in capsys.readouterr().err


def test_export_attention_needs_a_config_that_scores(ws, capsys):
    """A stella checkpoint exported under a derpp config has no beta to
    scale the maps with, so it is refused rather than exported at a
    made-up one."""
    cfg = _variant(ws, "derpp_export", "strategy = stella",
                   "strategy = derpp")
    out = ws / "maps_derpp.csv"
    code = cli.main(["export-attention", "--config", str(cfg),
                     "--data", str(ws / "data"),
                     "--ckpt", str(ws / "run_stella" / "task_01.ckpt"),
                     "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "sets no beta" in capsys.readouterr().err


@pytest.mark.parametrize("scale,code", [(1e170, 4), (1e150, 0)],
                         ids=["overflowing", "finite"])
def test_export_attention_on_scaled_query_key_weights(ws, capsys, scale, code):
    """Matching-head query/key weights scaled until q.k overflows give
    non-finite maps: exit 4 and no CSV.  Short of that the export runs."""
    flat_key, table = A_KEY, A_TABLE

    def damage(arrays):
        for key in ("audio/wq", "audio/wk", "video/wq", "video/wk"):
            arrays[flat_key][_param_slices(table)[f"avm/{key}"]] *= scale

    run, _ = _damaged_copy(ws, f"run_scaled_{scale:g}", damage)
    out = run / "maps.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["export-attention", "--config", str(ws / "cfg.ini"),
                         "--data", str(ws / "data"),
                         "--ckpt", str(run / "task_01.ckpt"),
                         "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    assert ("numeric divergence" in capsys.readouterr().err) == (code == 4)


@pytest.mark.parametrize("rows", ["0", "-1", "-100"])
def test_export_attention_rows_below_one_exit_2(ws, capsys, rows):
    out = ws / f"maps_rows{rows}.csv"
    code = cli.main(["export-attention", "--config", str(ws / "cfg.ini"),
                     "--data", str(ws / "data"),
                     "--ckpt", str(ws / "run_stella" / "task_01.ckpt"),
                     "--out", str(out), "--rows", rows])
    assert code == 2
    assert not out.exists()
    assert "--rows must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--rows", "0", "--rows must be at least 1"),
    ("--task", "2", "--task must lie in [0, 1]"),
    ("--task", "-1", "--task must lie in [0, 1]"),
], ids=["rows", "task_past_the_data", "task_negative"])
def test_export_attention_checks_its_flags_before_reading(ws, capsys, flag, value,
                                                          message):
    """A bad --rows or --task is a usage error (2) even beside a checkpoint
    that would not load (3): both are checked before anything is read."""
    name = f"{flag[2:]}{value}"
    bad = ws / f"truncated_{name}.ckpt"
    bad.write_bytes((ws / "run_stella" / "task_01.ckpt").read_bytes()[:7])
    out = ws / f"maps_{name}.csv"
    code = cli.main(["export-attention", "--config", str(ws / "cfg.ini"),
                     "--data", str(ws / "data"), "--ckpt", str(bad),
                     "--out", str(out), flag, value])
    assert code == 2
    assert not out.exists()
    assert message in capsys.readouterr().err
