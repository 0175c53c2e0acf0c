"""Command-line workflow: dataset round trip, runs, reports, exit codes."""

import contextlib
import hashlib
import json
import re
import shutil

import numpy as np
import pytest

from avcl import checkpoint as ckpt
from avcl import cli
from avcl import config as cf
from avcl import data as dt
from avcl import evaluate as ev
from avcl import memory as rm
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


def test_inconsistent_memory_snapshot_exits_3(ws, capsys):
    run, args = _resume_copy(ws, "run_bad_memory")
    arrays = ckpt.load(run / "task_01.ckpt")
    arrays["memory/steps"] = arrays["memory/steps"][:-1]
    ckpt.save(run / "task_01.ckpt", arrays)
    assert cli.main(args) == 3
    assert "snapshot" in capsys.readouterr().err


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


def _first_task_copy(ws, name):
    """Copy of the stella run cut back to its first task, so a resume
    trains the second task from ``task_00.ckpt``."""
    run, args = _resume_copy(ws, name)
    for path in ("task_01.ckpt", "task_01.rng.json"):
        (run / path).unlink()
    return run, args


def _damaged_copy(ws, name, damage):
    """Resumable copy of the stella run whose last checkpoint ``damage``
    edits in place; returns the run directory and its ``run`` arguments."""
    run, args = _resume_copy(ws, name)
    arrays = ckpt.load(run / "task_01.ckpt")
    damage(arrays)
    ckpt.save(run / "task_01.ckpt", arrays)
    return run, args


@pytest.mark.parametrize("shape", ["missing", "reshaped"])
def test_bad_model_tensor_exits_3(ws, capsys, shape):
    def damage(arrays):
        if shape == "missing":
            del arrays["model/audio_pos"]
        else:
            arrays["model/audio_pos"] = arrays["model/audio_pos"][:-1]

    run, args = _damaged_copy(ws, f"run_bad_model_{shape}", damage)
    given = ["--config", str(ws / "cfg.ini"), "--data", str(ws / "data"),
             "--ckpt", str(run / "task_01.ckpt")]
    assert cli.main(["eval"] + given) == 3
    assert cli.main(["export-attention"] + given
                    + ["--out", str(run / "maps.csv")]) == 3
    assert cli.main(args) == 3  # resume
    err = capsys.readouterr().err
    assert err.count("data error") == 3 and "audio_pos" in err


def test_matching_head_of_another_width_exits_3(ws, capsys):
    """The matching head is always ``embed_dim`` wide, so a checkpoint whose
    head (with its optimizer moments) is narrower is rejected by resume and
    by export instead of running another architecture."""
    run, args = _first_task_copy(ws, "run_narrow_head")
    arrays = ckpt.load(run / "task_00.ckpt")
    for key in list(arrays):
        if key.endswith("avm/head/w1"):
            arrays[key] = arrays[key][:, :8]
        elif key.endswith(("avm/head/b1", "avm/head/w2")):
            arrays[key] = arrays[key][:8]
    ckpt.save(run / "task_00.ckpt", arrays)
    out = run / "maps.csv"
    assert cli.main(["export-attention", "--config", str(ws / "cfg.ini"),
                     "--data", str(ws / "data"),
                     "--ckpt", str(run / "task_00.ckpt"),
                     "--out", str(out)]) == 3
    assert cli.main(args) == 3  # resume
    err = capsys.readouterr().err
    assert err.count("data error") == 2 and "avm/head/w1" in err
    assert not out.exists() and not (run / "task_01.ckpt").exists()


@pytest.mark.parametrize("records", ["missing", "flat", "narrow", "wide",
                                     "short"])
def test_bad_run_records_exits_3(ws, capsys, records):
    """The loss records are the run's only step count: five losses per step
    the finished tasks took.  ``wide`` is the layout that also stored each
    step, which is no longer read."""
    def damage(arrays):
        rec = arrays["run/records"]
        if records == "missing":
            del arrays["run/records"]
        elif records == "flat":
            arrays["run/records"] = rec.ravel()
        elif records == "narrow":
            arrays["run/records"] = rec[:, :3]
        elif records == "wide":
            arrays["run/records"] = np.column_stack([np.arange(len(rec)),
                                                     rec[:, -5:]])
        else:
            arrays["run/records"] = rec[:-1]

    _, args = _damaged_copy(ws, f"run_{records}_records", damage)
    assert cli.main(args) == 3
    assert "data error" in capsys.readouterr().err


def test_checkpoint_with_old_progress_keys_resumes(ws):
    """Checkpoints that still store ``run/step`` and ``run/tasks_done`` load
    as before; the keys are not read."""
    full = (ws / "run_stella" / "task_01.ckpt").read_bytes()
    run, args = _first_task_copy(ws, "run_old_keys")
    arrays = ckpt.load(run / "task_00.ckpt")
    arrays["run/step"] = np.array(float(len(arrays["run/records"])))
    arrays["run/tasks_done"] = np.array(1.0)
    ckpt.save(run / "task_00.ckpt", arrays)
    assert cli.main(args) == 0
    assert (run / "task_01.ckpt").read_bytes() == full


@pytest.mark.parametrize("history", ["acc_width", "acc_range", "gaps_long",
                                     "gaps_empty"])
def test_bad_run_history_exits_3_before_training(ws, capsys, monkeypatch,
                                                 history):
    """Accuracy rows and gaps that do not fit the finished tasks are a data
    error at restore, before the next task trains or writes anything."""
    run, args = _first_task_copy(ws, f"run_bad_{history}")
    arrays = ckpt.load(run / "task_00.ckpt")
    if history == "acc_width":
        arrays["run/acc/00"] = np.full(5, 10.0)
    elif history == "acc_range":
        arrays["run/acc/00"] = np.array([150.0])
    elif history == "gaps_long":
        arrays["run/gaps"] = np.concatenate([arrays["run/gaps"], [0.1, 0.2]])
    else:
        arrays["run/gaps"] = np.zeros(0)
    ckpt.save(run / "task_00.ckpt", arrays)

    def no_training(*args, **kwargs):
        raise AssertionError("trained on an unchecked history")

    monkeypatch.setattr(tr, "train_step", no_training)
    assert cli.main(args) == 3
    assert "data error" in capsys.readouterr().err
    assert not (run / "task_01.ckpt").exists()


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


def test_hostile_memory_capacity_exits_3_before_allocating(ws, capsys):
    def damage(arrays):
        arrays["memory/capacity"] = np.array([1e15])

    _, args = _damaged_copy(ws, "run_huge_memory", damage)
    assert cli.main(args) == 3
    assert "capacity" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["oversize", "extra"])
def test_hostile_memory_field_exits_3_before_allocating(ws, capsys, monkeypatch,
                                                        field):
    """A stored field the run does not store, or at another per-entry shape,
    is rejected before the memory's capacity-sized columns exist."""
    def damage(arrays):
        count = len(arrays["memory/steps"])
        if field == "oversize":
            arrays["memory/field/imp_audio"] = np.zeros((count, 100_000))
        else:
            arrays["memory/field/extra"] = np.zeros((count, 4))

    def allocate(*args, **kwargs):
        raise AssertionError("memory allocated before its fields were checked")

    _, args = _damaged_copy(ws, f"run_{field}_field", damage)
    monkeypatch.setattr(rm, "ReservoirMemory", allocate)
    assert cli.main(args) == 3
    assert "snapshot fields" in capsys.readouterr().err


def test_unknown_strategy_exits_2_without_partial_run_dir(ws, capsys):
    bad = _variant(ws, "warp", "strategy = stella", "strategy = warp")
    code = cli.main(["run", "--config", str(bad), "--data", str(ws / "data"),
                     "--out", str(ws / "run_warp")])
    assert code == 2
    assert not (ws / "run_warp").exists()
    assert "unknown strategy" in capsys.readouterr().err


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
                                       ("train/video_truth", None)])
def test_misshaped_task_tensor_exits_3_without_partial_run_dir(ws, capsys, key,
                                                               shape):
    tag = key.replace("/", "_")
    data, run = ws / f"data_bad_{tag}", ws / f"run_bad_{tag}"
    shutil.copytree(ws / "data", data)
    tensors = ckpt.load(data / "task_01.bin")
    if shape is None:
        del tensors[key]
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
                                       ("eval/class_ids", 1e300)])
def test_out_of_range_task_tensor_exits_3_without_partial_run_dir(ws, capsys,
                                                                  key, value):
    """Truth masks hold only 0 and 1 and class ids only the task's classes;
    a task file breaking either is refused before training."""
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


@pytest.mark.parametrize("name,damage", [
    ("retrieval.json", lambda text: '{"x": 1}'),
    ("retrieval.json", lambda text: "[1, 2]"),
    ("retrieval.json", _without_cutoff_5),
    ("retrieval.json", _non_integer_size),
    ("acc_matrix.csv", lambda text: "abc,1\n"),
], ids=["no_tasks_key", "json_list", "missing_cutoff", "non_integer_size",
        "non_numeric_accuracy"])
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
