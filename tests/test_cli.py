"""Command-line workflow: dataset round trip, runs, reports, exit codes."""

import hashlib
import json
import shutil

import numpy as np
import pytest

from avcl import checkpoint as ckpt
from avcl import cli
from avcl import config as cf
from avcl import evaluate as ev
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


def test_load_tasks_round_trip(ws):
    tasks, geom = cli.load_tasks(ws / "data")
    assert [t.spec.task_id for t in tasks] == [0, 1]
    assert geom.audio.time_bins == 32 and geom.video.height == 16
    assert len(tasks[0].train) == 16 and len(tasks[0].eval) == 12


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
    arrays["memory/count"] = arrays["memory/count"] + 1.0
    ckpt.save(run / "task_01.ckpt", arrays)
    assert cli.main(args) == 3
    assert "snapshot" in capsys.readouterr().err


def test_truncated_rng_state_exits_3(ws, capsys):
    run, args = _resume_copy(ws, "run_bad_rng")
    text = (run / "task_01.rng.json").read_text()
    (run / "task_01.rng.json").write_text(text[:len(text) // 2])
    assert cli.main(args) == 3
    assert "data error" in capsys.readouterr().err


def test_unknown_strategy_exits_2_without_partial_run_dir(ws, capsys):
    bad = _variant(ws, "warp", "strategy = stella", "strategy = warp")
    code = cli.main(["run", "--config", str(bad), "--data", str(ws / "data"),
                     "--out", str(ws / "run_warp")])
    assert code == 2
    assert not (ws / "run_warp").exists()
    assert "unknown strategy" in capsys.readouterr().err


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


def test_missing_manifest_exits_3(ws, tmp_path):
    code = cli.main(["run", "--config", str(ws / "cfg.ini"),
                     "--data", str(tmp_path), "--out", str(tmp_path / "run")])
    assert code == 3


def test_config_data_mismatch_exits_2(ws):
    bad = _variant(ws, "tasks3", "num_tasks = 2", "num_tasks = 3")
    code = cli.main(["run", "--config", str(bad), "--data", str(ws / "data"),
                     "--out", str(ws / "run_mismatch")])
    assert code == 2
    assert not (ws / "run_mismatch").exists()


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


# ---------------------------------------------------------------------------
# export-attention


def test_export_attention_round_trips(ws):
    out = ws / "maps.csv"
    code = cli.main(["export-attention", "--config", str(ws / "cfg.ini"),
                     "--data", str(ws / "data"),
                     "--ckpt", str(ws / "run_stella" / "task_01.ckpt"),
                     "--out", str(out), "--rows", "3"])
    assert code == 0
    probs = ev.import_attention(out)
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
    assert ev.import_attention(out).shape == (2, 16, 8)


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
