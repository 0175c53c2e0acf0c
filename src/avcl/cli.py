"""Command-line front end: dataset generation, training runs, evaluation,
cross-run reports and attention export.

Subcommands::

    avcl generate-data --config run.ini --out data/
    avcl run           --config run.ini --data data/ --out runs/s0 [--eval-workers N]
    avcl eval          --config run.ini --data data/ --ckpt runs/s0/task_03.ckpt
    avcl report        runs/* [--out report.csv]
    avcl export-attention --config run.ini --data data/ --ckpt ... --out maps.csv

A run directory holds ``config.ini`` (the resolved configuration), and after
every completed task ``task_XX.ckpt`` (model, optimizer state, rehearsal
memory and run progress in one container) with ``task_XX.rng.json`` (the
random-stream states) beside it; ``losses.csv``, ``acc_matrix.csv``,
``gaps.csv`` and ``retrieval.json`` are rewritten as tasks complete.

Exit codes: 0 success; 2 configuration or usage error; 3 data error (missing,
truncated, modified or unreadable files, including a checkpoint whose
rehearsal-memory snapshot is inconsistent or in an older format); 4 numeric
divergence during training.  A run aborted by a config or data error never
leaves a partial run directory; an interrupted training run resumes from its
last completed task.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import avcl.tensor as tt
from avcl import avm as am
from avcl import checkpoint as ckpt
from avcl import config as cf
from avcl import data as dt
from avcl import evaluate as ev
from avcl import memory as rm
from avcl import trainer as tr

_MANIFEST = "manifest.json"
_CONFIG = "config.ini"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# dataset directory


def _task_name(t: int) -> str:
    return f"task_{t:02d}.bin"


def cmd_generate(args) -> int:
    cfg = cf.load_config(args.config)
    tasks = dt.build_sequence(cfg.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for task in tasks:
        name = _task_name(task.spec.task_id)
        dt.write_task_file(out / name, task, cfg.data)
        names.append(name)
    manifest = {"format": 1, "tasks": names,
                "sha256": {n: _sha256(out / n) for n in names}}
    (out / _MANIFEST).write_text(json.dumps(manifest, indent=1))
    cf.save_config(out / _CONFIG, cfg)
    print(f"wrote {len(names)} task files to {out}")
    return 0


def load_tasks(data_dir) -> tuple[list[dt.TaskData], dt.SceneGeometry]:
    """Read a generated dataset, verifying the manifest hashes first."""
    data_dir = Path(data_dir)
    mpath = data_dir / _MANIFEST
    if not mpath.is_file():
        raise dt.DataError(f"no {_MANIFEST} in {data_dir}")
    try:
        manifest = json.loads(mpath.read_text())
        names = list(manifest["tasks"])
        hashes = dict(manifest["sha256"])
    except (ValueError, KeyError, TypeError) as exc:
        raise dt.DataError(f"malformed {_MANIFEST}: {exc}") from None
    tasks, geom = [], None
    for name in names:
        path = data_dir / name
        if not path.is_file():
            raise dt.DataError(f"data file {name} is missing")
        if _sha256(path) != hashes.get(name):
            raise dt.DataError(f"data file {name} does not match its manifest "
                               "hash (modified or truncated)")
        task, tgeom = dt.read_task_file(path)
        if geom is None:
            geom = tgeom
        elif tgeom != geom:
            raise dt.DataError(f"{name}: geometry differs from earlier tasks")
        tasks.append(task)
    if not tasks:
        raise dt.DataError("manifest lists no tasks")
    for pos, task in enumerate(tasks):
        if task.spec.task_id != pos:
            raise dt.DataError(f"task ids out of order at position {pos}")
    return tasks, geom


def _check_config_matches_data(cfg: cf.RunConfig, tasks, geom) -> None:
    d = cfg.data
    if len(tasks) != d.num_tasks:
        raise cf.ConfigError(f"config expects {d.num_tasks} tasks, data "
                             f"directory holds {len(tasks)}")
    if geom != d.geometry:
        raise cf.ConfigError("config geometry does not match the data files")
    for task in tasks:
        if len(task.train) != d.train_pairs or len(task.eval) != d.eval_pairs:
            raise cf.ConfigError(f"task {task.spec.task_id}: pair counts do "
                                 "not match the config")


# ---------------------------------------------------------------------------
# training


def cmd_run(args) -> int:
    cfg = cf.load_config(args.config)
    tasks, geom = load_tasks(args.data)
    _check_config_matches_data(cfg, tasks, geom)
    run_dir = Path(args.out)
    resolved = cf.render_config(cfg)
    existing = run_dir / _CONFIG
    if existing.is_file() and existing.read_text() != resolved:
        raise cf.ConfigError(f"{run_dir} was created with a different "
                             "configuration; refusing to resume with this one")
    run_dir.mkdir(parents=True, exist_ok=True)
    existing.write_text(resolved)
    run, acc, gaps = tr.run_sequence(tasks, geom, cfg.model, cfg.train,
                                     run_dir, eval_ks=cfg.eval.ks,
                                     eval_workers=args.eval_workers)
    print(f"strategy={cfg.train.strategy} seed={cfg.train.train_seed} "
          f"tasks={len(tasks)} steps={run.global_step}")
    print(f"A = {ev.average_accuracy(acc):.6g}")
    if len(acc) > 1:
        print(f"F = {ev.average_forgetting(acc):.6g}")
    return 0


# ---------------------------------------------------------------------------
# checkpoint evaluation


def _load_model(args, cfg):
    arrays = ckpt.load(args.ckpt)
    tasks, geom = load_tasks(args.data)
    _check_config_matches_data(cfg, tasks, geom)
    state = tr.backbone_from_arrays(arrays, cfg.model, geom)
    return arrays, tasks, geom, state


def cmd_eval(args) -> int:
    cfg = cf.load_config(args.config)
    _, tasks, geom, state = _load_model(args, cfg)
    row, gap, reports = tr.evaluate_tasks(state, tasks, len(tasks) - 1, geom,
                                          cfg.eval.ks,
                                          workers=args.eval_workers)
    blob = {"checkpoint": str(args.ckpt), "first_task_gap": gap, "tasks": []}
    for t, (headline, rep) in enumerate(zip(row, reports)):
        blob["tasks"].append({
            "task": t, "pairs": rep.size, "headline": headline,
            "audio_to_video": {str(k): v for k, v in rep.audio_to_video.items()},
            "video_to_audio": {str(k): v for k, v in rep.video_to_audio.items()}})
    text = json.dumps(blob, indent=1)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# cross-run report


def _read_run_dir(path: Path):
    for name in (_CONFIG, "acc_matrix.csv", "retrieval.json"):
        if not (path / name).is_file():
            raise dt.DataError(f"{path} is not a finished run directory "
                               f"(missing {name})")
    cfg = cf.load_config(path / _CONFIG)
    acc = tr.read_acc_csv(path / "acc_matrix.csv")
    reports = tr.reports_from_json((path / "retrieval.json").read_text())
    a = ev.average_accuracy(acc)
    f = ev.average_forgetting(acc) if len(acc) > 1 else float("nan")
    ks = cfg.eval.ks
    recalls = {}
    for direction in ("audio_to_video", "video_to_audio"):
        for k in ks:
            vals = [getattr(rep, direction)[k] for rep in reports]
            recalls[(direction, k)] = float(np.mean(vals))
    return cfg.train.strategy, ks, a, f, recalls


def cmd_report(args) -> int:
    rows = [_read_run_dir(Path(p)) for p in args.run_dirs]
    ks = rows[0][1]
    if any(r[1] != ks for r in rows):
        raise dt.DataError("run directories use different retrieval cutoffs")
    by_strategy: dict[str, list] = {}
    for strategy, _, a, f, recalls in rows:
        by_strategy.setdefault(strategy, []).append((a, f, recalls))
    header = ["strategy", "runs", "avg_acc_mean", "avg_acc_std",
              "forgetting_mean", "forgetting_std"]
    rec_cols = [(d, k) for d in ("audio_to_video", "video_to_audio") for k in ks]
    for d, k in rec_cols:
        tag = "a2v" if d == "audio_to_video" else "v2a"
        header += [f"{tag}@{k}_mean", f"{tag}@{k}_std"]
    table = []
    for strategy, runs in by_strategy.items():
        a_vals = np.array([r[0] for r in runs])
        f_vals = np.array([r[1] for r in runs])
        rec = {c: np.array([r[2][c] for r in runs]) for c in rec_cols}
        row = [strategy, len(runs),
               float(a_vals.mean()), float(a_vals.std()),
               float(f_vals.mean()), float(f_vals.std())]
        for c in rec_cols:
            row += [float(rec[c].mean()), float(rec[c].std())]
        table.append(row)
    table.sort(key=lambda r: -r[2])  # stable: ties keep first-seen order
    lines = [",".join(header)]
    for row in table:
        lines.append(",".join(row[:1] + [str(row[1])] +
                              [f"{v:.6g}" for v in row[2:]]))
    text = "\n".join(lines) + "\n"
    if args.out and str(args.out).endswith(".json"):
        blob = [dict(zip(header, row)) for row in table]
        Path(args.out).write_text(json.dumps(blob, indent=1))
    elif args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# attention export


def cmd_export_attention(args) -> int:
    cfg = cf.load_config(args.config)
    arrays, tasks, geom, state = _load_model(args, cfg)
    avm = tr.avm_from_arrays(arrays, cfg.model)
    if avm is None:
        raise cf.ConfigError("checkpoint holds no matching module; attention "
                             "export needs a scoring strategy (stella/stella_plus)")
    if not 0 <= args.task < len(tasks):
        raise cf.ConfigError(f"--task must lie in [0, {len(tasks) - 1}]")
    split = tasks[args.task].eval
    rows = min(args.rows, len(split))
    aps = dt.full_patchset(split.audio_patches[:rows], "audio", geom)
    vps = dt.full_patchset(split.video_patches[:rows], "video", geom)
    beta = cfg.train.beta if cfg.train.beta is not None else 1.0
    with tt.no_grad():
        o_a, o_v = am.fusion_tokens(state, aps, vps)
        maps = am.cross_attention(avm, o_a, o_v, beta=beta)
    logits = maps.audio_map if args.direction == "audio" else maps.video_map
    ev.export_attention(logits.data, args.out)
    print(f"wrote {args.direction} attention for {rows} pairs to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="avcl",
        description="continual audio-video pre-training on synthetic scenes")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="write the synthetic task files")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True, help="dataset directory")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="train one strategy over the task sequence")
    r.add_argument("--config", required=True)
    r.add_argument("--data", required=True, help="generated dataset directory")
    r.add_argument("--out", required=True, help="run directory (resumable)")
    r.add_argument("--eval-workers", type=int, default=1,
                   help="threads for the between-task evaluations")
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("eval", help="evaluate a checkpoint on every task")
    e.add_argument("--config", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--out", help="write the JSON report here instead of stdout")
    e.add_argument("--eval-workers", type=int, default=1)
    e.set_defaults(func=cmd_eval)

    rep = sub.add_parser("report", help="aggregate finished run directories")
    rep.add_argument("run_dirs", nargs="+")
    rep.add_argument("--out", help=".csv or .json output path (default: stdout)")
    rep.set_defaults(func=cmd_report)

    x = sub.add_parser("export-attention",
                       help="dump head-averaged cross-attention maps to CSV")
    x.add_argument("--config", required=True)
    x.add_argument("--data", required=True)
    x.add_argument("--ckpt", required=True)
    x.add_argument("--out", required=True)
    x.add_argument("--task", type=int, default=0)
    x.add_argument("--rows", type=int, default=8,
                   help="evaluation pairs to export (from the front)")
    x.add_argument("--direction", choices=("audio", "video"), default="audio",
                   help="audio: video queries over audio keys; video: reverse")
    x.set_defaults(func=cmd_export_attention)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cf.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (tr.DivergenceError, tt.NumericError) as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 4
    except tr.TrainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (dt.DataError, ckpt.CheckpointError, rm.RehearsalError, ev.EvalError,
            json.JSONDecodeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
