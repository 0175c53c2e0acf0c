"""Command-line front end: dataset generation, training runs, evaluation,
cross-run reports and attention export.

Subcommands::

    avcl generate-data --config run.ini --out data/
    avcl run           --config run.ini --data data/ --out runs/s0 [--eval-workers N]
    avcl eval          --config run.ini --data data/ --ckpt runs/s0/task_03.ckpt
    avcl report        runs/* [--out report.csv]
    avcl export-attention --config run.ini --data data/ --ckpt ... --out maps.csv

A dataset directory holds ``config.ini`` (the resolved configuration; its
``[data]`` section is the one description of the data), one ``task_XX.bin``
per task (a checkpoint container of the ten ``{train,eval}/<field>`` split
tensors and nothing else) and ``manifest.json`` (``format`` 2, the task file
names in task order, and the SHA-256 of ``config.ini`` and of each task
file).  Each file is replaced atomically and the manifest is written last; a
dataset is read only through it, so an interrupted ``generate-data`` leaves
nothing that loads as data.  ``run``, ``eval`` and ``export-attention`` check
the format, then the hashes, then that their ``[data]`` equals the dataset's,
and only then parse the task files.

A run directory holds ``config.ini`` (the resolved configuration), and after
every completed task ``task_XX.ckpt`` (one flat tensor of parameter values
and the optimizer moments per module, rehearsal memory, loss records,
accuracy rows and gaps in one container; see ``trainer._checkpoint_layout``)
with ``task_XX.rng.json`` (per random
stream, the state and spawn count; ``train_seed`` rebuilds the rest) beside
it; ``losses.csv``, ``acc_matrix.csv``, ``gaps.csv`` and ``retrieval.json``
are rewritten as tasks complete.  Each file is replaced atomically and
``task_XX.rng.json`` is written last, so a task without it is redone on
resume.  The step count is the number of loss records.  ``run`` ends by
printing ``A``, with two or more tasks ``F`` and ``gap decline`` (the mean
per-task drop of the modality gap), and ``memory bytes`` (the stored size
of the final rehearsal memory).

``eval`` and ``export-attention`` read a checkpoint as resume does, with
one reader: every tensor (model, optimizer moments, rehearsal memory, loss
records, accuracy rows and gaps) is checked against the whole
configuration, so ``[model]`` and the ``[train]`` ``strategy``, ``epochs``,
``batch`` and memory knobs must be the run's.  The checkpoint's gaps count
the tasks it finished, at least one and at most ``[data] num_tasks``.  The
``--out`` files of ``eval``, ``report`` and ``export-attention`` are
replaced atomically too, so a failed write leaves no partial output.

Exit codes:

- 0 success;
- 2 configuration or usage error: an out-of-range ``[data]``, ``[model]``,
  ``[train]`` or ``[eval]`` value (such as a zero patch size or head count,
  a ``correlation`` outside [0, 1] or a ``[train] batch`` below 2), a
  ``[data]`` section that differs from the dataset's ``config.ini``,
  and, each checked before any checkpoint or task file is read,
  ``export-attention`` under a strategy that does not score, ``--rows``
  or ``--eval-workers`` below 1 and a ``--task`` outside
  [0, ``[data] num_tasks``);
- 3 data error:

  - a missing, truncated, modified or unreadable file, or a format-1
    dataset, which must be regenerated;
  - the one layout rule, ``checkpoint.check_layout``, on every tensor
    container read (task files, and checkpoints for resume, ``eval`` and
    ``export-attention``): exactly the tensors the configuration lays out,
    each at its shape, all finite.  A checkpoint past the dataset's tasks
    (by its file name for resume, by its gaps otherwise) is refused before
    any layout is built.  A checkpoint of another model or strategy
    breaks the rule: a module's values are named after its parameters'
    names and shapes, so even a model of as many values in another
    arrangement does.  So does one older than the flat parameter layout
    (one tensor per parameter) or the flat moment layout, which is named
    as such and must be started again.  A non-finite task-file value is a
    data error (3), not a numeric divergence (4);
  - the semantic checks: task-file truth masks in {0, 1} and class ids of
    the task; accuracy values in [0, 100]; a rehearsal memory of the
    configured capacity, holding exactly the smaller of it and the seen
    count of entries, integer insertion steps and source tasks, and in each entry distinct
    grid ids of its grid; a well-formed random-stream file; and for
    ``report`` an ``acc_matrix.csv`` and ``retrieval.json`` that are well
    formed, agree on the task count and hold every configured cutoff;

- 4 numeric divergence in training or in the attention maps of
  ``export-attention``.

A run aborted by a config or data error never leaves a partial run
directory; an interrupted training run resumes from its last
completed task.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
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
_FORMAT = 2  # task files hold only tensors; config.ini is hashed


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
        dt.write_task_file(out / name, task)
        names.append(name)
    cf.save_config(out / _CONFIG, cfg)
    # the manifest goes last: until it lists a file, the file is not read
    manifest = {"format": _FORMAT, "tasks": names,
                "sha256": {n: _sha256(out / n) for n in [_CONFIG] + names}}
    with ckpt.atomic_open(out / _MANIFEST) as fh:
        fh.write(json.dumps(manifest, indent=1))
    print(f"wrote {len(names)} task files to {out}")
    return 0


def load_tasks(data_dir, dcfg: dt.DataConfig) -> list[dt.TaskData]:
    """Read the dataset in ``data_dir``, which must have been generated from
    ``dcfg``.  The manifest format, then the hashes of ``config.ini`` and the
    task files, then ``config.ini``'s ``[data]`` are checked before any task
    file is parsed."""
    data_dir = Path(data_dir)
    mpath = data_dir / _MANIFEST
    if not mpath.is_file():
        raise dt.DataError(f"no {_MANIFEST} in {data_dir}")
    try:
        manifest = json.loads(mpath.read_text())
        fmt = manifest["format"]
        names = list(manifest["tasks"])
        hashes = dict(manifest["sha256"])
    except (ValueError, KeyError, TypeError) as exc:
        raise dt.DataError(f"malformed {_MANIFEST}: {exc}") from None
    if fmt != _FORMAT:
        raise dt.DataError(f"{data_dir} holds a format-{fmt} dataset; "
                           "regenerate it with generate-data")
    if not all(isinstance(name, str) for name in names):
        raise dt.DataError(f"malformed {_MANIFEST}: task names must be strings")
    for name in [_CONFIG] + names:
        path = data_dir / name
        if not path.is_file():
            raise dt.DataError(f"data file {name} is missing")
        if _sha256(path) != hashes.get(name):
            raise dt.DataError(f"data file {name} does not match its manifest "
                               "hash (modified or truncated)")
    ours, theirs = asdict(dcfg), asdict(cf.load_config(data_dir / _CONFIG).data)
    differ = [key for key in ours if ours[key] != theirs[key]]
    if differ:
        raise cf.ConfigError(f"[data] differs from the dataset's "
                             f"{data_dir / _CONFIG} in {', '.join(differ)}")
    specs = dt.build_task_specs(dcfg)
    if names != [_task_name(spec.task_id) for spec in specs]:
        raise dt.DataError(f"{_MANIFEST} does not list the {len(specs)} task "
                           f"files its {_CONFIG} describes")
    return [dt.read_task_file(data_dir / name, dcfg, spec)
            for name, spec in zip(names, specs)]


# ---------------------------------------------------------------------------
# training


def _check_at_least_one(value: int, flag: str) -> None:
    if value < 1:
        raise cf.ConfigError(f"{flag} must be at least 1, got {value}")


def cmd_run(args) -> int:
    _check_at_least_one(args.eval_workers, "--eval-workers")
    cfg = cf.load_config(args.config)
    tasks = load_tasks(args.data, cfg.data)
    run_dir = Path(args.out)
    resolved = cf.render_config(cfg)
    existing = run_dir / _CONFIG
    if existing.is_file() and existing.read_text() != resolved:
        raise cf.ConfigError(f"{run_dir} was created with a different "
                             "configuration; refusing to resume with this one")
    run_dir.mkdir(parents=True, exist_ok=True)
    with ckpt.atomic_open(existing) as fh:
        fh.write(resolved)
    run, acc, gaps = tr.run_sequence(tasks, cfg.data.geometry, cfg.model,
                                     cfg.train, run_dir, eval_ks=cfg.eval.ks,
                                     eval_workers=args.eval_workers)
    print(f"strategy={cfg.train.strategy} seed={cfg.train.train_seed} "
          f"tasks={len(tasks)} steps={run.global_step}")
    print(f"A = {ev.average_accuracy(acc):.6g}")
    if len(acc) > 1:
        print(f"F = {ev.average_forgetting(acc):.6g}")
        print(f"gap decline = {ev.mean_gap_decline(gaps):.6g}")
    print(f"memory bytes = {rm.memory_bytes(run.mem)}")
    return 0


# ---------------------------------------------------------------------------
# checkpoint evaluation


def _load_model(args, cfg):
    """Tasks, backbone and matching module (None unless the strategy
    scores) of ``--data`` and ``--ckpt``.  The checkpoint is read as resume
    reads it (:func:`trainer._restore_run`), against the whole
    configuration and before any task file: its gaps give the tasks it
    finished, the configuration the steps they took."""
    arrays = ckpt.load(args.ckpt)
    # one gap per finished task; a missing run/gaps counts none
    tasks_done = np.size(arrays.get("run/gaps", ()))
    if not 1 <= tasks_done <= cfg.data.num_tasks:
        raise ckpt.CheckpointError(
            f"checkpoint tensor 'run/gaps' holds {tasks_done} gaps: a run of "
            f"{cfg.data.num_tasks} tasks finishes 1 to {cfg.data.num_tasks}")
    steps = tr._steps_through(cfg.train, [cfg.data.train_pairs] * tasks_done)
    fields, _, _ = tr._restore_run(arrays, tasks_done, steps, cfg.model,
                                   cfg.train, cfg.data.geometry)
    return load_tasks(args.data, cfg.data), fields["state"], fields["avm"]


def cmd_eval(args) -> int:
    _check_at_least_one(args.eval_workers, "--eval-workers")
    cfg = cf.load_config(args.config)
    tasks, state, _ = _load_model(args, cfg)
    row, gap, reports = tr.evaluate_tasks(state, tasks, len(tasks) - 1,
                                          cfg.data.geometry, cfg.eval.ks,
                                          workers=args.eval_workers)
    blob = {"checkpoint": str(args.ckpt), "first_task_gap": gap, "tasks": []}
    for t, (headline, rep) in enumerate(zip(row, reports)):
        blob["tasks"].append({
            "task": t, "pairs": rep.size, "headline": headline,
            "audio_to_video": rep.audio_to_video, "video_to_audio": rep.video_to_audio})
    text = json.dumps(blob, indent=1)
    if args.out:
        with ckpt.atomic_open(args.out) as fh:
            fh.write(text)
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# cross-run report


def _read_run_dir(path: Path):
    """Strategy, cutoffs and the run's value of each report column in order."""
    for name in (_CONFIG, "acc_matrix.csv", "retrieval.json"):
        if not (path / name).is_file():
            raise dt.DataError(f"{path} is not a finished run directory "
                               f"(missing {name})")
    cfg = cf.load_config(path / _CONFIG)
    acc = tr.read_acc_csv(path / "acc_matrix.csv")
    reports = tr.reports_from_json((path / "retrieval.json").read_text())
    if len(reports) != len(acc):
        raise dt.DataError(f"{path} has {len(reports)} task reports for {len(acc)} tasks")
    metrics = [ev.average_accuracy(acc),
               ev.average_forgetting(acc) if len(acc) > 1 else float("nan")]
    for direction in ("audio_to_video", "video_to_audio"):
        for k in cfg.eval.ks:
            if any(k not in getattr(rep, direction) for rep in reports):
                raise dt.DataError(f"{path / 'retrieval.json'} lacks the "
                                   f"{direction} cutoff {k} of a task")
            metrics.append(float(np.mean([getattr(rep, direction)[k]
                                          for rep in reports])))
    return cfg.train.strategy, cfg.eval.ks, metrics


def cmd_report(args) -> int:
    rows = [_read_run_dir(Path(p)) for p in args.run_dirs]
    ks = rows[0][1]
    if any(r[1] != ks for r in rows):
        raise dt.DataError("run directories use different retrieval cutoffs")
    by_strategy: dict[str, list] = {}
    for strategy, _, metrics in rows:
        by_strategy.setdefault(strategy, []).append(metrics)
    names = ["avg_acc", "forgetting"] + [f"{t}@{k}" for t in ("a2v", "v2a") for k in ks]
    header = ["strategy", "runs"] + [f"{n}_{s}" for n in names for s in ("mean", "std")]
    table = []
    for strategy, runs in by_strategy.items():
        row = [strategy, len(runs)]
        for column in zip(*runs):
            vals = np.array(column)
            row += [float(vals.mean()), float(vals.std())]
        table.append(row)
    table.sort(key=lambda r: -r[2])  # stable: ties keep first-seen order
    lines = [",".join(header)]
    for row in table:
        lines.append(",".join(row[:1] + [str(row[1])] +
                              [f"{v:.6g}" for v in row[2:]]))
    text = "\n".join(lines) + "\n"
    if args.out:
        if args.out.endswith(".json"):
            text = json.dumps([dict(zip(header, row)) for row in table], indent=1)
        with ckpt.atomic_open(args.out) as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# attention export


def cmd_export_attention(args) -> int:
    _check_at_least_one(args.rows, "--rows")
    cfg = cf.load_config(args.config)
    if not cfg.train.row.attention:
        raise cf.ConfigError(f"strategy {cfg.train.strategy!r} sets no beta and "
                             "trains no matching module; attention export needs "
                             "a scoring strategy (stella/stella_plus)")
    if not 0 <= args.task < cfg.data.num_tasks:
        raise cf.ConfigError(f"--task must lie in [0, {cfg.data.num_tasks - 1}]")
    tasks, state, avm = _load_model(args, cfg)
    split = tasks[args.task].eval
    rows = min(args.rows, len(split))
    geom = cfg.data.geometry
    aps = dt.full_patchset(split.audio_patches[:rows], "audio", geom)
    vps = dt.full_patchset(split.video_patches[:rows], "video", geom)
    o_a, o_v, _, _ = am.fusion_tokens(state, aps, vps)
    maps = am.cross_attention(avm, o_a, o_v, cfg.train.beta)
    ev.export_attention(maps.audio_map if args.direction == "audio"
                        else maps.video_map, args.out)
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
    except (cf.ConfigError, tr.TrainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except tt.NumericError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 4
    except (dt.DataError, ckpt.CheckpointError, rm.RehearsalError, ev.EvalError,
            OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
