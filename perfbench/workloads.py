"""Workloads, the timed loop and the end-to-end and per-layer figures.

A run repeats iterations until the time budget is spent: each sets up
(generates the task sequence) and then runs the workload's timed
operations.  Afterwards the pinned reference run is checked against the
fingerprint.  Every timed operation is followed, outside its timing, by its
correctness checks and the grad-mode probe; a failure counts against the
run and the loop carries on.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from avcl import backbone as bb
from avcl import data as dt
from avcl import memory as rm
from avcl import trainer as tr

import checks
import layers
from tracer import Instrumentation, Tracer, aggregate

MODEL = bb.BackboneConfig()
BATCH = 8
RESUMES = 3  # resumes after each run on the training workloads
CYCLES = 3  # resume / evaluate / save cycles after each run on ckpt_eval


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    capacity: int
    tasks: int
    train_pairs: int
    eval_pairs: int
    reference: str  # workload whose pinned run the fingerprint holds

    @property
    def trains(self) -> bool:
        """False for ckpt_eval, whose runs only fill the memory for its
        resume / evaluate / save cycles."""
        return self.name != "ckpt_eval"

    def data_config(self, seed: int) -> dt.DataConfig:
        return dt.DataConfig(num_tasks=self.tasks, train_pairs=self.train_pairs,
                             eval_pairs=self.eval_pairs, seed=seed)

    def train_config(self, seed: int) -> tr.TrainConfig:
        extra = {"alpha": 0.5}
        if self.strategy == "stella":
            extra.update(beta=0.4, rho_audio=0.5, rho_video=0.5, chunk_size=4)
        return tr.TrainConfig(self.strategy, batch=BATCH, epochs=1,
                              memory_capacity=self.capacity, train_seed=seed,
                              **extra)


WORKLOADS = {w.name: w for w in (
    Workload("derpp_full", "derpp", 32, 2, 48, 32, "derpp_full"),
    Workload("stella_select", "stella", 32, 2, 48, 32, "stella_select"),
    # 2 tasks x 128 pairs, one epoch at batch 8: 32 steps insert 256 pairs,
    # exactly filling the 256-entry memory
    Workload("ckpt_eval", "stella", 256, 2, 128, 64, "stella_select"),
)}

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("train_pairs_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("eval_pairs_per_s", "1/s"),
    ("resume_ms_mean", "ms"),
    ("ckpt_save_ms_mean", "ms"),
    ("ckpt_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("avg_acc", "%"),
)


def ckpt_bytes(run_dir: Path) -> int:
    """Latest task checkpoint plus the memory snapshot written beside it."""
    latest = sorted(run_dir.glob("task_*.ckpt"))[-1]
    snapshot = run_dir / f"memory_{latest.stem}.bin"
    return latest.stat().st_size + (snapshot.stat().st_size if snapshot.exists() else 0)


def _backbone_copy(run) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in run.state.named_arrays().items()}


class Session:
    """One benchmark process: its tracer, operations and failure count."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.w = workload
        self.seed = seed
        self.work = work_dir
        self.tracer = Tracer()
        self.kinds: list[str] = []  # kind of each operation, by identifier
        self.attempted = 0
        self.failed = 0
        self.last_run = None
        self.last_bytes = 0
        self.geom = None
        self.tasks = None

    # -- bookkeeping ---------------------------------------------------

    def _fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        print(f"FAILED {what}: {exc!r}", file=sys.stderr)
        if not isinstance(exc, checks.CheckFailed):
            traceback.print_exception(exc, file=sys.stderr)

    def op(self, kind: str, fn, check=None):
        """One timed operation, then (untimed) its check and the grad probe.
        Returns the operation's result, or None if it raised."""
        self.attempted += 1
        self.tracer.op = len(self.kinds)
        self.kinds.append(kind)
        result = None
        try:
            with self.tracer.span(kind):
                result = fn()
        except Exception as exc:  # counted, reported, and the loop goes on
            self._fail(kind, exc)
            return None
        finally:
            self.tracer.op = -1
        try:
            if check is not None:
                check(result)
            checks.grad_mode_on()
        except Exception as exc:
            self._fail(f"check after {kind}", exc)
        return result

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        with self.tracer.span("setup"):
            dcfg = self.w.data_config(self.seed)
            self.tasks = dt.build_sequence(dcfg)
            self.geom = dcfg.geometry

    # -- timed work ------------------------------------------------------

    def _check_run(self, result) -> None:
        run, acc, _ = result
        checks.losses_finite(run.records)
        checks.acc_matrix_valid(acc)
        if len(acc) != len(self.tasks):
            raise checks.CheckFailed("accuracy matrix misses tasks")

    def iteration(self, i: int) -> None:
        """A set-up, one ``run_sequence`` from an empty run directory, then
        the workload's operations on the finished directory.  Setting up in
        every iteration spreads the set-up samples over the whole run, as
        the timed samples are; the seeded data come out the same each time."""
        self.setup()
        tcfg = self.w.train_config(self.seed)
        run_dir = self.work / f"run_{i}"

        def sequence():
            return tr.run_sequence(self.tasks, self.geom, MODEL, tcfg, run_dir)

        def check_fill(result):
            self._check_run(result)
            if len(result[0].mem) != self.w.capacity:
                raise checks.CheckFailed("the run did not fill the rehearsal memory")

        out = self.op("run", sequence, self._check_run if self.w.trains else check_fill)
        if out is not None:
            run, acc, gaps = out
            step, arrays = run.global_step, _backbone_copy(run)
            if self.w.trains:
                for _ in range(RESUMES):
                    self.op("resume", sequence,
                            lambda r: checks.same_run(step, arrays, r[0]))
            else:
                reports = tr.reports_from_json((run_dir / "retrieval.json").read_text())
                for _ in range(CYCLES):
                    run = self._ckpt_cycle(sequence, run, step, arrays, acc, gaps,
                                           reports, run_dir)
            self.last_run = run
            self.last_bytes = ckpt_bytes(run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)

    def _ckpt_cycle(self, sequence, run, step, arrays, acc, gaps, reports, run_dir):
        """Resume the finished directory, evaluate every task, save; the
        next resume loads what this save wrote."""
        out = self.op("resume", sequence,
                      lambda r: checks.same_run(step, arrays, r[0]))
        restored = run if out is None else out[0]
        upto = len(self.tasks) - 1

        def same_row(result):
            row = result[0]
            checks.acc_row_valid(row, upto + 1)
            if row != acc[-1]:
                raise checks.CheckFailed("evaluation of the resumed run differs "
                                         "from the row the run recorded")

        # Serial on purpose: evaluate_tasks with workers > 1 toggles the
        # process-wide grad flag from several threads, which can leave it
        # off for good; the tracer also assumes a single thread.
        self.op("evaluate",
                lambda: tr.evaluate_tasks(restored.state, self.tasks, upto,
                                          self.geom, workers=1),
                same_row)
        self.op("save",
                lambda: tr.save_task_artifacts(restored, run_dir, upto + 1,
                                               acc, gaps, reports))
        return restored

    def loop(self, seconds: float) -> range:
        """Whole iterations (at least one) for about ``seconds``: the loop
        stops once the remaining budget is under half the last iteration.
        Returns the operation identifiers used."""
        first = len(self.kinds)
        start = last = time.perf_counter()
        i = 0
        while True:
            self.iteration(i)
            i += 1
            now = time.perf_counter()
            if seconds - (now - start) < (now - last) / 2:
                return range(first, len(self.kinds))
            last = now

    def unit_ops(self, ops: range) -> set[int]:
        """Operations the per-layer figures cover: all of them on the
        training workloads, the resume / evaluate / save cycle on
        ckpt_eval, whose runs only prepare it."""
        return {op for op in ops if self.w.trains or self.kinds[op] != "run"}

    # -- reference run -----------------------------------------------------

    def reference(self) -> float:
        """Pinned-seed run of the reference workload: checks its losses
        against the fingerprint and returns its average accuracy A."""
        ref = WORKLOADS[self.w.reference]
        seed = checks.FINGERPRINT_SEED
        self.attempted += 1
        acc = 0.0  # stays 0 only when the run failed, which is counted
        try:
            dcfg = ref.data_config(seed)
            run, matrix, _ = tr.run_sequence(dt.build_sequence(dcfg), dcfg.geometry,
                                             MODEL, ref.train_config(seed))
            acc = float(np.mean(matrix[-1]))
            checks.fingerprint_matches(ref.name, run.records)
        except Exception as exc:
            self._fail("fingerprint", exc)
        return acc


def _durations(spans, name, ops=None) -> list[float]:
    return [s.duration for s in spans
            if s.name == name and (ops is None or s.op in ops)]


def _or_zero(fn, values) -> float:
    """``fn(values)``, or 0 when failed operations left no samples; the
    failures themselves make the run incorrect."""
    return fn(values) if values else 0.0


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(s: Session, avg_acc: float) -> tuple[dict, dict]:
    """Metrics and their sample counts from an untraced run."""
    spans = s.tracer.spans
    steps = _durations(spans, "trainer.train_step")
    evals = _durations(spans, "trainer.evaluate_tasks")
    eval_pairs = sum(v for (name, _), v in s.tracer.counts.items() if name == "eval_pairs")
    samples = {
        "setup_s": _durations(spans, "setup"),
        "run_s": _durations(spans, "run"),
        "step_ms": steps,
        "resume_ms": _durations(spans, "resume"),
        "ckpt_save_ms": _durations(spans, "trainer.save_task_artifacts"),
    }
    # Means, not medians, for the whole runs, resumes and saves: this
    # machine's speed drifts by up to 40 % over tens of seconds, and a
    # median snaps to one speed or the other where a mean moves in
    # proportion (see README, Steadiness).
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "run_s": _or_zero(statistics.fmean, samples["run_s"]),
        "train_pairs_per_s": _or_zero(lambda v: BATCH * len(v) / sum(v), steps),
        "step_ms_p50": 1e3 * _or_zero(statistics.median, steps),
        "step_ms_p90": 1e3 * _or_zero(_p90, steps),
        "eval_pairs_per_s": _or_zero(lambda v: eval_pairs / sum(v), evals),
        "resume_ms_mean": 1e3 * _or_zero(statistics.fmean, samples["resume_ms"]),
        "ckpt_save_ms_mean": 1e3 * _or_zero(statistics.fmean, samples["ckpt_save_ms"]),
        "ckpt_bytes": float(s.last_bytes),
        "peak_rss_mb": _peak_rss_mb(),
        "avg_acc": avg_acc,
    }
    counts = {name: len(v) for name, v in samples.items()}
    counts["eval_pairs"] = int(eval_pairs)
    return metrics, counts


def _units(s: Session, ops: set[int]) -> int:
    if s.w.trains:
        return len(_durations(s.tracer.spans, "trainer.train_step", ops))
    return len(ops)


def _wall(s: Session, ops: set[int]) -> float:
    return sum(sp.duration for sp in s.tracer.spans
               if sp.parent == -1 and sp.op in ops)


def per_layer(s: Session, untraced: range, traced: range,
              traced_from: float) -> tuple[dict, dict]:
    """Per-unit figures of the traced operations, and the tracing overhead
    against the untraced operations of the same run.  Set-ups are counted
    from ``traced_from`` on, when tracing began."""
    spans = s.tracer.spans
    untraced, traced = s.unit_ops(untraced), s.unit_ops(traced)
    units = max(_units(s, traced), 1)  # 0 only if every operation failed
    base_units = max(_units(s, untraced), 1)
    per_unit = _wall(s, traced) / units
    base_per_unit = _wall(s, untraced) / base_units
    counts = {}
    for (name, op), value in s.tracer.counts.items():
        if op in traced:
            counts[name] = counts.get(name, 0.0) + value
    gauges = {
        "memory.bytes": float(rm.memory_bytes(s.last_run.mem)),
        "trace.overhead_ms": 1e3 * (per_unit - base_per_unit),
        "trace.overhead_pct": 100.0 * (per_unit - base_per_unit) / base_per_unit,
        "trace.spans": sum(1 for sp in spans if sp.op in traced) / units,
    }
    def in_setup(sp) -> bool:
        return sp.op == -1 and sp.start >= traced_from

    setups = sum(1 for sp in spans if sp.name == "setup" and in_setup(sp))
    metrics = layers.per_layer_metrics(
        aggregate(spans, lambda sp: sp.op in traced), aggregate(spans, in_setup),
        counts, units, max(setups, 1), gauges)
    info = {"units": units, "unit": "train step" if s.w.trains else "operation",
            "untraced_units": base_units,
            "untraced_ms_per_unit": 1e3 * base_per_unit,
            "traced_ms_per_unit": 1e3 * per_unit}
    return metrics, info


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> dict:
    s = Session(workload, seed, work_dir)
    probes = layers.targets(layers.PROBES)
    if not trace:
        with Instrumentation(s.tracer, probes, layers.PACKAGE):
            s.loop(seconds)
        avg_acc = s.reference()
        metrics, info = end_to_end(s, avg_acc)
    else:
        with Instrumentation(s.tracer, probes, layers.PACKAGE):
            untraced = s.loop(seconds / 2)
        traced_from = time.perf_counter()
        with Instrumentation(s.tracer, layers.targets(), layers.PACKAGE):
            traced = s.loop(seconds / 2)
        s.reference()
        metrics, info = per_layer(s, untraced, traced, traced_from)
    info["error_rate"] = s.failed / s.attempted
    return {"correct": s.failed == 0, "attempted": s.attempted,
            "failed": s.failed, "metrics": metrics, "info": info}
