"""Continual pre-training loops over a task sequence.

Six strategies share one step pipeline:

* ``finetune``      — current batch only, no memory.
* ``er``            — rehearse full stored pairs alongside the current batch.
* ``derpp``         — ``er`` plus a feature-drift penalty on replayed rows.
* ``random_select`` — ``derpp`` with uniform-random patch selection (audio
                      kept in whole time chunks) on both current and replayed
                      batches.
* ``stella``        — attention-guided selection: importance from the
                      matching module's cross-attention, correlation against
                      stored past queries; the memory keeps full patch grids
                      with their queries and scores so replay re-runs the
                      same selection machinery.
* ``stella_plus``   — selection as ``stella`` but the memory keeps only the
                      selected patches and their queries; capacity grows to
                      fill the same patch byte budget and replayed entries
                      are used as-is.

Each strategy stores exactly the memory fields its replay reads (see
``_store_current``).

Training never reads task identity: the step API has no task argument, and
the only task-shaped value (``RunState.diagnostic_task``) is copied verbatim
into memory-entry metadata that no algorithm consumes.  Randomness is split
into six named streams (init / order / mask / selection / avm / memory) so
that degenerate configurations coincide bit-exactly with their simpler
counterparts: ``er`` with capacity 0 matches ``finetune``, ``derpp`` with
alpha 0 matches ``er``, and ``stella`` at sampling ratio 1 matches ``derpp``.
"""

from __future__ import annotations

import csv
import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import avcl.tensor as tt
from avcl import avm as am
from avcl import backbone as bb
from avcl import checkpoint as cp
from avcl import evaluate as ev
from avcl import memory as rm
from avcl import optim as op
from avcl import selection as sel
from avcl.data import PatchSet, SampleSet, SceneGeometry, TaskData, full_patchset, random_mask


class TrainError(ValueError):
    pass


class DivergenceError(TrainError):
    """A loss component left the finite range during training."""


STRATEGIES = ("finetune", "er", "derpp", "random_select", "stella", "stella_plus")
#: strategies whose objective carries the alpha-weighted feature penalty
PENALIZED = ("derpp", "random_select", "stella")
#: strategies that train on a selected patch subset
SELECTING = ("random_select", "stella", "stella_plus")
#: strategies that score patches with the matching module's attention
SCORING = ("stella", "stella_plus")

STREAM_NAMES = ("init", "order", "mask", "selection", "avm", "memory")


@dataclass(frozen=True)
class TrainConfig:
    """Continual-training knobs; model-shape knobs live on the model config.

    Strategy-specific fields are mandatory exactly where they are meaningful
    (``alpha`` for penalized strategies, ``beta`` for scoring ones, sampling
    ratios and the audio chunk length for selecting ones) and must be left
    unset everywhere else, so a configuration never silently carries dead
    hyperparameters.
    """

    strategy: str
    lr: float = 1e-4
    avm_lr: float | None = None  # defaults to lr
    batch: int = 8
    replay_batch: int | None = None  # defaults to batch
    epochs: int = 3
    memory_capacity: int = 64
    alpha: float | None = None
    beta: float | None = None
    rho_audio: float | None = None
    rho_video: float | None = None
    chunk_size: int | None = None
    train_seed: int = 0

    def __post_init__(self):
        s = self.strategy
        if s not in STRATEGIES:
            raise TrainError(f"unknown strategy {s!r}")
        if self.lr <= 0.0:
            raise TrainError("lr must be positive")
        if self.avm_lr is not None and self.avm_lr <= 0.0:
            raise TrainError("avm_lr must be positive")
        if self.batch < 1 or self.epochs < 1:
            raise TrainError("batch and epochs must be at least 1")
        if self.replay_batch is not None and self.replay_batch < 1:
            raise TrainError("replay_batch must be at least 1")
        if self.memory_capacity < 0:
            raise TrainError("memory_capacity must be non-negative")
        if s == "finetune" and self.memory_capacity != 0:
            raise TrainError("finetune keeps no memory; set memory_capacity=0")
        if s != "finetune" and self.memory_capacity == 0 and s != "er":
            # er with zero capacity is the documented finetune-degenerate case;
            # richer strategies with no memory are almost certainly a typo.
            raise TrainError(f"{s} needs a rehearsal memory (capacity > 0)")
        self._check_field("alpha", s in PENALIZED)
        self._check_field("beta", s in SCORING)
        for name in ("rho_audio", "rho_video", "chunk_size"):
            self._check_field(name, s in SELECTING)
        if self.alpha is not None and self.alpha < 0.0:
            raise TrainError("alpha must be non-negative")
        if self.beta is not None and self.beta <= 0.0:
            raise TrainError("beta must be positive")
        for rho in (self.rho_audio, self.rho_video):
            if rho is not None and not 0.0 < rho <= 1.0:
                raise TrainError("sampling ratios must lie in (0, 1]")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise TrainError("chunk_size must be at least 1")
        if s in SCORING and self.batch < 2:
            raise TrainError("matching-module training needs batch >= 2")

    def _check_field(self, name: str, wanted: bool) -> None:
        value = getattr(self, name)
        if wanted and value is None:
            raise TrainError(f"strategy {self.strategy!r} requires {name}")
        if not wanted and value is not None:
            raise TrainError(f"strategy {self.strategy!r} does not use {name}")

    @property
    def effective_avm_lr(self) -> float:
        return self.lr if self.avm_lr is None else self.avm_lr

    @property
    def effective_replay_batch(self) -> int:
        return self.batch if self.replay_batch is None else self.replay_batch


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Six independent generators; consumers never share a stream, so adding
    or removing one consumer cannot shift the draws seen by another."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: np.random.Generator(np.random.PCG64(ss))
            for name, ss in zip(STREAM_NAMES, children)}


@dataclass
class LossRecord:
    step: int
    recon: float
    contrast: float
    penalty: float
    avm: float
    total: float

    def row(self) -> list[float]:
        return [float(self.step), self.recon, self.contrast, self.penalty,
                self.avm, self.total]


@dataclass
class RunState:
    state: bb.BackboneState
    avm: am.AvmParams | None
    mem: rm.ReservoirMemory
    b_opt: op.Adam
    a_opt: op.Adam | None
    streams: dict[str, np.random.Generator]
    global_step: int = 0
    records: list[LossRecord] = field(default_factory=list)
    diagnostic_task: int = -1  # metadata only; no step logic reads it


def init_run(mcfg: bb.BackboneConfig, tcfg: TrainConfig,
             geom: SceneGeometry) -> RunState:
    """Fresh model, optimizers and memory.  The backbone always consumes the
    init stream first so its weights are identical across strategies."""
    streams = rng_streams(tcfg.train_seed)
    state = bb.init_backbone(mcfg, geom, streams["init"])
    avm_params = am.init_avm(mcfg, streams["init"]) if tcfg.strategy in SCORING else None
    capacity = tcfg.memory_capacity
    if tcfg.strategy == "stella_plus":
        capacity = rm.plus_capacity(
            tcfg.memory_capacity,
            geom.audio.patches, geom.audio.patch_dim,
            geom.video.patches, geom.video.patch_dim,
            sel.kappa(geom.audio.patches, tcfg.rho_audio),
            sel.kappa(geom.video.patches, tcfg.rho_video))
    return _run_state(state, avm_params, rm.ReservoirMemory(capacity), tcfg,
                      streams)


def _run_state(state: bb.BackboneState, avm: am.AvmParams | None,
               mem: rm.ReservoirMemory, tcfg: TrainConfig,
               streams: dict[str, np.random.Generator]) -> RunState:
    """Run state with fresh optimizers over the given parameters."""
    a_opt = None if avm is None else op.Adam(avm.params, lr=tcfg.effective_avm_lr)
    return RunState(state, avm, mem, op.Adam(state.params, lr=tcfg.lr), a_opt,
                    streams)


# --------------------------------------------------------------------------
# one training step


@dataclass
class _Scoring:
    imp_a: np.ndarray  # (B, M)
    imp_v: np.ndarray  # (B, N)
    kap_a: int
    kap_v: int
    loc_a: sel.LocalizedQueries | None  # None for uniform (unscored) selection
    loc_v: sel.LocalizedQueries | None
    corr_a: np.ndarray | None  # (B, kap_a) or None before any replay exists
    corr_v: np.ndarray | None


def _uniform(rows: int, m: int, n: int, kap_a: int, kap_v: int) -> _Scoring:
    """Uniform importance and no correlation: ``random_select`` scoring."""
    return _Scoring(np.full((rows, m), 1.0 / m), np.full((rows, n), 1.0 / n),
                    kap_a, kap_v, None, None, None, None)


def _score_batch(run: RunState, tcfg: TrainConfig, aps: PatchSet,
                 vps: PatchSet, replay: dict[str, np.ndarray] | None
                 ) -> _Scoring:
    """Importance and correlation for the current batch.

    Scoring strategies read both off the matching module's cross-attention;
    ``random_select`` uses uniform importance through the same downstream
    machinery and never consults attention or memory.
    """
    b, m = aps.patches.shape[0], aps.count
    n = vps.count
    kap_a = sel.kappa(m, tcfg.rho_audio)
    kap_v = sel.kappa(n, tcfg.rho_video)
    if tcfg.strategy not in SCORING:
        return _uniform(b, m, n, kap_a, kap_v)
    with tt.no_grad():
        o_a, o_v = am.fusion_tokens(run.state, aps, vps)
        maps = am.cross_attention(run.avm, o_a, o_v, beta=tcfg.beta)
        imp_a, imp_v = sel.importance_scores(maps.audio_map.data,
                                             maps.video_map.data)
        loc_a = sel.gather_localized(maps.q_audio.data, maps.k_audio.data, imp_a, kap_a)
        loc_v = sel.gather_localized(maps.q_video.data, maps.k_video.data, imp_v, kap_v)
    corr_a = corr_v = None
    if replay is not None:
        # Each current row is paired with one stored entry (the replay draw is
        # already uniform with replacement); an audio patch is compared under
        # the video-side queries that attend it, and vice versa.
        pair = np.arange(b) % tcfg.effective_replay_batch
        corr_a = sel.correlation_scores(loc_a.keys, loc_v.pooled,
                                        replay["q_video"][pair], tcfg.beta)
        corr_v = sel.correlation_scores(loc_v.keys, loc_a.pooled,
                                        replay["q_audio"][pair], tcfg.beta)
    return _Scoring(imp_a, imp_v, kap_a, kap_v, loc_a, loc_v, corr_a, corr_v)


def _select_pair(scoring: _Scoring, aps: PatchSet, vps: PatchSet,
                 corr_a: np.ndarray | None, corr_v: np.ndarray | None,
                 chunk: int, rng: np.random.Generator
                 ) -> tuple[PatchSet, PatchSet]:
    """Audio then video selection on one (possibly replayed) pair batch."""
    sel_a, _ = sel.select_audio(scoring.imp_a, corr_a, scoring.kap_a,
                                chunk, aps.grid, rng)
    sel_v, _ = sel.select_video(scoring.imp_v, corr_v, scoring.kap_v, rng)
    return sel.gather_selected(aps, sel_a), sel.gather_selected(vps, sel_v)


def _past_patchsets(run: RunState, tcfg: TrainConfig,
                    replay: dict[str, np.ndarray], scoring: _Scoring,
                    aps: PatchSet, vps: PatchSet) -> tuple[PatchSet, PatchSet]:
    """Replayed batch in the same patch layout as the current one."""
    p_aps = PatchSet(replay["audio_patches"], replay["audio_indices"],
                     "audio", aps.grid, aps.patch)
    p_vps = PatchSet(replay["video_patches"], replay["video_indices"],
                     "video", vps.grid, vps.patch)
    if tcfg.strategy in ("er", "derpp"):
        return p_aps, p_vps
    if tcfg.strategy == "stella_plus":
        # entries already hold exactly the selected patches
        if p_aps.count != scoring.kap_a or p_vps.count != scoring.kap_v:
            raise TrainError("stored selected patch counts do not match the "
                             "current sampling ratios")
        return p_aps, p_vps
    if tcfg.strategy == "stella":
        # re-run selection on the stored full grids with the scores that were
        # frozen at insertion time
        past = _Scoring(replay["imp_audio"], replay["imp_video"],
                        scoring.kap_a, scoring.kap_v, None, None, None, None)
        corr_a, corr_v = replay["corr_audio"], replay["corr_video"]
    else:
        # random_select: fresh uniform re-selection of the stored full grids
        past = _uniform(len(p_aps.patches), p_aps.count, p_vps.count,
                        scoring.kap_a, scoring.kap_v)
        corr_a = corr_v = None
    return _select_pair(past, p_aps, p_vps, corr_a, corr_v, tcfg.chunk_size,
                        run.streams["selection"])


def _concat_sets(cur: PatchSet, past: PatchSet | None) -> PatchSet:
    if past is None:
        return cur
    if cur.count != past.count:
        raise TrainError("current and replayed patch counts disagree")
    return PatchSet(np.concatenate([cur.patches, past.patches], axis=0),
                    np.concatenate([cur.indices, past.indices], axis=0),
                    cur.modality, cur.grid, cur.patch)


def _store_current(run: RunState, tcfg: TrainConfig,
                   full: tuple[PatchSet, PatchSet],
                   trained: tuple[PatchSet, PatchSet], scoring: _Scoring | None,
                   feat_a: np.ndarray, feat_v: np.ndarray) -> None:
    """Insert the current batch into the reservoir (memory stream), keeping
    only the fields the strategy's replay reads: patches and grid ids (the
    selected subset for ``stella_plus``), the pooled features for the drift
    penalty, and the queries and selection scores for attention-guided
    selection.  Zero correlation stands for "no memory yet", exactly as
    selection treats a missing correlation."""
    a, v = trained if tcfg.strategy == "stella_plus" else full
    batch = {"audio_patches": a.patches, "audio_indices": a.indices,
             "video_patches": v.patches, "video_indices": v.indices}
    if tcfg.strategy in PENALIZED:
        batch.update(feat_audio=feat_a, feat_video=feat_v)
    if tcfg.strategy in SCORING:
        batch.update(q_audio=scoring.loc_a.pooled, q_video=scoring.loc_v.pooled)
    if tcfg.strategy == "stella":
        b = len(a.patches)
        batch.update(
            imp_audio=scoring.imp_a, imp_video=scoring.imp_v,
            corr_audio=(np.zeros((b, scoring.kap_a)) if scoring.corr_a is None
                        else scoring.corr_a),
            corr_video=(np.zeros((b, scoring.kap_v)) if scoring.corr_v is None
                        else scoring.corr_v))
    rm.reservoir_insert(run.mem, batch, run.global_step, run.diagnostic_task,
                        run.streams["memory"])


def train_step(run: RunState, mcfg: bb.BackboneConfig, tcfg: TrainConfig,
               aps: PatchSet, vps: PatchSet) -> LossRecord:
    """One continual pre-training update on a current batch of paired clips.

    Order of operations (scoring strategies; others skip what they lack):
    attention scoring -> replay draw -> correlation against stored queries ->
    current selection -> replay selection -> joint masked forward and losses
    -> memory insertion -> matching-module update -> backbone update.  Memory
    insertion precedes both updates, so stored features reflect the weights
    that produced the losses; the matching-module update precedes the
    backbone backward pass, which keeps its gradient-isolation assertion
    meaningful.
    """
    b = aps.patches.shape[0]

    replay = None
    if tcfg.strategy != "finetune" and len(run.mem) > 0:
        replay = rm.sample_replay(run.mem, tcfg.effective_replay_batch,
                                  run.streams["memory"])

    scoring = None
    cur_aps, cur_vps = aps, vps
    past_aps = past_vps = None
    if tcfg.strategy in SELECTING:
        scoring = _score_batch(run, tcfg, aps, vps, replay)
        cur_aps, cur_vps = _select_pair(
            scoring, aps, vps, scoring.corr_a, scoring.corr_v,
            tcfg.chunk_size, run.streams["selection"])
    if replay is not None:
        past_aps, past_vps = _past_patchsets(run, tcfg, replay, scoring,
                                             aps, vps)

    cat_aps = _concat_sets(cur_aps, past_aps)
    cat_vps = _concat_sets(cur_vps, past_vps)
    nb = cat_aps.patches.shape[0]
    m_a = random_mask(run.streams["mask"], nb, cat_aps.count, mcfg.mask_prob)
    m_v = random_mask(run.streams["mask"], nb, cat_vps.count, mcfg.mask_prob)

    a_emb = bb.embed(cat_aps, run.state)
    v_emb = bb.embed(cat_vps, run.state)
    fwd = bb.forward_fused(run.state, a_emb, v_emb, m_a, m_v,
                           cat_aps.indices, cat_vps.indices)
    recon_a, recon_v = bb.decode(run.state, fwd.a_tilde, fwd.v_tilde)
    rec = bb.reconstruction_loss(recon_a, recon_v, cat_aps.patches,
                                 cat_vps.patches, m_a, m_v)
    c_a, c_v = bb.contrastive_features(run.state, fwd.enc_a, fwd.enc_v,
                                       m_a, m_v)
    con = bb.contrastive_loss(c_a, c_v, mcfg.temperature)

    penalty = None
    alpha_eff = tcfg.alpha if tcfg.strategy in PENALIZED else 0.0
    if alpha_eff and replay is not None:
        rb = tcfg.effective_replay_batch
        penalty = rm.der_penalty(tt.narrow(c_a, 0, b, rb),
                                 tt.narrow(c_v, 0, b, rb),
                                 replay["feat_audio"], replay["feat_video"])
    total = bb.pretrain_objective(rec, con, penalty,
                                  mcfg.contrastive_weight, alpha_eff)

    if tcfg.memory_capacity > 0:
        _store_current(run, tcfg, (aps, vps), (cur_aps, cur_vps), scoring,
                       c_a.data[:b], c_v.data[:b])

    avm_loss = 0.0
    if tcfg.strategy in SCORING:
        # runs before the backbone backward pass: backbone gradients are
        # still empty, so the isolation assertion inside is exact
        avm_loss = am.avm_train_step(run.avm, run.state, aps, vps,
                                     run.a_opt, run.streams["avm"])

    total.backward()
    run.b_opt.step()
    run.b_opt.zero_grad()

    record = LossRecord(run.global_step, float(rec.data), float(con.data),
                        0.0 if penalty is None else float(penalty.data),
                        avm_loss, float(total.data))
    for name, value in (("reconstruction", record.recon),
                        ("contrastive", record.contrast),
                        ("penalty", record.penalty),
                        ("matching", record.avm)):
        if not np.isfinite(value):
            raise DivergenceError(f"{name} loss diverged at step {record.step}")
    run.global_step += 1
    run.records.append(record)
    return record


# --------------------------------------------------------------------------
# evaluation between tasks


def eval_features(state: bb.BackboneState, samples: SampleSet,
                  geom: SceneGeometry, batch: int = 32
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Unmasked pooled contrastive features for a whole evaluation set."""
    feats_a, feats_v = [], []
    n = samples.audio_patches.shape[0]
    with tt.no_grad():
        for lo in range(0, n, batch):
            hi = min(lo + batch, n)
            aps = full_patchset(samples.audio_patches[lo:hi], "audio", geom)
            vps = full_patchset(samples.video_patches[lo:hi], "video", geom)
            fwd = bb.forward_fused(state, bb.embed(aps, state),
                                   bb.embed(vps, state), None, None)
            c_a, c_v = bb.contrastive_features(state, fwd.enc_a, fwd.enc_v,
                                               None, None)
            feats_a.append(c_a.data)
            feats_v.append(c_v.data)
    return np.concatenate(feats_a, axis=0), np.concatenate(feats_v, axis=0)


def evaluate_tasks(state: bb.BackboneState, tasks: list[TaskData],
                   upto: int, geom: SceneGeometry,
                   ks: tuple[int, ...] = (1, 5, 10), workers: int = 1
                   ) -> tuple[list[float], float, list[ev.RetrievalReport]]:
    """Retrieval headline on every task seen so far plus the modality gap on
    the first task's evaluation pairs; also returns the per-task reports.

    ``workers`` > 1 evaluates tasks on a thread pool; each task's numbers are
    computed independently, so the results are identical to the serial path.
    """
    def one(t: int) -> tuple[ev.RetrievalReport, float]:
        f_a, f_v = eval_features(state, tasks[t].eval, geom)
        report = ev.zero_shot_retrieval(f_a, f_v, ks)
        return report, ev.modality_gap(f_a, f_v) if t == 0 else 0.0

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(upto + 1)))
    else:
        results = [one(t) for t in range(upto + 1)]
    reports = [rep for rep, _ in results]
    return [rep.headline() for rep in reports], results[0][1], reports


def reports_to_json(reports: list[ev.RetrievalReport]) -> str:
    """Serialize per-task retrieval reports for the run directory."""
    blob = [{"size": r.size,
             "audio_to_video": {str(k): v for k, v in r.audio_to_video.items()},
             "video_to_audio": {str(k): v for k, v in r.video_to_audio.items()}}
            for r in reports]
    return json.dumps({"tasks": blob}, indent=1)


def reports_from_json(text: str) -> list[ev.RetrievalReport]:
    blob = json.loads(text)["tasks"]
    return [ev.RetrievalReport(
        audio_to_video={int(k): float(v) for k, v in r["audio_to_video"].items()},
        video_to_audio={int(k): float(v) for k, v in r["video_to_audio"].items()},
        size=int(r["size"])) for r in blob]


# --------------------------------------------------------------------------
# run directory artifacts

_CSV_FMT = "%.17g"
_LOSS_HEADER = ("step", "recon", "contrast", "penalty", "avm")


def _fmt(x: float) -> str:
    return _CSV_FMT % float(x)


def write_losses_csv(path: Path, records: list[LossRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_LOSS_HEADER)
        for r in records:
            w.writerow([r.step] + [_fmt(v) for v in
                                   (r.recon, r.contrast, r.penalty, r.avm)])


def write_acc_csv(path: Path, acc: list[list[float]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in acc:
            w.writerow([_fmt(v) for v in row])


def read_acc_csv(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        return [[float(v) for v in row] for row in csv.reader(fh) if row]


def write_gaps_csv(path: Path, gaps: list[float]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("task", "gap"))
        for t, g in enumerate(gaps):
            w.writerow([t, _fmt(g)])


def _rng_state_json(streams: dict[str, np.random.Generator]) -> str:
    blob = {}
    for name, gen in streams.items():
        bg = gen.bit_generator
        ss = bg.seed_seq
        entropy = ss.entropy
        blob[name] = {
            "entropy": entropy if isinstance(entropy, int) else list(entropy),
            "spawn_key": list(ss.spawn_key),
            "n_children_spawned": ss.n_children_spawned,
            "state": bg.state,
        }
    return json.dumps(blob)


def _streams_from_json(text: str) -> dict[str, np.random.Generator]:
    blob = json.loads(text)
    streams = {}
    for name in STREAM_NAMES:
        item = blob[name]
        entropy = item["entropy"]
        ss = np.random.SeedSequence(
            entropy if isinstance(entropy, int) else [int(e) for e in entropy],
            spawn_key=tuple(item["spawn_key"]))
        spawned = int(item["n_children_spawned"])
        if spawned:
            ss.spawn(spawned)  # replay the spawn counter; children discarded
        gen = np.random.Generator(np.random.PCG64(ss))
        gen.bit_generator.state = item["state"]
        streams[name] = gen
    return streams


def _checkpoint_arrays(run: RunState, tasks_done: int,
                       acc: list[list[float]], gaps: list[float]
                       ) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for k, v in run.state.named_arrays().items():
        out[f"model/{k}"] = v
    for k, v in run.b_opt.named_arrays("opt/backbone").items():
        out[k] = v
    if run.avm is not None:
        for k, v in run.avm.named_arrays().items():
            out[f"model/{k}"] = v
        for k, v in run.a_opt.named_arrays("opt/avm").items():
            out[k] = v
    out.update(rm.snapshot_arrays(run.mem))
    out["run/step"] = np.array(float(run.global_step))
    out["run/tasks_done"] = np.array(float(tasks_done))
    out["run/records"] = (np.array([r.row() for r in run.records])
                          if run.records else np.zeros((0, 6)))
    for t, row in enumerate(acc):
        out[f"run/acc/{t:02d}"] = np.asarray(row, dtype=np.float64)
    out["run/gaps"] = np.asarray(gaps, dtype=np.float64)
    return out


def backbone_from_arrays(arrays: dict[str, np.ndarray], mcfg: bb.BackboneConfig,
                         geom: SceneGeometry) -> bb.BackboneState:
    """Rebuild a backbone from the ``model/`` keys of a checkpoint."""
    state = bb.init_backbone(mcfg, geom, np.random.default_rng(0))
    state.load_arrays({k[len("model/"):]: v for k, v in arrays.items()
                       if k.startswith("model/") and not
                       k.startswith("model/avm/")})
    return state


def avm_from_arrays(arrays: dict[str, np.ndarray], mcfg: bb.BackboneConfig
                    ) -> am.AvmParams | None:
    """Rebuild the matching module from a checkpoint, or None if it has none."""
    sub = {k[len("model/"):]: v for k, v in arrays.items()
           if k.startswith("model/avm/")}
    if not sub:
        return None
    avm = am.init_avm(mcfg, np.random.default_rng(0),
                      head_hidden=sub["avm/head/w1"].shape[1])
    avm.load_arrays(sub)
    return avm


def _restore_run(arrays: dict[str, np.ndarray], streams, mcfg, tcfg, geom
                 ) -> tuple[RunState, int, list[list[float]], list[float]]:
    avm = avm_from_arrays(arrays, mcfg)
    if (avm is not None) != (tcfg.strategy in SCORING):
        raise cp.CheckpointError("checkpoint matching module does not fit "
                                 f"strategy {tcfg.strategy!r}")
    run = _run_state(backbone_from_arrays(arrays, mcfg, geom), avm,
                     rm.memory_from_arrays(arrays), tcfg, streams)
    run.b_opt.load_arrays("opt/backbone", arrays)
    if avm is not None:
        run.a_opt.load_arrays("opt/avm", arrays)
    run.global_step = int(arrays["run/step"])
    run.records = [LossRecord(int(r[0]), *[float(v) for v in r[1:]])
                   for r in arrays["run/records"]]
    tasks_done = int(arrays["run/tasks_done"])
    acc = []
    for t in range(tasks_done):
        acc.append([float(v) for v in arrays[f"run/acc/{t:02d}"]])
    gaps = [float(v) for v in arrays["run/gaps"]]
    return run, tasks_done, acc, gaps


def _latest_task_checkpoint(run_dir: Path) -> tuple[int, Path] | None:
    best = None
    for path in run_dir.glob("task_*.ckpt"):
        m = re.fullmatch(r"task_(\d+)\.ckpt", path.name)
        if not m:
            continue
        t = int(m.group(1))
        if path.with_suffix(".rng.json").exists():
            if best is None or t > best[0]:
                best = (t, path)
    return best


def save_task_artifacts(run: RunState, run_dir: Path, tasks_done: int,
                        acc: list[list[float]], gaps: list[float],
                        reports: list[ev.RetrievalReport]) -> None:
    tag = f"task_{tasks_done - 1:02d}"
    cp.save(run_dir / f"{tag}.ckpt",
            _checkpoint_arrays(run, tasks_done, acc, gaps))
    (run_dir / f"{tag}.rng.json").write_text(_rng_state_json(run.streams))
    write_losses_csv(run_dir / "losses.csv", run.records)
    write_acc_csv(run_dir / "acc_matrix.csv", acc)
    write_gaps_csv(run_dir / "gaps.csv", gaps)
    (run_dir / "retrieval.json").write_text(reports_to_json(reports))


def run_sequence(tasks: list[TaskData], geom: SceneGeometry,
                 mcfg: bb.BackboneConfig, tcfg: TrainConfig,
                 run_dir: str | Path | None = None,
                 eval_ks: tuple[int, ...] = (1, 5, 10),
                 eval_workers: int = 1
                 ) -> tuple[RunState, list[list[float]], list[float]]:
    """Train strategy ``tcfg.strategy`` over the task sequence.

    After each task the frozen model is scored by zero-shot retrieval on
    every task seen so far (one lower-triangular accuracy row per task) and
    by the audio/video modality gap on the first task's evaluation pairs.
    With a run directory, artifacts land after every task and a partial run
    resumes from the last completed task, bit-identically to an uninterrupted
    run.
    """
    if not tasks:
        raise TrainError("need at least one task")
    run_dir = Path(run_dir) if run_dir is not None else None
    run: RunState | None = None
    acc: list[list[float]] = []
    gaps: list[float] = []
    start_task = 0
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        found = _latest_task_checkpoint(run_dir)
        if found is not None:
            t_done, ckpt = found
            streams = _streams_from_json(
                ckpt.with_suffix(".rng.json").read_text())
            run, start_task, acc, gaps = _restore_run(
                cp.load(ckpt), streams, mcfg, tcfg, geom)
    if run is None:
        run = init_run(mcfg, tcfg, geom)

    for t in range(start_task, len(tasks)):
        run.diagnostic_task = t
        train = tasks[t].train
        n = train.audio_patches.shape[0]
        for _ in range(tcfg.epochs):
            order = run.streams["order"].permutation(n)
            for lo in range(0, n - tcfg.batch + 1, tcfg.batch):
                rows = order[lo:lo + tcfg.batch]
                aps = full_patchset(train.audio_patches[rows], "audio", geom)
                vps = full_patchset(train.video_patches[rows], "video", geom)
                train_step(run, mcfg, tcfg, aps, vps)
        row, gap, reports = evaluate_tasks(run.state, tasks, t, geom, eval_ks,
                                           eval_workers)
        acc.append(row)
        gaps.append(gap)
        if run_dir is not None:
            save_task_artifacts(run, run_dir, t + 1, acc, gaps, reports)
    return run, acc, gaps
