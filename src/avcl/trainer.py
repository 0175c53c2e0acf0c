"""Continual pre-training loops over a task sequence.

Six strategies share one step pipeline.  Each is one row of
:data:`STRATEGIES`: what the rehearsal memory stores, whether the
feature-drift penalty applies, and how patches are selected (uniformly with
audio kept in whole time chunks, or by importance and past correlation read
off the matching module's cross-attention).  Everything else derives from
the row (see :class:`Strategy`); what a rehearsal entry stores is decided
once, by :func:`_memory_layout`, and the scoring pass hands its scores on
under the names entries store them by.  A scoring strategy's step scores
its batch and updates the matching module first (:func:`_score_and_match`),
so that module's tape and the unmasked fusion tokens are freed before the
backbone records its masked forward pass: one tape is alive at a time.

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
import functools
import json
import operator
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
from avcl.data import (DataError, PatchSet, SampleSet, SceneGeometry, TaskData,
                       full_patchset, random_mask)


class TrainError(ValueError):
    pass


FULL, SUBSETS, UNIFORM, ATTENTION = "full", "subsets", "uniform", "attention"


@dataclass(frozen=True)
class Strategy:
    """One strategy as three facts; everything else derives from them."""

    memory: str | None  # None (no memory), FULL grids or selected SUBSETS
    penalty: bool  # alpha-weighted feature-drift penalty on replayed rows
    selector: str | None  # None, UNIFORM or ATTENTION patch selection

    @property
    def attention(self) -> bool:  # scores with, and trains, the matching module
        return self.selector == ATTENTION

    @property
    def reselects(self) -> bool:  # replay re-runs selection on stored full grids
        return self.selector is not None and self.memory == FULL

    @property
    def knobs(self) -> tuple[str, ...]:  # the STRATEGY_KNOBS it needs, no other
        return (("alpha",) * self.penalty + ("beta",) * self.attention
                + ("rho_audio", "rho_video", "chunk_size") * bool(self.selector))


STRATEGIES = {
    "finetune": Strategy(None, False, None),
    "er": Strategy(FULL, False, None),
    "derpp": Strategy(FULL, True, None),
    "random_select": Strategy(FULL, True, UNIFORM),
    "stella": Strategy(FULL, True, ATTENTION),
    "stella_plus": Strategy(SUBSETS, False, ATTENTION),
}
#: canonical default of each strategy-conditional knob
STRATEGY_KNOBS = {"alpha": 0.5, "beta": 0.4, "rho_audio": 0.5, "rho_video": 0.5,
                  "chunk_size": 4}

STREAM_NAMES = ("init", "order", "mask", "selection", "avm", "memory")


@dataclass(frozen=True)
class TrainConfig:
    """Continual-training knobs; model-shape knobs live on the model config.

    Strategy-specific fields are mandatory exactly where the strategy's row
    uses them (:attr:`Strategy.knobs`) and must be left unset everywhere
    else, so a configuration never silently carries dead hyperparameters.
    """

    strategy: str
    lr: float = 1e-4
    batch: int = 8
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
        row = STRATEGIES.get(s)
        if row is None:
            raise TrainError(f"unknown strategy {s!r}")
        if self.lr <= 0.0:
            raise TrainError("lr must be positive")
        if self.batch < 2:
            raise TrainError("batch must be at least 2: the contrastive loss "
                             "needs two pairs")
        if self.epochs < 1:
            raise TrainError("epochs must be at least 1")
        if self.memory_capacity < 0:
            raise TrainError("memory_capacity must be non-negative")
        if row.memory is None and self.memory_capacity != 0:
            raise TrainError(f"{s} keeps no memory; set memory_capacity=0")
        if (row.penalty or row.selector) and self.memory_capacity == 0:
            # plain rehearsal at zero capacity is the documented finetune-
            # degenerate case; anything richer needs a memory to read.
            raise TrainError(f"{s} needs a rehearsal memory (capacity > 0)")
        for name in STRATEGY_KNOBS:
            if (name in row.knobs) != (getattr(self, name) is not None):
                verb = "requires" if name in row.knobs else "does not use"
                raise TrainError(f"strategy {s!r} {verb} {name}")
        if self.alpha is not None and self.alpha < 0.0:
            raise TrainError("alpha must be non-negative")
        if self.beta is not None and self.beta <= 0.0:
            raise TrainError("beta must be positive")
        for rho in (self.rho_audio, self.rho_video):
            if rho is not None and not 0.0 < rho <= 1.0:
                raise TrainError("sampling ratios must lie in (0, 1]")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise TrainError("chunk_size must be at least 1")
        if self.train_seed < 0:
            raise TrainError("train_seed must be non-negative")

    @property
    def row(self) -> Strategy:
        """The strategy's row of :data:`STRATEGIES`."""
        return STRATEGIES[self.strategy]


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
        """The five losses; a record's step is its index in the run."""
        return [self.recon, self.contrast, self.penalty, self.avm, self.total]


@dataclass
class RunState:
    state: bb.BackboneState
    avm: am.AvmParams | None
    mem: rm.ReservoirMemory
    b_opt: op.Adam
    a_opt: op.Adam | None
    streams: dict[str, np.random.Generator]
    records: list[LossRecord] = field(default_factory=list)
    diagnostic_task: int = -1  # metadata only; no step logic reads it

    @property
    def global_step(self) -> int:
        """Steps taken so far: every step records exactly one loss row."""
        return len(self.records)


def init_run(mcfg: bb.BackboneConfig, tcfg: TrainConfig,
             geom: SceneGeometry) -> RunState:
    """Fresh model, optimizers (zero moments) and memory.  The backbone
    always consumes the init stream first so its weights are identical
    across strategies."""
    streams = rng_streams(tcfg.train_seed)
    state = bb.init_backbone(mcfg, geom, streams["init"])
    avm_params = am.init_avm(mcfg, streams["init"]) if tcfg.row.attention else None
    return RunState(streams=streams, **_run_fields(
        state, avm_params, rm.ReservoirMemory(*_memory_layout(mcfg, tcfg, geom)),
        tcfg, [], lambda module, flat: op.zero_moments(flat)))


def _memory_layout(mcfg: bb.BackboneConfig, tcfg: TrainConfig,
                   geom: SceneGeometry) -> tuple[int, dict[str, tuple[int, ...]]]:
    """Entries the reservoir keeps, and the per-entry shape of every field
    an entry stores: exactly what the strategy's replay reads, so no field
    is ever a placeholder.  Patches always (full grids, or the selected
    subsets with their grid ids, whose memory scales up to the same patch
    byte budget as one of full grids), pooled features for the drift
    penalty, localized queries for correlation, and the selection scores
    under which replay re-selects stored full grids.  Fresh and restored
    memories both take their layout from here."""
    if tcfg.memory_capacity == 0:
        return 0, {}
    a, v = geom.audio, geom.video
    row = tcfg.row
    if row.selector:
        kap_a = sel.kappa(a.patches, tcfg.rho_audio)
        kap_v = sel.kappa(v.patches, tcfg.rho_video)
    capacity = tcfg.memory_capacity
    fields = {"audio_patches": (a.patches, a.patch_dim),
              "video_patches": (v.patches, v.patch_dim)}
    if row.memory == SUBSETS:
        capacity = rm.plus_capacity(capacity, a.patches, a.patch_dim,
                                    v.patches, v.patch_dim, kap_a, kap_v)
        fields = {"audio_patches": (kap_a, a.patch_dim), "audio_indices": (kap_a,),
                  "video_patches": (kap_v, v.patch_dim), "video_indices": (kap_v,)}
    if row.penalty:
        fields.update(feat_audio=(mcfg.embed_dim,), feat_video=(mcfg.embed_dim,))
    if row.attention:
        query = (mcfg.heads, mcfg.head_dim)
        fields.update(q_audio=query, q_video=query)
    if row.attention and row.reselects:
        fields.update(imp_audio=(a.patches,), imp_video=(v.patches,),
                      corr_audio=(kap_a,), corr_video=(kap_v,))
    return capacity, fields


def _run_fields(state: bb.BackboneState, avm: am.AvmParams | None,
                mem: rm.ReservoirMemory, tcfg: TrainConfig,
                records: list[LossRecord], moments) -> dict:
    """The fields of a :class:`RunState` other than its random streams,
    after the steps ``records`` holds, one per step, whose optimizers take
    the moments ``moments(module, flat) -> (m, v)`` gives for the module
    (``"backbone"`` or ``"avm"``) and its flat leaf."""
    def adam(module: str, flat: tt.Tensor) -> op.Adam:
        opt = op.Adam(flat, *moments(module, flat), lr=tcfg.lr)
        opt.step_count = len(records)
        return opt

    return {"state": state, "avm": avm, "mem": mem,
            "b_opt": adam("backbone", state.flat),
            "a_opt": None if avm is None else adam("avm", avm.flat),
            "records": records}


# --------------------------------------------------------------------------
# one training step


def _score_batch(run: RunState, tcfg: TrainConfig, aps: PatchSet,
                 vps: PatchSet, replay: dict[str, np.ndarray] | None
                 ) -> tuple[dict[str, np.ndarray], tuple[tt.Tensor, ...]]:
    """Importance and correlation for the current batch of a scoring
    strategy, both read off the matching module's cross-attention.

    Returns the scores under the names an entry stores them by
    (``imp_*`` (B, n), ``corr_*`` (B, kappa) and the localized queries
    ``q_*``), and the unmasked fusion tokens and encoder outputs, which
    :func:`_score_and_match` hands to the matching-module step and then
    drops."""
    kap_a = sel.kappa(aps.count, tcfg.rho_audio)
    kap_v = sel.kappa(vps.count, tcfg.rho_video)
    o_a, o_v, enc_a, enc_v = am.fusion_tokens(run.state, aps, vps)
    maps = am.cross_attention(run.avm, o_a, o_v, tcfg.beta)
    imp_a, imp_v = sel.importance_scores(maps.audio_map, maps.video_map)
    loc_a = sel.gather_localized(maps.q_audio, maps.k_audio, imp_a, kap_a)
    loc_v = sel.gather_localized(maps.q_video, maps.k_video, imp_v, kap_v)
    # zero correlation stands for "no memory yet", exactly as selection
    # treats a missing correlation
    corr_a, corr_v = np.zeros(loc_a.indices.shape), np.zeros(loc_v.indices.shape)
    if replay is not None:
        # Current row i is paired with replayed row i (the replay draw is
        # already uniform with replacement); an audio patch is compared under
        # the video-side queries that attend it, and vice versa.
        corr_a = sel.correlation_scores(loc_a.keys, loc_v.pooled,
                                        replay["q_video"], tcfg.beta)
        corr_v = sel.correlation_scores(loc_v.keys, loc_a.pooled,
                                        replay["q_audio"], tcfg.beta)
    scores = {"imp_audio": imp_a, "imp_video": imp_v, "corr_audio": corr_a,
              "corr_video": corr_v, "q_audio": loc_a.pooled, "q_video": loc_v.pooled}
    return scores, (o_a, o_v, enc_a, enc_v)


def _score_and_match(run: RunState, tcfg: TrainConfig, aps: PatchSet,
                     vps: PatchSet, replay: dict[str, np.ndarray] | None
                     ) -> tuple[dict[str, np.ndarray], float]:
    """The scores of :func:`_score_batch` and the loss of the
    matching-module update on its tokens.

    Only these leave: the unmasked fusion tokens, encoder outputs and the
    update's tape die on return, before the backbone's masked forward pass
    records its own tape.  The update writes only the matching module's
    parameters, its Adam moments and the ``avm`` stream, none of which the
    rest of the step reads, and runs while the backbone gradients are
    still zero, so its gradient-isolation assertion is exact."""
    scores, tokens = _score_batch(run, tcfg, aps, vps, replay)
    return scores, am.avm_train_step(run.avm, run.state, *tokens, run.a_opt,
                                     run.streams["avm"])


def _select_pair(tcfg: TrainConfig, aps: PatchSet, vps: PatchSet,
                 scores: dict[str, np.ndarray], rng: np.random.Generator
                 ) -> tuple[PatchSet, PatchSet]:
    """Audio then video selection on one (possibly replayed) pair batch
    under ``scores``, keyed as entries store them: a missing ``imp_*`` means
    uniform importance, a missing ``corr_*`` no correlation."""
    imp_a = scores.get("imp_audio", np.full(aps.patches.shape[:2], 1.0 / aps.count))
    imp_v = scores.get("imp_video", np.full(vps.patches.shape[:2], 1.0 / vps.count))
    sel_a, _ = sel.select_audio(imp_a, scores.get("corr_audio"),
                                sel.kappa(aps.count, tcfg.rho_audio),
                                tcfg.chunk_size, aps.grid, rng)
    sel_v, _ = sel.select_video(imp_v, scores.get("corr_video"),
                                sel.kappa(vps.count, tcfg.rho_video), rng)
    return sel.gather_selected(aps, sel_a), sel.gather_selected(vps, sel_v)


def _past_patchsets(run: RunState, tcfg: TrainConfig, row: Strategy,
                    replay: dict[str, np.ndarray], aps: PatchSet,
                    vps: PatchSet) -> tuple[PatchSet, PatchSet]:
    """Replayed batch in the same patch layout as the current one.  Entries
    without stored grid ids hold full grids, whose ids are the current's."""
    p_aps = PatchSet(replay["audio_patches"],
                     replay.get("audio_indices", aps.indices), "audio", aps.grid)
    p_vps = PatchSet(replay["video_patches"],
                     replay.get("video_indices", vps.indices), "video", vps.grid)
    if not row.reselects:  # full pairs, or the very patches selected then
        return p_aps, p_vps
    # re-run selection on the stored full grids, under the scores fixed at
    # insertion time where the entries store them
    return _select_pair(tcfg, p_aps, p_vps, replay, run.streams["selection"])


def _concat_sets(cur: PatchSet, past: PatchSet | None) -> PatchSet:
    if past is None:
        return cur
    if cur.count != past.count:
        raise TrainError("current and replayed patch counts disagree")
    return PatchSet(np.concatenate([cur.patches, past.patches], axis=0),
                    np.concatenate([cur.indices, past.indices], axis=0),
                    cur.modality, cur.grid)


def _store_current(run: RunState, full: tuple[PatchSet, PatchSet],
                   trained: tuple[PatchSet, PatchSet],
                   scores: dict[str, np.ndarray],
                   feat_a: np.ndarray, feat_v: np.ndarray) -> None:
    """Insert the current batch into the reservoir (memory stream): of the
    values the step has, exactly the fields of the memory's layout (see
    :func:`_memory_layout`).  A memory that keeps grid ids keeps the patches
    trained on; any other keeps the full grids."""
    a, v = trained if "audio_indices" in run.mem.fields else full
    values = {"audio_patches": a.patches, "audio_indices": a.indices,
              "video_patches": v.patches, "video_indices": v.indices,
              "feat_audio": feat_a, "feat_video": feat_v, **scores}
    rm.reservoir_insert(run.mem, {name: values[name] for name in run.mem.fields},
                        run.global_step, run.diagnostic_task, run.streams["memory"])


def train_step(run: RunState, mcfg: bb.BackboneConfig, tcfg: TrainConfig,
               aps: PatchSet, vps: PatchSet) -> LossRecord:
    """One continual pre-training update on a current batch of paired clips.

    Order of operations (attention selectors; others skip what they lack):
    replay draw -> attention scoring (the one unmasked no-grad backbone pass)
    -> correlation against stored queries -> matching-module update on the
    scoring pass's outputs -> current selection -> replay selection -> mask
    draws -> each modality cut to its visible tokens -> encode, joint fusion
    and contrastive pass on the visible tokens, decode at full length,
    losses -> memory insertion -> backbone update.  The matching-module
    update finishes, and its tape is freed, before the backbone's masked
    forward pass starts, so the two tapes are never alive together; it
    precedes the backbone backward pass, which keeps its gradient-isolation
    assertion exact.  Memory insertion precedes the backbone update, so
    stored features reflect the weights that produced the losses.
    """
    b = aps.patches.shape[0]
    row = tcfg.row

    replay = None
    if len(run.mem) > 0:
        replay = rm.sample_replay(run.mem, b, run.streams["memory"])

    scores: dict[str, np.ndarray] = {}
    avm_loss = 0.0
    cur_aps, cur_vps = aps, vps
    past_aps = past_vps = None
    if row.attention:
        scores, avm_loss = _score_and_match(run, tcfg, aps, vps, replay)
    if row.selector:
        cur_aps, cur_vps = _select_pair(tcfg, aps, vps, scores,
                                        run.streams["selection"])
    if replay is not None:
        past_aps, past_vps = _past_patchsets(run, tcfg, row, replay, aps, vps)

    cat_aps = _concat_sets(cur_aps, past_aps)
    cat_vps = _concat_sets(cur_vps, past_vps)
    nb = cat_aps.patches.shape[0]
    m_a = random_mask(run.streams["mask"], nb, cat_aps.count, mcfg.mask_prob)
    m_v = random_mask(run.streams["mask"], nb, cat_vps.count, mcfg.mask_prob)

    vis_a, pad_a, slots_a = bb.visible_tokens(cat_aps, m_a)
    vis_v, pad_v, slots_v = bb.visible_tokens(cat_vps, m_v)

    enc_a, enc_v = bb.encode(run.state, vis_a, vis_v, pad_a, pad_v)
    o_a, o_v = bb.forward_fused(run.state, enc_a, enc_v, pad_a, pad_v)
    recon_a, recon_v = bb.decode(run.state, o_a, o_v, cat_aps, cat_vps,
                                 slots_a, slots_v)
    rec = bb.reconstruction_loss(recon_a, recon_v, cat_aps.patches,
                                 cat_vps.patches, m_a, m_v)
    c_a, c_v = bb.contrastive_features(run.state, enc_a, enc_v, pad_a, pad_v)
    con = bb.contrastive_loss(c_a, c_v, mcfg.temperature)

    penalty = None
    alpha_eff = tcfg.alpha or 0.0
    if alpha_eff and replay is not None:
        penalty = rm.der_penalty(tt.narrow(c_a, 0, b, b),
                                 tt.narrow(c_v, 0, b, b),
                                 replay["feat_audio"], replay["feat_video"])
    total = bb.pretrain_objective(rec, con, penalty,
                                  mcfg.contrastive_weight, alpha_eff)

    if tcfg.memory_capacity > 0:
        _store_current(run, (aps, vps), (cur_aps, cur_vps), scores,
                       c_a.data[:b], c_v.data[:b])

    total.backward()
    run.b_opt.step()
    run.b_opt.zero_grad()

    record = LossRecord(run.global_step, float(rec.data), float(con.data),
                        0.0 if penalty is None else float(penalty.data),
                        avm_loss, float(total.data))
    run.records.append(record)
    return record


# --------------------------------------------------------------------------
# evaluation between tasks


def eval_features(state: bb.BackboneState, samples: SampleSet,
                  geom: SceneGeometry, batch: int = 8
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Unmasked pooled contrastive features for a whole evaluation set.

    Every op works per row, so the features do not depend on ``batch``.  It
    is small because evaluation follows training, whose visible-token
    buffers leave little heap behind: at 32 rows each batch's float64
    attention logits (4.2 MB at default geometry) landed on freshly faulted
    pages, which made evaluation about 1.5x slower than at 8 rows.
    """
    feats_a, feats_v = [], []
    n = samples.audio_patches.shape[0]
    with tt.no_grad():
        for lo in range(0, n, batch):
            hi = min(lo + batch, n)
            aps = full_patchset(samples.audio_patches[lo:hi], "audio", geom)
            vps = full_patchset(samples.video_patches[lo:hi], "video", geom)
            enc_a, enc_v = bb.encode(state, aps, vps, None, None)
            c_a, c_v = bb.contrastive_features(state, enc_a, enc_v, None, None)
            feats_a.append(c_a.data)
            feats_v.append(c_v.data)
    return np.concatenate(feats_a, axis=0), np.concatenate(feats_v, axis=0)


def evaluate_tasks(state: bb.BackboneState, tasks: list[TaskData],
                   upto: int, geom: SceneGeometry,
                   ks: tuple[int, ...] = (1, 5, 10), workers: int = 1
                   ) -> tuple[list[float], float, list[ev.RetrievalReport]]:
    """Retrieval headline on every task seen so far plus the modality gap on
    the first task's evaluation pairs; also returns the per-task reports.

    ``workers`` > 1 computes the tasks' features on a thread pool; each
    task's are computed independently, so the results are identical to the
    serial path.
    """
    def features(t: int) -> tuple[np.ndarray, np.ndarray]:
        return eval_features(state, tasks[t].eval, geom)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            feats = list(pool.map(features, range(upto + 1)))
    else:
        feats = [features(t) for t in range(upto + 1)]
    reports = [ev.zero_shot_retrieval(f_a, f_v, ks) for f_a, f_v in feats]
    return [rep.headline() for rep in reports], ev.modality_gap(*feats[0]), reports


def _reads(error: type[ValueError], what: str):
    """Decorator: a reader's lookup, type or value errors -> ``error``."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
                raise error(f"{what} missing or malformed: {exc}") from None
        return wrapper
    return decorate


def reports_to_json(reports: list[ev.RetrievalReport]) -> str:
    """Serialize per-task retrieval reports for the run directory."""
    blob = [{"size": r.size, "audio_to_video": r.audio_to_video,
             "video_to_audio": r.video_to_audio} for r in reports]
    return json.dumps({"tasks": blob}, indent=1)


@_reads(DataError, "retrieval report")
def reports_from_json(text: str) -> list[ev.RetrievalReport]:
    def recalls(blob) -> dict[int, float]:
        return {int(k): float(v) for k, v in dict(blob).items()}
    return [ev.RetrievalReport(recalls(r["audio_to_video"]),
                               recalls(r["video_to_audio"]), operator.index(r["size"]))
            for r in json.loads(text)["tasks"]]


# --------------------------------------------------------------------------
# run directory artifacts

_CSV_FMT = "%.17g"
_LOSS_HEADER = ("step", "recon", "contrast", "penalty", "avm", "total")


def _fmt(x: float) -> str:
    return _CSV_FMT % float(x)


def _write_csv(path: Path, rows) -> None:
    with cp.atomic_open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@_reads(DataError, "accuracy matrix")
def read_acc_csv(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        return [[float(v) for v in row] for row in csv.reader(fh) if row]


def _rng_state_json(streams: dict[str, np.random.Generator]) -> str:
    """Per stream, what the seed does not rebuild: the generator state and
    the spawn count (``Generator.spawn`` in selection advances it)."""
    return json.dumps({name: {"n_children_spawned":
                              gen.bit_generator.seed_seq.n_children_spawned,
                              "state": gen.bit_generator.state}
                       for name, gen in streams.items()})


@_reads(cp.CheckpointError, "random-stream state")
def _streams_from_json(text: str, seed: int) -> dict[str, np.random.Generator]:
    """Inverse of :func:`_rng_state_json` for a run seeded with ``seed``.
    Stream ``i`` is child ``i`` of ``SeedSequence(seed)`` (as
    :func:`rng_streams` spawns it), built directly with its spawn key; the
    spawn count is a constructor argument, so it costs no replay, and only
    the restored generators are built."""
    blob = json.loads(text)
    streams = {}
    for i, name in enumerate(STREAM_NAMES):
        ss = np.random.SeedSequence(
            seed, spawn_key=(i,),
            n_children_spawned=int(blob[name]["n_children_spawned"]))
        streams[name] = np.random.Generator(np.random.PCG64(ss))
        streams[name].bit_generator.state = blob[name]["state"]
    return streams


def _model_key(module: str, shapes) -> str:
    """Checkpoint name of a module's flat parameter values,
    ``model/<module>@<digest>``, where the digest
    (:func:`tensor.layout_digest`) is that of its parameters' ``(name,
    shape)`` pairs in table order: the values of another layout never take
    the name, not even when they are as many."""
    return f"model/{module}@{tt.layout_digest(shapes)}"


def _table_key(module: str, table: tt.ParamTable) -> str:
    return _model_key(module, ((k, shape) for k, (shape, _) in table.items()))


def _checkpoint_arrays(run: RunState, acc: list[list[float]],
                       gaps: list[float]) -> dict[str, np.ndarray]:
    out = {}
    for module, part, opt in (("backbone", run.state, run.b_opt),
                              ("avm", run.avm, run.a_opt)):
        if part is not None:
            shapes = ((k, p.shape) for k, p in part.params.items())
            out[_model_key(module, shapes)] = part.flat.data
            out.update(opt.named_arrays(f"opt/{module}"))
    out.update(rm.snapshot_arrays(run.mem))
    out["run/records"] = np.reshape([r.row() for r in run.records], (-1, 5))
    for t, row in enumerate(acc):
        out[f"run/acc/{t:02d}"] = np.asarray(row, dtype=np.float64)
    out["run/gaps"] = np.asarray(gaps, dtype=np.float64)
    return out


def _param_tables(mcfg: bb.BackboneConfig, tcfg: TrainConfig, geom: SceneGeometry
                  ) -> dict[str, tuple[str, tt.ParamTable]]:
    """The parameter table of each module the strategy trains, with the
    checkpoint name of the module's flat values (:func:`_model_key`), by
    module name: ``"backbone"`` and, for a scoring strategy, ``"avm"``."""
    tables = {"backbone": bb.param_table(mcfg, geom)}
    if tcfg.row.attention:
        tables["avm"] = am.param_table(mcfg)
    return {module: (_table_key(module, table), table)
            for module, table in tables.items()}


def _checkpoint_layout(tables: dict[str, tuple[str, tt.ParamTable]],
                       tasks_done: int, steps: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor that a run checkpoint of the modules
    ``tables`` (:func:`_param_tables`), written after ``tasks_done`` tasks
    of ``steps`` steps in all, holds outside ``memory/`` (the rehearsal
    memory, see :func:`memory.snapshot_arrays`):

    - for each module, ``model/<module>@<digest>`` (:func:`_model_key`), its
      parameter values one after another in table order, and
      ``opt/<module>/m`` and ``opt/<module>/v``, its flat first and second
      Adam moments, all three with one value per parameter value;
    - ``run/records``, five losses per step; ``run/acc/XX``, row ``XX`` of
      the lower-triangular accuracy matrix; ``run/gaps``, one modality gap
      per task.
    """
    layout = {}
    for module, (key, table) in tables.items():
        layout[key] = layout[f"opt/{module}/m"] = layout[f"opt/{module}/v"] = (
            tt.table_size(table),)
    layout["run/records"] = (steps, 5)
    layout.update({f"run/acc/{t:02d}": (t + 1,) for t in range(tasks_done)})
    layout["run/gaps"] = (tasks_done,)
    return layout


def _older_layout(tensors: dict[str, np.ndarray],
                  exc: cp.CheckpointError) -> cp.CheckpointError:
    """The error for checkpoint ``tensors`` that failed their layout check
    with ``exc``: if they store the model or the optimizer moments one
    tensor per parameter, as checkpoints before the flat layouts did, an
    error that says so and that the run must be started again; else
    ``exc``."""
    model = [k for k in tensors if k.startswith("model/")]
    if model and not any("@" in k for k in model):
        return cp.CheckpointError(
            "parameters are stored one tensor each: the checkpoint predates the "
            "flat parameter layout (one model tensor per module); start the run "
            "again")
    if any(re.match(r"opt/[^/]+/[mv]/", k) for k in tensors):
        return cp.CheckpointError(
            "optimizer moments are stored per parameter: the checkpoint predates "
            "the flat moment layout (one m and one v per module); start the run "
            "again")
    return exc


def _restore_run(arrays: dict[str, np.ndarray], tasks_done: int, steps: int,
                 mcfg, tcfg, geom) -> tuple[dict, list[list[float]], list[float]]:
    """The run-state fields other than the random streams
    (:func:`_run_fields`), accuracy rows and gaps of the checkpoint written
    after ``tasks_done`` tasks of ``steps`` steps in all: the one reader of
    a run checkpoint.  Resume attaches the streams it reads from
    ``task_XX.rng.json``; ``eval`` and ``export-attention`` build none.  Its
    tensors outside ``memory/`` must be exactly :func:`_checkpoint_layout`'s
    and its memory a snapshot of :func:`_memory_layout`'s, both finite
    (:func:`checkpoint.check_layout`); a checkpoint of the older
    per-parameter layouts is named as such (:func:`_older_layout`).
    Accuracies must lie in [0, 100] and stored grid ids be patch indices of
    their grid, distinct within each entry.  Each module's flat values, the
    optimizer moments and the memory columns are the reader's arrays
    themselves, so no placeholder is built to be overwritten and no random
    number is drawn.  The records give both optimizers' step counts."""
    tables = _param_tables(mcfg, tcfg, geom)
    run_part = {k: v for k, v in arrays.items() if not k.startswith("memory/")}
    try:
        cp.check_layout(run_part, _checkpoint_layout(tables, tasks_done, steps))
    except cp.CheckpointError as exc:
        raise _older_layout(run_part, exc) from None
    acc = [run_part[f"run/acc/{t:02d}"].tolist() for t in range(tasks_done)]
    ev.check_acc_matrix(acc)
    mem = rm.memory_from_arrays(arrays, *_memory_layout(mcfg, tcfg, geom))
    for name, g in (("audio_indices", geom.audio), ("video_indices", geom.video)):
        if name not in mem.fields:
            continue
        ids = mem.fields[name]
        if not np.isin(ids, np.arange(g.patches)).all():
            raise rm.RehearsalError(f"snapshot tensor 'memory/field/{name}' holds a "
                                    f"value that is no grid id of the {g.patches} "
                                    "patches")
        ordered = np.sort(ids, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise rm.RehearsalError(f"snapshot tensor 'memory/field/{name}' repeats "
                                    "a grid id within an entry")
    modules = {module: tt.flat_parameters(table, run_part[key])
               for module, (key, table) in tables.items()}
    avm = am.AvmParams(mcfg.heads, *modules["avm"]) if "avm" in modules else None
    records = [LossRecord(i, *r) for i, r in enumerate(run_part["run/records"].tolist())]
    fields = _run_fields(bb.BackboneState(mcfg, geom, *modules["backbone"]), avm,
                         mem, tcfg, records,
                         lambda module, _: (run_part[f"opt/{module}/m"],
                                            run_part[f"opt/{module}/v"]))
    return fields, acc, run_part["run/gaps"].tolist()


def _steps_through(tcfg: TrainConfig, train_sizes) -> int:
    """Steps a run takes through tasks of ``train_sizes`` training pairs
    each: the training loop steps on whole batches only."""
    return sum(tcfg.epochs * (n // tcfg.batch) for n in train_sizes)


def _latest_task_checkpoint(run_dir: Path) -> tuple[int, Path] | None:
    """Tasks done and checkpoint of the last task whose streams file exists."""
    done = [(int(m.group(1)) + 1, path) for path in run_dir.glob("task_*.ckpt")
            if (m := re.fullmatch(r"task_(\d+)\.ckpt", path.name))
            and path.with_suffix(".rng.json").exists()]
    return max(done, default=None)


def save_task_artifacts(run: RunState, run_dir: Path, tasks_done: int,
                        acc: list[list[float]], gaps: list[float],
                        reports: list[ev.RetrievalReport]) -> None:
    """Write every artifact of a completed task, each atomically.  The
    random-stream file goes last: :func:`_latest_task_checkpoint` accepts a
    task only once it exists, so a crash anywhere before it makes a resume
    redo the task and rewrite all of its artifacts."""
    tag = f"task_{tasks_done - 1:02d}"
    cp.save(run_dir / f"{tag}.ckpt",
            _checkpoint_arrays(run, acc, gaps))
    _write_csv(run_dir / "losses.csv", [_LOSS_HEADER] + [
        [r.step] + [_fmt(v) for v in r.row()] for r in run.records])
    _write_csv(run_dir / "acc_matrix.csv", [[_fmt(v) for v in row] for row in acc])
    _write_csv(run_dir / "gaps.csv",
               [("task", "gap")] + [[t, _fmt(g)] for t, g in enumerate(gaps)])
    for name, text in (("retrieval.json", reports_to_json(reports)),
                       (f"{tag}.rng.json", _rng_state_json(run.streams))):
        with cp.atomic_open(run_dir / name) as fh:
            fh.write(text)


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
            start_task, ckpt = found
            if start_task > len(tasks):
                raise cp.CheckpointError(f"{ckpt.name} is past the {len(tasks)} "
                                         "tasks of the dataset")
            streams = _streams_from_json(
                ckpt.with_suffix(".rng.json").read_text(), tcfg.train_seed)
            fields, acc, gaps = _restore_run(
                cp.load(ckpt), start_task,
                _steps_through(tcfg, [len(task.train) for task in tasks[:start_task]]),
                mcfg, tcfg, geom)
            run = RunState(streams=streams, **fields)
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
