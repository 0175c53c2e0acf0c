"""The avcl functions the benchmark traces, and the per-layer metrics.

Every ``.ms``, ``.self_ms`` and ``.calls`` figure is per unit of work: per
train step on the training workloads, per resume, evaluate or save
operation on ``ckpt_eval``.  ``data.build_sequence`` runs only during
set-up, so its figures are per set-up instead.
"""

from __future__ import annotations

import os

from tracer import Stat

PACKAGE = "avcl"
AVM_STEP = "avm.avm_train_step"


def tape_size(loss) -> tuple[int, int]:
    """Recorded nodes reachable from ``loss`` and the bytes their values
    hold; the same walk ``tensor.backward`` makes, leaves excluded."""
    nodes = nbytes = 0
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node._grad_fn is not None:
            nodes += 1
            nbytes += node.data.nbytes
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes, nbytes


def _after_backward(tracer, args, result) -> None:
    in_avm = tracer.parent_name() == AVM_STEP
    with tracer.span("bench.tape_walk"):
        nodes, nbytes = tape_size(args["loss"])
    for suffix in ("", ".avm") if in_avm else ("",):
        tracer.count("tensor.tape_nodes" + suffix, nodes)
        tracer.count("tensor.tape_mb" + suffix, nbytes / 1e6)


def _after_encode(tracer, args, result) -> None:
    tracer.count("backbone.encode_modality.tokens", args["x"].shape[0] * args["x"].shape[1])


def _after_save(tracer, args, result) -> None:
    tracer.count("checkpoint.bytes_written", os.path.getsize(args["path"]))


def _after_evaluate(tracer, args, result) -> None:
    tasks = args["tasks"]
    tracer.count("eval_pairs", sum(len(tasks[t].eval) for t in range(args["upto"] + 1)))


# (span name, module, attribute, reports self time, hook after the call)
TARGETS = (
    ("tensor.backward", "avcl.tensor", "backward", False, _after_backward),
    ("tensor.softmax", "avcl.tensor", "softmax", False, None),
    ("tensor.matmul", "avcl.tensor", "matmul", False, None),
    ("tensor.layernorm", "avcl.tensor", "layernorm", False, None),
    ("backbone.embed", "avcl.backbone", "embed", True, None),
    ("backbone.encode_modality", "avcl.backbone", "encode_modality", True, _after_encode),
    ("backbone.forward_fused", "avcl.backbone", "forward_fused", True, None),
    ("backbone.decode", "avcl.backbone", "decode", True, None),
    ("backbone.contrastive_features", "avcl.backbone", "contrastive_features", True, None),
    ("backbone.losses", "avcl.backbone", "reconstruction_loss", True, None),
    ("backbone.losses", "avcl.backbone", "contrastive_loss", True, None),
    ("backbone.losses", "avcl.backbone", "pretrain_objective", True, None),
    ("avm.fusion_tokens", "avcl.avm", "fusion_tokens", True, None),
    ("avm.cross_attention", "avcl.avm", "cross_attention", True, None),
    (AVM_STEP, "avcl.avm", "avm_train_step", True, None),
    ("selection.importance_scores", "avcl.selection", "importance_scores", False, None),
    ("selection.gather_localized", "avcl.selection", "gather_localized", False, None),
    ("selection.correlation_scores", "avcl.selection", "correlation_scores", False, None),
    ("selection.select_audio", "avcl.selection", "select_audio", False, None),
    ("selection.select_video", "avcl.selection", "select_video", False, None),
    ("selection.gather_selected", "avcl.selection", "gather_selected", False, None),
    ("memory.sample_replay", "avcl.memory", "sample_replay", False, None),
    ("memory.reservoir_insert", "avcl.memory", "reservoir_insert", False, None),
    ("memory.der_penalty", "avcl.memory", "der_penalty", False, None),
    ("memory.snapshot_arrays", "avcl.memory", "snapshot_arrays", False, None),
    ("memory.memory_from_arrays", "avcl.memory", "memory_from_arrays", False, None),
    ("checkpoint.save", "avcl.checkpoint", "save", False, _after_save),
    ("checkpoint.load", "avcl.checkpoint", "load", False, None),
    ("optim.Adam.step", "avcl.optim", "Adam.step", False, None),
    ("evaluate.zero_shot_retrieval", "avcl.evaluate", "zero_shot_retrieval", False, None),
    ("evaluate.modality_gap", "avcl.evaluate", "modality_gap", False, None),
    ("trainer.train_step", "avcl.trainer", "train_step", True, None),
    ("trainer.eval_features", "avcl.trainer", "eval_features", True, None),
    ("trainer.evaluate_tasks", "avcl.trainer", "evaluate_tasks", True, _after_evaluate),
    ("trainer.save_task_artifacts", "avcl.trainer", "save_task_artifacts", True, None),
    ("data.full_patchset", "avcl.data", "full_patchset", False, None),
    ("data.random_mask", "avcl.data", "random_mask", False, None),
    ("data.build_sequence", "avcl.data", "build_sequence", False, None),
)

#: the untraced run times only these, for the end-to-end metrics
PROBES = ("trainer.train_step", "trainer.evaluate_tasks", "trainer.save_task_artifacts")
SETUP_SPANS = ("data.build_sequence",)


def targets(names=None):
    """Instrumentation tuples for ``tracer.Instrumentation``."""
    return [(span, module, attr, after) for span, module, attr, _, after in TARGETS
            if names is None or span in names]


_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count"}
# (name, unit) of the counters and gauges that are not span timings
EXTRA = (
    ("tensor.tape_nodes", "count"),
    ("tensor.tape_nodes.avm", "count"),
    ("tensor.tape_mb", "MB"),
    ("tensor.tape_mb.avm", "MB"),
    ("backbone.encode_modality.tokens", "count"),
    ("checkpoint.bytes_written", "B"),
    ("memory.bytes", "B"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)


def _span_metrics():
    spans: dict[str, bool] = {}
    for span, _, _, reports_self, _ in TARGETS:
        spans.setdefault(span, reports_self)
    for span, reports_self in spans.items():
        yield span, "ms"
        if reports_self:
            yield span, "self_ms"
        yield span, "calls"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    return ([(f"{span}.{kind}", _UNITS[kind]) for span, kind in _span_metrics()]
            + list(EXTRA))


def per_layer_metrics(op_stats: dict[str, Stat], setup_stats: dict[str, Stat],
                      counts: dict[str, float], units: int, setups: int,
                      gauges: dict[str, float]) -> dict[str, float]:
    """Per-unit figures from aggregated spans and summed counters.

    ``gauges`` supplies the values that are not per unit (``memory.bytes``
    and the ``trace.*`` figures)."""
    out: dict[str, float] = {}
    for span, kind in _span_metrics():
        scoped = span in SETUP_SPANS
        stat = (setup_stats if scoped else op_stats).get(span, Stat())
        per = setups if scoped else units
        value = {"ms": stat.total * 1e3, "self_ms": stat.self_time * 1e3,
                 "calls": stat.calls}[kind]
        out[f"{span}.{kind}"] = value / per
    for name, _ in EXTRA:
        out[name] = gauges[name] if name in gauges else counts.get(name, 0.0) / units
    return out
