import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import avcl.tensor as tt
import layers
import workloads
from tracer import Instrumentation, Tracer, aggregate

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _spans(tracer, clock, events):
    """events: (time, "begin" name | "end")"""
    open_ = []
    for t, what in events:
        clock.now = t
        if what == "end":
            tracer.end(open_.pop())
        else:
            open_.append(tracer.begin(what))


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    _spans(tracer, clock, [
        (0.0, "avm.avm_train_step"),
        (1.0, "avm.fusion_tokens"),
        (2.0, "backbone.forward_fused"),
        (3.0, "end"),
        (4.0, "end"),
        (5.0, "avm.fusion_tokens"),
        (5.5, "end"),
        (6.0, "tensor.backward"),
        (8.0, "end"),
        (10.0, "end"),
    ])
    stats = aggregate(tracer.spans)
    step = stats["avm.avm_train_step"]
    assert (step.calls, step.total, step.self_time) == (1, 10.0, 10.0 - 3.0 - 0.5 - 2.0)
    fusion = stats["avm.fusion_tokens"]
    assert (fusion.calls, fusion.total, fusion.self_time) == (2, 3.5, 2.5)
    assert stats["backbone.forward_fused"].self_time == 1.0
    assert stats["tensor.backward"].self_time == 2.0
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0, 0]


def test_recursive_span_counts_its_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    _spans(tracer, clock, [(0.0, "f"), (1.0, "f"), (2.0, "end"), (4.0, "end")])
    f = aggregate(tracer.spans)["f"]
    assert (f.calls, f.total, f.self_time) == (2, 4.0, 4.0)


def test_aggregate_filters_by_operation():
    clock = FakeClock()
    tracer = Tracer(clock)
    _spans(tracer, clock, [(0.0, "setup"), (1.0, "end")])
    tracer.op = 0
    _spans(tracer, clock, [(1.0, "run"), (4.0, "end")])
    ops = aggregate(tracer.spans, lambda s: s.op >= 0)
    assert set(ops) == {"run"} and ops["run"].total == 3.0


def test_out_of_order_close_is_an_error():
    tracer = Tracer()
    a = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(a)


def test_instrumentation_rebinds_imported_names_and_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")
    exec("def leaf(x):\n    return x + 1\n"
         "def outer(x):\n    return leaf(x) * 2\n", mod.__dict__)
    user.leaf = mod.leaf  # as ``from fakepkg.mod import leaf`` would
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    original = mod.leaf
    tracer = Tracer()
    calls = []
    targets = [("mod.leaf", "fakepkg.mod", "leaf",
                lambda t, args, result: calls.append((args["x"], result))),
               ("mod.outer", "fakepkg.mod", "outer", None)]
    with Instrumentation(tracer, targets, "fakepkg"):
        assert mod.outer(1) == 4
        assert user.leaf(5) == 6
    assert mod.leaf is original and user.leaf is original
    assert [s.name for s in tracer.spans] == ["mod.outer", "mod.leaf", "mod.leaf"]
    assert tracer.spans[1].parent == 0
    assert calls == [(1, 2), (5, 6)]
    mod.outer(1)
    assert len(tracer.spans) == 3


def test_avcl_targets_resolve_and_restore():
    import avcl.trainer as tr
    from avcl import data as dt

    originals = (tt.matmul, dt.full_patchset, tr.full_patchset)
    tracer = Tracer()
    with Instrumentation(tracer, layers.targets(), layers.PACKAGE):
        assert tr.full_patchset is dt.full_patchset is not originals[1]
        tt.matmul(np.ones((2, 2)), np.ones((2, 2)))
    assert (tt.matmul, dt.full_patchset, tr.full_patchset) == originals
    assert [s.name for s in tracer.spans] == ["tensor.matmul"]


def test_tape_size_counts_recorded_nodes():
    x = tt.parameter(np.ones((3, 4)))
    loss = tt.sum_(tt.mul(x, 2.0))
    assert layers.tape_size(loss) == (2, 3 * 4 * 8 + 8)


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_emitted_metric_names_are_declared():
    blob = _benchmark()
    declared = {m["name"]: m["unit"] for m in blob["end_to_end"]}
    assert dict(workloads.END_TO_END) == declared
    declared = {m["name"]: m["unit"] for m in blob["per_layer"]}
    assert dict(layers.per_layer_names()) == declared
    assert {w["name"] for w in blob["workloads"]} == set(workloads.WORKLOADS)
    for name in list(dict(workloads.END_TO_END)) + [n for n, _ in layers.per_layer_names()]:
        assert NAME.fullmatch(name), name


def test_per_layer_metrics_emit_every_name():
    gauges = {"memory.bytes": 1.0, "trace.overhead_ms": 1.0,
              "trace.overhead_pct": 1.0, "trace.spans": 1.0}
    out = layers.per_layer_metrics({}, {}, {}, units=4, setups=1, gauges=gauges)
    assert list(out) == [n for n, _ in layers.per_layer_names()]


def test_end_to_end_emits_every_name(tmp_path):
    clock = FakeClock()
    s = workloads.Session(workloads.WORKLOADS["derpp_full"], 1, tmp_path)
    s.tracer = Tracer(clock)
    _spans(s.tracer, clock, [(0.0, "setup"), (0.5, "end")])
    for k in range(3):
        base = 1.0 + 10 * k
        s.tracer.op = k
        events = [(base, "run"), (base + 1, "trainer.train_step"), (base + 2, "end"),
                  (base + 3, "trainer.evaluate_tasks"), (base + 4, "end"),
                  (base + 5, "trainer.save_task_artifacts"), (base + 6, "end"),
                  (base + 7, "end"), (base + 8, "resume"), (base + 9, "end")]
        _spans(s.tracer, clock, events)
        s.tracer.count("eval_pairs", 32)
    s.tracer.op = -1
    _spans(s.tracer, clock, [(40.0, "setup"), (41.0, "end")])
    s.last_bytes = 10
    metrics, counts = workloads.end_to_end(s, avg_acc=12.5)
    assert metrics["setup_s"] == 0.75
    assert list(metrics) == [n for n, _ in workloads.END_TO_END]
    assert metrics["train_pairs_per_s"] == workloads.BATCH * 3 / 3.0
    assert metrics["eval_pairs_per_s"] == 96 / 3.0
    assert counts["step_ms"] == 3
