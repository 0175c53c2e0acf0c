"""Package hygiene: a rehearsal entry's fields are named only in the trainer.

``trainer._memory_layout`` decides what an entry stores and the training
step fills it; the memory itself stays generic over its fields.  A field
name spelled in another module would be a second place deciding the layout.
The patch fields share their names with the split tensors, which
``data.py`` spells for its own :class:`SampleSet`, so they are not guarded.
"""

import ast
from pathlib import Path

import avcl
from avcl import data as dt
from avcl import trainer as tr
from avcl.backbone import BackboneConfig

PACKAGE = Path(avcl.__file__).parent


def _entry_field_names() -> set[str]:
    """Every field some strategy's memory stores, less the dataset's names."""
    geom = dt.SceneGeometry()
    names = set()
    for strategy, row in tr.STRATEGIES.items():
        tcfg = tr.TrainConfig(strategy, memory_capacity=4 * (row.memory is not None),
                              **{k: tr.STRATEGY_KNOBS[k] for k in row.knobs})
        names |= set(tr._memory_layout(BackboneConfig(), tcfg, geom)[1])
    return names - set(dt._split_layout(geom, 1))


def test_guard_knows_every_stored_score_and_query():
    names = _entry_field_names()
    assert {"imp_audio", "corr_video", "q_audio", "feat_audio",
            "audio_indices"} <= names


def test_entry_fields_are_named_only_in_the_trainer():
    names = _entry_field_names()
    found = [f"{path.name}:{node.lineno}: {node.value!r}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "trainer.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value in names]
    assert found == []
