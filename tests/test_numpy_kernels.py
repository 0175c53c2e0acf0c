"""Package hygiene: the attention math exists once, in ``tensor.py``.

Softmax, the stable sigmoid and the scaled logits are numpy kernels there
that the tape's ops and the no-grad scoring pass share.  A second copy
elsewhere would need its own ``np.exp``, so that call is pinned to
``tensor.py``.
"""

import ast
from pathlib import Path

import avcl

PACKAGE = Path(avcl.__file__).parent


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to the numpy module (``import numpy as np``)."""
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for a in node.names
            if a.name == "numpy"}


def _exp_reads() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        numpy = _numpy_aliases(tree)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "exp"
                  and isinstance(node.value, ast.Name) and node.value.id in numpy]
    return found


def test_only_tensor_calls_np_exp():
    assert [site for site in _exp_reads() if not site.startswith("tensor.py:")] == []
    assert _exp_reads()  # the guard sees the kernels' own calls
