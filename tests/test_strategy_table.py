"""Package hygiene: a strategy is named only in its row of the table.

What a strategy does is read off ``trainer.STRATEGIES``; code that compares
a strategy name instead would let a new row silently miss a behaviour.
"""

import ast
from pathlib import Path

import avcl
from avcl import trainer as tr

PACKAGE = Path(avcl.__file__).parent


def _table_definition(tree: ast.Module) -> ast.AST | None:
    """The module-level assignment that binds ``STRATEGIES``, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "STRATEGIES"
                for t in node.targets):
            return node
    return None


def _strategy_literals() -> list[str]:
    names = set(tr.STRATEGIES)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        table = _table_definition(tree)
        inside = set() if table is None else {id(n) for n in ast.walk(table)}
        found += [f"{path.name}:{node.lineno}: {node.value!r}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in names
                  and id(node) not in inside]
    return found


def test_strategy_names_appear_only_in_the_table():
    assert _strategy_literals() == []
