"""Package hygiene: public names that only tests call.

A helper with no caller in the package is either wired into a production
path or deleted.  This pins the remaining list, so a new test-only helper
fails here, and so does wiring or deleting one without shrinking the list.
"""

import ast
from pathlib import Path

import avcl

PACKAGE = Path(avcl.__file__).parent

#: public module-level names with no reference in the package outside their
#: own definition
UNREFERENCED = {"matching_accuracy", "selection_quality"}


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _avcl_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to an ``avcl`` module anywhere in ``tree``
    (``import avcl.tensor as tt``, ``from avcl import avm as am``)."""
    aliases = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Import):
            aliases.update(a.asname for a in sub.names
                           if a.asname and a.name.startswith("avcl."))
        elif isinstance(sub, ast.ImportFrom) and sub.module == "avcl":
            aliases.update(a.asname or a.name for a in sub.names)
    return aliases


def _referenced(node: ast.AST, own: set[str], aliases: set[str]) -> set[str]:
    """Names read under ``node`` (bare, as an attribute of an ``avcl`` module
    alias, or by import), except those in ``own``.  ``np.exp`` is not a
    read of a package ``exp``; ``tt.exp`` is."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in aliases):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found - own


def _unreferenced_public_names() -> set[str]:
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = _avcl_aliases(tree)
        for node in tree.body:
            own = {n for n in _defined(node) if not n.startswith("_")}
            defined |= own
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                # a target is not a read of itself; its value may be
                node = node.value
            if node is not None:
                used |= _referenced(node, own, aliases)
    return defined - used


def test_test_only_helpers_are_the_pinned_list():
    assert _unreferenced_public_names() == UNREFERENCED
