"""Package hygiene: every container read goes through one layout check.

A tensor container read with ``checkpoint.load`` or ``read_entries`` is
outside input.  Before any of its tensors is looked up, it must reach
``checkpoint.check_layout``, which checks every name, shape and value
against a declared layout, so a new reader cannot bring back a bespoke
check.  The test follows each read's result by name through the package:
into the functions it is passed to, and into the sections that dict
comprehensions select from it.  A lookup (a subscript, or ``get``,
``pop``, ``items`` or ``values``) on a name not yet checked, in source
order, is a violation.  Two uses are not lookups: iterating the names, and
a lookup inside ``len`` or ``np.size``, which reads only the size a layout
may need.
"""

import ast
from pathlib import Path

import avcl

PACKAGE = Path(avcl.__file__).parent
READERS = {"load", "read_entries"}
ROUTINE = "check_layout"
SIZES = {"len", "size"}
LOOKUPS = {"get", "pop", "items", "values"}


def _parse() -> dict[str, list[ast.FunctionDef]]:
    """Every function of the package by name; each node knows its parent."""
    functions: dict[str, list[ast.FunctionDef]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
            if isinstance(node, ast.FunctionDef):
                node.file = path.name
                functions.setdefault(node.name, []).append(node)
    return functions


FUNCTIONS = _parse()


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _in_order(fn: ast.FunctionDef) -> list[ast.AST]:
    return sorted((n for n in ast.walk(fn) if hasattr(n, "lineno")),
                  key=lambda n: (n.lineno, n.col_offset))


def _section_of(value: ast.AST, names: set[str]) -> bool:
    """``value`` is a dict comprehension over ``x.items()`` for an ``x`` in
    ``names``: a section selected from that container."""
    if not isinstance(value, ast.DictComp):
        return False
    it = value.generators[0].iter
    return (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
            and it.func.attr == "items" and isinstance(it.func.value, ast.Name)
            and it.func.value.id in names)


def _is_section_iter(node: ast.Attribute) -> bool:
    call = node.parent
    return (node.attr == "items" and isinstance(call, ast.Call)
            and isinstance(call.parent, ast.comprehension)
            and _section_of(call.parent.parent, {node.value.id}))


def _reads_size(node: ast.AST) -> bool:
    parent = node.parent
    if isinstance(parent, ast.Call) and parent.func is node:  # x.get(...)
        parent = parent.parent
    return isinstance(parent, ast.Call) and _callee(parent) in SIZES


def _follow_call(call: ast.Call, passed: dict, report: dict, seen: set) -> None:
    """Follow the containers ``passed`` (keyed by argument position or
    keyword) into every package function the call may reach."""
    for callee in FUNCTIONS.get(_callee(call), []):
        params = [a.arg for a in callee.args.args]
        tainted = frozenset(params[i] if isinstance(i, int) else i for i in passed)
        if (callee.file, callee.name, tainted) not in seen:
            seen.add((callee.file, callee.name, tainted))
            _follow(callee, tainted, report, seen)


def _follow(fn: ast.FunctionDef, unchecked: set[str], report: dict,
            seen: set) -> None:
    """Walk ``fn`` in source order with the container names ``unchecked``;
    record lookups before a check in ``report["violations"]`` and the
    functions that check a container in ``report["checked_in"]``."""
    unchecked = set(unchecked)
    for node in _in_order(fn):
        if isinstance(node, ast.Assign) and _section_of(node.value, unchecked):
            unchecked |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and _callee(node.value) in READERS:
            unchecked |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.Call):
            passed = {i: a.id for i, a in enumerate(node.args)
                      if isinstance(a, ast.Name) and a.id in unchecked}
            passed.update({k.arg: k.value.id for k in node.keywords
                           if isinstance(k.value, ast.Name) and k.value.id in unchecked})
            if passed and _callee(node) == ROUTINE:
                unchecked -= set(passed.values())
                report["checked_in"].add(fn.name)
            elif passed:
                _follow_call(node, passed, report, seen)
        container = getattr(node, "value", None)
        if not (isinstance(container, ast.Name) and container.id in unchecked):
            continue
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr in LOOKUPS
                and not _is_section_iter(node)) and not _reads_size(node):
            report["violations"].append(f"{fn.file}:{node.lineno} {fn.name}")


def _container_reads() -> dict:
    """Follow the result of every reader call outside ``checkpoint.load``."""
    report = {"readers": set(), "checked_in": set(), "violations": []}
    seen: set = set()
    for fns in FUNCTIONS.values():
        for fn in fns:
            calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)
                     and _callee(n) in READERS]
            if not calls or (fn.file, fn.name) == ("checkpoint.py", "load"):
                continue
            report["readers"].add(f"{fn.file}:{fn.name}")
            _follow(fn, set(), report, seen)
            for call in calls:
                if isinstance(call.parent, ast.Call):  # read straight into a call
                    _follow_call(call.parent, {call.parent.args.index(call): None},
                                 report, seen)
                elif not isinstance(call.parent, ast.Assign):
                    report["violations"].append(f"{fn.file}:{call.lineno} {fn.name}")
    return report


def test_every_container_read_reaches_the_layout_check():
    report = _container_reads()
    assert report["violations"] == []
    # the guard sees every reader and every check they reach
    assert report["readers"] == {"cli.py:_load_model", "data.py:read_task_file",
                                 "trainer.py:run_sequence"}
    assert report["checked_in"] == {"read_task_file", "_restore_run",
                                    "memory_from_arrays"}
