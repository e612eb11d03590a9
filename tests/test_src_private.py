"""No module of ``src/quadder`` reads another module's private names.

A read of ``x._name`` (``x`` not ``self`` or ``cls``, ``_name`` not a
dunder) must name something the reading module defines itself: a function,
a class, or a name or attribute it assigns.  Otherwise one module depends
on another's internals, and a decision such as a buffer's layout gets
worked out in two places.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadder"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_reads(tree: ast.Module) -> list:
    nodes = list(ast.walk(tree))
    defined = set()
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.alias):
            defined.add(node.asname or node.name)
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and _private(node.attr) and node.attr not in defined
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]


def test_no_module_reads_another_modules_private_names():
    found = {path.name: reads for path in sorted(PACKAGE.glob("*.py"))
             if (reads := _foreign_private_reads(ast.parse(path.read_text(), path.name)))}
    assert not found


def test_the_guard_sees_a_foreign_private_read():
    assert _foreign_private_reads(ast.parse("def f(nl):\n    return nl._plan.slots\n")) == [
        "line 2: nl._plan"]
    assert not _foreign_private_reads(ast.parse(
        "class P:\n    _plan = 1\n\ndef f(nl, cls):\n    return nl._plan, cls._x, nl.__dict__\n"))
