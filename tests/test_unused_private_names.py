"""Every single-underscore function, class and module-level name bound by
assignment in ``src/skos`` is read somewhere else in ``src/skos``.

A private name is for use inside the package, so one that no module
reads is dead code: a function or class never called, a table or
constant never consulted.  A name counts when it is read (``_f(x)``,
``module._f``), string annotations included; its own ``def`` or
``class`` line and every assignment to it are not reads.  Dunder names
are Python's and are skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "skos"


def _names(tree: ast.AST):
    """Every name and attribute read in ``tree``, looking inside string annotations."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield from _names(ast.parse(part.value, mode="eval"))


def _defined(tree: ast.Module):
    """(line, name) of every function and class in ``tree``, and of every
    name that an assignment at module level binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for part in (part for target in targets for part in ast.walk(target)):
                if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Store):
                    yield part.lineno, part.id


def unnamed_private(sources: dict[str, str]) -> list[str]:
    """``module:name (line n)`` for each private function, class or
    module-level assigned name that no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = {name for tree in trees.values() for name in _names(tree)}
    return [
        f"{module}:{name} (line {line})"
        for module, tree in sorted(trees.items())
        for line, name in sorted(_defined(tree))
        if name.startswith("_") and not name.startswith("__") and name not in named
    ]


def test_every_private_function_and_class_is_named():
    assert unnamed_private({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_detector_flags_unnamed_private_names_only():
    sources = {
        "a.py": (
            "class _Used: pass\n"
            "class _Dead: pass\n"
            "def _helper(x: '_Hinted') -> int:\n"
            "    return x\n"
            "def _orphan(): pass\n"
            "def __init__(self): pass\n"
            "def public(): return _Used, _LIMIT\n"
            "_LIMIT = 6\n"
            "_TABLE: dict = {}\n"
            "_ONE, _TWO = 1, 2\n"
            "__all__ = ['public']\n"
        ),
        "b.py": "import a\nclass _Hinted: pass\nprint(a._helper(1), a._TWO)\na._TABLE = {}\na._ONE = 3\n",
    }
    assert unnamed_private(sources) == [
        "a.py:_Dead (line 2)", "a.py:_orphan (line 5)", "a.py:_TABLE (line 9)", "a.py:_ONE (line 10)",
    ]
