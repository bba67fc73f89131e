"""Every single-underscore function and class of ``src/skos`` is named
somewhere else in ``src/skos``.

A private name is for use inside the package, so one that no module
names again is dead code.  A name counts when it is read (``_f(x)``,
``module._f``), string annotations included, anywhere but its own
``def`` or ``class`` line.  Dunder names are Python's and are skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "skos"


def _names(tree: ast.AST):
    """Every name and attribute read in ``tree``, looking inside string annotations."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield from _names(ast.parse(part.value, mode="eval"))


def unnamed_private(sources: dict[str, str]) -> list[str]:
    """``module:name (line n)`` for each private function or class that no source names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = {name for tree in trees.values() for name in _names(tree)}
    return [
        f"{module}:{node.name} (line {node.lineno})"
        for module, tree in sorted(trees.items())
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in named
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
            "def public(): return _Used\n"
        ),
        "b.py": "import a\nclass _Hinted: pass\nprint(a._helper(1))\n",
    }
    assert unnamed_private(sources) == ["a.py:_Dead (line 2)", "a.py:_orphan (line 5)"]
