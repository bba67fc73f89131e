"""Every name a module of ``src/skos`` imports is used in that module.

A name is used when it is read anywhere in the module, string
annotations such as ``"GradedComplex"`` included; names that a module
lists in ``__all__`` are exported and count as used.  ``from __future__``
imports bind nothing and are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "skos"


def _names(tree: ast.AST):
    """Every name read in ``tree``, looking inside string annotations."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield from _names(ast.parse(part.value, mode="eval"))


def unused_imports(source: str) -> list[str]:
    """``name (line n)`` for each imported name the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set(_names(tree))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_names_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, lcm\n"
        "from typing import Iterator, Sequence\n"
        "from fractions import Fraction\n"
        "from decimal import Decimal\n"
        "__all__ = ['Fraction']\n"
        "def f(x: Iterator['Decimal']) -> 'Sequence[int]':\n"
        "    return gcd(x, os.sep)\n"
    )
    assert unused_imports(source) == ["js (line 3)", "lcm (line 4)"]
