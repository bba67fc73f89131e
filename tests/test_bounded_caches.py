"""Every cache in ``src/skos`` has a bound.

A cache with no bound keeps one entry per distinct argument for the
life of the process, so a long run over many inputs grows it until
memory runs out.  Two ``functools`` forms have no bound:

- ``functools.cache`` on a function that takes parameters, and
  ``cache(f)`` called on a callable, whose parameters are not visible
  here (``@functools.cache`` on a function without parameters holds
  one value and is fine);
- ``lru_cache`` with ``maxsize=None``, given by keyword or as the first
  argument, as a decorator or called, e.g. ``lru_cache(maxsize=None)(f)``.

Names are resolved through the module's imports of ``functools``, aliases
included.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "skos"


def _functools_names(tree: ast.Module) -> tuple[dict[str, str], set[str]]:
    """The local names of ``functools`` members (alias -> member) and of
    the ``functools`` module itself."""
    members, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            members.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
    return members, modules


def unbounded_caches(sources: dict[str, str]) -> list[str]:
    """``module:line: form`` for each cache without a bound."""
    found = []
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        members, modules = _functools_names(tree)

        def member(node):
            if isinstance(node, ast.Name):
                return members.get(node.id)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                return node.attr
            return None

        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                if a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg:
                    found += [f"{module}:{d.lineno}: cache on {node.name}, which takes parameters"
                              for d in node.decorator_list if member(d) == "cache"]
            elif isinstance(node, ast.Call):
                name = member(node.func)
                maxsize = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if name == "cache":
                    found.append(f"{module}:{node.lineno}: cache called on a callable")
                elif name == "lru_cache" and any(isinstance(v, ast.Constant) and v.value is None for v in maxsize):
                    found.append(f"{module}:{node.lineno}: lru_cache with maxsize=None")
    return sorted(found)


def test_every_cache_in_src_is_bounded():
    assert unbounded_caches({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_detector_flags_unbounded_forms_only():
    sources = {
        "a.py": (
            "import functools\n"
            "from functools import cache, cached_property, lru_cache\n"
            "@functools.cache\n"
            "def build(): pass\n"
            "@lru_cache(maxsize=32)\n"
            "def bounded(x): pass\n"
            "@lru_cache\n"
            "def default(x): pass\n"
            "_parse = lru_cache(maxsize=1024)(int)\n"
            "class C:\n"
            "    @cached_property\n"
            "    def size(self): pass\n"
            "@functools.cache\n"
            "def grows(x): pass\n"
            "@lru_cache(maxsize=None)\n"
            "def unbounded(x): pass\n"
            "_coeff = lru_cache(maxsize=None)(int)\n"
            "_call = cache(int)\n"
        ),
        "b.py": (
            "import functools as ft\n"
            "from functools import cache as memo\n"
            "@ft.lru_cache(None)\n"
            "def positional(x): pass\n"
            "@memo\n"
            "def star(*args): pass\n"
        ),
        "c.py": "def cache(f): return f\n@cache\ndef local(x): pass\n",
    }
    assert unbounded_caches(sources) == [
        "a.py:13: cache on grows, which takes parameters",
        "a.py:15: lru_cache with maxsize=None",
        "a.py:17: lru_cache with maxsize=None",
        "a.py:18: cache called on a callable",
        "b.py:3: lru_cache with maxsize=None",
        "b.py:5: cache on star, which takes parameters",
    ]
