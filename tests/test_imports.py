"""Every top-level import of a module in src/eplab is used in that module,
and every private top-level function or class is used in the package.

No linter is a dependency of the project, so these are the unused-import
and dead-helper checks: a name bound by a top-level import must be read
somewhere in the module, and a top-level `def _name` or `class _name` must
be read somewhere in src/eplab outside its own body.  `from __future__`
imports bind nothing and are skipped.  Public names are API, reached from
outside the package, and are not checked.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "eplab").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """The names bound by top-level imports of source that it never reads,
    each as "name (line k)".  A dotted reference reads its root as a Name."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_top_level_import(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Optional\n"
        "import collections.abc\n"
        "def f(x: Optional[int]) -> collections.abc.Sequence:\n"
        "    return 'os'\n"
    )
    assert _unused_imports(source) == ["os (line 2)"]


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """The private top-level functions and classes of sources, a map from
    module name to text, that no top-level statement of any source but
    their own definition reads, each as "module.name (line k)".  A name is
    read as a Name, as an attribute or by a from-import."""
    defined, reads = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                own = node.name
                defined[own, module] = node.lineno
            read = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    read.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    read.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    read.update(alias.name for alias in sub.names)
            reads.append((own, module, read))
    return [
        f"{module}.{name} (line {line})"
        for (name, module), line in defined.items()
        if not any(name in read and (own, where) != (name, module) for own, where, read in reads)
    ]


def test_no_unreferenced_private_top_level_name():
    assert _unreferenced_private({path.stem: path.read_text() for path in SOURCES}) == []


def test_the_check_finds_an_unreferenced_private_name():
    sources = {
        "a": (
            "def _used():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Dead:\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "def public():\n"
            "    return _used()\n"
        ),
        "b": "from .a import _imported\n",
    }
    assert _unreferenced_private(sources) == ["a._recursive (line 3)", "a._Dead (line 5)"]
