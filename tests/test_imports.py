"""Every top-level import of a module in src/eplab is used in that module.

No linter is a dependency of the project, so this is the unused-import check:
a name bound by a top-level import must be read somewhere in the module.
`from __future__` imports bind nothing and are skipped.
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
