"""Every module-level import of the package's modules is used.

An AST check: each name a module binds with a top-level ``import`` or
``from ... import`` must be read somewhere in that module.  The package's
``__init__.py`` re-exports names and is skipped.
"""

import ast
from pathlib import Path

import pytest

import minsurflab

MODULES = sorted(
    p for p in Path(minsurflab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .a import b, c\nprint(np, c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]
