"""AST checks that keep the package free of dead code.

- Imports: each name a package module binds with a top-level ``import`` or
  ``from ... import`` must be read somewhere in that module.
- Definitions: each module-level function and class, and each method whose
  name has no leading underscore, must be read by name (an ``ast.Name`` or
  an attribute name in a load context) outside its own body: in a package
  module, or in the benchmark's ``bench/*.py``.  Reads from the tests do not
  count; the few definitions only the tests use are listed in ``ALLOWED``
  with the reason each stays.

The package's ``__init__.py`` re-exports names and is skipped by both
checks: as a reader it would make the definitions check vacuous.
"""

import ast
from pathlib import Path

import pytest

import minsurflab

MODULES = sorted(
    p for p in Path(minsurflab.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))

# definitions that only the tests read, with the reason each stays
ALLOWED = {
    "cli.section_export": "hyperplane-section export of the charts; tests check its cuts",
    "neck.build_sigma_eps": "the opened-neck background on [r_eps/2, r0/2], checked by the neck tests",
    "neck.solve_annulus_mixed": "the annulus solve of the linear estimate, the A2 oracle",
    "outer.solve_outer_linear": "global linear solve with the deficiency columns, tested on its own",
    "outer.cauchy_U": "U_0 and its gap to U_eps, checked by A5; the glue reads only U_eps",
    "spectral.ZonalGrid.from_bands": "inverse of to_bands, the oracle of the band-transform tests",
    "spectral.SphereField.axial_coefficients": "meridian coefficients that test eval_meridian",
    "verify.harnack_ratios": "Harnack ratios over intrinsic balls, a verify oracle no workload runs",
}


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


def _definitions(tree) -> list:
    """(qualified name, name, node) of the checked definitions of a module."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{sub.name}", sub.name, sub) for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


def _names_read(tree, skip=None) -> set:
    """Names loaded as a Name or an attribute anywhere in tree but skip."""
    read = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return read


def unreferenced_definitions(modules: dict, readers: dict) -> list:
    """'module.qualified name' of each definition in modules ({name: source})
    that no module reads outside the definition's own body; readers
    ({name: source}) are read but not checked."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    others = set().union(*(_names_read(ast.parse(src)) for src in readers.values()))
    out = []
    for mod, tree in trees.items():
        reads_elsewhere = others.union(
            *(_names_read(t) for name, t in trees.items() if name != mod)
        )
        for qual, name, node in _definitions(tree):
            if name not in reads_elsewhere and name not in _names_read(tree, skip=node):
                out.append(f"{mod}.{qual}")
    return sorted(out)


def allow_list_problems(unreferenced: list, allowed) -> tuple:
    """(unreferenced names not on the allow-list, allow-list entries that
    no longer name an unreferenced definition)."""
    return sorted(set(unreferenced) - set(allowed)), sorted(set(allowed) - set(unreferenced))


def _package_unreferenced() -> list:
    return unreferenced_definitions(
        {p.stem: p.read_text() for p in MODULES},
        {f"bench/{p.name}": p.read_text() for p in BENCH},
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .a import b, c\nprint(np, c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


def test_every_definition_is_read():
    assert BENCH, "bench/*.py not found next to tests/"
    unlisted, _ = allow_list_problems(_package_unreferenced(), ALLOWED)
    assert unlisted == []


def test_allow_list_names_only_unreferenced_definitions():
    _, stale = allow_list_problems(_package_unreferenced(), ALLOWED)
    assert stale == []


def test_the_check_sees_an_unreferenced_definition():
    modules = {
        "a": (
            "def used():\n    pass\n\n"
            "def recursive():\n    return recursive()\n\n"
            "class Box:\n"
            "    def size(self):\n        return 1\n\n"
            "    def _hidden(self):\n        pass\n"
        ),
        "b": "from .a import used\n\ndef caller(x):\n    return used(), x.size\n",
    }
    found = unreferenced_definitions(modules, {})
    assert found == ["a.Box", "a.recursive", "b.caller"]
    # a read in a reader module counts; a read in the definition's own body does not
    assert unreferenced_definitions(modules, {"bench": "Box\ncaller\n"}) == ["a.recursive"]
    # an allow-listed name that gains a caller is reported as stale
    assert allow_list_problems(found, ["a.Box", "a.used"]) == (["a.recursive", "b.caller"], ["a.used"])
