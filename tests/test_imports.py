"""AST checks that keep the package free of dead code.

- Imports: each name a package module binds with a top-level ``import`` or
  ``from ... import`` must be read somewhere in that module.
- Definitions: each module-level function and class, and each method whose
  name has no leading underscore, must be read by name (an ``ast.Name`` or
  an attribute name in a load context) outside its own body: in a package
  module, or in the benchmark's ``bench/*.py``.  Reads from the tests do not
  count; the few definitions only the tests use are listed in ``ALLOWED``
  with the reason each stays.
- Parameters: each parameter of a module-level function or of a method,
  other than ``self`` and ``cls``, must be read (as a name) in the function's
  body, and each parameter with a default must be passed, by keyword or by
  position, in at least one call of a function or attribute of that name in
  a package module or in ``bench/*.py``.  Calls from the tests do not count;
  the few parameters only the tests set are listed in ``PARAMS_ALLOWED`` with
  the reason each stays.

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

# parameters that only the tests set, with the reason each stays
PARAMS_ALLOWED = {
    "catenoid.build_catenoid_piece(max_iter)": "a test caps the iterations to reach the non-convergence failure",
    "catenoid.solve_PS(_zero_potential)": "returns the flat extension w0 alone, checked against its closed form",
    "cli.main(argv)": "the CLI tests run commands in process; the console script passes none",
    "cylinder.norm_exp(S)": "window start of the norm, checked against a loop reference by the norm tests",
    "neck.poisson_neck(cutoff)": "cutoff=False keeps the bare power law, which a test checks is exact when flat",
    "outer.nondegeneracy_check(extra_fields)": "a test injects a Jacobi field to show the check detects kernel",
    "outer.nondegeneracy_check(threshold)": "the injection test measures the kernel instead of being refused",
    "profile.solve_profile(max_substep)": "a test forces a coarse substep to reach the first-integral refusal",
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


def _definitions(tree, all_methods=False) -> list:
    """(qualified name, name, node) of the checked definitions of a module;
    methods whose names start with an underscore only with all_methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{sub.name}", sub.name, sub) for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and (all_methods or not sub.name.startswith("_"))]
    return out


def _names_read(tree, skip=None, attributes=True) -> set:
    """Names loaded as a Name, or as an attribute with attributes, anywhere
    in tree but skip."""
    read = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif attributes and isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def _parameters(qual: str, node) -> list:
    """(name, position in a call or None, has a default) of each parameter
    of a function node, without the self or cls of a method."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    if "." in qual and not static:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    out = [(p.arg, i, i >= first_default) for i, p in enumerate(positional)]
    out += [(p.arg, None, d is not None) for p, d in zip(args.kwonlyargs, args.kw_defaults)]
    return out + [(p.arg, None, False) for p in (args.vararg, args.kwarg) if p is not None]


def _passes(call, name: str, position) -> bool:
    """Whether call passes the parameter name (at position, if positional)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def parameter_problems(modules: dict, callers: dict) -> dict:
    """{'module.function(parameter)': 'unread' or 'unset'} for each
    parameter of a function or method in modules ({name: source}) that its
    body never reads, or that has a default no call in modules or callers
    ({name: source}) passes.  Calls are matched by the name called: the
    function's, or the class's for __init__."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    calls = {}
    for tree in [*trees.values(), *(ast.parse(src) for src in callers.values())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
    out = {}
    for mod, tree in trees.items():
        for qual, name, node in _definitions(tree, all_methods=True):
            if not isinstance(node, ast.FunctionDef):
                continue
            read = set().union(*(_names_read(stmt, attributes=False) for stmt in node.body))
            called = qual.split(".")[0] if name == "__init__" else name
            for param, position, defaulted in _parameters(qual, node):
                if param not in read:
                    out[f"{mod}.{qual}({param})"] = "unread"
                elif defaulted and not any(
                    _passes(call, param, position) for call in calls.get(called, [])
                ):
                    out[f"{mod}.{qual}({param})"] = "unset"
    return out


def _package_unreferenced() -> list:
    return unreferenced_definitions(
        {p.stem: p.read_text() for p in MODULES},
        {f"bench/{p.name}": p.read_text() for p in BENCH},
    )


def _package_parameter_problems() -> dict:
    return parameter_problems(
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


def test_every_parameter_is_read_and_set():
    assert BENCH, "bench/*.py not found next to tests/"
    problems = _package_parameter_problems()
    unlisted, _ = allow_list_problems(list(problems), PARAMS_ALLOWED)
    assert {entry: problems[entry] for entry in unlisted} == {}


def test_params_allow_list_names_only_flagged_parameters():
    _, stale = allow_list_problems(list(_package_parameter_problems()), PARAMS_ALLOWED)
    assert stale == []


def test_the_check_sees_an_unread_or_unset_parameter():
    modules = {
        "a": (
            "def f(x, y=1, *, z=2):\n    return x + y + z\n\n"
            "def g(x, unused):\n    return x\n\n"
            "class Box:\n"
            "    def __init__(self, size=0):\n        self.size = size\n\n"
            "    def grow(self, by=1):\n        return self.size + by\n\n"
            "    @staticmethod\n"
            "    def make(size=3):\n        return Box(size)\n"
        ),
        "b": "from .a import Box, f, g\n\ndef caller():\n    return f(1, 2), g(1, 2), Box.make(), Box().grow()\n",
    }
    found = parameter_problems(modules, {})
    assert found == {
        "a.f(z)": "unset",
        "a.g(unused)": "unread",
        "a.Box.grow(by)": "unset",
        "a.Box.make(size)": "unset",
    }
    # a call in a reader module counts, by keyword, position or ** mapping
    readers = {"bench": "f(0, z=3)\nBox.make(4)\nBox().grow(**{'by': 2})\n"}
    assert parameter_problems(modules, readers) == {"a.g(unused)": "unread"}
    # an allow-listed parameter that gains a caller is reported as stale
    assert allow_list_problems(list(found), ["a.f(z)", "a.f(y)"]) == (
        ["a.Box.grow(by)", "a.Box.make(size)", "a.g(unused)"], ["a.f(y)"]
    )
