"""AST checks that keep the package free of dead code.

- Imports: each name a package module binds with a top-level ``import`` or
  ``from ... import`` must be read somewhere in that module.
- Definitions: each module-level function and class, and each method whose
  name has no leading underscore, must be read by name (an ``ast.Name`` or
  an attribute name in a load context) outside its own body: in a package
  module, or in the benchmark's ``bench/*.py``.  Reads from the tests do not
  count, so the package holds only what the pipeline runs.
- Parameters: each parameter of a module-level function or of a method,
  other than ``self`` and ``cls``, must be read (as a name) in the function's
  body, and each parameter with a default must be passed, by keyword or by
  position, in at least one call of a function or attribute of that name in
  a package module or in ``bench/*.py``.  Calls from the tests do not count.
- Attributes: each attribute a package class assigns, an annotated field in
  its body or a ``self.x = ...`` in one of its methods, must be read by name
  (an attribute in a load context, or a ``getattr(obj, "x", ...)`` with a
  constant name) in a package module or in ``bench/*.py``.  An annotated
  field of a class one of whose methods calls ``asdict(self)`` is read
  there, by the call; a same-named field of another class is not.  State
  only the tests read is computed by the tests from the public outputs
  instead.
- Defaults: each parameter with a default must be left out by at least one
  call in a package module or in ``bench/*.py``; a default that every such
  call overrides is reached from the tests alone, and the parameter is
  required instead.
- Keys: each constant key that package code stores into a ``dict`` field of
  a package class, as a key of a dict literal passed as that field to the
  class's constructor (by keyword or by position) or as
  ``obj.field["key"] = ...``, must be read as ``["key"]`` or
  ``.get("key")`` in a package module or in ``bench/*.py``.  String keys
  slip past the attribute check, so a diagnostic only the tests read is
  computed by the tests instead of being stored.
- Calls are matched by the name called, the function's or the attribute's,
  except that calls on the receiver ``np`` are NumPy's and never match.
- Allow-lists: ``ALLOWED`` and ``PARAMS_ALLOWED`` hold test seams only, each
  with the reason it stays: a definition or parameter the pipeline does not
  use but a test needs to reach a failure path or inject a case.  An entry
  that the checks no longer flag is stale, and every entry must be used by
  the tests: a definition read by name, a parameter passed by some call.
  The attribute, default and keys checks have no allow-list: nothing needs
  one.

The package's ``__init__.py`` holds only the package docstring and
``__version__``; the imports check covers it too, so a re-export it does
not read fails there.
"""

import ast
import importlib
import inspect
import types
import typing
from pathlib import Path

import pytest

import minsurflab

MODULES = sorted(Path(minsurflab.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

# definitions that only the tests read, with the reason each stays
ALLOWED = {}

# parameters that only the tests set, with the reason each stays
PARAMS_ALLOWED = {
    "cli.main(argv)": "the CLI tests run commands in process; the console script passes none",
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


def _calls_by_name(trees) -> dict:
    """{name called: [ast.Call]} over trees; a call is named by its function
    or by its attribute.  Calls on the receiver ``np`` are NumPy's and are
    skipped: ``np.zeros(...)`` is no call of ``SphereField.zeros``."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                        and func.value.id == "np":
                    continue
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
    return calls


def parameter_problems(modules: dict, callers: dict) -> dict:
    """{'module.function(parameter)': 'unread' or 'unset'} for each
    parameter of a function or method in modules ({name: source}) that its
    body never reads, or that has a default no call in modules or callers
    ({name: source}) passes.  Calls are matched by the name called: the
    function's, or the class's for __init__."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    calls = _calls_by_name([*trees.values(), *(ast.parse(src) for src in callers.values())])
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


def _attributes_assigned(tree) -> list:
    """(qualified name, attribute) of each attribute a class of the module
    assigns: an annotated field in the class body, or ``self.x = ...`` in
    one of its methods."""
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        names = [stmt.target.id for stmt in cls.body
                 if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    names.append(node.attr)
        out += [(f"{cls.name}.{name}", name) for name in dict.fromkeys(names)]
    return out


def _attributes_read(tree) -> set:
    """Attribute names loaded anywhere in tree, and the constant names of
    ``getattr(obj, "x", ...)`` calls."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            read.add(node.args[1].value)
    return read


def _fields_read_by_asdict(tree) -> set:
    """'Class.field' of each annotated field of a class of the module one of
    whose methods calls ``asdict(self)`` (or ``dataclasses.asdict(self)``),
    which reads every field of the class."""
    out = set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if any(isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "asdict"
               and node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
               for method in cls.body if isinstance(method, ast.FunctionDef)
               for node in ast.walk(method)):
            out |= {f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    return out


def unread_attributes(modules: dict, readers: dict) -> list:
    """'module.Class.attribute' of each attribute a class in modules ({name:
    source}) assigns that no module and no reader ({name: source}) reads by
    name, and that no asdict(self) in the class's own methods reads."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    read = set().union(*(_attributes_read(t) for t in trees.values()),
                       *(_attributes_read(ast.parse(src)) for src in readers.values()))
    by_asdict = {mod: _fields_read_by_asdict(tree) for mod, tree in trees.items()}
    return sorted(f"{mod}.{qual}" for mod, tree in trees.items()
                  for qual, name in _attributes_assigned(tree)
                  if name not in read and qual not in by_asdict[mod])


def _dict_fields(tree) -> dict:
    """{class name: [(field, position of the field)]} of the fields a class
    of the module annotates as ``dict`` or ``dict[...]``; the position is
    the field's place among the annotated fields, its constructor slot."""
    out = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = [stmt for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        for position, stmt in enumerate(fields):
            ann = stmt.annotation.value if isinstance(stmt.annotation, ast.Subscript) \
                else stmt.annotation
            if isinstance(ann, ast.Name) and ann.id == "dict":
                out.setdefault(cls.name, []).append((stmt.target.id, position))
    return out


def _constant_keys(node) -> list:
    """The string constant keys of a dict literal node; none for any other node."""
    if not isinstance(node, ast.Dict):
        return []
    return [k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)]


def _keys_read(tree) -> set:
    """String constants read as ``x["key"]`` or ``x.get("key", ...)`` in tree."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            read.add(key.value)
    return read


def unread_keys(modules: dict, readers: dict) -> list:
    """'module.Class.field["key"]' of each constant key that code in modules
    ({name: source}) stores into a dict field of a class in modules, through
    a dict literal passed as that field to the constructor or through
    ``obj.field["key"] = ...``, and that no module and no reader ({name:
    source}) reads as ``["key"]`` or ``.get("key")``.  Constructor calls are
    matched by the class name called, stores by the field name."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    read = set().union(*(_keys_read(t) for t in trees.values()),
                       *(_keys_read(ast.parse(src)) for src in readers.values()))
    owners, fields = {}, {}
    for mod, tree in trees.items():
        for cls, dict_fields in _dict_fields(tree).items():
            owners[cls], fields[cls] = f"{mod}.{cls}", dict_fields
    by_field = {name: cls for cls, dict_fields in fields.items() for name, _ in dict_fields}
    stored = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                for name, position in fields.get(called, []):
                    values = [k.value for k in node.keywords if k.arg == name]
                    if position < len(node.args):
                        values.append(node.args[position])
                    stored.update((called, name, key) for v in values for key in _constant_keys(v))
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Attribute) and node.value.attr in by_field
                  and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str)):
                stored.add((by_field[node.value.attr], node.value.attr, node.slice.value))
    return sorted(f'{owners[cls]}.{name}["{key}"]' for cls, name, key in stored if key not in read)


def always_passed_defaults(modules: dict, callers: dict) -> list:
    """'module.function(parameter)' of each defaulted parameter of a
    function or method in modules ({name: source}) that no call in modules
    or callers ({name: source}) leaves out: its default is reached only
    from elsewhere.  Calls are matched as in parameter_problems; a call with
    ``**kwargs`` counts as passing every parameter, one with ``*args`` every
    positional one."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    calls = _calls_by_name([*trees.values(), *(ast.parse(src) for src in callers.values())])
    out = []
    for mod, tree in trees.items():
        for qual, name, node in _definitions(tree, all_methods=True):
            if not isinstance(node, ast.FunctionDef):
                continue
            called = qual.split(".")[0] if name == "__init__" else name
            for param, position, defaulted in _parameters(qual, node):
                if defaulted and all(
                    _passes(call, param, position) for call in calls.get(called, [])
                ):
                    out.append(f"{mod}.{qual}({param})")
    return sorted(out)


def allow_list_unused(allowed, params_allowed, modules: dict, tests: dict) -> list:
    """Allow-list entries that the tests ({name: source}) do not use: a
    definition no test reads by name, or a parameter of a function in
    modules ({name: source}) that no call in the tests passes."""
    test_trees = [ast.parse(src) for src in tests.values()]
    read = set().union(*(_names_read(tree) for tree in test_trees))
    calls = _calls_by_name(test_trees)
    unused = [entry for entry in allowed if entry.rsplit(".", 1)[-1] not in read]
    for mod, src in modules.items():
        for qual, name, node in _definitions(ast.parse(src), all_methods=True):
            if not isinstance(node, ast.FunctionDef):
                continue
            called = qual.split(".")[0] if name == "__init__" else name
            for param, position, _ in _parameters(qual, node):
                entry = f"{mod}.{qual}({param})"
                if entry in params_allowed and not any(
                    _passes(call, param, position) for call in calls.get(called, [])
                ):
                    unused.append(entry)
    return sorted(unused)


def _package_and_bench() -> tuple:
    """({module: source} of the package, {bench/file: source})."""
    return ({p.stem: p.read_text() for p in MODULES},
            {f"bench/{p.name}": p.read_text() for p in BENCH})


def _package_unreferenced() -> list:
    return unreferenced_definitions(*_package_and_bench())


def _package_parameter_problems() -> dict:
    return parameter_problems(*_package_and_bench())


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
    # a call on the receiver np is NumPy's, whatever its name
    assert parameter_problems(modules, {"bench": "np.f(0, z=3)\nnp.grow(by=2)\n"}) == found


def test_every_attribute_is_read():
    assert BENCH, "bench/*.py not found next to tests/"
    assert unread_attributes(*_package_and_bench()) == []


def test_the_check_sees_an_unread_attribute():
    modules = {
        "a": (
            "from dataclasses import dataclass\n\n"
            "@dataclass\n"
            "class Piece:\n"
            "    value: float\n"
            "    history: list\n"
            "    info: dict\n\n"
            "class Grid:\n"
            "    def __init__(self, m):\n"
            "        self.m = m\n"
            "        self.nodes = m + 1\n"
            "        self._cache = {}\n\n"
            "    def size(self):\n"
            "        self.count = 1\n"
            "        return self.m\n"
        ),
        "b": "def caller(piece, grid):\n    return piece.value, grid.size(), getattr(piece, 'info', {})\n",
    }
    # a field, a self.x = ... in __init__ or in any other method; getattr
    # with a constant name and a read through self both count
    assert unread_attributes(modules, {}) == [
        "a.Grid._cache", "a.Grid.count", "a.Grid.nodes", "a.Piece.history",
    ]
    # a read in a reader module counts; a write elsewhere does not
    readers = {"bench": "grid.nodes\npiece.history = []\n"}
    assert unread_attributes(modules, readers) == ["a.Grid._cache", "a.Grid.count", "a.Piece.history"]
    # asdict(self) in a method reads every field of its own class only: not
    # a self.x = ... attribute, nor a same-named field of another class, nor
    # a field of a class whose method passes something else to asdict
    modules["c"] = (
        "from dataclasses import asdict, dataclass\n\n"
        "@dataclass\n"
        "class Report:\n"
        "    history: list\n"
        "    slab: tuple\n\n"
        "    def to_dict(self):\n"
        "        self.extra = 1\n"
        "        return asdict(self)\n\n"
        "@dataclass\n"
        "class Other:\n"
        "    slab: tuple\n\n"
        "    def to_dict(self, report):\n"
        "        return asdict(report)\n"
    )
    assert unread_attributes(modules, {}) == [
        "a.Grid._cache", "a.Grid.count", "a.Grid.nodes", "a.Piece.history",
        "c.Other.slab", "c.Report.extra",
    ]


def test_every_stored_key_is_read():
    assert BENCH, "bench/*.py not found next to tests/"
    assert unread_keys(*_package_and_bench()) == []


def test_the_check_sees_an_unread_key():
    modules = {
        "a": (
            "from dataclasses import dataclass, field\n\n"
            "@dataclass\n"
            "class Piece:\n"
            "    value: float\n"
            "    info: dict\n"
            "    notes: dict[str, float] = field(default_factory=dict)\n\n"
            "def build():\n"
            "    p = Piece(1.0, {'kept': 1, 'dropped': 2}, notes={'seen': 3, 'unseen': 4})\n"
            "    p.info['late'] = 5\n"
            "    p.notes['read_late'] = 6\n"
            "    return p, {'plain': 7}\n"
        ),
        "b": "def caller(p):\n    return p.info['kept'], p.notes.get('seen'), p.notes.get('read_late')\n",
    }
    # a key of a literal passed by position or keyword, and a subscript
    # store; a dict literal that is no field's value is not checked
    assert unread_keys(modules, {}) == [
        'a.Piece.info["dropped"]', 'a.Piece.info["late"]', 'a.Piece.notes["unseen"]',
    ]
    # a read in a reader module counts, as a subscript or through get
    readers = {"bench": "x['dropped']\ny.get('late', None)\n"}
    assert unread_keys(modules, readers) == ['a.Piece.notes["unseen"]']
    # a store is no read
    assert unread_keys(modules, {"bench": "x['unseen'] = 1\n"}) == [
        'a.Piece.info["dropped"]', 'a.Piece.info["late"]', 'a.Piece.notes["unseen"]',
    ]


def test_every_default_is_left_out_by_some_call():
    assert BENCH, "bench/*.py not found next to tests/"
    assert always_passed_defaults(*_package_and_bench()) == []


def test_the_check_sees_a_default_every_call_passes():
    modules = {
        "a": (
            "def f(x, y=1, *, z=2):\n    return x + y + z\n\n"
            "def unused(x=0):\n    return x\n\n"
            "class Box:\n"
            "    def __init__(self, size=0):\n        self.size = size\n\n"
            "    def grow(self, by=1):\n        return self.size + by\n"
        ),
        "b": (
            "from .a import Box, f\n\n"
            "def caller(box, args):\n"
            "    return f(1, 2, z=3), f(0, y=2, z=3), Box(1), box.grow(), f(*args, z=3)\n"
        ),
    }
    # a default no call leaves out is found, one that no call reaches too;
    # *args counts as passing every positional parameter
    assert always_passed_defaults(modules, {}) == [
        "a.Box.__init__(size)", "a.f(y)", "a.f(z)", "a.unused(x)",
    ]
    # a call in a reader module that leaves a default out counts
    readers = {"bench": "f(4)\nBox()\nunused()\n"}
    assert always_passed_defaults(modules, readers) == []
    # a call on the receiver np is NumPy's, whatever its name
    assert always_passed_defaults(modules, {"bench": "np.f(4)\nnp.Box()\n"}) == [
        "a.Box.__init__(size)", "a.f(y)", "a.f(z)", "a.unused(x)",
    ]


def test_allow_list_entries_are_used_by_the_tests():
    modules = {p.stem: p.read_text() for p in MODULES}
    tests = {p.name: p.read_text() for p in TESTS}
    assert allow_list_unused(ALLOWED, PARAMS_ALLOWED, modules, tests) == []


def test_the_check_sees_an_allow_list_entry_the_tests_do_not_use():
    modules = {
        "a": (
            "def f(x, y=1):\n    return x + y\n\n"
            "def g():\n    pass\n\n"
            "class Box:\n"
            "    def size(self, unit=1):\n        return unit\n"
        ),
    }
    tests = {"t": "from a import Box, f, g\n\nf(1, 2)\nBox().size()\n"}
    allowed, params = ["a.f", "a.g", "a.Box.size"], ["a.f(y)", "a.Box.size(unit)"]
    # an import alone is no read; a call that leaves the default passes nothing
    assert allow_list_unused(allowed, params, modules, tests) == ["a.Box.size(unit)", "a.g"]
    tests["u"] = "g()\nBox().size(unit=2)\n"
    assert allow_list_unused(allowed, params, modules, tests) == []


def unresolved_hints(module) -> list:
    """Qualified names of the functions, classes and methods defined in
    module whose annotations typing.get_type_hints cannot resolve, with the
    error it raises: an annotation that names a type its module does not
    bind passes at run time under ``from __future__ import annotations``
    and fails only when something asks for the hints."""
    found = []

    def check(qual, obj):
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # NameError for an unbound name, or other
            found.append(f"{qual}: {type(exc).__name__}: {exc}")

    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            check(f"{module.__name__}.{name}", obj)
        elif inspect.isclass(obj):
            check(f"{module.__name__}.{name}", obj)
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    check(f"{module.__name__}.{name}.{attr}", member)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_type_hints_resolve(path):
    name = "minsurflab" if path.stem == "__init__" else f"minsurflab.{path.stem}"
    assert unresolved_hints(importlib.import_module(name)) == []


def test_the_check_sees_an_unresolved_hint():
    module = types.ModuleType("sketch")
    exec(
        "from __future__ import annotations\n\n"
        "def f(x: int) -> Missing:\n    return x\n\n"
        "class Box:\n"
        "    size: float\n\n"
        "    def grow(self, by: Absent) -> Box:\n        return self\n\n"
        "    @property\n"
        "    def area(self) -> float:\n        return self.size\n",
        module.__dict__,
    )
    assert [entry.split(":")[0] for entry in unresolved_hints(module)] == [
        "sketch.f", "sketch.Box.grow",
    ]
