"""Every name a ``hamop`` module imports, and every private function and
method it defines, is read somewhere in that module; every name a docstring
quotes exists; no CLI command handles an error itself.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` (``__future__`` aside)
must occur as a name that the module reads, or as the root of an attribute
chain.  A module-level function or a method whose name starts with ``_``
(dunders aside) must occur as a name the module reads or as an attribute.
``__init__`` re-exports the public API and is not checked for these two.

A name or dotted name in double backticks in any docstring, alone or
followed by an argument list, must resolve: to a ``hamop`` module, a
module attribute, a member or dataclass field of a ``hamop`` class, or a
builtin or standard-library name, with each further part an attribute of
the part before it; or to a parameter of the documented function (or of
the documented class's ``__init__``), or a class member, followed only by
class member names.  A docstring that still names a deleted helper fails.

A ``cmd_*`` function of ``hamop.cli`` contains no ``try`` statement and
names no error exit code: commands raise, and ``main`` maps each error to
its stderr line and exit code through the one table ``cli._EXITS``.

Only ``metrics`` and ``pointcheck``, the seeded samplers, import ``random``,
at module level or inside a function: exact algebra stays deterministic, so
whether anything probabilistic ran is a question about those two modules.

``metrics`` and ``spectral`` import nothing from ``verify``: a fact about one
metric lives with the metric, and the Segre classification reads metrics,
not the verifier."""

import ast
import builtins
import dataclasses
import functools
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import hamop

SRC = Path(__file__).resolve().parent.parent / "src" / "hamop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unused_private(source: str) -> list[str]:
    tree = ast.parse(source)
    defs = {}
    for scope in [tree, *(c for c in tree.body if isinstance(c, ast.ClassDef))]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(node.name):
                defs[node.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return sorted(f"{name} (line {line})" for name, line in defs.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_private_definitions(path):
    assert unused_private(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "from fractions import Fraction\nimport os.path\nimport sys\nprint(sys.argv)\n"
    assert unused_imports(source) == ["Fraction (line 1)", "os (line 2)"]


def test_unused_private_definition_is_found():
    source = (
        "def _used():\n    pass\n\n"
        "def _unused():\n    pass\n\n"
        "def __getattr__(name):\n    return _used\n\n"
        "class Frame:\n"
        "    def _pair(self):\n        pass\n\n"
        "    def _read(self):\n        pass\n\n"
        "    def public(self):\n        return self._read()\n"
    )
    assert unused_private(source) == ["_pair (line 11)", "_unused (line 4)"]


# -- docstring names ----------------------------------------------------------

QUOTED_NAME = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?``")
HAMOP_MODULES = {"hamop": hamop} | {
    p.stem: importlib.import_module(f"hamop.{p.stem}") for p in MODULES
}


@functools.cache
def class_members(cls) -> frozenset:
    """Attributes, dataclass fields and the ``self.x`` its methods assign."""
    names = set(dir(cls))
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    for node in ast.walk(ast.parse(inspect.getsource(cls))):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return frozenset(names)


@functools.cache
def all_members() -> frozenset:
    return frozenset().union(*(
        class_members(obj) for module in HAMOP_MODULES.values() for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__.startswith("hamop")
    ))


def _objects(head: str) -> list:
    """What a first name part can denote outside the documented function."""
    objs = [HAMOP_MODULES[head]] if head in HAMOP_MODULES else []
    objs += [vars(m)[head] for m in HAMOP_MODULES.values() if head in vars(m)]
    if hasattr(builtins, head):
        objs.append(getattr(builtins, head))
    if head in sys.stdlib_module_names:
        objs.append(importlib.import_module(head))
    return objs


def _walks(obj, rest) -> bool:
    for i, part in enumerate(rest):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif inspect.isclass(obj) and part in class_members(obj):
            return all_members().issuperset(rest[i + 1:])
        else:
            return False
    return True


def resolves(name: str, params: set) -> bool:
    head, *rest = name.split(".")
    if any(_walks(obj, rest) for obj in _objects(head)):
        return True
    return (head in params or head in all_members()) and all_members().issuperset(rest)


def _params(fn) -> set:
    a = fn.args
    return {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x}


def unresolved_docstring_names(source: str) -> list[str]:
    tree = ast.parse(source)
    documented = [(tree, set())]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            documented.append((node, _params(node)))
        elif isinstance(node, ast.ClassDef):
            init = [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
            documented.append((node, _params(init[0]) if init else set()))
    return [
        f"{m.group(1)} (line {getattr(node, 'lineno', 1)})"
        for node, params in documented
        for m in QUOTED_NAME.finditer(ast.get_docstring(node) or "")
        if not resolves(m.group(1), params)
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_docstring_names_resolve(path):
    assert unresolved_docstring_names(path.read_text(encoding="utf-8")) == []


def test_unresolved_docstring_name_is_found():
    source = (
        '"""Rows from ``families._condition_rows`` and ``geometry.killing_components``."""\n\n'
        "def solve(idx, stream):\n"
        '    """``idx.rows(stream)`` read by ``_const_matrix``, ``SparseSystem.add_row``,\n'
        '    ``Fraction``, ``fractions.Fraction``, ``report.conditions`` and ``true``."""\n'
    )
    assert unresolved_docstring_names(source) == [
        "families._condition_rows (line 1)",
        "_const_matrix (line 3)",
        "report.conditions (line 3)",
        "true (line 3)",
    ]


# -- CLI error handling ---------------------------------------------------------

ERROR_EXITS = {"EXIT_USAGE", "EXIT_INTERNAL", "EXIT_UNSUPPORTED"}


def command_error_handling(source: str) -> list[str]:
    """Each ``try`` statement and error exit code name in a ``cmd_*`` function."""
    found = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Try, ast.TryStar)):
                found.append(f"{fn.name}: try (line {node.lineno})")
            elif isinstance(node, ast.Name) and node.id in ERROR_EXITS:
                found.append(f"{fn.name}: {node.id} (line {node.lineno})")
    return found


def test_cli_commands_leave_errors_to_main():
    assert command_error_handling((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_command_error_handling_is_found():
    source = (
        "def cmd_a(args):\n"
        "    try:\n        run()\n    except E:\n        return EXIT_USAGE\n\n"
        "def cmd_b(args):\n    return EXIT_PASS if run() else EXIT_INTERNAL\n\n"
        "def _helper():\n    try:\n        return EXIT_UNSUPPORTED\n    finally:\n        pass\n"
    )
    assert command_error_handling(source) == [
        "cmd_a: try (line 2)", "cmd_a: EXIT_USAGE (line 5)", "cmd_b: EXIT_INTERNAL (line 8)",
    ]


# -- seeded sampling ------------------------------------------------------------

SAMPLERS = {"metrics", "pointcheck"}


def random_imports(source: str) -> list[int]:
    """The line of each import of ``random``, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import) and any(a.name == "random" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "random"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_only_the_samplers_import_random(path):
    if path.stem not in SAMPLERS:
        assert random_imports(path.read_text(encoding="utf-8")) == []


def test_random_import_is_found():
    source = (
        "import random\nimport randomness\nfrom random import Random\n\n"
        "def _draw(n):\n    import random as _random\n    return _random.Random(n)\n"
    )
    assert random_imports(source) == [1, 3, 6]


# -- layering -------------------------------------------------------------------

BELOW_VERIFY = ("metrics", "spectral")


def verify_imports(source: str) -> list[int]:
    """The line of each import of ``hamop.verify`` or of a name from it,
    relative or absolute, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            targets = [module] + [f"{module}.{a.name}".lstrip(".") for a in node.names]
        else:
            continue
        if any(t in ("verify", "hamop.verify") for t in targets):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("stem", BELOW_VERIFY)
def test_metrics_and_spectral_import_nothing_from_verify(stem):
    assert verify_imports((SRC / f"{stem}.py").read_text(encoding="utf-8")) == []


def test_verify_import_is_found():
    source = (
        "from .verify import pair_conditions\nfrom . import pointcheck, verify\n"
        "import hamop.verify\nfrom .verifying import check\nfrom .pointcheck import verify_at\n\n"
        "def _late():\n    from hamop import verify as vf\n    return vf\n"
    )
    assert verify_imports(source) == [1, 2, 3, 8]
