"""Every name a ``hamop`` module imports, and every private function and
method it defines, is read somewhere in that module.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` (``__future__`` aside)
must occur as a name that the module reads, or as the root of an attribute
chain.  A module-level function or a method whose name starts with ``_``
(dunders aside) must occur as a name the module reads or as an attribute.
``__init__`` re-exports the public API and is not checked."""

import ast
from pathlib import Path

import pytest

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
