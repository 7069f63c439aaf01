"""Every name a ``hamop`` module imports is read somewhere in that module.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` (``__future__`` aside)
must occur as a name that the module reads, or as the root of an attribute
chain.  ``__init__`` re-exports the public API and is not checked."""

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "from fractions import Fraction\nimport os.path\nimport sys\nprint(sys.argv)\n"
    assert unused_imports(source) == ["Fraction (line 1)", "os (line 2)"]
