"""Package hygiene: every public name resolves, and no module keeps an
import that it never uses (the leftovers that deletions tend to leave)."""

import ast
from pathlib import Path

import pytest

import leakyhurwitz

MODULES = sorted(path for path in Path(leakyhurwitz.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def test_public_names_resolve_once():
    names = leakyhurwitz.__all__
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert [name for name in names if not hasattr(leakyhurwitz, name)] == []


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    # a name read anywhere, also as the base of an attribute (math.comb)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_check_sees_a_leftover():
    assert _unused_imports("import math\nfrom os import path, sep\n"
                           "print(math.pi, sep)\n") == ["path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
