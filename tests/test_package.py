"""Package hygiene: every public name resolves and has a caller, no module
keeps an import or a private function or class that it never uses (the
leftovers that deletions tend to leave), every private name a module
defines is read by the package or a bench script, no doc names a private
that is gone, every module cache is bounded, start-up imports no heavy
stdlib module, and the public records keep the tuple contract."""

import ast
import copy
import importlib
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import leakyhurwitz
from leakyhurwitz.chambers import Wall
from leakyhurwitz.covers import CoverGraph, Problem, assemble_multiplicity
from leakyhurwitz.exactarith import LinForm
from leakyhurwitz.vertexdata import VertexKey

MODULES = sorted(path for path in Path(leakyhurwitz.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")
README = Path(__file__).resolve().parents[1] / "README.md"
DOCUMENTED = sorted(Path(leakyhurwitz.__file__).parent.glob("*.py")) + [README]


def test_public_names_resolve_once():
    names = leakyhurwitz.__all__
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert [name for name in names if not hasattr(leakyhurwitz, name)] == []


# exports that no module of the package and no bench script calls
UNCALLED_EXPORTS = {
    "check_cover": "the validator that the tests check listed covers with",
    "recursion_rhs": "the README's recursion checker, kept or moved by the owner",
}


def _reads(node: ast.AST) -> Counter:
    """How often each name is read within node, as a name or an attribute."""
    return Counter(ref.id if isinstance(ref, ast.Name) else ref.attr
                   for ref in ast.walk(node)
                   if isinstance(ref, ast.Attribute) or isinstance(ref, ast.Name)
                   and isinstance(ref.ctx, ast.Load))


def _uncalled_exports(names: list[str], sources: list[str]) -> list[str]:
    """The names that no source reads outside their own top-level function
    or class; an import alone is no read."""
    trees = [ast.parse(source) for source in sources]
    everywhere = sum(map(_reads, trees), Counter())
    own = Counter()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own[node.name] += _reads(node)[node.name]
    return [name for name in names if everywhere[name] == own[name]]


def test_uncalled_export_check_sees_a_leftover():
    sources = ["def used(): pass\ndef left(): return left()\nLIMIT = 3\n"
               "class Kept:\n    def of(self): return Kept()\n",
               "from a import used, left\nimport a\nprint(used(), a.Kept)\n"]
    assert _uncalled_exports(["used", "left", "LIMIT", "Kept"], sources) == [
        "left", "LIMIT"]


def test_every_export_has_a_caller():
    bench = Path(__file__).resolve().parents[1] / "bench"
    sources = [path.read_text() for path in MODULES + sorted(bench.glob("*.py"))]
    assert sorted(_uncalled_exports(leakyhurwitz.__all__, sources)) == sorted(
        UNCALLED_EXPORTS)


def _module_privates(source: str) -> list[str]:
    """The private names a module defines at its top level: its functions,
    classes and assigned names, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.endswith("__")]


def test_unread_private_check_sees_a_leftover():
    # a helper that only its tests call is read by no source scanned
    package = ("def _kept(): pass\ndef _left(): return _left()\n_TABLE = {}\n"
               "_LIMIT: int = 3\nclass _Bench: pass\nprint(_kept(), _LIMIT)\n")
    bench = "import a\na._Bench()\n"
    assert _uncalled_exports(_module_privates(package), [package, bench]) == [
        "_left", "_TABLE"]


def test_every_private_has_a_reader():
    bench = Path(__file__).resolve().parents[1] / "bench"
    package = [path.read_text() for path in sorted(MODULES + [
        Path(leakyhurwitz.__file__)])]
    privates = [name for source in package for name in _module_privates(source)]
    assert privates
    sources = package + [path.read_text() for path in sorted(bench.glob("*.py"))]
    assert _uncalled_exports(privates, sources) == []


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


def _references(node: ast.AST) -> Counter:
    """How often each name is read, as a name or an attribute, or imported
    within node."""
    return Counter(ref.id if isinstance(ref, ast.Name)
                   else ref.attr if isinstance(ref, ast.Attribute) else ref.name
                   for ref in ast.walk(node)
                   if isinstance(ref, (ast.Name, ast.Attribute, ast.alias)))


def _unreferenced_privates(sources: list[str]) -> list[str]:
    """The private top-level functions and classes of the sources that no
    source names outside their own definition."""
    trees = [ast.parse(source) for source in sources]
    everywhere = sum(map(_references, trees), Counter())
    return [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and everywhere[node.name] == _references(node)[node.name]]


def test_unreferenced_private_check_sees_a_leftover():
    sources = ["def _used(): pass\ndef _left(): return _left()\n"
               "class _Gone: pass\ndef __getattr__(name): pass\n",
               "from a import _used\nimport a\nprint(a._Alias)\n"
               "class _Alias: pass\n"]
    assert _unreferenced_privates(sources) == ["_left", "_Gone"]


def test_no_unreferenced_privates():
    package = Path(leakyhurwitz.__file__).parent
    assert _unreferenced_privates(
        [path.read_text() for path in sorted(package.glob("*.py"))]) == []


def _dead_references(text: str, names: set[str]) -> list[str]:
    """The private names (one leading underscore) in backticks in text that
    are not in names.  A backtick stands in Python source only inside a
    string or a comment, so a module's whole text is read."""
    return sorted(set(re.findall(r"`+(_[A-Za-z]\w*)", text)) - names)


def test_dead_reference_check_sees_a_leftover():
    text = ('"""Built by ``_kept``, once by ``_gone.run``; ``__init__`` and\n'
            'plain _free are no references."""\n# see `_kept` and `_left`\n')
    assert _dead_references(text, {"_kept"}) == ["_gone", "_left"]


def _package_attributes() -> set[str]:
    """The attribute names of every package module and of every class in one."""
    names = set()
    for module in [leakyhurwitz] + [importlib.import_module(
            f"leakyhurwitz.{path.stem}") for path in MODULES]:
        names.update(vars(module))
        names.update(name for value in vars(module).values()
                     if isinstance(value, type) for name in dir(value))
    return names


@pytest.mark.parametrize("path", DOCUMENTED, ids=lambda path: path.name)
def test_doc_references_resolve(path):
    assert _dead_references(path.read_text(), _package_attributes()) == []


MUTABLE_DISPLAYS = (ast.Dict, ast.Set, ast.List,
                    ast.DictComp, ast.SetComp, ast.ListComp)
MUTABLE_FACTORIES = ("dict", "set", "list", "defaultdict", "OrderedDict")


def _module_memos(tree: ast.Module) -> list[str]:
    """The module-level names other than ``__all__`` bound to a dict, set or
    list: a memo there outlives every call and nothing bounds it."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        call = value.func if isinstance(value, ast.Call) else None
        if not (isinstance(value, MUTABLE_DISPLAYS)
                or getattr(call, "attr", getattr(call, "id", None))
                in MUTABLE_FACTORIES):
            continue
        found += [name.id for target in targets for name in ast.walk(target)
                  if isinstance(name, ast.Name) and name.id != "__all__"]
    return found


def _unbounded_caches(source: str) -> list[str]:
    """The functions whose ``lru_cache`` or ``cache`` decorator passes no
    finite integer ``maxsize``, then the module-level memos."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            target = call.func if call else deco
            name = getattr(target, "attr", getattr(target, "id", None))
            if name not in ("lru_cache", "cache"):
                continue
            sizes = ([kw.value for kw in call.keywords if kw.arg == "maxsize"]
                     + call.args[:1]) if call else []
            if not (sizes and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int):
                found.append(node.name)
    return found + _module_memos(tree)


def test_cache_bound_check_sees_an_unbounded_cache():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.lru_cache(maxsize=8)\ndef a(): pass\n"
              "@lru_cache(16)\ndef b(): pass\n"
              "@lru_cache(maxsize=None)\ndef c(): pass\n"
              "@functools.lru_cache\ndef d(): pass\n"
              "@cache\ndef e(): pass\n")
    assert _unbounded_caches(source) == ["c", "d", "e"]


def test_cache_bound_check_sees_a_module_level_memo():
    source = ("import collections\n__all__ = ['f']\n_PLANS = {}\n"
              "_SEEN: set[int] = set()\nORDER = [1]\n"
              "_BY_KEY = collections.defaultdict(list)\n"
              "_SQUARES = {i: i * i for i in range(4)}\n"
              "LIMIT = 3\nNAMES = ('a',)\n_FROZEN = frozenset()\n"
              "def f():\n    local = {}\n    return local\n")
    assert _unbounded_caches(source) == [
        "_PLANS", "_SEEN", "ORDER", "_BY_KEY", "_SQUARES"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_caches_are_bounded(path):
    assert _unbounded_caches(path.read_text()) == []


STARTUP = """
import sys
import leakyhurwitz, leakyhurwitz.cli
leakyhurwitz.default_fixtures()
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # each CLI query and each bench pass is a fresh interpreter, which would
    # pay for both modules and for ast, dis and tokenize behind inspect
    env = dict(os.environ,
               PYTHONPATH=str(Path(leakyhurwitz.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", STARTUP], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


GOLDEN = Problem.of(1, 1, (7, -3, -1), (1, 0, 0))
COVER = CoverGraph((1, 0), ((1,), (2, 3)), ((0, 1, 5),), (0, 1))
RECORDS = [GOLDEN, COVER, assemble_multiplicity(GOLDEN, COVER),
           VertexKey(1, 3, (3, -1), (0, 1)), LinForm.of({1: 1, 2: 1}, k=-1),
           Wall.of(5, (1, 2))]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_frozen_tuples(record):
    assert hash(record) == hash(tuple(record))
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert clone == record and type(clone) is type(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_checking_records_check_on_replace():
    assert repr(GOLDEN) == "Problem(genus=1, k=1, x=(7, -3, -1), e=(1, 0, 0))"
    key = VertexKey(1, 3, (3, -1), (0, 1))
    assert key == (1, 3, (-1, 3), (1, 0))
    assert key._replace(degrees=(5, -2)) == (1, 3, (-2, 5), (0, 1))
    with pytest.raises(ValueError, match="equal length"):
        key._replace(psi=(0,))
