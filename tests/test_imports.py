"""No module of the package, test file or demo imports a name it does not
use, and the test modules share their helpers without importing one
another.

A name counts as used where it is read anywhere in the module, annotations
included, or listed in ``__all__``.  The package's ``__init__`` only
re-exports, so it is left out.  A helper or oracle that more than one test
reads lives in a module that is not a test (``shared_states``, ``pinned``
or ``oracles/<layer>``), once.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
MODULES = (sorted(p for p in (ROOT / "src" / "detvar").glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")) + sorted((TESTS / "oracles").glob("*.py"))
           + sorted((ROOT / "demos").glob("*.py")))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Dict\nx: List = []\n") == [
        (1, "os"), (2, "Dict")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.relative_to(TESTS).as_posix()
                         if p.parent.name == "oracles" else p.name)
def test_no_unused_import(module):
    assert unused_imports(module.read_text()) == []


def test_every_exported_name_resolves_and_star_binds_it():
    import detvar
    namespace = {}
    exec("from detvar import *", namespace)
    assert len(set(detvar.__all__)) == len(detvar.__all__)
    for name in detvar.__all__:
        assert hasattr(detvar, name), name
        assert namespace[name] is getattr(detvar, name), name


def test_no_test_module_imports_another():
    imports = []
    for path in sorted(TESTS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            imports += [(path.relative_to(TESTS).as_posix(), name) for name in names
                        if name.split(".")[0].startswith("test_")]
    assert imports == []


def test_no_helper_is_defined_twice():
    """No two modules under tests/ define a top-level function or class of
    the same name and the same definition, docstrings aside."""
    homes = defaultdict(list)
    for path in sorted(TESTS.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if ast.get_docstring(node) is not None:
                    node.body = node.body[1:]
                homes[node.name, ast.dump(node)].append(path.relative_to(TESTS).as_posix())
    assert [(name, paths) for (name, _), paths in homes.items() if len(paths) > 1] == []
