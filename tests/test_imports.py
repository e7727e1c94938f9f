"""No module of the package, test file or demo imports a name it does not
use, and the test modules share their helpers without importing one
another.

A name counts as used where it is read anywhere in the module, annotations
included, or listed in ``__all__``.  The package's ``__init__`` only
re-exports, so it is left out.  A helper or oracle that more than one test
reads lives in a module that is not a test (``shared_states``, ``pinned``,
``strategies`` or ``oracles/<layer>``), once.
"""

import ast
from collections import defaultdict

import pytest
from pinned import ROOT

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


def module_aliases(tree: ast.Module) -> dict:
    """The names a module binds to another name at top level, as ``EC =
    ExactComplex`` or ``EC, F = ExactComplex, Fraction``: alias -> name."""
    aliases = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            aliases.update((a.id, b.id) for a, b in pairs
                           if isinstance(a, ast.Name) and isinstance(b, ast.Name))
    return aliases


def definitions(source: str):
    """(name, AST dump) of each top-level function, class and assignment to
    one name, docstrings aside and every alias read as the name it stands
    for.  Aliases themselves define nothing, and a ``settings(...)`` object
    is a module's own example budget, so neither is listed."""
    tree = ast.parse(source)
    aliases = module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in aliases:
            node.id = aliases[node.id]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if ast.get_docstring(node) is not None:
                node.body = node.body[1:]
            yield node.name, ast.dump(node)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and not isinstance(node.value, ast.Name)
              and not (isinstance(node.value, ast.Call)
                       and isinstance(node.value.func, ast.Name)
                       and node.value.func.id == "settings")):
            yield node.targets[0].id, ast.dump(node.value)


def test_the_check_sees_a_helper_spelled_through_an_alias():
    plain = "from fractions import Fraction\nhalves = st.builds(Fraction, st.integers())\n"
    aliased = "from fractions import Fraction\nF = Fraction\nhalves = st.builds(F, st.integers())\n"
    assert list(definitions(plain)) == list(definitions(aliased))
    assert list(definitions("F = Fraction\nSETTINGS = settings(max_examples=5)\n")) == []


def test_no_helper_is_defined_twice():
    """No two modules under tests/ define a top-level function, class or
    assignment of the same name and the same definition."""
    homes = defaultdict(list)
    for path in sorted(TESTS.rglob("*.py")):
        for key in definitions(path.read_text()):
            homes[key].append(path.relative_to(TESTS).as_posix())
    assert [(name, paths) for (name, _), paths in homes.items() if len(paths) > 1] == []
