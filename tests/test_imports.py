"""No module of the package, test file or demo imports a name it does not
use, no definition of the package goes unread, no module of the package
reaches into another's private fields or imports inside a function, the
analysis builds a random generator only in the stream cache, only the
Hermitian oracle reads the Hadamard ratio, and the test modules share
their helpers without importing one another.

A name counts as used where it is read anywhere in the module, annotations
included, or listed in ``__all__``.  The package's ``__init__`` only
re-exports, so it is left out.  A helper or oracle that more than one test
reads lives in a module that is not a test (``shared_states``, ``pinned``,
``strategies`` or ``oracles/<layer>``), once.
"""

import ast
from collections import Counter, defaultdict

import pytest
from pinned import ROOT

TESTS = ROOT / "tests"
PACKAGE = sorted(p for p in (ROOT / "src" / "detvar").glob("*.py") if p.name != "__init__.py")
MODULES = (PACKAGE + sorted(TESTS.glob("*.py")) + sorted((TESTS / "oracles").glob("*.py"))
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


def foreign_private_fields(source: str) -> list:
    """(line, name) of each ``x._name`` that a module reads or writes, with
    ``x`` not ``self`` or ``cls``, for a private ``_name`` the module does
    not define.  A module defines the names of its functions and classes
    (methods too), its ``__slots__`` entries and the attributes it assigns.
    Dunder names are Python's own."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            defined |= set(ast.literal_eval(node.value))
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not node.attr.endswith("__") and node.attr not in defined
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))


def test_the_check_sees_a_foreign_private_field():
    snippet = ("class A:\n    __slots__ = ('_a',)\n\n    def _f(self):\n        return self._g\n"
               "\ndef h(x, cls):\n    x._b = x.__class__\n    return x._a, x._b, x._f, x._c, cls._d\n")
    assert foreign_private_fields(snippet) == [(9, "_c")]


@pytest.mark.parametrize("module", PACKAGE, ids=lambda p: p.name)
def test_no_module_reaches_into_another_modules_private_fields(module):
    assert foreign_private_fields(module.read_text()) == []


def imports_in_functions(source: str) -> list:
    """The line of each import statement that sits inside a function, at
    any depth; a module of the package imports at its top only."""
    return sorted({sub.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))})


def test_the_check_sees_an_import_in_a_function():
    snippet = ("import os\n\nclass A:\n    import json\n\n    def f(self):\n"
               "        import sys\n\n        def g():\n            from os import path\n"
               "            return path\n        return sys, g\n")
    assert imports_in_functions(snippet) == [7, 10]


@pytest.mark.parametrize("module", PACKAGE, ids=lambda p: p.name)
def test_no_module_of_the_package_imports_in_a_function(module):
    assert imports_in_functions(module.read_text()) == []


def generators_built(source: str) -> list:
    """(line, owner) of each ``random.Random(...)`` or ``Random(...)`` call
    in a module, owner the top-level function or class it sits in, or None
    at module level."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Name) and func.id == "Random") or (
                    isinstance(func, ast.Attribute) and func.attr == "Random"
                    and isinstance(func.value, ast.Name) and func.value.id == "random"):
                found.append((node.lineno, getattr(top, "name", None)))
    return sorted(found)


def test_the_check_sees_a_generator_built():
    snippet = ("import random\nfrom random import Random\nR = random.Random(1)\n\n"
               "def f(seed):\n    return Random(seed), random.random()\n")
    assert generators_built(snippet) == [(3, None), (6, "f")]


# where a package module may build a random.Random: the analysis reads each
# of its streams through the stream cache (states._fixed_draw and
# states.Stream), kept once per process, so that no step quietly redraws a
# stream on every analysis; the state generators draw once per call
GENERATOR_OWNERS = {
    "variety.py": set(),
    "factorization.py": set(),
    "states.py": {"_fixed_draw", "Stream", "random_mixed", "random_separable",
                  "random_local_unitary"},
}


@pytest.mark.parametrize("name", sorted(GENERATOR_OWNERS))
def test_the_analysis_builds_a_generator_only_in_the_stream_cache(name):
    source = (ROOT / "src" / "detvar" / name).read_text()
    assert {owner for _, owner in generators_built(source)} == GENERATOR_OWNERS[name]


def ratio_readers(source: str) -> list:
    """The qualified name (``Class.method``, ``function``, or ``<module>``
    at top level) of each scope of a module that reads ``_hadamard_ratios``,
    by a call or as a value, plain or through a module; the function's own
    recursive call aside."""
    found = set()

    def visit(node: ast.AST, scope: list) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name == "_hadamard_ratios" and scope[-1:] != [name]:
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_the_check_sees_a_ratio_reader():
    snippet = ("def _hadamard_ratios(m):\n    return _hadamard_ratios(m[1:])\n\n"
               "class Variety:\n    def hermitian_residuals(self, pts):\n"
               "        return _hadamard_ratios(pts)\n\n"
               "def probe(qs):\n    f = _hadamard_ratios\n    return f(qs)\n\n"
               "def other(mod):\n    def inner():\n        return mod._hadamard_ratios(1)\n"
               "    return inner\n\nR = _hadamard_ratios\n")
    assert ratio_readers(snippet) == ["<module>", "Variety.hermitian_residuals",
                                      "other.inner", "probe"]


# the one float Hermitian oracle: no other code of the package computes a
# Hadamard ratio, so a change to the ratio's rule changes one reader
RATIO_READERS = {"Variety.hermitian_residuals", "Variety.hermitian_residual"}


@pytest.mark.parametrize("module", PACKAGE, ids=lambda p: p.name)
def test_only_the_hermitian_oracle_reads_the_hadamard_ratio(module):
    assert set(ratio_readers(module.read_text())) <= RATIO_READERS


def names_read(node: ast.AST) -> set:
    """Every name a piece of code reads: names, attributes, and the names
    its ``from`` imports bind."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
    return read


def defined_names(node: ast.stmt) -> list:
    """The names a top-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_definitions(root) -> list:
    """(module, name) of each top-level definition of the package that no
    other top-level statement of the package reads, nor a demo or the
    benchmark (its code, and the functions spans.py wraps by name).  The
    tests do not count, and dunder names are Python's own."""
    read = set()
    for path in sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= names_read(tree)
        if path.name == "spans.py":
            for node in tree.body:
                if isinstance(node, ast.Assign) and defined_names(node) in (["TRACED"], ["COUNTED"]):
                    read |= {fn.split(".")[0] for _, fn in ast.literal_eval(node.value)}
    statements = [(path.stem, node) for path in sorted((root / "src" / "detvar").glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    reads = [names_read(node) for _, node in statements]
    readers = Counter(name for r in reads for name in r)
    return [(module, name) for (module, node), own in zip(statements, reads)
            for name in defined_names(node)
            if not name.startswith("__") and name not in read
            and readers[name] - (name in own) == 0]


def test_the_check_sees_an_unread_definition(tmp_path):
    package = tmp_path / "src" / "detvar"
    package.mkdir(parents=True)
    (package / "a.py").write_text("X = 1\nY = X\ndef f():\n    return f()\n")
    assert unread_definitions(tmp_path) == [("a", "Y"), ("a", "f")]


def test_every_definition_of_the_package_is_read():
    assert unread_definitions(ROOT) == []


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
