"""The package's public names, no import that nothing reads or that CI
does not install, and no definition that nothing refers to."""

import ast
import collections
import importlib
import pathlib
import sys

import pytest


@pytest.mark.parametrize("module", ["spectral", "qwiener", "nemytskii", "schemes",
                                    "experiments", "cli"])
def test_every_all_entry_resolves(module):
    # a star import fetches each __all__ entry and raises on a stale one
    namespace = {}
    exec("from spderk.%s import *" % module, namespace)
    names = importlib.import_module("spderk." + module).__all__
    assert len(set(names)) == len(names)
    assert set(names) <= namespace.keys()


_ROOT = pathlib.Path(__file__).resolve().parent.parent
# __init__.py is left out: its imports are the package's API
_SOURCES = sorted(p for pattern in ("src/spderk/*.py", "tests/*.py", "demos/*.py")
                  for p in _ROOT.glob(pattern) if p.name != "__init__.py")


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: str(p.relative_to(_ROOT)))
def test_no_unused_module_level_import(path):
    # the name a module-level import binds is read somewhere in the module
    # or exported through __all__
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names if alias.name != "*"]
    assert [name for name in bound if name not in used] == []


def test_every_import_is_installed_in_ci():
    # CI installs numpy, pytest and hypothesis beside the standard library
    # (sys.stdlib_module_names, Python 3.10+); a package that is merely
    # present on a development machine, such as scipy, fails there
    own = {"spderk"} | {p.stem for pattern in ("tests/*.py", "demos/*.py")
                        for p in _ROOT.glob(pattern)}
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest", "hypothesis"} | own
    outside = []
    for path in sorted(p for pattern in ("src/**/*.py", "tests/**/*.py", "demos/**/*.py")
                       for p in _ROOT.glob(pattern)):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s: %s" % (path.relative_to(_ROOT), name) for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def _references(tree):
    """Each name a tree reads, imports or reaches as an attribute, with
    its count of occurrences."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
    return found


def test_no_unreferenced_top_level_definition():
    # every top-level def or class of the package is referred to somewhere
    # in the repository's code outside its own definition
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for pattern in ("src/**/*.py", "tests/**/*.py", "demos/**/*.py", "bench/**/*.py")
             for p in _ROOT.glob(pattern)}
    everywhere = sum((_references(tree) for tree in trees.values()), collections.Counter())
    unreferenced = [
        "%s:%s" % (path.name, node.name)
        for path in sorted(_ROOT.glob("src/spderk/*.py")) for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and everywhere[node.name] == _references(node)[node.name]
    ]
    assert unreferenced == []
