"""The package's public names, and no import that nothing reads."""

import ast
import importlib
import pathlib

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
