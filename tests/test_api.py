"""The package's public names."""

import importlib

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
