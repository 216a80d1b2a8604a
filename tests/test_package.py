"""Package surface: every exported name resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", [
    "metricflow",
    "metricflow.ot_core",
    "metricflow.flow_core",
    "metricflow.generators",
    "metricflow.correspondence",
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_each_public_name_is_listed_once():
    """The package exports exactly the module lists, in module order."""
    import metricflow
    from metricflow import correspondence, flow_core, generators, ot_core

    expected = ["__version__"]
    for mod in (ot_core, flow_core, generators, correspondence):
        expected += mod.__all__
    assert metricflow.__all__ == expected
    assert len(set(expected)) == len(expected)
