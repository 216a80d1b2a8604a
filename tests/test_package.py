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

