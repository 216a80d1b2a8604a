"""The benchmark's correctness gate, run as a test: every op of both
``perfbench`` workloads at the default seed, run through
``metricflow.cli.main``, gives the outputs pinned in
``perfbench/reference.json`` (floats at 1e-9 relative). Reads ``perfbench/``
and writes only under ``tmp_path``."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from metricflow import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_outputs_match_the_reference(tmp_path, name):
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    spec = workloads.build(name, run.DEFAULT_SEED, str(tmp_path))
    assert reference["seed"] == run.DEFAULT_SEED
    outputs = {}
    for op in spec["ops"]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op["argv"]) == 0, op["name"]
        outputs[op["name"]] = checks.read_output(op)
    assert checks.diff(reference["ops"], outputs) == []
