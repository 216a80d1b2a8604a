"""Self-checks of the benchmark: counter identities, tracer hygiene, inputs,
checks and the refusal paths. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.setdefault("METRICFLOW_THREADS", "1")
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import BINDINGS, Tracer, _resolve  # noqa: E402

import metricflow.cli as cli  # noqa: E402


def _cycle_docs(tmp_path, count: int, m: int = 4, n_times: int = 5, seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    times = inputs.jittered_grid(rng, n_times)
    paths = []
    for k in range(count):
        path = str(tmp_path / f"flow{k}.json")
        inputs.write_doc(inputs.static_cycle_doc(rng, m, times), path)
        paths.append(path)
    return paths


def _traced(argv: list) -> Tracer:
    tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()), tracer:
        assert cli.main(argv) == 0
    return tracer


def test_counter_identity_two_file_distance(tmp_path):
    # W1 calls = sum over s < t of n1*n2 cost entries, plus one per
    # participating time; min-max LPs = participating times
    a, b = _cycle_docs(tmp_path, 2)
    tracer = _traced(["distance", a, b, "--e-mode", "empty"])
    want = workloads.w1_identity(4, 4, 5)
    assert want == {"w1_calls": 165, "minmax_lp_calls": 5}
    assert tracer.calls["ot_core.w1"] == want["w1_calls"]
    assert tracer.calls["correspondence.minmax_lp"] == want["minmax_lp_calls"]
    assert tracer.calls["ot_core.lp"] <= tracer.calls["ot_core.w1"]


def test_triangle_w1_calls_as_they_stand(tmp_path):
    # three pairwise distances (3 x 165) plus d13's cost matrices, which
    # f_triangle_check rebuilds for its glued-coupling certificate (10 x 16)
    paths = _cycle_docs(tmp_path, 3)
    tracer = _traced(["distance", *paths, "--e-mode", "empty"])
    assert tracer.calls["ot_core.w1"] == 655
    assert tracer.calls["correspondence.minmax_lp"] == 15


def test_tracer_restores_every_binding(tmp_path):
    before = {(p, a): getattr(_resolve(p), a) for p, a, _ in BINDINGS}
    a, b = _cycle_docs(tmp_path, 2, n_times=3)
    tracer = _traced(["distance", a, b])
    assert all(getattr(_resolve(p), a) is fn for (p, a), fn in before.items())
    totals = tracer.totals()
    assert all(v >= 0.0 for v in totals["self_s"].values())
    assert totals["self_s"]["ot_core.lp"] > 0.0 and totals["doc_bytes"] > 0


def test_inputs_depend_only_on_seed(tmp_path):
    def shas(seed, sub):
        os.makedirs(tmp_path / sub)
        spec = workloads.build("transport", seed, str(tmp_path / sub))
        return [f["sha256"] for f in spec["fingerprints"]]

    first = shas(3, "a")
    assert first == shas(3, "b")
    assert first != shas(4, "c")


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    value, pct = run.tail(values)
    assert value == 89 and sum(v > value for v in values) == 10 and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_host_factors_rescale_to_the_reference_speed():
    import calibrate

    ref = calibrate.REF_S
    # the host halves its speed after the fourth op; each op is rescaled by
    # the units run nearest to it
    client = {"host": [(ref, ref)] * 4 + [(2 * ref, 4 * ref)] * 8,
              "ops": [("a", 1.0, 1.0, True)] * 4 + [("b", 2.0, 4.0, True)] * 8}
    factors = run.host_factors(client)
    assert factors[0] == (1.0, 1.0) and factors[-1] == (0.5, 0.25)
    assert run.scaled_ops([client])[-1] == ("b", 1.0, 1.0)
    wall, cpu = calibrate.measure()
    assert wall > 0.0 and cpu > 0.0


def test_diff_tolerance_and_structure():
    assert checks.diff({"r": 1.0, "E": [1]}, {"r": 1.0 + 1e-12, "E": [1]}) == []
    assert checks.diff({"r": 1.0}, {"r": 1.0 + 1e-6})
    assert checks.diff({"E": [1]}, {"E": [2]})
    op = {"kind": "triangle", "expect": {}}
    out = {"holds": True, "certificate_ok": False, "certificate_value": 0.1,
           "d12": 0.1, "d23": 0.1, "d13": float("nan")}
    assert len(checks.invariant_errors(op, out)) == 2


def test_reference_covers_every_op(tmp_path):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    for name in workloads.NAMES:
        os.makedirs(tmp_path / name)
        spec = workloads.build(name, run.DEFAULT_SEED, str(tmp_path / name))
        assert [f["sha256"] for f in spec["fingerprints"]] == \
            [f["sha256"] for f in ref[name]["fingerprints"]]
        assert sorted(op["name"] for op in spec["ops"]) == sorted(ref[name]["ops"])


def test_compare_refuses_different_inputs():
    def record(sha):
        return {"workload": "flow", "environment": {"traced": False},
                "inputs": {"documents": [{"sha256": sha}]}}

    assert compare.refusal(record("a"), record("a")) is None
    assert "fingerprints" in compare.refusal(record("a"), record("b"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_ops_pass_their_checks(tmp_path, name):
    spec = workloads.build(name, 5, str(tmp_path))
    for op in spec["ops"]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op["argv"]) == 0
        assert checks.invariant_errors(op, checks.read_output(op)) == []
