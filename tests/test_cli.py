"""Command-line interface: document round-trips, exit-code contract,
verification output, distances, and CSV reports."""

import csv
import json
import math
import re
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

import metricflow as mf
from metricflow import ProbMeasure, TimeGrid
from metricflow.cli import load_flow, main, save_flow

from conftest import C_STAR, console_argv, two_point_space


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def make_doc(tmp_path, name, *argv, capsys=None):
    path = tmp_path / name
    rc = main(list(argv) + ["--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture()
def tp4(tmp_path, capsys):
    p = make_doc(tmp_path, "tp4.json", "generate", "two-point", "--steps", "4")
    capsys.readouterr()
    return p


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def test_roundtrip_is_byte_identical(tmp_path, capsys):
    p1 = make_doc(tmp_path, "a.json", "generate", "two-point", "--steps", "6")
    flow = mf.cli.load_flow(p1)
    p2 = tmp_path / "b.json"
    save_flow(flow, str(p2))
    assert (tmp_path / "a.json").read_bytes() == p2.read_bytes()


@pytest.mark.filterwarnings("ignore:box half-width:UserWarning")
def test_generate_kinds(tmp_path, capsys):
    tp = make_doc(tmp_path, "tp.json", "generate", "two-point", "--steps", "3")
    st = make_doc(tmp_path, "st.json", "generate", "static", "--m", "4", "--steps", "3")
    make_doc(
        tmp_path, "g.json", "generate", "gaussian",
        "--L", "3", "--h", "0.2", "--times", "0,0.5,1",
    )
    prod = make_doc(tmp_path, "prod.json", "generate", "product", tp, st)
    flow = mf.cli.load_flow(prod)
    assert flow.metadata["generator"] == "product"
    assert flow.slices[0].n == 2 * 4
    rc, out, _ = run_cli(capsys, "verify", prod)
    assert rc == 0 and "summary: PASS" in out


def test_schema_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc, _, err = run_cli(capsys, "verify", str(bad))
    assert rc == 2 and "not valid JSON" in err

    v2 = tmp_path / "v2.json"
    v2.write_text(json.dumps({"format_version": 2, "times": [], "slices": [], "kernels": {}}))
    rc, _, err = run_cli(capsys, "verify", str(v2))
    assert rc == 2 and "format_version" in err

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"format_version": 1, "times": [0.0]}))
    rc, _, err = run_cli(capsys, "verify", str(missing))
    assert rc == 2 and "missing required key" in err

    rc, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert rc == 2 and "cannot read" in err

    badmode = tmp_path / "badmode.json"
    badmode.write_text(
        json.dumps({"format_version": 1, "times": [0.0], "slices": [], "kernels": {"mode": "magic"}})
    )
    rc, _, err = run_cli(capsys, "verify", str(badmode))
    assert rc == 2 and "kernels.mode" in err


@pytest.mark.parametrize("content, message", [
    ("[" * 100_000, "not valid JSON"),
    (b"\xff\xfe{}", "not valid JSON"),
    ('{"pairs": [[0, ' + "1" * 5000 + "]]}", None),
], ids=["nested-100000", "not-utf8", "5000-digit-integer"])
@pytest.mark.parametrize("role", ["verify", "report", "distance", "relation"])
def test_unparsable_json_exits_2(tp4, tmp_path, capsys, content, message, role):
    """Every JSON input goes through one reader: nesting too deep to parse,
    bytes that are not UTF-8 and an integer past the digit limit exit 2
    with ``error: ``, whether the file is a flow document or a relation.
    (Pythons without the digit limit parse the integer; the file then fails
    the schema check instead, still with exit 2.)"""
    bad = tmp_path / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    argv = {
        "verify": ["verify", str(bad)],
        "report": ["report", str(bad), "--quantity", "var-curve", "--csv", str(tmp_path / "o.csv")],
        "distance": ["distance", tp4, str(bad)],
        "relation": ["distance", tp4, tp4, "--relation", str(bad)],
    }[role]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and err.startswith("error: ") and "Traceback" not in out + err
    if message is not None:
        prefix = "relation file " if role == "relation" else ""
        assert f"error: {prefix}{bad}: {message} (" in err


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(times=[[t] for t in d["times"]]),
    lambda d: d.update(times=None),
    lambda d: d.update(times=[str(t) for t in d["times"]]),
    lambda d: d.update(metadata=["approximate"]),
    lambda d: d["slices"][0]["labels"].__setitem__(0, ["+"]),
    lambda d: d.update(slices={str(i): s for i, s in enumerate(d["slices"])}),
    lambda d: d["slices"].__setitem__(0, [[0.0, 1.0], [1.0, 0.0]]),
    lambda d: d["kernels"].update(matrices={"0": d["kernels"]["matrices"][0]}),
    lambda d: d.update(kernels={"mode": "full", "pairs": [[[1.0]]]}),
], ids=["times-nested", "times-null", "times-strings", "metadata-list", "label-unhashable",
        "slices-object", "slice-not-object", "matrices-object", "pairs-list"])
@pytest.mark.parametrize("command", [["verify"], ["report", "--quantity", "var-curve"]])
def test_malformed_documents_exit_2(tp4, tmp_path, capsys, mutate, command):
    doc = json.loads(Path(tp4).read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command[0], str(bad), *command[1:]]
    if command[0] == "report":
        argv += ["--csv", str(tmp_path / "out.csv")]
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2 and err.startswith("error: ") and "Traceback" not in err


def test_generate_parameter_errors_exit_2(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "generate", "two-point", "--D", "0", "--out", str(tmp_path / "x.json")
    )
    assert rc == 2 and "error:" in err
    rc, _, err = run_cli(
        capsys, "generate", "gaussian", "--times", "0,0.005",
        "--out", str(tmp_path / "y.json"),
    )
    assert rc == 2 and "undersamples" in err


@pytest.mark.parametrize("argv, count", [
    (["--dim", "2"], "58,081 points"),
    (["--dim", "1", "--h", "0.001"], "24,001 points"),
    (["--L", "1e308", "--h", "1", "--times", "0,1,2"], "more than 10^15 points"),
], ids=["dim-2-default", "h-0.001", "L-over-h-overflows"])
def test_oversized_gaussian_lattice_exits_2(tmp_path, capsys, argv, count):
    """A lattice whose N x N x dim arrays would not fit (at --dim 2 the
    default 58 081 points ask for about 54 GB per array) is refused before
    any is built, with its point count and what to shrink."""
    rc, _, err = run_cli(capsys, "generate", "gaussian", *argv, "--out", str(tmp_path / "g.json"))
    assert rc == 2 and err.startswith("error: ") and count in err
    assert all(flag in err for flag in ("--L", "--h", "--dim"))
    assert not (tmp_path / "g.json").exists()


def test_generate_two_point_explicit_C(tmp_path, capsys):
    path = make_doc(tmp_path, "c95.json", "generate", "two-point", "--C", "95", "--steps", "3")
    flow = mf.cli.load_flow(path)
    assert flow.metadata["C"] == 95.0
    assert not flow.flagged("axiom6_unverified")  # 95 > 256/e
    rc, out, _ = run_cli(capsys, "verify", path)
    assert rc == 0 and "summary: PASS" in out


@pytest.mark.parametrize("argv", [
    ["report", "{flow}", "--quantity", "b-function", "--eps-grid", "0:1:0", "--csv", "{out}"],
    ["report", "{flow}", "--quantity", "b-function", "--eps-grid", "0:1:nan", "--csv", "{out}"],
    ["report", "{flow}", "--quantity", "b-function", "--eps-grid", "nan:1:0.1", "--csv", "{out}"],
    ["report", "{flow}", "--quantity", "b-function", "--eps-grid", "0:inf:0.1", "--csv", "{out}"],
    ["report", "{flow}", "--quantity", "b-function", "--eps-grid", "0:1:1e-12", "--csv", "{out}"],
    ["generate", "gaussian", "--L", "inf", "--out", "{out}"],
    ["verify", "{flow}", "--mode", "randomized", "--seeds", "-1"],
    ["verify", "{flow}", "--mode", "randomized", "--seed", "-1"],
    ["report", "{flow}", "--quantity", "var-curve", "--H", "nan", "--csv", "{out}"],
    ["report", "{flow}", "--quantity", "var-curve", "--H", "lots", "--csv", "{out}"],
    ["generate", "static", "--m", "3", "--steps", "2", "--rate", "-1", "--out", "{out}"],
    ["generate", "static", "--m", "3", "--steps", "2", "--rate", "0", "--out", "{out}"],
    ["generate", "static", "--m", "3", "--steps", "2", "--rate", "nan", "--out", "{out}"],
    ["generate", "static", "--m", "3", "--steps", "2", "--edge", "inf", "--out", "{out}"],
    ["generate", "two-point", "--C", "abc", "--out", "{out}"],
    ["generate", "two-point", "--out", "{missing}"],
    ["verify", "{flow}", "--json", "{missing}"],
    ["distance", "{flow}", "{flow}", "--out", "{missing}"],
    ["report", "{flow}", "--quantity", "var-curve", "--csv", "{missing}"],
    ["distance", "{flow}", "{flow}", "{flow}", "{flow}"],
    ["verify", "{list_doc}"],
    ["report", "{bad_key_doc}", "--quantity", "var-curve", "--csv", "{out}"],
    ["report", "{flow}", "--quantity", "var-curve", "--basepoint", "first", "--csv", "{out}"],
    ["report", "{flow}", "--quantity", "var-curve", "--basepoint", "2", "--csv", "{out}"],
    ["distance", "{flow}", "{flow}", "--J", "0,later"],
    ["distance", "{flow}", "{flow}", "--relation", "{missing}"],
    ["report", "{flow}", "--quantity", "b-function", "--eps-grid", "2:3:0.5", "--csv", "{out}"],
    ["report", "{flow}", "--quantity", "dW1-curve", "--x1", "2", "--csv", "{out}"],
    ["distance", "{flow}", "{flow}", "--e-mode", "greedy"],
    ["verify", "{flow}", "--mode", "bogus"],
    ["report", "{flow}", "--quantity", "bogus", "--csv", "{out}"],
    ["generate", "two-point", "--steps", "two", "--out", "{out}"],
], ids=["eps-step-0", "eps-step-nan", "eps-start-nan", "eps-stop-inf", "eps-1e12-samples",
        "gaussian-L-inf", "seeds-negative", "seed-negative", "H-nan", "H-not-a-number",
        "static-rate-negative", "static-rate-0", "static-rate-nan", "static-edge-inf",
        "two-point-C-not-a-number", "generate-out-missing-dir", "verify-json-missing-dir",
        "distance-out-missing-dir", "report-csv-missing-dir", "distance-four-files",
        "document-not-an-object", "kernel-pair-key-not-integers", "basepoint-not-an-index",
        "basepoint-out-of-range", "J-not-times", "relation-unreadable", "eps-grid-selects-none",
        "x1-out-of-range", "e-mode-greedy", "verify-mode-bogus", "report-quantity-bogus",
        "two-point-steps-not-an-int"])
def test_bad_arguments_exit_2(tp4, tmp_path, capsys, argv):
    """A bad parameter or document, or an output path in a missing
    directory, exits 2 with ``error: `` before any work: nothing on stdout,
    nothing written."""
    missing = tmp_path / "missing" / "out"
    list_doc, bad_key_doc = tmp_path / "list.json", tmp_path / "bad-key.json"
    list_doc.write_text("[]")
    doc = json.loads(Path(tp4).read_text())
    doc["kernels"] = {"mode": "full", "pairs": {"0:a": [[1.0, 0.0], [0.0, 1.0]]}}
    bad_key_doc.write_text(json.dumps(doc))
    argv = [a.format(flow=tp4, out=tmp_path / "out", missing=missing, list_doc=list_doc,
                     bad_key_doc=bad_key_doc) for a in argv]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and err.startswith("error: ") and "Traceback" not in err and out == ""
    assert not (tmp_path / "out").exists() and not missing.parent.exists()


@pytest.mark.parametrize("argv, entries, flag", [
    (["two-point", "--steps", "100000000"], "400,000,000", "--steps"),
    (["two-point", "--steps", "262145"], "1,048,580", "--steps"),
    (["static", "--m", "100000"], "100,000,000,000", "--m"),
    (["static", "--steps", "241"], "1,049,796", "--steps"),
], ids=["two-point-1e8-steps", "two-point-one-step-over", "static-m-1e5", "static-one-step-over"])
def test_oversized_generate_exits_2_at_once(tmp_path, capsys, monkeypatch, argv, entries, flag):
    """A two-point or static flow whose kernels would store more than 2**20
    floats is refused before its time grid is built, naming what to shrink."""
    def no_grid(*args):
        raise AssertionError("time grid built for an oversized flow")

    monkeypatch.setattr(mf.cli.TimeGrid, "uniform", staticmethod(no_grid))
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "generate", *argv, "--out", str(tmp_path / "g.json"))
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and err.startswith("error: ") and "Traceback" not in out + err
    assert f"{entries} kernel entries" in err and flag in err
    assert not (tmp_path / "g.json").exists()


def test_oversized_product_exits_2_before_it_is_built(tmp_path, capsys, monkeypatch):
    """The product of two 33-point, 2-time static flows would hold three
    1089 x 1089 matrices (two slices, one kernel): it is refused with exit 2
    before any product slice or kernel is built."""
    st = make_doc(tmp_path, "st.json", "generate", "static", "--m", "33", "--steps", "1")

    def not_built(*args):
        raise AssertionError("product built for an oversized flow")

    monkeypatch.setattr(mf.cli, "cartesian_product_flow", not_built)
    rc, out, err = run_cli(capsys, "generate", "product", st, st, "--out", str(tmp_path / "p.json"))
    assert rc == 2 and err.startswith("error: ") and "Traceback" not in out + err
    assert "3,557,763 slice and kernel entries" in err and "the input flows" in err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("second", [
    ["two-point", "--steps", "3"], ["static", "--m", "3", "--steps", "3"],
], ids=["markov", "pair-stored"])
def test_product_limit_counts_what_the_product_stores(tmp_path, capsys, monkeypatch, second):
    """The count checked against the limit is the number of floats in the
    product's slices and stored kernels, for Markov and pair-stored products."""
    tp = make_doc(tmp_path, "tp.json", "generate", "two-point", "--steps", "3")
    other = make_doc(tmp_path, "other.json", "generate", *second)
    flow = mf.cartesian_product_flow(load_flow(tp), load_flow(other))
    assert flow.is_markov == (second[0] == "two-point")
    stored = sum(s.n ** 2 for s in flow.slices) + sum(k.size for k in flow.stored().values())
    monkeypatch.setattr(mf.cli, "_MAX_ENTRIES", stored - 1)
    rc, _, err = run_cli(capsys, "generate", "product", tp, other, "--out", str(tmp_path / "p.json"))
    assert rc == 2 and f"would store {stored:,} slice and kernel entries" in err
    monkeypatch.setattr(mf.cli, "_MAX_ENTRIES", stored)
    rc, _, _ = run_cli(capsys, "generate", "product", tp, other, "--out", str(tmp_path / "p.json"))
    assert rc == 0


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    """Every ``main`` call parses with the same parser, and a call that ends
    in a usage error (exit 2, ``error: ``) leaves it working for the next one."""
    run_cli(capsys, "generate", "two-point", "--steps", "2", "--out", str(tmp_path / "a.json"))
    parsers = []
    parse_args = mf.cli.argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(mf.cli.argparse.ArgumentParser, "parse_args", recorded)
    rc, out, err = run_cli(capsys, "generate", "two-point", "--steps", "two")
    assert rc == 2 and out == "" and "usage:" not in err
    assert err.startswith("error: metricflow generate two-point: argument --steps: invalid int")
    rc, out, _ = run_cli(capsys, "generate", "two-point", "--steps", "3",
                         "--out", str(tmp_path / "b.json"))
    assert rc == 0 and "4 times" in out
    assert len(parsers) == 2 and parsers[0] is parsers[1] is mf.cli.build_parser()


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["generate", "static", "-h"]])
def test_help_exits_0(capsys, argv):
    """Help is not a usage error: it prints the usage block and exits 0."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: metricflow")


@pytest.mark.parametrize("layout", ["markov", "pairs", "partial-pairs"])
def test_stored_kernels_survive_the_document_round_trip(layout):
    grid = TimeGrid.uniform(0.0, 1.0, 3)
    if layout == "markov":
        flow = mf.two_point_flow(C_STAR, 1.0, grid)
    else:
        flow = mf.static_cycle_flow(5, 8.0, 0.7, grid)
        if layout == "partial-pairs":
            pairs = {key: k for key, k in flow.stored().items() if key != (0, 2)}
            flow = mf.MetricFlow(grid, flow.slices, pair_kernels=pairs, metadata=flow.metadata)
    doc = json.loads(json.dumps(mf.cli.flow_to_document(flow)))
    back = mf.cli.document_to_flow(doc)
    assert back.is_markov == flow.is_markov
    assert list(back.stored()) == list(flow.stored())
    for key, k in flow.stored().items():
        assert back.stored()[key].tobytes() == k.tobytes()  # bit for bit


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_pass(tp4, capsys):
    rc, out, _ = run_cli(capsys, "verify", tp4)
    assert rc == 0
    assert "summary: PASS" in out
    assert "[complete]" in out
    assert "H-concentration constant" in out


@pytest.mark.parametrize(
    "argv", [["verify", "--mode", "skip"], ["report", "--quantity", "var-curve", "--csv", "o.csv"]]
)
def test_missing_kernel_pair_exits_2(tmp_path, capsys, monkeypatch, argv):
    """A 3-time flow storing only pairs 0:1 and 1:2 exits 2 naming (0, 2),
    though the long lag to t = 100 puts that pair's H cap below the ratio
    of (0, 1)."""
    sp = two_point_space()
    pairs = {(0, 1): np.full((2, 2), 0.5), (1, 2): np.eye(2)}
    flow = mf.MetricFlow(TimeGrid((0.0, 1.0, 100.0)), (sp,) * 3, pair_kernels=pairs)
    save_flow(flow, str(tmp_path / "gap.json"))
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(capsys, argv[0], "gap.json", *argv[1:])
    assert rc == 2 and err == "error: no stored kernel for pair (0, 2)\n"
    assert "Traceback" not in out + err


def test_verify_json_report(tp4, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc, _, _ = run_cli(capsys, "verify", tp4, "--json", str(report_path))
    assert rc == 0
    payload = json.loads(report_path.read_text())
    assert payload["summary"] == "PASS"
    assert all(e["passed"] for e in payload["axiom6"])
    g = 0.25
    expected_h = 0.5 * (1.0 - math.exp(-C_STAR * g)) / g
    assert payload["h_concentration_constant"] == pytest.approx(expected_h, rel=1e-9)


RECORD_KEYS = {"name": str, "passed": bool, "worst": float, "gating": bool}
AXIOM6_KEYS = {
    "s_idx": int, "t_idx": int, "verdict": str, "passed": bool, "worst_ratio": float,
    "worst_excess": float, "n_cases": int, "gating": bool,
}
REPORT_KEYS = {
    "records": list, "axiom6": list, "h_concentration_constant": float, "mode": str,
    "approximate": bool, "summary": str,
}


@pytest.mark.filterwarnings("ignore:box half-width:UserWarning")
@pytest.mark.parametrize("mode", [None, "randomized", "skip"])
@pytest.mark.parametrize("argv", [
    ["two-point", "--steps", "6"],
    ["static", "--m", "5", "--rate", "2", "--steps", "4"],
    ["gaussian", "--L", "2", "--h", "0.5"],
], ids=["two-point", "static", "gaussian"])
def test_verify_json_format(tmp_path, capsys, argv, mode):
    """``verify --json`` writes its keys in this order, each value of this
    JSON type; an axiom (6) entry appears whenever the battery runs. Float
    values are not pinned: they move in the last bits across scipy builds."""
    path = make_doc(tmp_path, "f.json", "generate", *argv)
    out_json = tmp_path / "report.json"
    run_cli(capsys, "verify", path, *(["--mode", mode] if mode else []), "--json", str(out_json))
    payload = json.loads(out_json.read_text())

    def check(obj, keys):
        assert list(obj) == list(keys)
        assert all(type(obj[k]) is t for k, t in keys.items()), obj

    check(payload, REPORT_KEYS)
    assert payload["records"]
    for rec in payload["records"]:
        check(rec, RECORD_KEYS)
    assert bool(payload["axiom6"]) == (payload["mode"] != "skip")
    for entry in payload["axiom6"]:
        check(entry, AXIOM6_KEYS)


def test_verify_content_corruption_exits_1(tp4, tmp_path, capsys):
    doc = json.loads(Path(tp4).read_text())
    doc["kernels"]["matrices"][0][0][0] += 0.1
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run_cli(capsys, "verify", str(bad))
    assert rc == 1
    assert "structural check FAIL" in out and "row sums" in out

    doc2 = json.loads(Path(tp4).read_text())
    doc2["kernels"]["matrices"][0][0] = [0.5]  # ragged row
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps(doc2))
    rc, out, _ = run_cli(capsys, "verify", str(ragged))
    assert rc == 1 and "malformed" in out


def test_huge_time_lag_is_refused_without_traceback(tmp_path, capsys):
    """A lag near the float maximum would overflow the cone battery's 4·tau
    and divide by a zero bound; the grid refuses |t| > 1e300 instead."""
    path = make_doc(tmp_path, "s.json", "generate", "static", "--m", "3", "--steps", "2")
    capsys.readouterr()
    doc = json.loads(Path(path).read_text())
    doc["times"][2] = 1e308
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "verify", str(big), "--mode", "randomized")
    assert rc == 1 and "structural check FAIL" in out and "1e300" in out
    assert "Traceback" not in out + err
    rc, out, err = run_cli(
        capsys, "report", str(big), "--quantity", "var-curve", "--csv", str(tmp_path / "o.csv")
    )
    assert rc == 2 and err.startswith("error: ") and "1e300" in err
    assert "Traceback" not in out + err


def test_huge_seed_count_is_refused_before_the_battery(tmp_path, capsys):
    """A billion seeds on 4-point slices would gather 12e9 floats; the limit
    on seeds x largest slice size refuses them before any draw."""
    tp = make_doc(tmp_path, "tp.json", "generate", "two-point", "--steps", "3")
    prod = make_doc(tmp_path, "prod.json", "generate", "product", tp, tp)
    capsys.readouterr()
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "verify", prod, "--seeds", "1000000000")
    assert time.perf_counter() - start < 2.0
    assert rc == 2 and err.startswith("error: ") and "--seeds" in err and "4,000,000" in err
    assert "Traceback" not in out + err


def test_huge_slice_distances_are_refused_without_traceback(tmp_path, capsys):
    """Distances above 1e150 overflow their squares (H constant, variances,
    the cone battery) into NaN, which no check can fail; the slice refuses
    them instead."""
    path = make_doc(tmp_path, "s.json", "generate", "static", "--m", "3", "--steps", "2")
    capsys.readouterr()
    doc = json.loads(Path(path).read_text())
    for sl in doc["slices"]:
        sl["dist"] = [[0.0 if i == j else 1e200 for j in range(3)] for i in range(3)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "verify", str(big))
    assert rc == 1 and "structural check FAIL" in out and "1e150" in out
    assert "Traceback" not in out + err
    rc, out, err = run_cli(
        capsys, "report", str(big), "--quantity", "var-curve", "--csv", str(tmp_path / "o.csv")
    )
    assert rc == 2 and err.startswith("error: ") and "1e150" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("mutate", [
    lambda d: d["times"].__setitem__(1, 10**400),
    lambda d: d["slices"][0]["dist"][0].__setitem__(1, 10**400),
    lambda d: d["kernels"]["matrices"][0][0].__setitem__(0, 10**400),
], ids=["times", "dist", "kernel"])
def test_integers_beyond_float_range_are_refused_without_traceback(tp4, tmp_path, capsys, mutate):
    """A JSON integer too large for a float is bad content, not a crash."""
    doc = json.loads(Path(tp4).read_text())
    mutate(doc)
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "verify", str(big))
    assert rc == 1 and "structural check FAIL" in out and "too large" in out
    rc, out, err = run_cli(
        capsys, "report", str(big), "--quantity", "var-curve", "--csv", str(tmp_path / "o.csv")
    )
    assert rc == 2 and err.startswith("error: ") and "too large" in err
    assert "Traceback" not in out + err


def test_verify_slice_metric_failure_exits_1(tmp_path, capsys):
    path = make_doc(tmp_path, "s.json", "generate", "static", "--m", "3", "--steps", "2")
    capsys.readouterr()
    doc = json.loads(Path(path).read_text())
    doc["slices"][1]["dist"] = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    bent = tmp_path / "bent.json"
    bent.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "verify", str(bent))
    assert rc == 1 and "summary: FAIL" in out
    assert "axiom check slice-metrics: FAIL" in out
    assert re.search(r"witness: \(1, 'triangle'", out)
    assert "Traceback" not in out + err


def test_verify_battery_failure_exits_1(tmp_path, capsys):
    slow = make_doc(
        tmp_path, "slow.json", "generate", "static",
        "--m", "5", "--rate", "2", "--steps", "4",
    )
    capsys.readouterr()
    rc, out, _ = run_cli(capsys, "verify", slow)
    assert rc == 1
    assert "summary: FAIL" in out
    assert re.search(r"axiom \(6\).*FAIL", out)


def test_verify_passes_a_narrow_admissible_two_point_flow(tmp_path, capsys):
    """The admissible two-point flow at D = 0.1 passes as its D = 1 copy
    does: the sweep's output bound carries no factor of d_s."""
    narrow = make_doc(
        tmp_path, "narrow.json", "generate", "two-point",
        "--C", "auto", "--D", "0.1", "--t0", "0", "--t1", "0.0005", "--steps", "2",
    )
    capsys.readouterr()
    rc, out, _ = run_cli(capsys, "verify", narrow)
    assert rc == 0
    assert "summary: PASS" in out


@pytest.mark.filterwarnings("ignore:box half-width:UserWarning")
def test_verify_approximate_is_informational(tmp_path, capsys):
    g = make_doc(
        tmp_path, "g.json", "generate", "gaussian",
        "--L", "3", "--h", "0.2", "--times", "0,0.5,1",
    )
    capsys.readouterr()
    rc, out, _ = run_cli(capsys, "verify", g)
    assert rc == 0
    assert "summary: PASS" in out
    assert "reproduction: FAIL (informational)" in out
    assert "axiom (6): skipped" in out
    assert "flagged 'approximate'" in out


@pytest.mark.filterwarnings("ignore:box half-width:UserWarning")
@pytest.mark.parametrize("kind, argv, ok", [
    ("gaussian", ["--L", "3", "--h", "0.2", "--times", "0,0.5,1"], True),
    ("static", ["--m", "5", "--rate", "2", "--steps", "4"], False),
])
def test_verify_verdict_is_the_report_ok(tmp_path, capsys, kind, argv, ok):
    """The CLI summary, exit code and JSON gating fields all come from the
    library report: on an approximate flow reproduction and axiom (6) are
    informational, so the report is ok although reproduction fails."""
    path = make_doc(tmp_path, "f.json", "generate", kind, *argv)
    flow = mf.cli.load_flow(path)
    assert mf.verify_flow_axioms(flow).ok is ok
    report = mf.verify_flow_axioms(flow, mode="randomized", seeds=16)
    assert report.ok is ok
    if ok:
        assert not report.record("reproduction").passed
    out_json = tmp_path / "report.json"
    capsys.readouterr()
    rc, out, _ = run_cli(
        capsys, "verify", path, "--mode", "randomized", "--seeds", "16", "--json", str(out_json)
    )
    assert rc == (0 if ok else 1)
    assert f"summary: {'PASS' if ok else 'FAIL'}" in out
    payload = json.loads(out_json.read_text())
    assert payload["summary"] == ("PASS" if ok else "FAIL")
    assert [r["gating"] for r in payload["records"]] == [r.gating for r in report.records]
    assert [e["gating"] for e in payload["axiom6"]] == [e.gating for e in report.axiom6]
    assert report.axiom6 and all(e.gating is not ok for e in report.axiom6)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_two_files(tmp_path, capsys):
    a = make_doc(tmp_path, "a.json", "generate", "two-point", "--steps", "4")
    b = make_doc(tmp_path, "b.json", "generate", "two-point", "--steps", "4", "--D", "1.1")
    out_path = tmp_path / "dist.json"
    rc, out, _ = run_cli(capsys, "distance", a, b, "--out", str(out_path))
    assert rc == 0
    m = re.search(r"value r = ([0-9.e+-]+)", out)
    assert m and float(m.group(1)) == pytest.approx(0.050025906092710626, abs=1e-12)
    payload = json.loads(out_path.read_text())
    assert payload["value"] == pytest.approx(0.050025906092710626, abs=1e-12)
    assert payload["E"] == {"indices": [], "measure": 0.0}


def test_distance_three_files_triangle(tmp_path, capsys):
    files = [
        make_doc(tmp_path, f"f{i}.json", "generate", "two-point", "--steps", "4", "--D", str(d))
        for i, d in enumerate((1.0, 1.1, 1.2))
    ]
    rc, out, _ = run_cli(capsys, "distance", *files)
    assert rc == 0
    assert "triangle d(1,3) <= d(1,2) + d(2,3): holds" in out
    assert "admissible" in out


@pytest.mark.parametrize("n_files", [2, 3])
def test_distance_include_couplings(tmp_path, capsys, n_files):
    """``--include-couplings`` adds each distance's couplings to ``--out``,
    for two files and for each of the three distances of a triangle."""
    files = [
        make_doc(tmp_path, f"f{i}.json", "generate", "two-point", "--steps", "4", "--D", str(d))
        for i, d in enumerate((1.0, 1.1, 1.2)[:n_files])
    ]
    reports = {}
    for flag in ([], ["--include-couplings"]):
        out_path = tmp_path / f"dist{len(flag)}.json"
        rc, _, _ = run_cli(capsys, "distance", *files, "--out", str(out_path), *flag)
        payload = json.loads(out_path.read_text())
        assert rc == 0
        reports[bool(flag)] = [payload] if n_files == 2 else [payload[k] for k in ("d12", "d23", "d13")]
    for plain, full in zip(reports[False], reports[True]):
        assert "couplings" not in plain
        assert full.pop("couplings") and full == plain


def test_inadmissible_triangle_certificate_exits_1(tmp_path, capsys, monkeypatch):
    """Glued through the independent coupling a_i b_j c_k in place of the
    optimal couplings, the outer pair's certificate exceeds d(1,2) + d(2,3):
    the triangle still holds, but ``distance`` reports the certificate
    inadmissible and exits 1."""
    files = [
        make_doc(tmp_path, f"f{i}.json", "generate", "static", "--m", "3", "--steps", "2",
                 "--rate", str(rate))
        for i, rate in enumerate((0.7, 1.1, 1.6))
    ]

    def independent(q12, q23):
        a, b, c = q12.matrix.sum(axis=1), q12.matrix.sum(axis=0), q23.matrix.sum(axis=0)
        return a[:, None, None] * b[None, :, None] * c[None, None, :]

    monkeypatch.setattr(mf.correspondence, "glue_couplings", independent)
    out_path = tmp_path / "tri.json"
    rc, out, _ = run_cli(capsys, "distance", *files, "--out", str(out_path))
    payload = json.loads(out_path.read_text())
    assert rc == 1 and payload["holds"] and not payload["certificate_ok"]
    assert payload["certificate_value"] > payload["d12"]["value"] + payload["d23"]["value"] + 1e-9
    assert "holds" in out and "(INADMISSIBLE)" in out


def _spiked_pair(tmp_path, n_times: int, where, seed: int) -> list:
    """Two-point flow documents on a uniform grid, drawn from
    ``default_rng([seed, 0])`` as the benchmark's ``spiked_pair`` draws them:
    the flow, and a copy whose slices at ``where`` are stretched by factors
    in [3, 5] while the kernels stay."""
    rng = np.random.default_rng([seed, 0])
    c_val, d_val = mf.min_C() * (1.0 + 1e-6) * rng.uniform(1.0, 1.6), rng.uniform(0.8, 1.25)
    spikes = {int(i): rng.uniform(3.0, 5.0) for i in where}
    flow = mf.two_point_flow(c_val, d_val, TimeGrid(tuple(np.linspace(0.0, 1.0, n_times))))
    slices = [mf.FiniteMetricSpace(("+", "-"), flow.slices[0].dist * spikes.get(i, 1.0))
              for i in range(n_times)]
    spiked = mf.MetricFlow(flow.grid, slices, adjacent_kernels=list(flow.stored().values()))
    paths = [str(tmp_path / "base.json"), str(tmp_path / "spiked.json")]
    for f, path in zip((flow, spiked), paths):
        save_flow(f, path)
    return paths


@pytest.mark.parametrize("n_times, where, seed, e_mode, value, E", [
    (12, (2, 4), 0, "empty", 0.9591571909110294, []),
    (10, (2, 5, 7), 1, "exhaustive", 0.5773502691896257, [2, 5, 7]),
])
def test_minmax_lps_with_dominated_cost_rows_solve(tmp_path, capsys, n_times, where, seed,
                                                   e_mode, value, E):
    """Min-max LPs whose cost rows include zero, near-zero and dominated rows,
    which HiGHS without presolve called infeasible: ``distance`` exits 0 with
    the value found before the single-instance solver, within 1e-9."""
    out_path = tmp_path / "d.json"
    rc, _, err = run_cli(capsys, "distance", *_spiked_pair(tmp_path, n_times, where, seed),
                         "--e-mode", e_mode, "--out", str(out_path))
    assert rc == 0, err
    payload = json.loads(out_path.read_text())
    assert payload["value"] == pytest.approx(value, abs=1e-9) and payload["E"]["indices"] == E


@pytest.mark.parametrize("n_times", [10, 12])
@pytest.mark.parametrize("seed", [0, 1])
def test_spiked_two_point_distances_never_fail_their_lps(tmp_path, capsys, n_times, seed):
    """Each spike placement and search mode on spiked two-point pairs exits
    0; before dominated cost rows were dropped, many of these runs exited 1
    with an infeasible min-max LP."""
    for where in ((1, 2), (2, 4), (1, n_times - 2), (2, n_times // 2, n_times - 3)):
        files = _spiked_pair(tmp_path, n_times, where, seed)
        for e_mode in ("empty", "exhaustive"):
            rc, _, err = run_cli(capsys, "distance", *files, "--e-mode", e_mode)
            assert rc == 0, (where, e_mode, err)


def _rescaled(tmp_path, paths, lam: float) -> list:
    """Copies of the flow documents ``paths`` under the parabolic rescaling
    t -> lam² t, d -> lam d."""
    out = []
    for path in paths:
        scaled = str(tmp_path / f"x{lam:g}-{Path(path).name}")
        save_flow(mf.rescale_shift(load_flow(path), lam), scaled)
        out.append(scaled)
    return out


def _distance_payload(tmp_path, capsys, files, e_mode) -> dict:
    out_path = tmp_path / "d.json"
    rc, _, err = run_cli(capsys, "distance", *files, "--e-mode", e_mode, "--out", str(out_path))
    assert rc == 0, (files, e_mode, err)
    return json.loads(out_path.read_text())


@pytest.mark.parametrize("where", [(1, 2), (1, 4), (2, 4)])
def test_rescaled_spiked_distance_scales_by_lambda(tmp_path, capsys, where):
    """Rescaling both flows parabolically by lam scales the flow distance
    by lam. Every run exits 0 with value / lam the unscaled value within
    1e-12 relative and the same E, which needs W1 tolerances that scale
    with the costs and min-max LPs that HiGHS meets at one scale."""
    for seed in range(4):
        files = _spiked_pair(tmp_path, 6, where, seed)
        for e_mode in ("empty", "exhaustive"):
            ref = _distance_payload(tmp_path, capsys, files, e_mode)
            for lam in (3.0, 300.0, 1000.0):
                got = _distance_payload(tmp_path, capsys, _rescaled(tmp_path, files, lam), e_mode)
                assert got["value"] / lam == pytest.approx(ref["value"], rel=1e-12, abs=0.0)
                assert got["E"]["indices"] == ref["E"]["indices"]


def test_rescaled_triangle_scales_by_lambda(tmp_path, capsys):
    """Three static 3-cycle walks rescaled by 10⁴: the triangle's W1 duality
    gaps scale with the costs, and each distance scales by 10⁴."""
    files = []
    for i, rate in enumerate((0.7, 1.1, 1.6)):
        files.append(str(tmp_path / f"c{i}.json"))
        save_flow(mf.static_cycle_flow(3, rate, 1.0, TimeGrid((0.0, 0.4, 1.0))), files[-1])
    ref = _distance_payload(tmp_path, capsys, files, "empty")
    got = _distance_payload(tmp_path, capsys, _rescaled(tmp_path, files, 1e4), "empty")
    assert got["holds"] and got["certificate_ok"]
    for key in ("d12", "d23", "d13"):
        assert got[key]["value"] / 1e4 == pytest.approx(ref[key]["value"], rel=1e-12, abs=0.0)


def test_triangle_on_slices_with_near_zero_diagonals_holds(tmp_path, capsys):
    """Static 3-cycle walks whose slice diagonals are 9e-13, within the 1e-12
    metric tolerance: ``verify`` and a 2-file ``distance`` pass, and so does
    the 3-file triangle, whose two middle copies sit 1.8e-12 apart (the sum
    of two such diagonals) in the combined ambient."""
    files = []
    for i, rate in enumerate((6.0, 7.5, 9.0)):
        files.append(tmp_path / f"c{i}.json")
        save_flow(mf.static_cycle_flow(3, rate, 1.0, TimeGrid((0.0, 0.4, 1.0))), str(files[-1]))
        doc = json.loads(files[-1].read_text())
        for piece in doc["slices"]:
            for k in range(3):
                piece["dist"][k][k] = 9e-13
        files[-1].write_text(json.dumps(doc))
    files = [str(f) for f in files]
    assert run_cli(capsys, "verify", files[0])[0] == 0
    assert run_cli(capsys, "distance", *files[:2])[0] == 0
    out_path = tmp_path / "tri.json"
    rc, out, err = run_cli(capsys, "distance", *files, "--out", str(out_path))
    assert rc == 0, err
    assert "holds" in out and "(admissible)" in out
    payload = json.loads(out_path.read_text())
    assert payload["holds"] and payload["certificate_ok"]


def test_exhaustive_search_over_24_times(tmp_path, capsys):
    """Past the 12 times an enumeration could afford: a 24-time spiked pair
    (spikes at 6, 12 and 18) finds exactly the spiked slices within a few
    seconds, at value sqrt(measure E)."""
    files = _spiked_pair(tmp_path, 24, (6, 12, 18), 0)
    start = time.perf_counter()
    payload = _distance_payload(tmp_path, capsys, files, "exhaustive")
    assert time.perf_counter() - start < 10.0
    assert payload["E"]["indices"] == [6, 12, 18]
    assert payload["value"] == math.sqrt(payload["E"]["measure"])
    assert "flags" not in payload


def test_search_over_its_node_budget_exits_2(tmp_path, capsys, monkeypatch):
    """A search that visits more nodes than its budget stops with an
    InputError naming what to shrink: exit 2, ``error: `` and no stdout."""
    monkeypatch.setattr(mf.correspondence, "_NODE_BUDGET", 20)
    files = _spiked_pair(tmp_path, 6, (1, 4), 0)
    rc, out, err = run_cli(capsys, "distance", *files, "--e-mode", "exhaustive")
    assert rc == 2 and out == "" and err.startswith("error: ")
    assert "passed 20 nodes" in err and "--e-mode empty" in err and "--J" in err
    assert run_cli(capsys, "distance", *files, "--e-mode", "empty")[0] == 0


def test_failed_minmax_lp_exits_1(tmp_path, capsys, monkeypatch):
    """A min-max LP that returns no solution raises InternalInvariantError,
    and ``distance`` reports the failed check and exits 1."""
    monkeypatch.setattr(mf.correspondence, "linprog",
                        lambda *args: mf.ot_core.LPSolution(None, None, "model status is Infeasible"))
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    flows = [mf.two_point_flow(C_STAR, d, grid) for d in (1.0, 1.3)]
    files = [str(tmp_path / "f0.json"), str(tmp_path / "f1.json")]
    for f, path in zip(flows, files):
        save_flow(f, path)
    pairs = [mf.MetricFlowPair(f, mf.conj_backward(f, 1.0, ProbMeasure.uniform(2))) for f in flows]
    c = mf.build_union_correspondence(*flows, [(0, 0), (1, 1)])
    with pytest.raises(mf.InternalInvariantError, match="min-max transport LP failed at t_idx=0"):
        mf.f_distance_within(c, *pairs)
    rc, out, err = run_cli(capsys, "distance", *files)
    assert rc == 1 and out == ""
    assert err.startswith("check failed: min-max transport LP failed") and "Infeasible" in err


def test_inflated_top_measure_w1_exits_1(tmp_path, capsys, monkeypatch):
    """The pushed top-measure W1 at each reported time is solved apart from
    the min-max LPs: one inflated top value fails that certificate with a
    CertificateError, and ``distance`` exits 1."""
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    flows = [mf.two_point_flow(C_STAR, d, grid) for d in (1.0, 1.3)]
    files = [str(tmp_path / "f0.json"), str(tmp_path / "f1.json")]
    for f, path in zip(flows, files):
        save_flow(f, path)
    w1 = mf.correspondence.w1_distance
    calls = []

    def inflated(*args):
        """The 3 x 4 cost entries come first, then the 3 top measures:
        the last top value grows by 1."""
        calls.append(1)
        res = w1(*args)
        return res._replace(value=res.value + 1.0) if len(calls) % 15 == 0 else res

    monkeypatch.setattr(mf.correspondence, "w1_distance", inflated)
    pairs = [mf.MetricFlowPair(f, mf.conj_backward(f, 1.0, ProbMeasure.uniform(2))) for f in flows]
    c = mf.build_union_correspondence(*flows, [(0, 0), (1, 1)])
    with pytest.raises(mf.CertificateError, match="pushed top-measure W1 at t_idx=2"):
        mf.f_distance_within(c, *pairs)
    rc, out, err = run_cli(capsys, "distance", *files)
    assert rc == 1 and out == "" and len(calls) == 30
    assert err.startswith("check failed: pushed top-measure W1 at t_idx=2")


def _count_solves(monkeypatch, fail_at=None):
    """Count W1 calls and transport LPs; the LP numbered ``fail_at``
    raises a CertificateError instead of solving."""
    counts = {"w1": 0, "lp": 0}
    w1, lp = mf.correspondence.w1_distance, mf.ot_core.linprog

    def counted_w1(*args):
        counts["w1"] += 1
        return w1(*args)

    def counted_lp(*args):
        counts["lp"] += 1
        if counts["lp"] == fail_at:
            raise mf.CertificateError("injected LP failure")
        return lp(*args)

    monkeypatch.setattr(mf.correspondence, "w1_distance", counted_w1)
    monkeypatch.setattr(mf.ot_core, "linprog", counted_lp)
    return counts


def test_triangle_solves_each_distinct_lp_once(tmp_path, capsys, monkeypatch):
    """Three 4-point, 5-time static flows: the triangle makes 3 x 165 W1
    calls plus d13's 160 cost entries again for its certificate, but solves
    only the 200 distinct transport LPs among them, each once and most of
    them together in block LPs, in every run; the memo of solved LPs is
    gone after each command, also after one that fails."""
    files = [
        make_doc(tmp_path, f"f{i}.json", "generate", "static", "--m", "4", "--steps", "4",
                 "--rate", str(rate))
        for i, rate in enumerate((0.7, 1.1, 1.6))
    ]
    block = mf.ot_core._transport_block
    for _ in range(2):
        counts = _count_solves(monkeypatch)
        carried = []  # the key of every transport problem an LP carries

        def recorded_block(problems):
            carried.extend(mf.ot_core._lp_key(*problem) for problem in problems)
            return block(problems)

        monkeypatch.setattr(mf.ot_core, "_transport_block", recorded_block)
        rc, out, _ = run_cli(capsys, "distance", *files, "--e-mode", "empty")
        assert rc == 0 and "holds" in out
        assert counts["w1"] == 655
        assert len(carried) == len(set(carried)) == 200
        assert counts["lp"] <= 20
        assert mf.ot_core._SOLVED.get() is None
    _count_solves(monkeypatch, fail_at=3)
    rc, _, err = run_cli(capsys, "distance", *files, "--e-mode", "empty")
    assert rc == 1 and "injected LP failure" in err
    assert mf.ot_core._SOLVED.get() is None


def test_one_w1_batch_per_flow_distance(tmp_path, capsys, monkeypatch):
    """A flow distance certifies all its W1, the cost-matrix entries and the
    pushed top measures of every participating time, as one batch: one
    batch for a 2-file distance in either e-mode, four for a triangle
    (three distances and the certificate's cost matrices). The benchmark
    tracer still counts 165 W1 reads and 5 min-max LPs for a 2-file
    distance on 4-point, 5-time cycle walks, and 655 and 15 for a triangle."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs
    import tracer

    rng = np.random.default_rng(7)
    times = inputs.jittered_grid(rng, 5)
    files = [str(tmp_path / f"flow{k}.json") for k in range(3)]
    for path in files:
        inputs.write_doc(inputs.static_cycle_doc(rng, 4, times), path)
    batches = []
    real = mf.ot_core._w1_results
    monkeypatch.setattr(mf.ot_core, "_w1_results", lambda pairs: batches.append(len(pairs)) or real(pairs))
    for argv, n_batches, counts in (
        ([*files[:2], "--e-mode", "empty"], 1, (165, 5)),
        ([*files[:2], "--e-mode", "exhaustive"], 1, None),
        ([*files, "--e-mode", "empty"], 4, (655, 15)),
    ):
        batches.clear()
        with tracer.Tracer() as traced:
            rc, _, _ = run_cli(capsys, "distance", *argv)
        assert rc == 0 and len(batches) == n_batches, argv
        if counts:
            assert (traced.calls["ot_core.w1"], traced.calls["correspondence.minmax_lp"]) == counts


def test_oversized_flow_distance_is_refused_before_any_lp(tmp_path, capsys, monkeypatch):
    """Two 24-point, 60-time flows need 1 770 x 576 + 60 W1 solves, hours
    of work: the command says so and exits 2 at once, with no LP run."""
    rng = np.random.default_rng(3)
    slices = tuple(mf.FiniteMetricSpace(tuple(range(24)), np.abs(np.subtract.outer(x, x)))
                   for x in rng.uniform(0.0, 1.0, (60, 24)))
    kernels = [k / k.sum(axis=1, keepdims=True) for k in rng.uniform(0.05, 1.0, (59, 24, 24))]
    flow = mf.MetricFlow(TimeGrid(tuple(np.linspace(0.0, 1.0, 60))), slices,
                         adjacent_kernels=kernels)
    path = str(tmp_path / "markov.json")
    save_flow(flow, path)
    counts = _count_solves(monkeypatch)
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "distance", path, path, "--e-mode", "empty")
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and err.startswith("error: ") and "1019580 W1 solves" in err
    assert "Traceback" not in out + err
    assert counts == {"w1": 0, "lp": 0}


def test_distance_relation_file_and_label_mismatch(tmp_path, capsys):
    a = make_doc(tmp_path, "a.json", "generate", "two-point", "--steps", "3")
    b = make_doc(tmp_path, "b.json", "generate", "two-point", "--steps", "3", "--D", "1.1")
    st = make_doc(tmp_path, "st.json", "generate", "static", "--m", "4", "--steps", "3")
    rc, _, err = run_cli(capsys, "distance", a, st)
    assert rc == 2 and "label sets" in err
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"pairs": [[0, 1], [1, 0]]}))
    rc, out, _ = run_cli(capsys, "distance", a, b, "--relation", str(rel))
    assert rc == 0  # crossing the symmetric relation changes nothing
    assert "value r" in out
    rel.write_text(json.dumps({"per_time": {str(i): [[0, 1], [1, 0]] for i in range(4)}}))
    rc, out_per_time, _ = run_cli(capsys, "distance", a, b, "--relation", str(rel))
    assert rc == 0 and out_per_time == out  # the same relation at every time
    badrel = tmp_path / "badrel.json"
    for payload, message in (
        ([1, 2, 3], "relation file"),
        ({"pairs": [1, 2]}, "integer pairs"),
        ({"pairs": [[0, 1.5]]}, "integer pairs"),
        ({"per_time": {"zero": [[0, 0]]}}, "not a grid index"),
        ({"per_time": {"0": 5}}, "integer pairs"),
    ):
        badrel.write_text(json.dumps(payload))
        rc, _, err = run_cli(capsys, "distance", a, b, "--relation", str(badrel))
        assert rc == 2 and message in err


@pytest.mark.parametrize("labels2, rc_want", [(("1", "2"), 2), ((1.0, 2.0), 0)],
                         ids=["int-vs-str", "int-vs-float"])
def test_default_relation_matches_labels_by_equality(tmp_path, capsys, labels2, rc_want):
    """Labels match as Python values, as ``FiniteMetricSpace`` keeps them
    unique: 1 and "1" differ (exit 2, not a KeyError traceback), 1 and 1.0
    are the same point."""
    grid = TimeGrid((0.0, 0.5, 1.0))
    flow = mf.two_point_flow(C_STAR, 1.0, grid)
    paths = []
    for name, labels in (("a.json", (1, 2)), ("b.json", labels2)):
        slices = tuple(mf.FiniteMetricSpace(labels=labels, dist=s.dist) for s in flow.slices)
        save_flow(mf.MetricFlow(grid, slices, adjacent_kernels=list(flow.stored().values())),
                  str(tmp_path / name))
        paths.append(str(tmp_path / name))
    rc, out, err = run_cli(capsys, "distance", *paths)
    assert rc == rc_want and "Traceback" not in out + err
    if rc_want == 2:
        assert err.startswith("error: ") and "different label sets" in err
    else:
        assert "value r = 0.0" in out


def test_distance_e_mode_and_protected_times(tmp_path, capsys):
    grid = TimeGrid((0.0, 0.5, 1.0))
    f1 = mf.two_point_flow(C_STAR, 1.0, grid)
    kern = np.array([[0.9, 0.1], [0.1, 0.9]])
    spaces = tuple(
        mf.FiniteMetricSpace(labels=("+", "-"), dist=np.array([[0.0, d], [d, 0.0]]))
        for d in (1.0, 4.0, 1.0)
    )
    f2 = mf.MetricFlow(grid, spaces, adjacent_kernels=(kern, kern))
    p1, p2 = tmp_path / "f1.json", tmp_path / "f2.json"
    save_flow(f1, str(p1))
    save_flow(f2, str(p2))
    rc, out, _ = run_cli(capsys, "distance", str(p1), str(p2), "--e-mode", "exhaustive")
    assert rc == 0
    m = re.search(r"value r = ([0-9.e+-]+)", out)
    assert float(m.group(1)) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert "|E| = 1 times" in out
    rc, out, _ = run_cli(
        capsys, "distance", str(p1), str(p2), "--e-mode", "exhaustive", "--J", "0.5"
    )
    assert rc == 0
    m = re.search(r"value r = ([0-9.e+-]+)", out)
    assert float(m.group(1)) > math.sqrt(0.5)  # the spike cannot be cut


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_times_exit_2(tp4, tmp_path, capsys, value):
    """A non-finite time is on no grid; NaN and ±inf once meant the first time."""
    rc, _, err = run_cli(
        capsys, "report", tp4, "--quantity", "var-curve", f"--time={value}",
        "--csv", str(tmp_path / "o.csv"),
    )
    assert rc == 2 and "is not finite" in err
    rc, _, err = run_cli(capsys, "distance", tp4, tp4, f"--J={value}")
    assert rc == 2 and "is not finite" in err


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def test_report_var_curve(tmp_path, capsys):
    tp = make_doc(tmp_path, "tp.json", "generate", "two-point", "--steps", "4")
    out = tmp_path / "var.csv"
    rc, _, _ = run_cli(
        capsys, "report", tp, "--quantity", "var-curve", "--basepoint", "0", "--csv", str(out)
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["time", "var", "var_plus_Ht"]
    flow = mf.cli.load_flow(tp)
    H, _ = mf.h_concentration_constant(flow)
    for t, v, vh in rows:
        p = 0.5 + 0.5 * math.exp(-C_STAR * (1.0 - t) / 2.0)
        assert v == pytest.approx(2.0 * p * (1.0 - p), abs=1e-12)
        assert vh == pytest.approx(v + H * t, abs=1e-12)
    assert rows[-1][1] == 0.0  # a point mass has no variance


def test_report_var_curve_given_H(tmp_path, capsys):
    tp = make_doc(tmp_path, "tp.json", "generate", "two-point", "--steps", "4")
    out = tmp_path / "var.csv"
    rc, _, _ = run_cli(
        capsys, "report", tp, "--quantity", "var-curve", "--H", "2.5", "--csv", str(out)
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 5
    for t, v, vh in rows:
        assert vh == v + 2.5 * t


def test_report_dw1_curve(tmp_path, capsys):
    tp = make_doc(tmp_path, "tp.json", "generate", "two-point", "--steps", "4")
    out = tmp_path / "dw1.csv"
    rc, _, _ = run_cli(capsys, "report", tp, "--quantity", "dW1-curve", "--csv", str(out))
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["time", "dW1"]
    for t, d in rows:
        assert d == pytest.approx(math.exp(-C_STAR * (1.0 - t) / 2.0), abs=1e-12)
    assert rows[-1][1] == pytest.approx(1.0, abs=1e-15)


def test_report_b_function(tmp_path, capsys):
    tp = make_doc(tmp_path, "tp.json", "generate", "two-point", "--steps", "2")
    out = tmp_path / "b.csv"
    rc, _, _ = run_cli(
        capsys, "report", tp, "--quantity", "b-function", "--eps-grid", "0.25:1.0:0.25", "--csv", str(out)
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["eps", "b"]
    flow = mf.cli.load_flow(tp)
    space = flow.slices[-1]
    for eps, b in rows:
        assert b == mf.mass_distribution_fn(space, ProbMeasure.uniform(2), 1.0, eps)
    assert [r[0] for r in rows] == [0.25, 0.5, 0.75, 1.0]


def test_report_d_integral(tmp_path, capsys):
    tp = make_doc(tmp_path, "tp.json", "generate", "two-point", "--steps", "4")
    out = tmp_path / "di.csv"
    rc, _, _ = run_cli(capsys, "report", tp, "--quantity", "d-integral", "--csv", str(out))
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["time", "int_d"]
    for _, v in rows:
        assert v == pytest.approx(0.5, abs=1e-12)  # uniform stays uniform


def test_report_bad_eps_grid(tmp_path, capsys):
    tp = make_doc(tmp_path, "tp.json", "generate", "two-point", "--steps", "2")
    rc, _, err = run_cli(
        capsys, "report", tp, "--quantity", "b-function", "--eps-grid", "nope", "--csv", str(tmp_path / "x.csv")
    )
    assert rc == 2 and "eps-grid" in err


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_console_script(tmp_path):
    doc = tmp_path / "tp.json"
    gen = subprocess.run(
        [*console_argv(), "generate", "two-point", "--steps", "2", "--out", str(doc)],
        capture_output=True, text=True,
    )
    assert gen.returncode == 0, gen.stderr
    ver = subprocess.run([*console_argv(), "verify", str(doc)], capture_output=True, text=True)
    assert ver.returncode == 0, ver.stderr
    assert "summary: PASS" in ver.stdout
