"""Reading an op's output and deciding whether it is correct.

Every op writes machine-readable output (``--out``, ``--json`` or
``--csv``); :func:`read_output` reduces it to a small dict. An op is correct
when it exits 0, its output satisfies the invariants of its kind, it equals
the committed reference at 1e-9 relative (default seed only), and it is
identical to the first execution of the same op in the same process.
"""

from __future__ import annotations

import csv
import json
import math

REL_TOL = 1e-9
ABS_TOL = 1e-15


def read_output(op: dict) -> dict:
    kind, path = op["kind"], op["output"]
    if kind == "report":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        return {"header": header, "columns": [[float(r[i]) for r in body] for i in range(len(header))]}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if kind == "distance":
        return {"r": doc["value"], "E": doc["E"]["indices"]}
    if kind == "triangle":
        keys = ("holds", "certificate_value", "certificate_ok")
        out = {k: doc[k] for k in keys}
        out.update({k: doc[k]["value"] for k in ("d12", "d23", "d13")})
        return out
    if kind == "verify":
        return {
            "summary": doc["summary"],
            "H": doc["h_concentration_constant"],
            "records": {r["name"]: r["passed"] for r in doc["records"]},
            "axiom6": [[e["s_idx"], e["t_idx"], e["passed"], e["n_cases"]] for e in doc["axiom6"]],
        }
    raise ValueError(f"unknown op kind {kind!r}")


def _floats(value):
    if isinstance(value, bool):
        return
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, list):
        for v in value:
            yield from _floats(v)


def invariant_errors(op: dict, out: dict) -> list:
    """Checks that hold for every seed."""
    errors = [f"non-finite value {x!r}" for x in _floats(out) if not math.isfinite(x)]
    kind, expect = op["kind"], op.get("expect", {})
    if kind == "distance":
        if out["r"] < 0.0:
            errors.append(f"negative distance {out['r']!r}")
        if "E" in expect and out["E"] != expect["E"]:
            errors.append(f"exceptional set {out['E']} != expected {expect['E']}")
    elif kind == "triangle":
        if out["holds"] is not True:
            errors.append("triangle inequality reported violated")
        if out["certificate_ok"] is not True:
            errors.append("glued-coupling certificate inadmissible")
    elif kind == "verify":
        if out["summary"] != "PASS":
            errors.append(f"verify summary {out['summary']}")
    elif kind == "report":
        if out["header"] != expect["header"]:
            errors.append(f"csv header {out['header']} != {expect['header']}")
        if len(out["columns"][0]) != expect["rows"]:
            errors.append(f"csv has {len(out['columns'][0])} rows, expected {expect['rows']}")
    return errors


def diff(ref, got, where: str = "") -> list:
    """Differences between a reference output and a new one; floats compare
    at ``REL_TOL`` relative, everything else exactly."""
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where or 'value'}: {got!r} != reference {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(got)} != reference {sorted(ref)}"]
        return [e for k in ref for e in diff(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != reference {len(ref)}"]
        return [e for i, (a, b) in enumerate(zip(ref, got)) for e in diff(a, b, f"{where}[{i}]")]
    return [] if ref == got else [f"{where or 'value'}: {got!r} != reference {ref!r}"]
