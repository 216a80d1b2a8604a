"""Command-line front door: flow I/O, verification, distances, reports.

Flow files are JSON documents (``format_version`` 1):

    {
      "format_version": 1,
      "times": [0.0, 0.1, ...],
      "slices": [{"labels": [...], "dist": [[...], ...]}, ...],
      "kernels": {"mode": "markov", "matrices": [[[...]], ...]}
                 or {"mode": "full", "pairs": {"0:2": [[...]], ...}},
      "metadata": {...}
    }

Floats are serialized with ``repr`` (shortest round-trip), so
parse(serialize(flow)) reproduces every matrix bit-identically.

Exit codes: 0 success / all checks pass; 1 a verification or certification
check failed (witness on stderr/stdout); 2 usage, parse, or input errors,
and an output path that cannot be written.
The environment variable METRICFLOW_THREADS caps BLAS parallelism; the
package ``__init__`` applies it, before numpy is first imported.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .correspondence import (
    build_union_correspondence,
    combine_correspondences,
    f_distance_within,
    f_triangle_check,
)
from .flow_core import (
    MetricFlow,
    MetricFlowPair,
    TimeGrid,
    cartesian_product_flow,
    conj_backward,
    d_integral,
    h_concentration_constant,
    verify_flow_axioms,
)
from .generators import (
    _MAX_ENTRIES,
    gaussian_flow_discrete,
    min_C,
    static_cycle_flow,
    two_point_flow,
)
from .ot_core import (
    CertificateError,
    FiniteMetricSpace,
    InputError,
    InternalInvariantError,
    MetricflowError,
    ProbMeasure,
    StructuralError,
    _prefetch_w1,
    mass_distribution_fn,
    solve_once,
    variance,
    w1_distance,
)

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# document I/O
# ---------------------------------------------------------------------------


def flow_to_document(flow: MetricFlow) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "times": [float(t) for t in flow.grid.times],
        "slices": [
            {"labels": list(s.labels), "dist": s.dist.tolist()} for s in flow.slices
        ],
        "metadata": dict(flow.metadata),
    }
    stored = flow.stored()
    if flow.is_markov:
        doc["kernels"] = {"mode": "markov", "matrices": [k.tolist() for k in stored.values()]}
    else:
        doc["kernels"] = {
            "mode": "full",
            "pairs": {f"{s}:{t}": k.tolist() for (s, t), k in stored.items()},
        }
    return doc


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def save_flow(flow: MetricFlow, path: str) -> None:
    _write_json(path, flow_to_document(flow))


def _read_json(path: str, what: str = ""):
    """The parsed JSON file at ``path``; ``what`` prefixes the path in error
    messages. An unreadable file raises :class:`InputError` ``cannot read``;
    malformed JSON, bytes that are not UTF-8, an integer past Python's digit
    limit and nesting too deep to parse raise it as ``not valid JSON``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {what}{path}: {e}") from None
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise InputError(f"{what}{path}: not valid JSON ({e})") from None


def load_document(path: str) -> dict:
    """Read and schema-check a flow document. Raises :class:`InputError` for
    anything that is not a well-formed version-1 document."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise InputError(
            f"{path}: unsupported format_version {doc.get('format_version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    for key in ("times", "slices", "kernels"):
        if key not in doc:
            raise InputError(f"{path}: missing required key {key!r}")
    times = doc["times"]
    if not isinstance(times, list) or not all(isinstance(t, (int, float)) for t in times):
        raise InputError(f"{path}: times must be an array of numbers")
    if not isinstance(doc["slices"], list):
        raise InputError(f"{path}: slices must be an array")
    for i, rec in enumerate(doc["slices"]):
        if not (
            isinstance(rec, dict)
            and isinstance(rec.get("labels"), list)
            and isinstance(rec.get("dist"), list)
        ):
            raise InputError(f"{path}: slice {i} must be an object with 'labels' and 'dist' arrays")
        if not all(isinstance(lab, (str, int, float)) for lab in rec["labels"]):
            raise InputError(f"{path}: slice {i}: labels must be strings or numbers")
    if not isinstance(doc.get("metadata", {}), dict):
        raise InputError(f"{path}: metadata must be an object")
    kern = doc["kernels"]
    if not isinstance(kern, dict) or kern.get("mode") not in ("markov", "full"):
        raise InputError(f"{path}: kernels.mode must be 'markov' or 'full'")
    if kern["mode"] == "markov" and not isinstance(kern.get("matrices"), list):
        raise InputError(f"{path}: markov kernels need a 'matrices' array")
    if kern["mode"] == "full" and not isinstance(kern.get("pairs"), dict):
        raise InputError(f"{path}: full kernels need a 'pairs' object")
    return doc


def document_to_flow(doc: dict) -> MetricFlow:
    """Build the flow, running all structural content validation. Content
    that parses but is not a valid flow raises a :class:`MetricflowError`."""
    try:
        grid = TimeGrid(tuple(float(t) for t in doc["times"]))
    except OverflowError as e:
        raise InputError(f"times: {e}") from None
    slices = []
    for i, rec in enumerate(doc["slices"]):
        try:
            labels = tuple(rec["labels"])
            dist = np.array(rec["dist"], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise InputError(f"slice {i}: malformed record ({e})") from None
        slices.append(FiniteMetricSpace(labels=labels, dist=dist))
    kern = doc["kernels"]
    meta = dict(doc.get("metadata", {}))
    if kern["mode"] == "markov":
        try:
            mats = [np.array(m, dtype=float) for m in kern["matrices"]]
        except (TypeError, ValueError, OverflowError) as e:
            raise InputError(f"markov kernel matrices malformed ({e})") from None
        return MetricFlow(grid, slices, adjacent_kernels=mats, metadata=meta)
    pairs = {}
    for key, mat in kern["pairs"].items():
        try:
            s_str, t_str = key.split(":")
            pair = (int(s_str), int(t_str))
        except ValueError:
            raise InputError(f"kernel pair key {key!r}: expected 's:t' integers") from None
        try:
            pairs[pair] = np.array(mat, dtype=float)
        except (TypeError, ValueError, OverflowError) as e:
            raise InputError(f"kernel {key!r}: malformed matrix ({e})") from None
    return MetricFlow(grid, slices, pair_kernels=pairs, metadata=meta)


def load_flow(path: str) -> MetricFlow:
    return document_to_flow(load_document(path))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _basepoint_measure(flow: MetricFlow, spec: str, t_idx: int) -> ProbMeasure:
    n = flow.slices[t_idx].n
    if spec == "uniform":
        return ProbMeasure.uniform(n)
    try:
        idx = int(spec)
    except ValueError:
        raise InputError(f"--basepoint must be 'uniform' or a point index, got {spec!r}") from None
    if not (0 <= idx < n):
        raise InputError(f"--basepoint index {idx} out of range for a {n}-point slice")
    return ProbMeasure.delta(idx, n)


def _time_or_top(flow: MetricFlow, value: float | None) -> int:
    if value is None:
        return flow.grid.n - 1
    return flow.grid.index_of(float(value))


def _parse_times_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise InputError(f"expected a comma-separated list of times, got {text!r}") from None


def _default_relation(flow1: MetricFlow, flow2: MetricFlow) -> dict:
    """Label-matching relation per time (requires equal label sets)."""
    rel = {}
    for t_idx in range(flow1.grid.n):
        l1, l2 = flow1.slices[t_idx].labels, flow2.slices[t_idx].labels
        lookup = {lab: j for j, lab in enumerate(l2)}
        if set(l1) != set(l2):
            raise InputError(
                f"slices at index {t_idx} carry different label sets; pass --relation"
            )
        rel[t_idx] = [(i, lookup[lab]) for i, lab in enumerate(l1)]
    return rel


def _load_relation(path: str) -> dict | list:
    doc = _read_json(path, "relation file ")
    if isinstance(doc, dict) and isinstance(doc.get("per_time"), dict):
        rel = {}
        for key, pairs in doc["per_time"].items():
            try:
                t_idx = int(key)
            except ValueError:
                raise InputError(f"{path}: per_time key {key!r} is not a grid index") from None
            rel[t_idx] = _relation_pairs(pairs, f"{path}: per_time[{key!r}]")
        return rel
    if isinstance(doc, dict) and "pairs" in doc:
        return _relation_pairs(doc["pairs"], f"{path}: pairs")
    raise InputError(f"{path}: relation file needs a 'pairs' list or 'per_time' object")


def _relation_pairs(pairs, where: str) -> list:
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(i) is int for i in p) for p in pairs
    ):
        raise InputError(f"{where} must be a list of [i, j] integer pairs")
    return [tuple(p) for p in pairs]


def _finite(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{name} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {text!r}")
    return value


def _eps_values(text: str) -> np.ndarray:
    """The grid 'start:stop:step' (stop included) cut to (0, 1]; the ends must
    be finite and the step positive and finite, for at most 10 000 samples."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"--eps-grid must be 'start:stop:step', got {text!r}")
    lo, hi, step = (_finite(x, "--eps-grid") for x in parts)
    if not (step > 0.0 and (hi + 0.5 * step - lo) / step <= 10_000):
        raise InputError(f"--eps-grid {text!r}: need a positive step and at most 10 000 samples")
    eps = np.arange(lo, hi + 0.5 * step, step)
    eps = eps[(eps > 0.0) & (eps <= 1.0)]
    if eps.size == 0:
        raise InputError("--eps-grid selects no eps values in (0, 1]")
    return eps


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _check_entries(entries: int, flags: str, what: str = "kernel entries") -> None:
    """Refuse, before anything is built, a generated flow that would store
    more than ``_MAX_ENTRIES`` floats (``what`` names the arrays counted)."""
    if entries > _MAX_ENTRIES:
        raise InputError(
            f"the flow would store {entries:,} {what}, over the limit of "
            f"{_MAX_ENTRIES:,}: shrink {flags}"
        )


def cmd_generate(args) -> int:
    kind = args.kind
    if kind == "two-point":
        _check_entries(4 * args.steps, "--steps")
        c_val = min_C() * (1.0 + 1e-6) if args.C == "auto" else _finite(args.C, "--C")
        grid = TimeGrid.uniform(args.t0, args.t1, args.steps)
        flow = two_point_flow(c_val, args.D, grid)
    elif kind == "gaussian":
        times = _parse_times_list(args.times)
        flow, _ = gaussian_flow_discrete(args.dim, args.L, args.h, TimeGrid(times))
    elif kind == "static":
        steps = max(args.steps, 1)
        _check_entries(args.m * args.m * (steps * (steps + 1) // 2), "--m or --steps")
        grid = TimeGrid.uniform(args.t0, args.t1, args.steps)
        flow = static_cycle_flow(args.m, args.rate, args.edge, grid)
    elif kind == "product":
        f1 = load_flow(args.files[0])
        f2 = load_flow(args.files[1])
        sizes = [a.n * b.n for a, b in zip(f1.slices, f2.slices)]
        squares = sum(x * x for x in sizes)  # the product's slices
        if f1.is_markov and f2.is_markov:  # one kernel per adjacent pair
            kernels = sum(x * y for x, y in zip(sizes, sizes[1:]))
        else:  # one kernel per pair s < t: sum of sizes[s] * sizes[t]
            kernels = (sum(sizes) ** 2 - squares) // 2
        _check_entries(squares + kernels, "the input flows", what="slice and kernel entries")
        flow = cartesian_product_flow(f1, f2)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown generator kind {kind!r}")
    save_flow(flow, args.out)
    print(f"wrote {args.out}: {flow.grid.n} times, generator={flow.metadata.get('generator')}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


_JSON_TYPES = {"bool": bool, "int": int, "float": float, "str": str}


def _fields_json(record, omit: set) -> dict:
    """A dataclass record as a JSON object: its fields less ``omit``, in
    declaration order, each cast to its declared type (so numpy scalars
    become JSON numbers and booleans)."""
    return {
        f.name: _JSON_TYPES[f.type](getattr(record, f.name))
        for f in dataclasses.fields(record)
        if f.name not in omit
    }


def cmd_verify(args) -> int:
    doc = load_document(args.flow)  # schema problems exit 2
    try:
        flow = document_to_flow(doc)  # content problems are check failures
    except MetricflowError as e:
        print(f"structural check FAIL: {e}")
        print("summary: FAIL")
        return 1

    approximate = flow.flagged("approximate")
    mode = args.mode
    if mode is None:
        mode = "skip" if approximate else "exhaustive-2pt"
    report = verify_flow_axioms(
        flow, mode=mode, seeds=args.seeds, rng_seed=args.seed
    )
    h_value, h_witness = h_concentration_constant(flow)

    lines = []
    for rec in report.records:
        status = "PASS" if rec.passed else "FAIL"
        note = "" if rec.gating else " (informational)"
        lines.append(f"axiom check {rec.name}: {status}{note} (worst residual {rec.worst:.3e})")
        if not rec.passed and rec.details:
            lines.append(f"  witness: {rec.details[0]}")
    for entry in report.axiom6:
        status = "PASS" if entry.passed else "FAIL"
        note = "" if entry.gating else " (informational)"
        lines.append(
            f"axiom (6) pair (s={entry.s_idx}, t={entry.t_idx}) [{entry.verdict}]: "
            f"{status}{note} (worst ratio excess {entry.worst_excess:.3e}, "
            f"{entry.n_cases} cases, +{len(entry.duplicates)} duplicate pairs)"
        )
    if mode == "skip":
        lines.append("axiom (6): skipped (pass --mode to run the battery)")
    lines.append(f"H-concentration constant: {h_value!r} (witness {h_witness})")
    if approximate:
        lines.append("flow is flagged 'approximate': quantitative residuals informational")
    for name in ("axiom6_unverified", "truncation_warning"):
        if flow.flagged(name):
            lines.append(f"flag: {name}")
    summary = "PASS" if report.ok else "FAIL"
    lines.append(f"summary: {summary}")
    print("\n".join(lines))

    if args.out:
        payload = {
            "records": [_fields_json(r, {"details"}) for r in report.records],
            "axiom6": [_fields_json(e, {"saturated", "duplicates"}) for e in report.axiom6],
            "h_concentration_constant": float(h_value),
            "mode": mode,
            "approximate": bool(approximate),
            "summary": summary,
        }
        _write_json(args.out, payload)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def _pair_from(flow: MetricFlow, basepoint: str) -> MetricFlowPair:
    top = flow.grid.n - 1
    mu0 = _basepoint_measure(flow, basepoint, top)
    return MetricFlowPair(flow=flow, mu=conj_backward(flow, flow.grid.times[top], mu0))


def cmd_distance(args) -> int:
    flows = [load_flow(p) for p in args.files]
    if args.relation:
        relations = [_load_relation(args.relation)] * (len(flows) - 1)
    else:
        relations = [_default_relation(a, b) for a, b in zip(flows, flows[1:])]
    J = _parse_times_list(args.J) if args.J else ()
    pairs = [_pair_from(f, args.basepoint) for f in flows]

    if len(flows) == 2:
        c = build_union_correspondence(flows[0], flows[1], relations[0])
        rep = f_distance_within(c, pairs[0], pairs[1], J=J, e_mode=args.e_mode)
        worst = max(rep.per_pair_integrals.items(), key=lambda kv: kv[1]) if rep.per_pair_integrals else None
        print(f"value r = {rep.value!r}")
        print(f"|E| = {len(rep.E_indices)} times, measure {rep.E_measure!r}")
        if worst is not None:
            print(f"worst pair (s,t) = {worst[0]} with integral {worst[1]!r}")
        if args.out:
            _write_json(args.out, rep.to_json_dict(include_couplings=args.include_couplings))
        return 0

    # three files: pairwise distances + triangle audit in a combined ambient
    c12 = build_union_correspondence(flows[0], flows[1], relations[0])
    c23 = build_union_correspondence(flows[1], flows[2], relations[1])
    c123 = combine_correspondences(c12, c23)
    tri = f_triangle_check(c123, pairs[0], pairs[1], pairs[2], J=J, e_mode=args.e_mode)
    print(f"d(1,2) = {tri.d12.value!r}")
    print(f"d(2,3) = {tri.d23.value!r}")
    print(f"d(1,3) = {tri.d13.value!r}")
    print(f"triangle d(1,3) <= d(1,2) + d(2,3): {'holds' if tri.holds else 'VIOLATED'}")
    print(
        f"glued-coupling certificate: value {tri.certificate_value!r} "
        f"({'admissible' if tri.certificate_ok else 'INADMISSIBLE'})"
    )
    if args.out:
        payload = {
            "d12": tri.d12.to_json_dict(include_couplings=args.include_couplings),
            "d23": tri.d23.to_json_dict(include_couplings=args.include_couplings),
            "d13": tri.d13.to_json_dict(include_couplings=args.include_couplings),
            "holds": tri.holds,
            "certificate_value": tri.certificate_value,
            "certificate_ok": tri.certificate_ok,
            "E_union": [int(i) for i in tri.E_union],
        }
        _write_json(args.out, payload)
    return 0 if (tri.holds and tri.certificate_ok) else 1


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(args) -> int:
    flow = load_flow(args.flow)
    top_idx = _time_or_top(flow, args.time)
    quantity = args.quantity

    if quantity == "var-curve":
        mu0 = _basepoint_measure(flow, args.basepoint, top_idx)
        chf = conj_backward(flow, flow.grid.times[top_idx], mu0)
        if args.H == "auto":
            h_value, _ = h_concentration_constant(flow)
        else:
            h_value = _finite(args.H, "--H")
        rows = []
        for idx in chf.time_indices:
            t = flow.grid.times[idx]
            v = variance(flow.slices[idx], chf.measure_at(idx))
            rows.append([t, v, v + h_value * t])
        _write_csv(args.out, ["time", "var", "var_plus_Ht"], rows)
    elif quantity == "dW1-curve":
        n_top = flow.slices[top_idx].n
        for name, idx in (("--x1", args.x1), ("--x2", args.x2)):
            if not (0 <= idx < n_top):
                raise InputError(f"{name} index {idx} out of range for a {n_top}-point slice")
        chf1 = conj_backward(flow, flow.grid.times[top_idx], ProbMeasure.delta(args.x1, n_top))
        chf2 = conj_backward(flow, flow.grid.times[top_idx], ProbMeasure.delta(args.x2, n_top))
        pairs = [
            (flow.slices[idx], chf1.measure_at(idx), chf2.measure_at(idx))
            for idx in chf1.time_indices
        ]
        with solve_once():
            _prefetch_w1(pairs)
            rows = [
                [flow.grid.times[idx], w1_distance(*pair).value]
                for idx, pair in zip(chf1.time_indices, pairs)
            ]
        _write_csv(args.out, ["time", "dW1"], rows)
    elif quantity == "b-function":
        mu = _basepoint_measure(flow, args.basepoint, top_idx)
        rows = []
        for eps in _eps_values(args.eps_grid):
            b = mass_distribution_fn(flow.slices[top_idx], mu, args.r, float(eps))
            rows.append([float(eps), b])
        _write_csv(args.out, ["eps", "b"], rows)
    elif quantity == "d-integral":
        mu0 = _basepoint_measure(flow, args.basepoint, top_idx)
        chf = conj_backward(flow, flow.grid.times[top_idx], mu0)
        rows = []
        for idx in chf.time_indices:
            t = flow.grid.times[idx]
            rows.append([t, d_integral(flow, chf, t)])
        _write_csv(args.out, ["time", "int_d"], rows)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown quantity {quantity!r}")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as :class:`InputError` (subparsers share the class)."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="metricflow",
        description="Finite metric flows: generation, verification, distances, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a flow document")
    gsub = g.add_subparsers(dest="kind", required=True)
    g2 = gsub.add_parser("two-point", help="two-point mixing flow")
    g2.add_argument("--C", default="auto", help="mixing constant, or 'auto' for min_C*(1+1e-6)")
    g2.add_argument("--D", type=float, default=1.0, help="slice distance")
    g2.add_argument("--t0", type=float, default=0.0)
    g2.add_argument("--t1", type=float, default=1.0)
    g2.add_argument("--steps", type=int, default=10)
    g2.add_argument("--out", required=True)
    g2.set_defaults(func=cmd_generate)
    gg = gsub.add_parser("gaussian", help="discretized heat-kernel flow (approximate)")
    gg.add_argument("--dim", type=int, default=1)
    gg.add_argument("--L", type=float, default=12.0)
    gg.add_argument("--h", type=float, default=0.1)
    gg.add_argument("--times", default="0,1,1.5,2", help="comma-separated grid times")
    gg.add_argument("--out", required=True)
    gg.set_defaults(func=cmd_generate)
    gs = gsub.add_parser("static", help="static cycle-walk flow")
    gs.add_argument("--m", type=int, default=6)
    gs.add_argument("--rate", type=float, default=8.0)
    gs.add_argument("--edge", type=float, default=1.0)
    gs.add_argument("--t0", type=float, default=0.0)
    gs.add_argument("--t1", type=float, default=1.0)
    gs.add_argument("--steps", type=int, default=4)
    gs.add_argument("--out", required=True)
    gs.set_defaults(func=cmd_generate)
    gp = gsub.add_parser("product", help="cartesian product of two flow files")
    gp.add_argument("files", nargs=2, metavar="FLOW.json")
    gp.add_argument("--out", required=True)
    gp.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="audit a flow document against the axioms")
    v.add_argument("flow")
    v.add_argument(
        "--mode",
        choices=["exhaustive-2pt", "randomized", "skip"],
        default=None,
        help="smoothing-axiom mode (default: exhaustive-2pt, or skip for approximate flows)",
    )
    v.add_argument(
        "--seeds", type=int, default=256,
        help="random cone count for the battery; seeds x largest slice size must be <= 4000000",
    )
    v.add_argument("--seed", type=int, default=0, help="rng seed for the battery")
    v.add_argument("--json", dest="out", metavar="JSON", default=None, help="write machine-readable report")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("distance", help="flow distance (2 files) or triangle audit (3 files)")
    d.add_argument("files", nargs="+", metavar="FLOW.json")
    d.add_argument("--relation", default=None, help="JSON file with matched point pairs")
    d.add_argument("--J", default=None, help="comma-separated protected times")
    d.add_argument("--e-mode", dest="e_mode", default="empty",
                   help="exceptional-set search: empty (default) or exhaustive")
    d.add_argument("--basepoint", default="uniform", help="'uniform' or a top-slice point index")
    d.add_argument("--out", default=None, help="write the JSON report here")
    d.add_argument("--include-couplings", action="store_true")
    d.set_defaults(func=cmd_distance)

    r = sub.add_parser("report", help="CSV curves: var, dW1, b-function, distance integral")
    r.add_argument("flow")
    r.add_argument(
        "--quantity",
        required=True,
        choices=["var-curve", "dW1-curve", "b-function", "d-integral"],
    )
    r.add_argument("--csv", dest="out", metavar="CSV", required=True, help="output CSV path")
    r.add_argument("--basepoint", default="uniform")
    r.add_argument("--time", type=float, default=None, help="reference time (default: top)")
    r.add_argument("--x1", type=int, default=0)
    r.add_argument("--x2", type=int, default=1)
    r.add_argument("--r", type=float, default=1.0, help="scale for the b-function")
    r.add_argument("--eps-grid", dest="eps_grid", default="0.05:1.0:0.05")
    r.add_argument("--H", default="auto", help="'auto' (computed constant) or a number")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "distance" and not (2 <= len(args.files) <= 3):
            raise InputError("distance takes two or three flow files")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise InputError(f"cannot write {args.out}: its directory does not exist")
        return args.func(args)
    except (InputError, StructuralError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CertificateError, InternalInvariantError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
