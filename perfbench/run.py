"""metricflow benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/metricflow``).
The documents are generated from ``--seed`` by the benchmark's own code
under ``.perfbench_work/`` and removed afterwards. The load is a closed
loop with one client: three client processes run one after another, each
one set up (import, document loads, one warm-up op) and then drives
``metricflow.cli.main`` in-process for a third of ``--seconds``. Ops are
pooled across the three; set-up time and peak RSS are their medians. The
end-to-end times are rescaled to a reference host speed, gauged by the
calibration unit each client runs between ops (see ``calibrate.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics; the line before it, prefixed
``record:``, holds the full result with the input fingerprints and the run
environment (``compare.py`` reads it from a saved stdout).
``--write-reference`` runs every op once on the given seed and rewrites
``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
CLIENTS = 3
# all clients of one run share this deadline, so a hung op cannot keep the
# run alive past its 180-second limit
CLIENTS_DEADLINE_S = 170.0
# calibration units on each side of an op that gauge the host's speed for it
HOST_WINDOW = 3


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_sha(root: str):
    """HEAD's commit id read from ``.git`` in the checkout, or None."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _src_sha256(src: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _spawn_clients(spec_path: str, seconds: float, trace: int, workdir: str, count: int,
                   n_ops: int = 1) -> list:
    """Run ``count`` clients one after another; client k starts measuring at
    op k * n_ops // count, so short runs still cover the op list evenly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["METRICFLOW_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    results = []
    deadline = time.monotonic() + CLIENTS_DEADLINE_S
    for k in range(count):
        result_path = os.path.join(workdir, f"client{k}.json")
        cmd = [sys.executable, os.path.join(HERE, "client.py"), "--spec", spec_path,
               "--seconds", repr(seconds), "--trace", str(trace),
               "--result", result_path, "--start", str(k * n_ops // count),
               "--t0", repr(time.monotonic())]
        # a timeout kills the client and waits for it before raising
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"client {k} exited with {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it: with n
    sorted samples, the (n-10)-th. Returns (value, percentile); below eleven
    samples there is none, and the maximum is returned with percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def host_factors(client: dict) -> list:
    """Per op, the factors (wall, cpu) that rescale its times to a host where
    the calibration unit takes ``calibrate.REF_S``: the reference over the
    median wall and CPU time of the units run nearest to the op, up to
    ``HOST_WINDOW`` on each side. The client runs one unit after each op."""
    import calibrate

    factors = []
    for i in range(len(client["host"])):
        near = client["host"][max(0, i - HOST_WINDOW):i + HOST_WINDOW + 1]
        factors.append((calibrate.REF_S / statistics.median(w for w, _ in near),
                        calibrate.REF_S / statistics.median(c for _, c in near)))
    return factors


def scaled_ops(clients: list) -> list:
    """Every measured op as (name, wall, cpu), rescaled by its host factors."""
    ops = []
    for c in clients:
        for (name, wall, cpu, _), (fw, fc) in zip(c["ops"], host_factors(c)):
            ops.append((name, wall * fw, cpu * fc))
    return ops


def _median_factor(client: dict) -> float:
    return statistics.median(fw for fw, _ in host_factors(client))


def end_to_end(clients: list) -> tuple:
    """Times are rescaled to the reference host speed (``host_factors``).
    Throughput and CPU time come from each op's median, so a pass through the
    op list that a run cuts short, or a burst of host noise, weighs nothing:
    ``ops_per_s`` is the op count of the list over the sum of its ops' median
    wall times, ``cpu_s_per_op`` the mean of their median CPU times."""
    ops = scaled_ops(clients)
    walls = [w for _, w, _ in ops]
    n_ops = len(walls)
    elapsed = sum(c["elapsed_s"] for c in clients)
    by_op = per_op(ops)
    pass_s = sum(v["p50_s"] for v in by_op.values())
    tail_s, tail_pct = tail(walls)
    # set-up ran just before the first op, so the first op's factor fits it
    setups = [c["setup_s"] * host_factors(c)[0][0] for c in clients]
    speeds = ", ".join(f"{_median_factor(c):.3f}" for c in clients)
    metrics = {
        "ops_per_s": (len(by_op) / pass_s, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_s, "s"),
        "cpu_s_per_op": (statistics.fmean(v["cpu_p50_s"] for v in by_op.values()), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_kb"] for c in clients) / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {
        "ops_per_s": f"{len(by_op)} ops / {pass_s:.3f} s of their medians; "
                     f"{n_ops} ops ran in {elapsed:.2f} s; host factors {speeds}",
        "op_p50_s": f"n={n_ops}",
        "op_tail_s": f"p{tail_pct:.1f}, {10 if n_ops >= 11 else 0} samples beyond, n={n_ops}",
        "cpu_s_per_op": f"mean of {len(by_op)} op medians, n={n_ops}",
        "peak_rss_mb": f"median of {len(clients)} processes",
        "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in setups),
    }
    return metrics, notes


def per_layer(clients: list) -> tuple:
    n = sum(len(c["ops"]) for c in clients)
    sums: dict = {}
    for c in clients:
        for group, values in c["trace"].items():
            if isinstance(values, dict):
                for k, v in values.items():
                    sums[(group, k)] = sums.get((group, k), 0.0) + v
            else:
                sums[group] = max(sums.get(group, 0.0), values) if group == "worst_gap" \
                    else sums.get(group, 0.0) + values

    def self_s(layer):
        return sums[("self_s", layer)] / n

    def calls(layer):
        return sums[("calls", layer)] / n

    verify_incl = sums[("incl_s", "flow_core.verify")]
    plain = sum(p for c in clients for (p, _, _) in c["twins"])
    traced = sum(t for c in clients for (_, t, _) in c["twins"])
    metrics = {
        "ot_core.w1_calls": (calls("ot_core.w1"), "count"),
        "ot_core.w1_s": (self_s("ot_core.w1"), "s"),
        "ot_core.lp_calls": (calls("ot_core.lp"), "count"),
        "ot_core.lp_s": (self_s("ot_core.lp"), "s"),
        "ot_core.worst_gap": (sums["worst_gap"], "dist"),
        "correspondence.f_distance_s": (self_s("correspondence.f_distance"), "s"),
        "correspondence.minmax_lp_calls": (calls("correspondence.minmax_lp"), "count"),
        "correspondence.minmax_lp_s": (self_s("correspondence.minmax_lp"), "s"),
        "correspondence.triangle_s": (self_s("correspondence.triangle"), "s"),
        "correspondence.glue_s": (self_s("correspondence.glue"), "s"),
        "flow_core.verify_s": (self_s("flow_core.verify"), "s"),
        "flow_core.phi_s": (self_s("flow_core.phi"), "s"),
        "flow_core.sweep_cases": (sums["sweep_cases"] / n, "count"),
        "flow_core.saturated_cases": (sums["saturated_cases"] / n, "count"),
        "flow_core.sweep_cases_per_s": (
            sums["sweep_cases"] / verify_incl if verify_incl > 0.0 else 0.0, "1/s"),
        "flow_core.kernel_calls": (calls("flow_core.kernel"), "count"),
        "flow_core.kernel_s": (self_s("flow_core.kernel"), "s"),
        "flow_core.h_constant_s": (self_s("flow_core.h_constant"), "s"),
        "flow_core.conj_backward_s": (self_s("flow_core.conj_backward"), "s"),
        "cli.load_s": (self_s("cli.load"), "s"),
        "cli.doc_mb": (sums["doc_bytes"] / n / 1e6, "MB"),
        "trace_overhead": (plain / traced, "ratio"),
    }
    return metrics, {"trace_overhead": "traced ops_per_s / untraced ops_per_s on the same ops"}


def per_op(ops: list) -> dict:
    """Count and median wall and CPU time of each op in the list, from
    (name, wall, cpu) triples."""
    runs: dict = {}
    for name, wall, cpu in ops:
        runs.setdefault(name, []).append((wall, cpu))
    return {k: {"n": len(v), "p50_s": statistics.median(w for w, _ in v),
                "cpu_p50_s": statistics.median(c for _, c in v)} for k, v in runs.items()}


def _counts(clients: list) -> tuple:
    attempted = failed = 0
    for c in clients:
        oks = [c["warmup"]["ok"]] + [r[3] for r in c["ops"]] + [t[2] for t in c["twins"]]
        attempted += len(oks)
        failed += oks.count(False)
    return attempted, failed


def _environment(root: str, trace: int, clients: list) -> dict:
    env = dict(clients[0]["env"])
    env.update({
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(os.path.join(root, "src", "metricflow")),
        "traced": bool(trace),
        "clients": len(clients),
        "load": "closed loop, 1 client",
    })
    return env


def _reference_for(workload: str, seed: int, fingerprints: list):
    if seed != DEFAULT_SEED or not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh).get(workload)
    if ref is None:
        return None
    if [f["sha256"] for f in ref["fingerprints"]] != [f["sha256"] for f in fingerprints]:
        print(f"perfbench: warning: {workload} seed {seed} documents differ from the "
              "reference's; comparing values anyway", file=sys.stderr)
    return ref["ops"]


def write_reference(workdir: str, seed: int) -> int:
    import checks
    import workloads

    out = {}
    for name in workloads.NAMES:
        sub = os.path.join(workdir, name)
        os.makedirs(sub)
        spec = workloads.build(name, seed, sub)
        ops = {}
        for op in spec["ops"]:
            one = dict(spec, ops=[op], reference=None)
            spec_path = os.path.join(sub, f"spec-{op['name']}.json")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(one, fh)
            [res] = _spawn_clients(spec_path, 0.0, 0, sub, 1)
            if res["errors"]:
                return _fail(f"{name}/{op['name']} failed: {res['errors']}")
            ops[op["name"]] = checks.read_output(op)
        out[name] = {"seed": seed, "fingerprints": spec["fingerprints"], "ops": ops}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="metricflow benchmark")
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "metricflow", "cli.py")):
        return _fail("no src/metricflow/cli.py here; run from the root of a metricflow checkout")
    if args.seed < 0 or args.seconds <= 0.0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, HERE)
    import workloads

    if not args.write_reference and args.workload not in workloads.NAMES:
        return _fail(f"--workload must be one of {', '.join(workloads.NAMES)}")

    label = "reference" if args.write_reference else args.workload
    workdir = os.path.join(root, ".perfbench_work", f"{label}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.write_reference:
            return write_reference(workdir, args.seed)
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def run(args, root: str, workdir: str) -> int:
    import workloads

    spec = workloads.build(args.workload, args.seed, os.path.relpath(workdir, root))
    spec["reference"] = _reference_for(args.workload, args.seed, spec["fingerprints"])
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        clients = _spawn_clients(spec_path, args.seconds / CLIENTS, args.trace, workdir, CLIENTS,
                                 len(spec["ops"]))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted, failed = _counts(clients)
    metrics, notes = (per_layer if args.trace else end_to_end)(clients)
    inputs_id = hashlib.sha256("".join(f["sha256"] for f in spec["fingerprints"]).encode()).hexdigest()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs": {"id": inputs_id, "documents": spec["fingerprints"]},
        "environment": _environment(root, args.trace, clients),
        "metrics": {k: {"value": v, "unit": u, "note": notes.get(k, "")} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "per_op": per_op(scaled_ops(clients)),
        "clients": [{"ops": len(c["ops"]), "elapsed_s": c["elapsed_s"], "setup_s": c["setup_s"],
                     "peak_rss_kb": c["peak_rss_kb"], "host_factor": _median_factor(c)}
                    for c in clients],
        "errors": [e for c in clients for e in c["errors"]][:20],
        "counter_identity": {
            "checked": sum(c["identity"]["checked"] for c in clients),
            "violations": [v for c in clients for v in c["identity"]["violations"]],
        },
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={inputs_id[:16]}")
    for doc in spec["fingerprints"]:
        print(f"  input {doc['file']}: n={doc['n']} T={doc['T']} {doc['bytes']} bytes "
              f"sha256={doc['sha256'][:16]}")
    for k, (v, u) in metrics.items():
        print(f"  {k:32s} {v:14.6g} {u:6s} {notes.get(k, '')}")
    for k, v in record["per_op"].items():
        print(f"  op {k:29s} {v['p50_s']:14.6g} {'s':6s} median of n={v['n']}")
    print(f"  {'fail_ratio':32s} {record['fail_ratio']:14.6g} {'ratio':6s} {failed}/{attempted} ops")
    ci = record["counter_identity"]
    if ci["checked"]:
        status = "holds" if not ci["violations"] else f"VIOLATED {ci['violations']}"
        print(f"  counter identity (2-file distance, E empty): {status} on {ci['checked']} ops")
    for e in record["errors"]:
        print(f"  error: {e}")
    print(f"record: {json.dumps(record)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
