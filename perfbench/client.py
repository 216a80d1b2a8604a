"""One closed-loop client: imports metricflow, sets up, runs ops in-process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``METRICFLOW_THREADS=1``. Only the standard library is imported
before ``metricflow``, so the package's BLAS thread cap lands before numpy's
first import. Set-up (import, one load of every document, one warm-up op)
is timed from the parent's spawn time. Then ops from the spec's list are
run in order, cycling, each one after the previous completes, until the
time budget is spent. After each op, outside its timed region, the client
times one unit of :mod:`calibrate` to gauge the host's speed at that
moment. With ``--trace 1`` each op runs twice back to back,
once untraced and once traced (alternating which goes first), so the
tracing overhead is measured on identical work.

Writes one JSON result file; prints nothing on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_op(cli, op: dict, tracer=None) -> dict:
    """Run one op through ``cli.main`` and time it; the output check is
    outside the timed region."""
    sink = io.StringIO()
    error = None
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            if tracer is None:
                rc = cli.main(op["argv"])
            else:
                with tracer:
                    rc = cli.main(op["argv"])
        except SystemExit as e:  # argparse usage errors
            rc = e.code
        except Exception:  # an op that raises is a failed op, not a crash
            rc, error = None, traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"rc": rc, "wall": wall, "cpu": cpu, "error": error}


class Checker:
    """Applies the checks in :mod:`checks` and remembers first outputs."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict = {}
        self.errors: list = []

    def check(self, op: dict, result: dict) -> bool:
        import checks

        if result["rc"] != 0:
            errs = [f"exit {result['rc']}" + (f": {result['error']}" if result["error"] else "")]
        else:
            try:
                out = checks.read_output(op)
            except (OSError, ValueError, KeyError, IndexError) as e:
                errs = [f"unreadable output: {e!r}"]
            else:
                errs = checks.invariant_errors(op, out)
                if self.reference is not None:
                    errs += checks.diff(self.reference[op["name"]], out, "reference")
                if op["name"] in self.first:
                    if out != self.first[op["name"]]:
                        errs.append("output differs from the first run of this op")
                else:
                    self.first[op["name"]] = out
        for e in errs:
            if len(self.errors) < 20:
                self.errors.append(f"{op['name']}: {e}")
        return not errs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--result", required=True)
    ap.add_argument("--start", type=int, default=0, help="index of the first measured op")
    args = ap.parse_args(argv)

    import metricflow
    import metricflow.cli as cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(metricflow.__file__).startswith(src + os.sep):
        print(f"perfbench: metricflow imported from {metricflow.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    checker = Checker(spec.get("reference"))
    ops = spec["ops"]

    for path in spec["docs"]:
        cli.load_flow(path)
    warm = _run_op(cli, ops[0])
    warm_ok = checker.check(ops[0], warm)
    setup_s = time.monotonic() - args.t0

    import numpy
    import scipy

    import calibrate

    calibrate.measure()  # the first unit pays for scipy's lazy imports

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    records, twins, host = [], [], []
    identity = {"checked": 0, "violations": []}
    cpu0, start = time.process_time(), time.perf_counter()
    i = args.start
    while time.perf_counter() - start < args.seconds:
        op = ops[i % len(ops)]
        if tracer is None:
            res = _run_op(cli, op)
            ok = checker.check(op, res)
        else:
            before = dict(tracer.calls)
            # both twins write the same output file: check each as it ends
            twin = {}
            for t in ((None, tracer) if i % 2 == 0 else (tracer, None)):
                r = _run_op(cli, op, t)
                twin[t is not None] = (r, checker.check(op, r))
            (plain, plain_ok), (res, ok) = twin[False], twin[True]
            twins.append((plain["wall"], res["wall"], plain_ok))
            want = op["expect"].get("identity")
            if want and res["rc"] == 0:
                got = {
                    "w1_calls": tracer.calls["ot_core.w1"] - before.get("ot_core.w1", 0),
                    "minmax_lp_calls": tracer.calls["correspondence.minmax_lp"]
                    - before.get("correspondence.minmax_lp", 0),
                }
                identity["checked"] += 1
                if got != want and len(identity["violations"]) < 5:
                    identity["violations"].append({"op": op["name"], "got": got, "want": want})
        records.append((op["name"], res["wall"], res["cpu"], ok))
        host.append(calibrate.measure())
        i += 1
    elapsed = time.perf_counter() - start
    cpu_total = time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "warmup": {"name": ops[0]["name"], "wall": warm["wall"], "ok": warm_ok},
        "ops": records,
        "twins": twins,
        "host": host,
        "elapsed_s": elapsed,
        "cpu_total_s": cpu_total,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "errors": checker.errors,
        "identity": identity,
        "trace": tracer.totals() if tracer else None,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in (
                "METRICFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
