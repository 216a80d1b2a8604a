"""Per-layer tracing by rebinding module attributes to timing wrappers.

Nothing in ``metricflow`` changes: while a :class:`Tracer` is installed,
the public functions each module exposes (and scipy's ``linprog`` as each
module binds it) are replaced in the namespace that calls them by wrappers
that count calls and accumulate self time, i.e. a span's duration minus the
part covered by nested spans. Spans are aggregated per layer in memory;
individual spans are not kept.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer). A function imported into several modules is
# rebound in each one that calls it on the CLI paths the workloads use.
BINDINGS = (
    ("metricflow.correspondence", "w1_distance", "ot_core.w1"),
    ("metricflow.cli", "w1_distance", "ot_core.w1"),
    ("metricflow.ot_core", "linprog", "ot_core.lp"),
    ("metricflow.correspondence", "linprog", "correspondence.minmax_lp"),
    ("metricflow.cli", "f_distance_within", "correspondence.f_distance"),
    ("metricflow.correspondence", "f_distance_within", "correspondence.f_distance"),
    ("metricflow.cli", "f_triangle_check", "correspondence.triangle"),
    ("metricflow.cli", "build_union_correspondence", "correspondence.glue"),
    ("metricflow.cli", "combine_correspondences", "correspondence.glue"),
    ("metricflow.cli", "verify_flow_axioms", "flow_core.verify"),
    ("metricflow.flow_core", "phi", "flow_core.phi"),
    ("metricflow.flow_core", "phi_inv", "flow_core.phi"),
    ("metricflow.flow_core", "_phi_inv_pair", "flow_core.phi"),
    ("metricflow.flow_core.MetricFlow", "kernel", "flow_core.kernel"),
    ("metricflow.cli", "h_concentration_constant", "flow_core.h_constant"),
    ("metricflow.cli", "conj_backward", "flow_core.conj_backward"),
    ("metricflow.cli", "load_document", "cli.load"),
    ("metricflow.cli", "document_to_flow", "cli.load"),
    ("metricflow.cli", "load_flow", "cli.load"),
)

# layers whose self time is reported, and those whose call count is
TIMED = (
    "ot_core.w1", "ot_core.lp", "correspondence.f_distance", "correspondence.minmax_lp",
    "correspondence.triangle", "correspondence.glue", "flow_core.verify", "flow_core.phi",
    "flow_core.kernel", "flow_core.h_constant", "flow_core.conj_backward", "cli.load",
)
COUNTED = ("ot_core.w1", "ot_core.lp", "correspondence.minmax_lp", "flow_core.kernel")


def _resolve(path: str):
    """Import ``a.b.c`` or ``a.b.Class`` and return the object."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Counts and self times per layer, collected while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.worst_gap = 0.0
        self.sweep_cases = 0
        self.saturated_cases = 0
        self.doc_bytes = 0
        self._stack = []  # time covered by children of each open span
        self._saved = []

    # -- result hooks: counts read from the values a layer returns ----------

    def _after(self, layer: str, args, out) -> None:
        if layer == "ot_core.w1":
            self.worst_gap = max(self.worst_gap, float(out.certificate.gap))
        elif layer == "flow_core.verify":
            for entry in out.axiom6:
                self.sweep_cases += int(entry.n_cases)
                self.saturated_cases += int(entry.saturated)

    def _wrap(self, layer: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if layer == "cli.load" and fn.__name__ == "load_document":
                self.doc_bytes += os.path.getsize(args[0])
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.self_s[layer] += dt - stack.pop()
                self.incl_s[layer] += dt
                self.calls[layer] += 1
                if stack:
                    stack[-1] += dt
            self._after(layer, args, out)
            return out

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, layer in BINDINGS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self) -> dict:
        """Raw totals, summed over every op traced with this tracer."""
        return {
            "self_s": {k: self.self_s.get(k, 0.0) for k in TIMED},
            "incl_s": {k: self.incl_s.get(k, 0.0) for k in TIMED},
            "calls": {k: self.calls.get(k, 0) for k in COUNTED},
            "worst_gap": self.worst_gap,
            "sweep_cases": self.sweep_cases,
            "saturated_cases": self.saturated_cases,
            "doc_bytes": self.doc_bytes,
        }
