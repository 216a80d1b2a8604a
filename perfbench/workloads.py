"""The two workloads: which documents each one generates from a seed, and
the fixed, cycled list of CLI ops it runs on them.

``transport`` holds every op that solves linear programs (2-file and
triangle distances, the exceptional-set search, the dW1 curve);
``flow`` holds every op that solves none (the smoothing sweep, the cone
battery, the reproduction audit, the var curve). A transport change must
show on the first and predict no change on the second.

Sizes are chosen so that one op takes well under a second on a 2-CPU
machine: a run then completes enough ops of every kind for their medians
and a tail. Every size is fixed here; the seed only draws values.
"""

from __future__ import annotations

import os

import numpy as np

import inputs

NAMES = ("transport", "flow")

# 2-file op on 4-point, 3-time cycle walks; triangles on 3-point, 3-time
# ones (two independent triples, so each cycle runs two)
STATIC_PAIR_M, STATIC_TRI_M, STATIC_T = 4, 3, 3
# exceptional-set search: 6-time two-point flows with 2 spiked interior
# slices, one pair of flows for each of these fixed placements, so the
# number of exceptional sets the search evaluates is the same for every seed
SEARCH_T = 6
SEARCH_PLACEMENTS = ((1, 2), (1, 4), (2, 4))
# smoothing sweep: 3-time two-point flows (3 sweep pairs each), 4-time product
SWEEP_T, PRODUCT_T = 3, 4
# random Markov flow: reproduction audit, var and dW1 curves
LONG_N, LONG_T = 24, 60


def w1_identity(m1: int, m2: int, n_times: int) -> dict:
    """Expected counts for one 2-file ``distance --e-mode empty`` op: one W1
    per cost-matrix entry over all s < t, plus one W1 per participating time
    for the top-measure certificate; one min-max LP per participating time."""
    pairs = n_times * (n_times - 1) // 2
    return {"w1_calls": pairs * m1 * m2 + n_times, "minmax_lp_calls": n_times}


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), NAMES.index(name)])


def build(name: str, seed: int, workdir: str) -> dict:
    """Write the workload's documents under ``workdir`` and return its spec:
    ops (argv for ``metricflow.cli.main``, output path, kind, expectations),
    document paths and fingerprints."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = _rng(name, seed)
    docs, fingerprints, ops = [], [], []

    def doc(payload: dict, stem: str) -> str:
        path = os.path.join(workdir, f"{stem}.json")
        fingerprints.append(inputs.write_doc(payload, path))
        docs.append(path)
        return path

    def op(op_name: str, kind: str, argv: list, out_flag: str, expect=None, ext="json"):
        output = os.path.join(workdir, f"out-{op_name}.{ext}")
        ops.append({
            "name": op_name,
            "kind": kind,
            "argv": argv + [out_flag, output],
            "output": output,
            "expect": expect or {},
        })

    def markov() -> str:
        return doc(inputs.markov_doc(rng, LONG_N, LONG_T), "markov")

    def curve(path: str, quantity: str, header: list) -> None:
        op(quantity, "report", ["report", path, "--quantity", quantity], "--csv",
           {"header": header, "rows": LONG_T}, ext="csv")

    if name == "transport":
        times = inputs.jittered_grid(rng, STATIC_T)
        a, b = (doc(inputs.static_cycle_doc(rng, STATIC_PAIR_M, times), f"pair-{k}") for k in "ab")
        expect = {"E": [], "identity": w1_identity(STATIC_PAIR_M, STATIC_PAIR_M, STATIC_T)}
        op("pair", "distance", ["distance", a, b, "--e-mode", "empty"], "--out", expect)
        for tri in ("tri1", "tri2"):
            times = inputs.jittered_grid(rng, STATIC_T)
            paths = [doc(inputs.static_cycle_doc(rng, STATIC_TRI_M, times), f"{tri}-{k}")
                     for k in "abc"]
            op(tri, "triangle", ["distance", *paths, "--e-mode", "empty"], "--out")
        for i, where in enumerate(SEARCH_PLACEMENTS):
            base, spiked = inputs.spiked_pair(rng, SEARCH_T, where)
            p1, p2 = doc(base, f"search{i}-base"), doc(spiked, f"search{i}-spiked")
            op(f"search{i}", "distance", ["distance", p1, p2, "--e-mode", "exhaustive"],
               "--out", {"E": list(where)})
        curve(markov(), "dW1-curve", ["time", "dW1"])
    else:  # flow
        for k in "ab":
            times = inputs.jittered_grid(rng, SWEEP_T)
            path = doc(inputs.two_point_doc(inputs.admissible_C(rng), rng.uniform(0.8, 1.25), times),
                       f"two-point-{k}")
            op(f"verify-2pt-{k}", "verify", ["verify", path], "--json")
            if k == "a":
                prod = doc(inputs.product_doc(rng, inputs.jittered_grid(rng, PRODUCT_T)), "product")
                op("verify-product", "verify", ["verify", prod], "--json")
        path = markov()
        op("verify-skip", "verify", ["verify", path, "--mode", "skip"], "--json")
        curve(path, "var-curve", ["time", "var", "var_plus_Ht"])
    return {"workload": name, "seed": int(seed), "ops": ops, "docs": docs,
            "fingerprints": fingerprints}
