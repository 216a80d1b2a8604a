"""Seeded input documents for the benchmark, built with numpy and scipy only.

The documents are written in the version-1 flow format that
``metricflow.cli`` reads. Nothing here imports ``metricflow``: a change to
the package's own generators cannot change what the benchmark measures.
Every function takes a ``numpy.random.Generator`` and draws only values;
point counts, grid sizes and spike counts are fixed by the workload, so the
amount of work per op does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
from scipy.linalg import expm

FORMAT_VERSION = 1
# the smallest admissible two-point mixing constant, 256/e
C_MIN = 256.0 / math.e


def _line_dist(d: float) -> list:
    return [[0.0, d], [d, 0.0]]


def _doc(times, slices, kernels, generator: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "times": [float(t) for t in times],
        "slices": slices,
        "metadata": {"generator": generator},
        "kernels": kernels,
    }


def jittered_grid(rng: np.random.Generator, n_times: int) -> np.ndarray:
    """Times on [0, 1] with both ends fixed and interior gaps drawn in
    [0.5, 1.5] times the uniform gap, so no two lags coincide by accident."""
    gaps = rng.uniform(0.5, 1.5, size=n_times - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    times /= times[-1]
    times[-1] = 1.0
    return times


# ---------------------------------------------------------------------------
# static cycle-walk flows (explicit pair kernels)
# ---------------------------------------------------------------------------


def static_cycle_doc(rng: np.random.Generator, m: int, times) -> dict:
    """Static walk on an m-cycle: P(lag) = expm(lag Q) stored for every
    grid pair, graph metric with a drawn edge length."""
    rate = rng.uniform(5.0, 10.0)
    edge = rng.uniform(0.8, 1.25)
    idx = np.arange(m)
    hops = np.minimum((idx[:, None] - idx[None, :]) % m, (idx[None, :] - idx[:, None]) % m)
    dist = (edge * hops.astype(float)).tolist()
    q = np.zeros((m, m))
    for i in range(m):
        q[i, i] = -rate
        q[i, (i + 1) % m] += 0.5 * rate
        q[i, (i - 1) % m] += 0.5 * rate
    pairs = {}
    for s in range(len(times)):
        for t in range(s + 1, len(times)):
            p = np.maximum(expm((times[t] - times[s]) * q), 0.0)
            p /= p.sum(axis=1, keepdims=True)
            pairs[f"{s}:{t}"] = p.tolist()
    labels = [f"c{i}" for i in range(m)]
    slices = [{"labels": labels, "dist": dist} for _ in times]
    return _doc(times, slices, {"mode": "full", "pairs": pairs}, "perfbench-static-cycle")


# ---------------------------------------------------------------------------
# two-point flows (adjacent kernels, closed form)
# ---------------------------------------------------------------------------


def _two_point_kernels(C: float, D: float, times) -> list:
    rate = C / (2.0 * D * D)
    out = []
    for i in range(len(times) - 1):
        p = 0.5 + 0.5 * math.exp(-rate * (times[i + 1] - times[i]))
        out.append([[p, 1.0 - p], [1.0 - p, p]])
    return out


def two_point_doc(C: float, D: float, times, spikes: dict | None = None) -> dict:
    """Two-point mixing flow with slice distance D; ``spikes`` maps grid
    indices to a factor that stretches that slice's distance (the kernels
    stay those of the unspiked flow)."""
    spikes = spikes or {}
    slices = [
        {"labels": ["+", "-"], "dist": _line_dist(D * spikes.get(i, 1.0))}
        for i in range(len(times))
    ]
    kernels = {"mode": "markov", "matrices": _two_point_kernels(C, D, times)}
    return _doc(times, slices, kernels, "perfbench-two-point")


def admissible_C(rng: np.random.Generator) -> float:
    return C_MIN * (1.0 + 1e-6) * rng.uniform(1.0, 1.6)


def spiked_pair(rng: np.random.Generator, n_times: int, where) -> tuple:
    """A two-point flow on a uniform grid and its copy with the slices at
    grid indices ``where`` stretched by a factor in [3, 5]."""
    times = np.linspace(0.0, 1.0, n_times)
    C, D = admissible_C(rng), rng.uniform(0.8, 1.25)
    spikes = {int(i): float(rng.uniform(3.0, 5.0)) for i in where}
    return two_point_doc(C, D, times), two_point_doc(C, D, times, spikes)


def product_doc(rng: np.random.Generator, times) -> dict:
    """l²-product of two two-point flows on one grid: 4-point slices whose
    kernels are Kronecker products of the factors' kernels."""
    factors = [(admissible_C(rng), rng.uniform(0.8, 1.25)) for _ in range(2)]
    (c1, d1), (c2, d2) = factors
    sq1, sq2 = np.array(_line_dist(d1)) ** 2, np.array(_line_dist(d2)) ** 2
    dist = np.sqrt(sq1[:, None, :, None] + sq2[None, :, None, :]).reshape(4, 4)
    labels = [f"({a},{b})" for a in "+-" for b in "+-"]
    k1, k2 = _two_point_kernels(c1, d1, times), _two_point_kernels(c2, d2, times)
    mats = [np.kron(np.array(a), np.array(b)).tolist() for a, b in zip(k1, k2)]
    slices = [{"labels": labels, "dist": dist.tolist()} for _ in times]
    return _doc(times, slices, {"mode": "markov", "matrices": mats}, "perfbench-product")


# ---------------------------------------------------------------------------
# long random Markov flow
# ---------------------------------------------------------------------------


def markov_doc(rng: np.random.Generator, n: int, n_times: int) -> dict:
    """Random points in the plane contracting over time. Kernels between
    consecutive slices mix a Gaussian nearest-neighbour kernel with 5 %
    uniform mass, so every entry stays well above float64's subnormal range
    (subnormals would make kernel products data-dependently slow)."""
    times = np.linspace(0.0, 1.0, n_times)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    slices, clouds = [], []
    for t in times:
        cloud = pts * (1.0 - 0.5 * t) + rng.normal(0.0, 0.01, size=pts.shape)
        diff = cloud[:, None, :] - cloud[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        np.fill_diagonal(dist, 0.0)
        clouds.append(cloud)
        slices.append({"labels": [f"p{i}" for i in range(n)], "dist": dist.tolist()})
    mats = []
    for i in range(n_times - 1):
        later, earlier = clouds[i + 1], clouds[i]
        diff = later[:, None, :] - earlier[None, :, :]
        sq = (diff * diff).sum(axis=2)
        w = np.exp(-(sq - sq.min(axis=1, keepdims=True)) / (2.0 * 0.15**2))
        k = 0.95 * w / w.sum(axis=1, keepdims=True) + 0.05 / n
        mats.append((k / k.sum(axis=1, keepdims=True)).tolist())
    return _doc(times, slices, {"mode": "markov", "matrices": mats}, "perfbench-markov")


# ---------------------------------------------------------------------------
# writing and fingerprints
# ---------------------------------------------------------------------------


def write_doc(doc: dict, path: str) -> dict:
    """Write ``doc`` as the CLI does (shortest round-trip floats) and return
    its fingerprint: sha256, points per slice, times and size."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "file": os.path.basename(path),
        "sha256": digest,
        "n": max(len(s["labels"]) for s in doc["slices"]),
        "T": len(doc["times"]),
        "bytes": os.path.getsize(path),
    }
