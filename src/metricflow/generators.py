"""Constructed flow families used as fixtures and reference instances.

Four families:

* ``two_point_flow`` — the minimal genuine flow: every slice is a two-point
  space at distance D and the kernels mix the two points at rate C/(2 D²),
  i.e. the same-point mass after a lag tau is 1/2 + (1/2) e^{-C tau/(2 D²)}.
  For C >= min_C() the smoothing axiom holds (the extremal two-point sweep
  passes with margin); below that threshold the flow is constructed but
  flagged ``axiom6_unverified``.

* ``min_C`` — the smallest admissible constant: max_{A>=0} 16 A² e^{-A²/16},
  which is 256/e in closed form (attained at A² = 16).

* ``gaussian_flow_discrete`` — Riemann discretization of the Gauss-Weierstrass
  kernel on a box lattice, with an exact-values sidecar
  (Var = |x-x'|² + 4 n tau, W1 = |x-x'|, concentration 4n). The flow is
  flagged ``approximate``: its kernels are row-normalized samples, truncated
  at the box, so quantitative identities hold only up to discretization and
  truncation error.

* ``static_flow`` — a time-independent model driven by a semigroup of
  kernels indexed by lag (checked for the Chapman-Kolmogorov property on the
  grid's triples by ``verify``'s reproduction audit); ``static_cycle_flow``
  instantiates the translation invariant continuous-time walk on an m-cycle,
  whose kernels are exactly W1-contractive by the rotation coupling.

* ``halving_two_point_soliton`` / ``soliton_fixed_point`` — a self-similar
  flow on a 4-geometric grid of negative times (slice distances halve per
  step) together with the contraction-map construction of its canonical
  measure: push a measure one step forward along the self-similarity, then
  flow back down with the kernels. The map is Lipschitz with factor |2p-1|
  for the two-point fixture (<= 1/2 for p in [1/4, 3/4]) and its fixed point
  is recovered by iteration.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import erf

from .flow_core import MetricFlow, TimeGrid, _nearest_time, _reproduction_audit, _time_tol
from .ot_core import (
    FiniteMetricSpace,
    InputError,
    ProbMeasure,
    w1_distance,
)

__all__ = [
    "min_C",
    "two_point_flow",
    "GaussianSidecar",
    "gaussian_flow_discrete",
    "static_flow",
    "cycle_semigroup",
    "static_cycle_flow",
    "halving_two_point_soliton",
    "SolitonResult",
    "soliton_fixed_point",
]


# ---------------------------------------------------------------------------
# the admissibility constant
# ---------------------------------------------------------------------------


def min_C() -> float:
    """Smallest constant C for which 16 A² <= C e^{A²/16} holds for all A >= 0.

    Equals max_A 16 A² e^{-A²/16} = 256/e, attained at A² = 16.
    """
    return 256.0 / math.e


# ---------------------------------------------------------------------------
# two-point flows
# ---------------------------------------------------------------------------


def two_point_flow(C: float, D: float, grid: TimeGrid) -> MetricFlow:
    """The two-point flow with slice distance D and mixing constant C, on
    points labelled ``"+"`` and ``"-"``.

    Adjacent kernels are symmetric 2x2 matrices with same-point probability
    p(tau) = 1/2 + (1/2) e^{-C tau / (2 D²)} for the adjacent lag tau; longer
    lags compose to the same closed form (the family is a semigroup), giving

        Var(nu_{x;s})            = (D²/2)(1 - e^{-2 C (t-s)/(2 D²)})
        Var(nu_{+;s}, nu_{-;s})  = (D²/2)(1 + e^{-2 C (t-s)/(2 D²)})
        d_W1(nu_{+;s}, nu_{-;s}) = D e^{-C (t-s)/(2 D²)}

    and the concentration constant (D = 1) is (1/2)(1 - e^{-C dt})/dt at the
    smallest grid gap dt. Requires D > 0. For C below :func:`min_C` the flow
    is constructed but flagged ``axiom6_unverified``.
    """
    if not (D > 0.0 and math.isfinite(D)):
        raise InputError(f"D must be positive and finite, got {D}")
    if not (C > 0.0 and math.isfinite(C)):
        raise InputError(f"C must be positive and finite, got {C}")
    space = FiniteMetricSpace(labels=("+", "-"), dist=np.array([[0.0, D], [D, 0.0]]))
    rate = C / (2.0 * D * D)
    kernels = []
    for i in range(grid.n - 1):
        gap = grid.times[i + 1] - grid.times[i]
        p = 0.5 + 0.5 * math.exp(-rate * gap)
        kernels.append(np.array([[p, 1.0 - p], [1.0 - p, p]]))
    c_min = min_C()
    meta = {
        "generator": "two-point",
        "C": float(C),
        "D": float(D),
        "C_min": c_min,
    }
    if C < c_min:
        meta["axiom6_unverified"] = True
    return MetricFlow(grid, tuple(space for _ in range(grid.n)), adjacent_kernels=kernels, metadata=meta)


# ---------------------------------------------------------------------------
# discretized Gauss-Weierstrass flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianSidecar:
    """Continuum reference values for a discretized diffusion flow.

    ``coords`` are the lattice points (N x n). For kernel rows started at
    lattice points x, x' and compared after flowing down a lag tau:
    Var = |x - x'|² + 4 n tau, d_W1 = |x - x'|, and the concentration
    constant of the continuum flow is 4 n.
    """

    dim: int
    coords: np.ndarray

    def w1_exact(self, i: int, j: int) -> float:
        return float(np.linalg.norm(self.coords[i] - self.coords[j]))

    def var_exact(self, i: int, j: int, tau: float) -> float:
        gap2 = float(np.sum((self.coords[i] - self.coords[j]) ** 2))
        return gap2 + 4.0 * self.dim * tau

    @property
    def h_exact(self) -> float:
        return 4.0 * self.dim


# Largest N x N x dim float64 array, in entries, that gaussian_flow_discrete
# may build for a lattice of N points in dim dimensions. It holds about four
# such arrays at once (coordinate differences and erf terms) beside one N x N
# matrix per slice and per kernel; 2**20 entries are 8.4 MB per array, and
# allow 1 024 points at dim 1, 724 at dim 2. The CLI also bounds by it the
# kernel entries a generated two-point or static flow would store in all.
_MAX_ENTRIES = 2**20


def gaussian_flow_discrete(
    dim: int,
    L: float,
    h: float,
    grid: TimeGrid,
) -> tuple:
    """Discretization of the heat-kernel flow on the lattice [-L, L]^dim
    with spacing h.

    Kernels for each grid pair (s, t) assign every lattice cell its
    heat-kernel mass: the integral of exp(-|x - y|² / (4 tau)), tau = t - s,
    over the cell (erf differences per axis), row-normalized to absorb the
    mass truncated at the box boundary. Quantizing positions to cell centers
    perturbs second moments at order h², so variance errors against the
    continuum shrink under h -> h/2 refinement until boundary truncation
    takes over. Returns ``(flow, sidecar)``; the flow is flagged
    ``approximate`` (quantitative identities hold only up to discretization
    O(h²) and truncation error).

    Raises :class:`InputError` when h² exceeds the smallest lag
    (undersampled kernel) or when an N x N x dim array of the lattice's N
    points would exceed ``_MAX_ENTRIES`` floats; warns when
    L < 5 sqrt(largest lag) (significant truncated mass near the boundary).
    """
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    if not (0.0 < L < math.inf and h > 0.0):
        raise InputError(f"need a finite L > 0 and h > 0, got L={L}, h={h}")
    if grid.n < 2:
        raise InputError("need at least two grid times")
    gaps = np.diff(np.asarray(grid.times))
    if h * h > float(gaps.min()):
        raise InputError(
            f"lattice spacing h={h} undersamples the smallest lag {float(gaps.min())}: need h² <= lag"
        )
    spacings = 2.0 * L / h  # inf when the ratio overflows
    # past 64 axes, a lattice of two or more points per axis is over the limit anyway
    n_points = (round(spacings) + 1) ** min(dim, 64) if spacings < 1e15 else math.inf
    if n_points > _MAX_ENTRIES or n_points * n_points * dim > _MAX_ENTRIES:
        count = f"{n_points:,}" if n_points < 1e15 else "more than 10^15"
        raise InputError(
            f"the {dim}-dimensional lattice with L={L}, h={h} has {count} points, and its "
            f"N x N x dim arrays would exceed {_MAX_ENTRIES:,} floats: "
            "shrink --L or --dim, or raise --h"
        )
    max_lag = float(grid.times[-1] - grid.times[0])
    truncated = L < 5.0 * math.sqrt(max_lag)
    if truncated:
        warnings.warn(
            f"box half-width L={L} below 5 sqrt(max lag)={5.0 * math.sqrt(max_lag):.3g}; "
            "kernel truncation will be significant",
            stacklevel=2,
        )

    m = int(round(2.0 * L / h)) + 1
    axis = -L + h * np.arange(m)
    coords = np.array(list(itertools.product(axis, repeat=dim)))
    diff2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(diff2)
    labels = tuple(
        "(" + ",".join(repr(float(c)) for c in row) + ")" for row in coords
    )
    space = FiniteMetricSpace(labels=labels, dist=dist)

    axis_diff = coords[None, :, :] - coords[:, None, :]
    pairs = {}
    for s_idx in range(grid.n):
        for t_idx in range(s_idx + 1, grid.n):
            tau = grid.times[t_idx] - grid.times[s_idx]
            sigma = 2.0 * math.sqrt(tau)
            w = np.prod(
                erf((axis_diff + 0.5 * h) / sigma) - erf((axis_diff - 0.5 * h) / sigma),
                axis=2,
            )
            pairs[(s_idx, t_idx)] = w / w.sum(axis=1, keepdims=True)

    meta = {
        "generator": "gaussian",
        "approximate": True,
        "dim": dim,
        "L": float(L),
        "h": float(h),
        "truncation_warning": bool(truncated),
    }
    flow = MetricFlow(grid, tuple(space for _ in range(grid.n)), pair_kernels=pairs, metadata=meta)
    return flow, GaussianSidecar(dim=dim, coords=coords)


# ---------------------------------------------------------------------------
# static flows
# ---------------------------------------------------------------------------


def static_flow(
    space: FiniteMetricSpace,
    kernels_by_lag: dict,
    grid: TimeGrid,
    *,
    metadata: dict | None = None,
) -> MetricFlow:
    """A time-independent flow: one slice, kernels depending only on the lag.

    ``kernels_by_lag`` maps lag values to row-stochastic matrices; a kernel
    must be provided for every lag of the grid (pairwise time differences).
    The flow stores K(a, b) = P(t_b - t_a) for every grid pair, and must
    pass ``verify``'s reproduction audit: P(t3 - t1) = P(t3 - t2) @ P(t2 - t1)
    within 1e-10 on every grid triple t1 < t2 < t3. A violation raises
    :class:`InputError` naming the worst grid triple; the worst residual is
    ``metadata["semigroup_residual"]``, the value ``verify`` reports as
    ``reproduction``.
    """
    lag_vals = np.array(sorted(kernels_by_lag.keys()), dtype=float)
    mats = [np.asarray(kernels_by_lag[k], dtype=float) for k in sorted(kernels_by_lag.keys())]
    times = np.asarray(grid.times)

    pairs = {}
    for a in range(grid.n):
        for b in range(a + 1, grid.n):
            lag = float(times[b] - times[a])
            i = _nearest_time(lag_vals, lag)
            if i is None:
                raise InputError(f"no kernel provided for grid lag {lag!r}")
            pairs[(a, b)] = mats[i]
    flow = MetricFlow(grid, tuple(space for _ in range(grid.n)), pair_kernels=pairs)
    worst, witness = _reproduction_audit(flow)
    if worst > 1e-10:
        raise InputError(
            f"semigroup property fails by {worst:.3e} on grid triple {witness[0]} (tolerance 1e-10)"
        )
    flow.metadata.update(generator="static", semigroup_residual=worst)
    flow.metadata.update(metadata or {})
    return flow


def cycle_semigroup(m: int, rate: float, lags: Sequence[float]) -> dict:
    """Transition kernels P(tau) = expm(tau Q) of the continuous-time walk on
    an m-cycle (jump rate ``rate``, half to each neighbor)."""
    # imported on use: scipy.linalg slows the start of every command
    from scipy.linalg import expm

    if m < 3:
        raise InputError("cycle needs at least 3 points")
    if not (0.0 < rate < math.inf):
        raise InputError(f"jump rate must be positive and finite, got {rate}")
    q = np.zeros((m, m))
    for i in range(m):
        q[i, i] = -rate
        q[i, (i + 1) % m] += 0.5 * rate
        q[i, (i - 1) % m] += 0.5 * rate
    out = {}
    for lag in lags:
        if lag <= 0.0:
            raise InputError(f"lags must be positive, got {lag}")
        p = expm(lag * q)
        p = np.maximum(p, 0.0)
        p /= p.sum(axis=1, keepdims=True)
        out[float(lag)] = p
    return out


def static_cycle_flow(m: int, rate: float, edge: float, grid: TimeGrid) -> MetricFlow:
    """Static flow of the rate-``rate`` walk on the m-cycle with edge length
    ``edge`` (graph metric). Translation invariance makes every kernel
    exactly W1-contractive (rotate one kernel onto the other)."""
    if not (0.0 < edge < math.inf):
        raise InputError(f"edge length must be positive and finite, got {edge}")
    idx = np.arange(m)
    hops = np.minimum((idx[:, None] - idx[None, :]) % m, (idx[None, :] - idx[:, None]) % m)
    space = FiniteMetricSpace(
        labels=tuple(f"c{i}" for i in range(m)), dist=edge * hops.astype(float)
    )
    times = np.asarray(grid.times)
    lags = sorted({float(times[b] - times[a]) for a in range(grid.n) for b in range(a + 1, grid.n)})
    kernels = cycle_semigroup(m, rate, lags)
    return static_flow(
        space,
        kernels,
        grid,
        metadata={"generator": "static-cycle", "m": m, "rate": float(rate), "edge": float(edge)},
    )


# ---------------------------------------------------------------------------
# self-similar (soliton) fixtures and their fixed-point construction
# ---------------------------------------------------------------------------


def halving_two_point_soliton(
    t0: float = -1.0,
    levels: int = 4,
    D0: float = 1.0,
    p: float = 0.7,
) -> tuple:
    """A self-similar two-point flow on the 4-geometric grid of negative times.

    Grid times t0·4^{-k} (ascending for t0 < 0), slice k a two-point space
    (points ``"+"`` and ``"-"``) at distance D0·2^{-k} (distances scale like
    sqrt(|t|)), and one symmetric kernel with same-point probability p per
    adjacent pair. The identity index maps realize the self-similarity:
    pushing a slice one step forward halves distances exactly and preserves
    the kernels.

    Returns ``(flow, psi_maps)`` with one index map per adjacent pair.
    Requires t0 < 0, p in (1/2, 1); the fixed-point map of
    :func:`soliton_fixed_point` contracts with factor |2p-1|, so p <= 3/4
    keeps it within the guaranteed 1/2.
    """
    if not (t0 < 0.0):
        raise InputError(f"t0 must be negative, got {t0}")
    if levels < 1:
        raise InputError("need at least one level")
    if not (0.5 < p < 1.0):
        raise InputError(f"p must lie in (1/2, 1), got {p}")
    times = tuple(t0 * 4.0 ** (-k) for k in range(levels + 1))
    grid = TimeGrid(times)
    slices = tuple(
        FiniteMetricSpace(
            labels=("+", "-"),
            dist=np.array([[0.0, D0 * 2.0 ** (-k)], [D0 * 2.0 ** (-k), 0.0]]),
        )
        for k in range(levels + 1)
    )
    kern = np.array([[p, 1.0 - p], [1.0 - p, p]])
    flow = MetricFlow(
        grid,
        slices,
        adjacent_kernels=tuple(kern for _ in range(levels)),
        metadata={"generator": "soliton-two-point", "p": float(p), "D0": float(D0)},
    )
    psi_maps = tuple(np.array([0, 1]) for _ in range(levels))
    return flow, psi_maps


@dataclass(frozen=True, eq=False)
class SolitonResult:
    measure: ProbMeasure
    iterations: int
    trace: tuple
    contraction_samples: tuple


def soliton_fixed_point(
    flow: MetricFlow,
    psi_maps: Sequence,
    t0: float | None = None,
) -> SolitonResult:
    """Fixed point of the self-similarity contraction at the slice of t0.

    The flow must be self-similar along ``psi_maps`` (one bijective index map
    per adjacent grid pair): grid times quarter toward 0, pushed distances
    halve, and pushed kernels agree with the kernels one level up (all
    validated within 1e-9). The contraction sends a measure mu
    on the slice at t0 to

        F(mu) = sum_x nu_{x; t0}  d(psi_* mu)(x),

    the conjugate flow-down of its one-step push-forward; it contracts W1
    with factor <= 1/2 for a genuinely self-similar flow. The fixed point is
    located by iteration from a point mass, stopping once the residual
    d_W1(mu_i, F(mu_i)) is at most 1e-10 or after 500 steps; ``trace``
    records the successive residuals. ``contraction_samples`` holds the
    measured contraction ratio on each of 100 random measure pairs (Dirichlet
    draws from ``default_rng(0)``; pairs closer than 1e-14 are skipped).
    """
    k_levels = flow.grid.n - 1
    psi_maps = [np.asarray(m, dtype=int) for m in psi_maps]
    if len(psi_maps) != k_levels:
        raise InputError(f"{len(psi_maps)} psi maps for {k_levels} adjacent pairs")
    times = flow.grid.times
    for k in range(k_levels):
        if abs(times[k + 1] - times[k] / 4.0) > _time_tol(times[k]):
            raise InputError(
                f"grid is not 4-geometric toward 0 at level {k}: {times[k]} -> {times[k + 1]}"
            )
        n_k = flow.slices[k].n
        psi = psi_maps[k]
        if sorted(psi.tolist()) != list(range(flow.slices[k + 1].n)) or psi.size != n_k:
            raise InputError(f"psi map {k} is not a bijection of slice indices")
        push_d = flow.slices[k + 1].dist[np.ix_(psi, psi)]
        res = float(np.abs(push_d - 0.5 * flow.slices[k].dist).max())
        if res > 1e-9:
            raise InputError(f"pushed distances at level {k} off by {res:.3e} from one half")
    for k in range(k_levels):
        psi_k = psi_maps[k]
        col_src = flow.column(k, range(k + 1))
        col_dst = flow.column(k + 1, range(k + 2))
        for j in range(k + 1):
            # push nu_{x; t_j} through psi_j and compare with nu_{psi_k(x); t_{j+1}}
            k_src = col_src[j]
            k_dst = col_dst[j + 1]
            psi_j = psi_maps[j]
            pushed = np.zeros_like(k_dst)
            for x in range(flow.slices[k].n):
                row = np.zeros(flow.slices[j + 1].n)
                np.add.at(row, psi_j, k_src[x])
                pushed[psi_k[x]] = row
            res = float(np.abs(pushed - k_dst).max())
            if res > 1e-9:
                raise InputError(
                    f"kernel equivariance fails at levels ({j}, {k}) by {res:.3e}"
                )

    if t0 is None:
        t0 = times[0]
    t0_idx = flow.grid.index_of(t0)
    quarter = t0 / 4.0
    q_idx = flow.grid.index_of(quarter)  # raises if off-grid
    psi = psi_maps[t0_idx]
    if q_idx != t0_idx + 1:
        raise InputError("t0/4 must be the next grid time after t0")
    back = flow.kernel(t0_idx, q_idx)  # rows: points at t0/4, measures on t0
    space0 = flow.slices[t0_idx]

    def f_map(weights: np.ndarray) -> np.ndarray:
        pushed = np.zeros(flow.slices[q_idx].n)
        np.add.at(pushed, psi, weights)
        return back.T @ pushed

    m = ProbMeasure.delta(0, space0.n)
    trace = []
    its = 0
    for its in range(1, 501):
        nxt = ProbMeasure(f_map(m.weights))
        res = w1_distance(space0, m, nxt).value
        trace.append(res)
        m = nxt
        if res <= 1e-10:
            break
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(100):
        a = ProbMeasure(rng.dirichlet(np.ones(space0.n)))
        b = ProbMeasure(rng.dirichlet(np.ones(space0.n)))
        den = w1_distance(space0, a, b).value
        if den < 1e-14:
            continue
        num = w1_distance(
            space0, ProbMeasure(f_map(a.weights)), ProbMeasure(f_map(b.weights))
        ).value
        samples.append(num / den)
    return SolitonResult(
        measure=m,
        iterations=its,
        trace=tuple(trace),
        contraction_samples=tuple(samples),
    )
