"""Discrete metric flows on finite time grids.

A metric flow here is a finite time grid, one finite metric space per grid
time, and a backward family of probability kernels: for each pair of grid
times s <= t and each point x of the slice at t, a probability measure
nu_{x;s} on the slice at s, with nu_{x;t} = delta_x and the reproduction
property nu_{x;t1} = sum_y nu_{x;t2}(y) nu_{y;t1} for t1 <= t2 <= t3.
A Markov-stored flow composes its longer kernels from its adjacent steps,
so it holds reproduction by definition; ``verify_flow_axioms`` audits
reproduction over the triples whose three kernels a flow stores.

The regularity axiom that makes such a family a *flow* rather than a bare
kernel family is a smoothing statement through the error-function profile
Phi (Phi'(x) = (4 pi)^{-1/2} e^{-x^2/4}): whenever u_s = Phi(f_s) with f_s
T^{-1/2}-Lipschitz, the propagated u_t(x) = sum u_s dnu_{x;s} must equal
Phi(f_t) with f_t (t - s + T)^{-1/2}-Lipschitz. ``verify_flow_axioms``
checks this exhaustively on two-point slices (the extremal configurations
form a two-parameter family, swept on a grid) and by a necessary-only
battery of cone functions on larger slices.

On top of the axioms the module implements the quantitative machinery used
throughout: heat flows and conjugate heat flows, the concentration constant
H (smallest H with Var(nu_{x1;s}, nu_{x2;s}) <= d_t(x1,x2)^2 + H (t-s)),
H-centers and their Chebyshev mass bounds, monotonicity checks for
kernel-W1 / Var + Ht / heat pairings, parabolic rescaling, products,
restricted flows, the W1 neighborhoods P*, distance-integral drift bounds,
a mass-distribution lower bound for conjugate heat flows, and an
approximate-midpoint diagnostic for intrinsic behavior of a slice.

Conventions
-----------
Kernels are stored row-stochastically: ``kernel(s_idx, t_idx)[x, y]`` is the
mass nu_{x;s} gives to point y of the slice at s, for x in the slice at t.
Public operations take time *values* (matched to the grid within 1e-12) and
point *indices*. Flows are treated as immutable after construction. Nothing
derived is cached; loops over all grid pairs read whole kernel columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

import numpy as np
from scipy.special import erfc, erfcx, ndtri

from .ot_core import (
    EXACT_TOL,
    FiniteMetricSpace,
    InputError,
    InternalInvariantError,
    ProbMeasure,
    StructuralError,
    _clamp_noise,
    _readonly,
    _w1_results,
    check_metric_axioms,
    mass_distribution_fn,
    product_space,
    variance,
    w1_distance,
)

__all__ = [
    "phi",
    "phi_inv",
    "TimeGrid",
    "MetricFlow",
    "MetricFlowPair",
    "HeatFlowField",
    "ConjHeatFlowField",
    "CheckRecord",
    "Axiom6Entry",
    "FlowVerifyReport",
    "SupportReport",
    "MassLowerBoundReport",
    "IntrinsicReport",
    "verify_flow_axioms",
    "heat_forward",
    "conj_backward",
    "pairing_invariant_check",
    "h_concentration_constant",
    "h_centers",
    "hcenter_mass_bound_check",
    "w1_kernel_monotonicity_check",
    "kernel_w1_contraction_check",
    "var_plus_Ht_monotonicity_check",
    "pstar_contains",
    "support_at",
    "restrict_flow",
    "rescale_shift",
    "cartesian_product_flow",
    "d_integral",
    "intd_diff_bounds_check",
    "mass_distribution_lower_bound_check",
    "intrinsic_diagnostic",
]


# ---------------------------------------------------------------------------
# the profile Phi and its inverse
# ---------------------------------------------------------------------------


def _is_mp(x) -> bool:
    # by module name, so mpmath is imported only on the arbitrary-precision path
    return type(x).__module__.startswith("mpmath")


def phi(x):
    """The smoothing profile: Phi(x) = (1 + erf(x/2)) / 2, increasing from 0 to 1.

    Phi' (x) = (4 pi)^{-1/2} exp(-x^2/4); Phi(t^{-1/2} x) solves the heat
    equation on the line. Accepts floats or arrays (float64 path, evaluated
    as 0.5·erfc(-x/2) for full relative accuracy in both tails) and
    ``mpmath.mpf`` scalars (arbitrary precision path).
    """
    if _is_mp(x):
        import mpmath

        return 0.5 * mpmath.erfc(-x / 2)
    arr = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-0.5 * arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def phi_inv(y):
    """Inverse of :func:`phi` on (0, 1). Raises :class:`InputError` outside it, NaN included.

    float64 path: ``_phi_inv_pair(y, 1 - y)``, so the sweep's rule is the
    only one; it inverts on the smaller of y and 1 - y (exact for y >= 1/2),
    so each side works where Phi is well conditioned. The roundtrip
    phi_inv(phi(x)) is accurate to ~4e-11 for |x| up to about 7; beyond
    that float64 spacing of y near 1 fundamentally limits any
    implementation, and ``mpmath.mpf`` input (arbitrary precision path)
    should be used instead.
    """
    if _is_mp(y):
        import mpmath

        if not (0 < y < 1):
            raise InputError(f"phi_inv domain is the open interval (0, 1); got {y}")
        return 2 * mpmath.erfinv(2 * y - 1)
    arr = np.asarray(y, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # written so that NaN fails too
        raise InputError("phi_inv domain is the open interval (0, 1)")
    out = _phi_inv_pair(arr, 1.0 - arr)[0]
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


_SQRT2 = math.sqrt(2.0)


def _phi_inv_pair(u: np.ndarray, v: np.ndarray):
    """Invert Phi given both u ~ Phi(f) and the complement v ~ Phi(-f).

    Uses whichever side is smaller, so f is recovered with full relative
    accuracy deep in either tail. Entries where both sides have underflowed
    to exactly 0 are returned as +-inf and flagged in the companion mask.
    """
    m = np.minimum(u, v)
    valid = m > 0.0
    all_valid = bool(valid.all())
    x = _SQRT2 * ndtri(m if all_valid else np.where(valid, m, 0.5))  # Phi(f) = ndtr(f / sqrt2)
    f = np.where(u <= v, x, -x)
    if not all_valid:
        f = np.where(valid, f, np.where(u > v, np.inf, -np.inf))
    return f, valid


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------


def _up(x):
    """The next float above x (elementwise): rounds a computed bound up."""
    return np.nextafter(x, np.inf)


def _time_tol(t: float) -> float:
    """How far a time value may sit from the grid time it means."""
    return EXACT_TOL * max(1.0, abs(t))


def _nearest_time(values: np.ndarray, t: float) -> int | None:
    """Index of the entry of ``values`` nearest to ``t`` if it lies within
    ``_time_tol(t)``, else None; a non-finite ``t`` raises InputError."""
    if not math.isfinite(t):
        raise InputError(f"time {t!r} is not finite")
    i = int(np.abs(values - t).argmin())
    return i if abs(values[i] - t) <= _time_tol(t) else None


@dataclass(frozen=True)
class TimeGrid:
    """A strictly increasing finite grid of finite times with |t| <= 1e300.

    The grid owns the time rules every module uses: a value t means the grid
    time within EXACT_TOL * max(1, |t|) of it (``index_of``), a window
    [lo, hi] widens each end by the same rule (``window``), and the measure
    of an index subset weighs each grid point by the half-sum of its
    adjacent gaps (a missing boundary gap contributes 0), so the measure of
    the whole grid is its span.
    """

    times: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise InputError("times must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(t)):
            raise StructuralError("times: non-finite entries")
        if np.any(np.abs(t) > 1e300):
            raise InputError("times: |t| must not exceed 1e300 (a larger lag overflows)")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise InputError("times must be strictly increasing")
        object.__setattr__(self, "times", tuple(float(x) for x in t))

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def span(self) -> float:
        return self.times[-1] - self.times[0]

    def index_of(self, t: float) -> int:
        i = _nearest_time(np.asarray(self.times), t)
        if i is None:
            raise InputError(f"time {t!r} is not on the grid {self.times}")
        return i

    def matches(self, other: "TimeGrid") -> bool:
        """Same length and times within EXACT_TOL * max(1, |t|), t from this grid."""
        return self.n == other.n and all(
            abs(a - b) <= _time_tol(a) for a, b in zip(self.times, other.times)
        )

    def window(self, lo: float, hi: float) -> np.ndarray:
        """Indices of the grid times in [lo, hi], each end widened by
        EXACT_TOL * max(1, |end|)."""
        t = np.asarray(self.times)
        return np.nonzero((t >= lo - _time_tol(lo)) & (t <= hi + _time_tol(hi)))[0]

    def weights(self) -> np.ndarray:
        t = np.asarray(self.times)
        if t.size == 1:
            return np.zeros(1)
        gaps = np.diff(t)
        w = np.zeros(t.size)
        w[:-1] += 0.5 * gaps
        w[1:] += 0.5 * gaps
        return w

    def measure(self, indices: Sequence[int]) -> float:
        """Sum of the weights of the distinct indices, in increasing order."""
        return float(self.weights()[sorted({int(i) for i in indices})].sum())

    @staticmethod
    def uniform(t0: float, t1: float, steps: int) -> "TimeGrid":
        if steps < 1:
            raise InputError("need at least one step")
        if not (t1 > t0):
            raise InputError("need t1 > t0")
        dt = (t1 - t0) / steps
        return TimeGrid(tuple(t0 + k * dt for k in range(steps)) + (float(t1),))


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


def _check_kernel(mat, n_rows: int, n_cols: int, name: str) -> np.ndarray:
    k = np.asarray(mat, dtype=float)
    if k.shape != (n_rows, n_cols):
        raise StructuralError(f"{name}: expected shape {(n_rows, n_cols)}, got {k.shape}")
    if not np.all(np.isfinite(k)):
        raise StructuralError(f"{name}: non-finite entries")
    k = _clamp_noise(k, name)
    res = float(np.abs(k.sum(axis=1) - 1.0).max())
    if res > EXACT_TOL:
        raise InputError(f"{name}: row sums deviate from 1 by {res:.3e}")
    return _readonly(k)


class MetricFlow:
    """A finite metric flow: grid, slices, and backward kernels.

    ``grid`` must be a :class:`TimeGrid`. Exactly one of ``adjacent_kernels``
    (Markov storage: one kernel per adjacent grid pair, longer lags composed
    on demand — reproduction then holds by construction) or ``pair_kernels``
    (explicit storage: a matrix per pair ``(s_idx, t_idx)`` with s < t, any
    subset of the pairs — reproduction becomes a checkable property) must be
    given. :meth:`stored` is the one view of what is stored; ``is_markov``
    says which layout. ``metadata`` is a free-form dict used for provenance
    and flags (e.g. ``approximate``, ``axiom6_unverified``).
    """

    def __init__(
        self,
        grid: TimeGrid,
        slices: Sequence[FiniteMetricSpace],
        *,
        adjacent_kernels: Sequence | None = None,
        pair_kernels: dict | None = None,
        metadata: dict | None = None,
    ):
        slices = tuple(slices)
        if len(slices) != grid.n:
            raise InputError(f"{len(slices)} slices for a {grid.n}-time grid")
        for s in slices:
            if not isinstance(s, FiniteMetricSpace):
                raise InputError("slices must be FiniteMetricSpace instances")
        if (adjacent_kernels is None) == (pair_kernels is None):
            raise InputError("provide exactly one of adjacent_kernels or pair_kernels")

        self.grid = grid
        self.slices = slices
        self.metadata = dict(metadata or {})
        self.is_markov = adjacent_kernels is not None

        if self.is_markov:
            adjacent_kernels = tuple(adjacent_kernels)
            if len(adjacent_kernels) != grid.n - 1:
                raise InputError(
                    f"{len(adjacent_kernels)} adjacent kernels for {grid.n} times"
                )
            pair_kernels = {(i, i + 1): k for i, k in enumerate(adjacent_kernels)}
        kernels = {}
        for key, mat in pair_kernels.items():
            s_idx, t_idx = int(key[0]), int(key[1])
            if not (0 <= s_idx < t_idx < grid.n):
                raise InputError(f"kernel pair {key}: need 0 <= s < t < {grid.n}")
            name = f"adjacent kernel {s_idx}" if self.is_markov else f"kernel {key}"
            kernels[(s_idx, t_idx)] = _check_kernel(mat, slices[t_idx].n, slices[s_idx].n, name)
        self._kernels = dict(sorted(kernels.items()))

    # -- basic accessors ----------------------------------------------------

    def flagged(self, name: str) -> bool:
        return bool(self.metadata.get(name, False))

    def stored(self) -> MappingProxyType:
        """Read-only map from each stored pair (s, t), sorted, to its kernel:
        the adjacent pairs (j, j + 1) of a Markov flow, else the given pairs."""
        return MappingProxyType(self._kernels)

    def column(self, t_idx: int, s_idxs: Sequence[int] | None = None) -> list:
        """[K(s, t) for s in s_idxs], by default every s < t; K(t, t) is the
        identity. The one kernel reader, one walk from t-1 down to min(s_idxs)
        and not cached: a Markov flow composes K(j, t) = K(j+1, t) @ K(j, j+1),
        the left-to-right product K(t-1, t) @ ... @ K(j, j+1), so each K(j, t)
        has one float order whichever caller asks for it. Raises
        :class:`InputError` naming the lowest requested pair it does not store."""
        t_idx = int(t_idx)
        s_idxs = range(t_idx) if s_idxs is None else [int(s) for s in s_idxs]
        if not (0 <= t_idx < self.grid.n and all(0 <= s <= t_idx for s in s_idxs)):
            raise InputError(f"column({t_idx}): need 0 <= s <= t < {self.grid.n} for each requested s")
        walk = {t_idx: np.eye(self.slices[t_idx].n) if t_idx in s_idxs else None}
        mat = None
        for j in range(t_idx - 1, min(s_idxs, default=t_idx) - 1, -1):
            if self.is_markov:
                mat = self._kernels[(j, j + 1)] if mat is None else mat @ self._kernels[(j, j + 1)]
            else:
                mat = self._kernels.get((j, t_idx))
            walk[j] = mat
        missing = [s for s in s_idxs if walk[s] is None]
        if missing:
            raise InputError(f"no stored kernel for pair {(min(missing), t_idx)}")
        return [walk[s] for s in s_idxs]

    def kernel(self, s_idx: int, t_idx: int) -> np.ndarray:
        """The kernel matrix nu_{·;s} for slice t: shape (n_t, n_s), rows summing
        to 1; ``column(t, (s,))[0]``."""
        if not (0 <= s_idx <= t_idx < self.grid.n):
            raise InputError(f"kernel({s_idx}, {t_idx}): need 0 <= s <= t < {self.grid.n}")
        return self.column(t_idx, (s_idx,))[0]


@dataclass(frozen=True, eq=False)
class HeatFlowField:
    """A function per grid time (forward-propagated data)."""

    time_indices: tuple
    values: tuple

    def value_at(self, idx: int) -> np.ndarray:
        return self.values[self.time_indices.index(int(idx))]


@dataclass(frozen=True, eq=False)
class ConjHeatFlowField:
    """A probability measure per grid time (backward-propagated data)."""

    time_indices: tuple
    measures: tuple

    def measure_at(self, idx: int) -> ProbMeasure:
        return self.measures[self.time_indices.index(int(idx))]


@dataclass(frozen=True, eq=False)
class MetricFlowPair:
    """A flow together with a conjugate heat flow on it (the object the
    flow distance compares)."""

    flow: MetricFlow
    mu: ConjHeatFlowField


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one quantitative check: ``worst`` is the extremal residual
    or ratio the check tracked, ``details`` optional per-item rows.
    ``gating`` is False when the outcome is informational only."""

    name: str
    passed: bool
    worst: float
    details: tuple = ()
    gating: bool = True


# ---------------------------------------------------------------------------
# heat flows, conjugate heat flows, pairing
# ---------------------------------------------------------------------------


def heat_forward(flow: MetricFlow, t0: float, u0) -> HeatFlowField:
    """Propagate a function forward: u_t(x) = sum_y u0(y) nu_{x;t0}(y) for
    every grid time t >= t0."""
    i0 = flow.grid.index_of(t0)
    u = np.asarray(u0, dtype=float)
    if u.shape != (flow.slices[i0].n,):
        raise InputError(f"u0: expected {flow.slices[i0].n} values, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise StructuralError("u0: non-finite entries")
    idxs, vals = [], []
    for t_idx in range(i0, flow.grid.n):
        idxs.append(t_idx)
        vals.append(flow.kernel(i0, t_idx) @ u)
    return HeatFlowField(tuple(idxs), tuple(vals))


def conj_backward(flow: MetricFlow, t0: float, mu0: ProbMeasure) -> ConjHeatFlowField:
    """Propagate a measure backward: mu_s = sum_x nu_{x;s} mu0(x) for every
    grid time s <= t0."""
    i0 = flow.grid.index_of(t0)
    if mu0.n != flow.slices[i0].n:
        raise InputError(f"mu0 lives on {mu0.n} points, slice has {flow.slices[i0].n}")
    kernels = flow.column(i0, range(i0 + 1))
    measures = tuple(ProbMeasure(k.T @ mu0.weights) for k in kernels)
    return ConjHeatFlowField(tuple(range(i0 + 1)), measures)


def _on_slice(flow: MetricFlow, field, t_idx: int, name: str) -> np.ndarray:
    """The values of a :class:`HeatFlowField`, or the weights of a
    :class:`ConjHeatFlowField`, at grid index ``t_idx``; InputError unless the
    field ``name`` is defined there with one entry per point of the slice."""
    if t_idx not in field.time_indices:
        raise InputError(f"{name} is not defined at grid index {t_idx}")
    vals = field.value_at(t_idx) if isinstance(field, HeatFlowField) else field.measure_at(t_idx).weights
    n = flow.slices[t_idx].n
    if np.shape(vals) != (n,):
        raise InputError(f"{name} at grid index {t_idx} has shape {np.shape(vals)}, not one entry per point "
                         f"of the {n}-point slice")
    return vals


def _common_times(flow: MetricFlow, a, b) -> list:
    """The sorted grid indices where both fields are defined (at least two,
    all on ``flow``'s grid)."""
    common = sorted(set(a.time_indices) & set(b.time_indices))
    if len(common) < 2:
        raise InputError(f"need at least two common times to compare, got {len(common)}")
    if common[0] < 0 or common[-1] >= flow.grid.n:
        raise InputError(f"common time indices {common} run off the {flow.grid.n}-time grid")
    return common


def pairing_invariant_check(
    flow: MetricFlow, u: HeatFlowField, mu: ConjHeatFlowField
) -> CheckRecord:
    """The pairing t -> sum_x u_t(x) mu_t(x) is constant along a heat flow /
    conjugate heat flow pair; report the worst deviation on common times
    (passes at most 1e-10)."""
    common = _common_times(flow, u, mu)
    pairings = [float(_on_slice(flow, u, i, "u") @ _on_slice(flow, mu, i, "mu")) for i in common]
    worst = max(abs(p - pairings[0]) for p in pairings)
    return CheckRecord(
        name="pairing-invariant",
        passed=worst <= 1e-10,
        worst=worst,
        details=tuple((int(i), float(p)) for i, p in zip(common, pairings)),
    )


# ---------------------------------------------------------------------------
# concentration constant, centers, mass bounds
# ---------------------------------------------------------------------------


def h_concentration_constant(flow: MetricFlow):
    """Smallest H >= 0 with Var(nu_{x1;s}, nu_{x2;s}) <= d_t(x1,x2)^2 + H (t-s)
    over all grid pairs s < t and point pairs; returns (H, witness) with the
    attaining (s_idx, t_idx, x1, x2). Clamped at 0 (s = t pairs are identities
    and carry no information). Single-time flows return (0.0, None).

    Pairs are visited in (t, s) order, and a pair's largest ratio
    fl(fl(fl(K D2_s) K^T) - D2_t) / fl(t - s) replaces the best only when it
    is strictly larger, so of tied pairs the first is the witness. A pair
    whose ratio is capped below the best over earlier columns is skipped,
    which leaves (H, witness) bit-identical to visiting every pair. The cap:
    kernel entries are >= 0 and each stored row sums to within EXACT_TOL of 1
    in floats, so its exact row sum is at most (1 + EXACT_TOL)(1 + g), where
    g = n u / (1 - n u), u = 2^-53 and n is the largest slice size, bounds the
    relative error of any sum of n nonnegative products. Composing m stored
    kernels (m = t - s on a Markov flow, 1 on a pair-stored one) rounds m - 1
    products, so a computed kernel's rows sum to at most q^m with
    q = (1 + EXACT_TOL)(1 + g)^2. The two products of the variance add
    (1 + g)^2 <= q, so every entry is at most diam^2(X_s) q^(2m+1). A product
    that underflows adds at most 2^-1075: adding n 2^-1074 to diam^2 covers
    the variance's, and the ulps between the admitted row sums and
    1 + EXACT_TOL rounded up cover a composition's. Subtracting D2_t >= 0
    cannot raise an entry. With each factor rounded up, the computed cap and
    fl(cap / fl(t - s)) bound every computed ratio of the pair: those are
    floats below a real bound, and rounding is monotone. Each Markov column
    is walked only down to the lowest s whose bound reaches the best; a
    pair-stored column costs dict lookups and is read whole, so a missing
    pair is refused wherever the cap would skip it.
    """
    best = 0.0
    witness = None
    times = flow.grid.times
    d2 = [s.dist ** 2 for s in flow.slices]
    for t_idx, cap in zip(range(1, flow.grid.n), _h_ratio_caps(flow, d2)):
        need = list(range(t_idx)) if witness is None else np.flatnonzero(cap >= best).tolist()
        read = need if flow.is_markov else range(t_idx)
        column = dict(zip(read, flow.column(t_idx, read)))
        for s_idx in need:
            k = column[s_idx]
            var = k @ d2[s_idx] @ k.T
            num = var - d2[t_idx]
            ratio = num / (times[t_idx] - times[s_idx])
            i, j = divmod(int(ratio.argmax()), ratio.shape[1])
            cand = float(ratio[i, j])
            if witness is None or cand > best:
                best = cand
                witness = (s_idx, t_idx, i, j)
    if witness is None:
        return 0.0, None
    return max(best, 0.0), witness


def _h_ratio_caps(flow: MetricFlow, d2: list):
    """For t = 1, ..., T - 1 in turn, the array over s < t of fl(cap / fl(t - s)),
    which bounds every ratio of pair (s, t) (derivation in
    :func:`h_concentration_constant`); ``d2`` holds each slice's squared
    distances."""
    n = max(s.n for s in flow.slices)
    g = _up(n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53))
    q = _up(_up(_up(1.0 + EXACT_TOL) * _up(1.0 + g)) * _up(1.0 + g))
    q2 = _up(q * q)
    grow = [q]  # grow[m] >= q^(2m+1)
    for _ in range(flow.grid.n - 1 if flow.is_markov else 1):
        grow.append(_up(grow[-1] * q2))
    # column t reads the last t entries: m = t - s on a Markov flow, else 1
    steps = np.array(grow[:0:-1] if flow.is_markov else grow[1:] * flow.grid.n)
    diam2 = np.array([_up(float(d.max()) + n * math.ulp(0.0)) for d in d2])
    times = np.asarray(flow.grid.times)
    for t_idx in range(1, flow.grid.n):
        with np.errstate(over="ignore"):  # an infinite cap skips nothing
            bound = diam2[:t_idx] * steps[-t_idx:] / (times[t_idx] - times[:t_idx])
        yield bound


def _time_pair(flow: MetricFlow, t: float, s: float) -> tuple:
    """The grid indices (t_idx, s_idx) of two times, t resolved first;
    raises :class:`InputError` if either is off the grid or s > t."""
    t_idx, s_idx = flow.grid.index_of(t), flow.grid.index_of(s)
    if s_idx > t_idx:
        raise InputError("need s <= t")
    return t_idx, s_idx


def _point(flow: MetricFlow, t_idx: int, x) -> int:
    """``x`` as a point index of the slice at ``t_idx``, else InputError (a negative ``x`` too)."""
    n = flow.slices[t_idx].n
    if not (x == int(x) and 0 <= x < n):
        raise InputError(f"point index {x!r} is not a point of the {n}-point slice at grid index {t_idx}")
    return int(x)


def h_centers(flow: MetricFlow, x_idx: int, t: float, s: float, H: float) -> np.ndarray:
    """All points z of the slice at s with Var(delta_z, nu_{x;s}) <= H (t-s).

    Requires H at least the flow's concentration constant (checked), which
    guarantees the set is nonempty: the nu-average of Var(delta_z, nu) equals
    Var(nu) <= H (t-s), so some z must meet the bound. A ~4e-16 relative
    guard keeps the knife-edge case H = constant robust in floats; an empty
    result nevertheless raises :class:`InternalInvariantError`.
    """
    t_idx, s_idx = _time_pair(flow, t, s)
    x_idx = _point(flow, t_idx, x_idx)
    h_min, _ = h_concentration_constant(flow)
    if H < h_min:
        raise InputError(f"H={H} below the flow's concentration constant {h_min}")
    nu = flow.kernel(s_idx, t_idx)[x_idx]
    second = (flow.slices[s_idx].dist ** 2) @ nu
    budget = H * (t - s)
    mask = second <= budget + 4e-16 * max(1.0, budget)
    out = np.nonzero(mask)[0]
    if out.size == 0:
        raise InternalInvariantError(
            "no H-center found although H dominates the concentration constant"
        )
    return out


def hcenter_mass_bound_check(
    flow: MetricFlow,
    x_idx: int,
    t: float,
    s: float,
    H: float,
    A_values: Sequence[float] = (2.0, 4.0, 8.0),
) -> CheckRecord:
    """Chebyshev mass bound at the H-centers: for every center z and A > 1,
    nu_{x;s}(B(z, sqrt(A H (t-s)))) >= 1 - 1/A with B an *open* ball, up to
    a shortfall of 1e-12."""
    t_idx, s_idx = _time_pair(flow, t, s)
    centers = h_centers(flow, x_idx, t, s, H)
    nu = flow.kernel(s_idx, t_idx)[int(x_idx)]
    d = flow.slices[s_idx].dist
    rows = []
    worst = 0.0
    for A in A_values:
        if not A > 1.0:
            raise InputError(f"A must exceed 1, got {A}")
        radius = math.sqrt(A * H * (t - s))
        masses = [float(nu[d[z] < radius].sum()) for z in centers]
        low = min(masses)
        need = 1.0 - 1.0 / A
        worst = max(worst, need - low)
        rows.append((float(A), len(centers), low, need))
    return CheckRecord(
        name="hcenter-mass-bound", passed=worst <= 1e-12, worst=worst, details=tuple(rows)
    )


# ---------------------------------------------------------------------------
# monotonicity checks
# ---------------------------------------------------------------------------


def _non_decreasing(name: str, common: list, vals: list) -> CheckRecord:
    """The record ``name`` for a curve that must not decrease: ``vals`` at
    the grid indices ``common``; ``worst`` is max(0, max_{a<b} vals[a] -
    vals[b]), found by a running prefix maximum, and passes at most 1e-9.

    Equal bit for bit to the double loop over pairs: rounding x - c is
    monotone in x, so the largest vals[a] gives the largest rounded drop.
    """
    worst = 0.0
    top = vals[0]
    for v in vals[1:]:
        worst = max(worst, top - v)
        top = max(top, v)
    return CheckRecord(
        name=name,
        passed=worst <= 1e-9,
        worst=worst,
        details=tuple((int(i), float(v)) for i, v in zip(common, vals)),
    )


def w1_kernel_monotonicity_check(
    flow: MetricFlow,
    mu1: ConjHeatFlowField,
    mu2: ConjHeatFlowField,
) -> CheckRecord:
    """t -> d_W1(mu1_t, mu2_t) must be non-decreasing along two conjugate
    heat flows; report the worst decrease over common time pairs (passes at
    most 1e-9). The W1 values are one batch of block-diagonal LPs."""
    common = _common_times(flow, mu1, mu2)
    pairs = [(flow.slices[i], mu1.measure_at(i), mu2.measure_at(i)) for i in common]
    return _non_decreasing("w1-monotonicity", common, [res.value for res in _w1_results(pairs)])


def kernel_w1_contraction_check(flow: MetricFlow, t: float, s: float) -> CheckRecord:
    """Special case on kernels: d_W1(nu_{x1;s}, nu_{x2;s}) <= d_t(x1, x2) + 1e-9
    over all unordered pairs (x1, x2) of the slice at t. The W1 values are
    one batch of block-diagonal LPs, in ``itertools.combinations`` order."""
    t_idx, s_idx = _time_pair(flow, t, s)
    kernels = [ProbMeasure(row) for row in flow.kernel(s_idx, t_idx)]
    space_s = flow.slices[s_idx]
    d_t = flow.slices[t_idx].dist
    x_pairs = list(itertools.combinations(range(flow.slices[t_idx].n), 2))
    results = _w1_results([(space_s, kernels[x1], kernels[x2]) for x1, x2 in x_pairs])
    worst = -math.inf
    rows = []
    for (x1, x2), val in zip(x_pairs, (res.value for res in results)):
        worst = max(worst, val - d_t[x1, x2])
        rows.append((x1, x2, float(val), float(d_t[x1, x2])))
    return CheckRecord(
        name="kernel-w1-contraction", passed=worst <= 1e-9, worst=worst, details=tuple(rows)
    )


def var_plus_Ht_monotonicity_check(
    flow: MetricFlow,
    mu1: ConjHeatFlowField,
    mu2: ConjHeatFlowField,
    H: float,
) -> CheckRecord:
    """t -> Var(mu1_t, mu2_t) + H t must be non-decreasing for an
    H-concentrated flow; report the worst decrease (passes at most 1e-9)."""
    common = _common_times(flow, mu1, mu2)
    vals = [
        variance(flow.slices[i], mu1.measure_at(i), mu2.measure_at(i))
        + H * flow.grid.times[i]
        for i in common
    ]
    return _non_decreasing("var-plus-Ht-monotonicity", common, vals)


# ---------------------------------------------------------------------------
# P* neighborhoods
# ---------------------------------------------------------------------------


def pstar_contains(
    flow: MetricFlow,
    center: tuple,
    A: float,
    T_minus: float,
    T_plus: float,
    point: tuple,
) -> bool:
    """Membership of ``point`` in the W1 parabolic neighborhood of ``center``.

    ``center`` and ``point`` are (time value, point index) pairs. The
    neighborhood holds points x' whose time lies in [t - T_minus, t + T_plus]
    (unsnapped bounds) and whose kernel at the comparison time s* satisfies
    d_W1(nu_{x;s*}, nu_{x';s*}) < A (strict). The comparison time is the
    largest grid time <= t - T_minus; the window guarantees both kernels
    exist there.
    """
    if not (A > 0.0 and T_minus >= 0.0 and T_plus >= 0.0):
        raise InputError("need A > 0 and T_minus, T_plus >= 0")
    (t_c, x_c), (t_p, x_p) = center, point
    tc_idx, tp_idx = flow.grid.index_of(t_c), flow.grid.index_of(t_p)
    x_c, x_p = _point(flow, tc_idx, x_c), _point(flow, tp_idx, x_p)
    cutoff = t_c - T_minus
    below = flow.grid.window(flow.grid.times[0], cutoff)
    if below.size == 0:
        raise InputError(
            f"comparison time {cutoff!r} is below the whole grid; nothing to snap to"
        )
    s_idx = int(below[-1])
    if tp_idx not in flow.grid.window(cutoff, t_c + T_plus):
        return False
    nu_c = ProbMeasure(flow.kernel(s_idx, tc_idx)[x_c])
    nu_p = ProbMeasure(flow.kernel(s_idx, tp_idx)[x_p])
    return w1_distance(flow.slices[s_idx], nu_c, nu_p).value < A


# ---------------------------------------------------------------------------
# support
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportReport:
    indices: tuple
    whole_slice: bool
    independent_ok: bool
    mismatches: tuple


def support_at(flow: MetricFlow, mu: ConjHeatFlowField, t: float) -> SupportReport:
    """Support of the flow at time t, computed from a conjugate heat flow.

    For t strictly before the final grid time the support is independent of
    which conjugate heat flow is used; this is cross-checked against the
    kernels nu_{x;t} of every point x of the next slice, and each kernel
    whose support differs is reported as ``(t_idx + 1, x, support)``
    (``independent_ok=False``). At the final grid time the support is the
    whole slice by convention. At every time ``mu`` must be defined there
    with one weight per point of the slice (:class:`InputError` otherwise).
    """
    t_idx = flow.grid.index_of(t)
    weights = _on_slice(flow, mu, t_idx, "mu")
    if t_idx == flow.grid.n - 1:
        return SupportReport(tuple(range(flow.slices[t_idx].n)), whole_slice=True,
                             independent_ok=True, mismatches=())
    supp = set(int(i) for i in np.flatnonzero(weights > 0.0))
    mismatches = []
    nxt = t_idx + 1
    k = flow.kernel(t_idx, nxt)
    for x in range(flow.slices[nxt].n):
        other = set(int(i) for i in np.nonzero(k[x] > 0.0)[0])
        if other != supp:
            mismatches.append((nxt, x, tuple(sorted(other))))
    return SupportReport(
        indices=tuple(sorted(supp)),
        whole_slice=False,
        independent_ok=not mismatches,
        mismatches=tuple(mismatches),
    )


# ---------------------------------------------------------------------------
# restriction, rescaling, products
# ---------------------------------------------------------------------------


def _flow_like(
    markov: bool, grid: TimeGrid, slices: tuple, kernels: dict, meta: dict
) -> MetricFlow:
    """A flow storing ``kernels`` (keyed by (s, t)) by adjacent steps if
    ``markov``, else by pair."""
    if markov:
        adjacent = [kernels[(j, j + 1)] for j in range(grid.n - 1)]
        return MetricFlow(grid, slices, adjacent_kernels=adjacent, metadata=meta)
    return MetricFlow(grid, slices, pair_kernels=kernels, metadata=meta)


def restrict_flow(flow: MetricFlow, t_lo: float, t_hi: float) -> MetricFlow:
    """Restrict to the grid times inside [t_lo, t_hi] (at least one needed),
    keeping the stored kernels whose pairs lie inside the window."""
    if not (t_hi >= t_lo):
        raise InputError("need t_hi >= t_lo")
    keep = flow.grid.window(t_lo, t_hi)
    if keep.size == 0:
        raise InputError(f"no grid times inside [{t_lo}, {t_hi}]")
    grid = TimeGrid(tuple(flow.grid.times[i] for i in keep))
    slices = tuple(flow.slices[i] for i in keep)
    lo, hi = int(keep[0]), int(keep[-1])  # the window is a run of grid indices
    kernels = {
        (s - lo, t - lo): k for (s, t), k in flow.stored().items() if lo <= s and t <= hi
    }
    return _flow_like(flow.is_markov, grid, slices, kernels, dict(flow.metadata))


def rescale_shift(flow: MetricFlow, lam: float, t_shift: float = 0.0) -> MetricFlow:
    """Parabolic rescaling: times map to lam² t + t_shift, distances to lam·d,
    kernels unchanged. The concentration constant is invariant."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise InputError(f"lam must be positive and finite, got {lam}")
    grid = TimeGrid(tuple(lam * lam * t + t_shift for t in flow.grid.times))
    slices = tuple(s.scaled(lam) for s in flow.slices)
    return _flow_like(flow.is_markov, grid, slices, dict(flow.stored()), dict(flow.metadata))


def cartesian_product_flow(f1: MetricFlow, f2: MetricFlow) -> MetricFlow:
    """Product flow: slices are l²-products, kernels are products
    (nu^{12} = nu^1 x nu^2). If both factors are H_i-concentrated the product
    is (H_1 + H_2)-concentrated; heat flows of products of functions factor.
    Requires identical time grids. The product is Markov-stored when both
    factors are, else it stores every pair."""
    if not f1.grid.matches(f2.grid):
        raise InputError("product flows need identical time grids")
    slices = tuple(product_space(a, b) for a, b in zip(f1.slices, f2.slices))
    meta = {
        "generator": "product",
        "product": True,
        "approximate": f1.flagged("approximate") or f2.flagged("approximate"),
    }
    markov = f1.is_markov and f2.is_markov
    if markov:
        k2 = f2.stored()
        kernels = {key: np.kron(k1, k2[key]) for key, k1 in f1.stored().items()}
    else:
        kernels = {}
        for t_idx in range(f1.grid.n):
            for s_idx, (k1, k2) in enumerate(zip(f1.column(t_idx), f2.column(t_idx))):
                kernels[(s_idx, t_idx)] = np.kron(k1, k2)
    return _flow_like(markov, f1.grid, slices, kernels, meta)


# ---------------------------------------------------------------------------
# distance integral drift
# ---------------------------------------------------------------------------


def d_integral(flow: MetricFlow, mu: ConjHeatFlowField, t: float) -> float:
    """The first distance moment ∬ d_t dmu_t dmu_t of a conjugate heat flow."""
    t_idx = flow.grid.index_of(t)
    w = _on_slice(flow, mu, t_idx, "mu")
    return float(w @ flow.slices[t_idx].dist @ w)


def intd_diff_bounds_check(
    flow: MetricFlow,
    mu: ConjHeatFlowField,
    H: float,
    s: float,
    t: float,
) -> CheckRecord:
    """Two-sided drift bound for the distance integral along a conjugate heat
    flow of an H-concentrated flow:

        -sqrt(H (t-s)) <= I_t - I_s
                       <= sqrt(Var(mu_t) - Var(mu_s) + H (t-s)) + 2 sqrt(H (t-s))

    (the inner argument is clamped at 0 against float cancellation); passes
    when neither side is exceeded by more than 1e-9.
    """
    t_idx, s_idx = _time_pair(flow, t, s)
    i_s = d_integral(flow, mu, s)
    i_t = d_integral(flow, mu, t)
    var_s = variance(flow.slices[s_idx], mu.measure_at(s_idx))
    var_t = variance(flow.slices[t_idx], mu.measure_at(t_idx))
    drift = H * (t - s)
    lower = -math.sqrt(max(drift, 0.0))
    upper = math.sqrt(max(var_t - var_s + drift, 0.0)) + 2.0 * math.sqrt(max(drift, 0.0))
    diff = i_t - i_s
    excess = max(lower - diff, diff - upper)
    return CheckRecord(
        name="intd-diff-bounds",
        passed=excess <= 1e-9,
        worst=excess,
        details=((float(diff), float(lower), float(upper)),),
    )


# ---------------------------------------------------------------------------
# mass-distribution lower bound along conjugate heat flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MassLowerBoundReport:
    preconditions: tuple
    entries: tuple
    range_empty: bool

    @property
    def preconditions_ok(self) -> bool:
        return all(ok for _, ok, _ in self.preconditions)

    @property
    def ok(self) -> bool:
        return self.preconditions_ok and all(e[3] for e in self.entries)


def mass_distribution_lower_bound_check(
    flow: MetricFlow,
    mu: ConjHeatFlowField,
    t: float,
    tau: float,
    r: float,
    V: float,
    H: float,
) -> MassLowerBoundReport:
    """Lower bound on the mass distribution of a conjugate heat flow slice.

    For an H-concentrated flow and a conjugate heat flow with
    sup Var(mu_{t'}) <= V r² over the window [t, t + tau r²] (both endpoints
    on the grid), the slice measure at t satisfies

        b_r(eps) >= (1/2) Phi(-sqrt(8 V / (eps tau)))   for eps in [2 (tau H)^{1/3}, 1].

    Precondition failures (window endpoints off-grid, variance above V r²,
    H below the flow's concentration constant) are *reported*, not raised;
    so is an empty eps-range (tau H > 1/8). The bound is checked at nine
    geometric samples of [max(2 (tau H)^{1/3}, 1e-6), 1].
    """
    pre = []
    ends = []
    for label, value in (("t on grid", t), ("t + tau r^2 on grid", t + tau * r * r)):
        try:
            ends.append(flow.grid.index_of(value))
        except InputError:
            ends.append(None)
        pre.append((label, ends[-1] is not None, value))
    t_idx, top_idx = ends

    if None not in ends:
        window = [i for i in mu.time_indices if t_idx <= i <= top_idx]
        covered = {t_idx, top_idx} <= set(window)
        pre.append(("mu covers the window", covered, len(window)))
        if covered:
            sup_var = max(
                variance(flow.slices[i], mu.measure_at(i)) for i in window
            )
            pre.append(("sup Var <= V r^2", sup_var <= V * r * r + EXACT_TOL, sup_var))
        h_min, _ = h_concentration_constant(flow)
        pre.append(("H >= concentration constant", H >= h_min - EXACT_TOL, h_min))

    entries = []
    eps_lo = 2.0 * (tau * H) ** (1.0 / 3.0)
    range_empty = eps_lo > 1.0
    if not range_empty and all(ok for _, ok, _ in pre):  # an end off the grid fails one
        slice_t = flow.slices[t_idx]
        mu_t = mu.measure_at(t_idx)
        for eps in np.geomspace(max(eps_lo, 1e-6), 1.0, 9):
            eps = float(eps)
            b_val = mass_distribution_fn(slice_t, mu_t, r, eps)
            rhs = 0.5 * phi(-math.sqrt(8.0 * V / (eps * tau)))
            entries.append((eps, b_val, rhs, b_val >= rhs - 1e-12))
    return MassLowerBoundReport(
        preconditions=tuple(pre), entries=tuple(entries), range_empty=range_empty
    )


# ---------------------------------------------------------------------------
# approximate midpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntrinsicReport:
    ok: bool
    checked_pairs: int
    failures: tuple


def intrinsic_diagnostic(space: FiniteMetricSpace, eps: float) -> IntrinsicReport:
    """Approximate-midpoint diagnostic: for every pair (x1, x2) some z must
    satisfy d(x_i, z) <= d(x1, x2)/2 + eps. Reports the failing pairs with
    their best achievable defect."""
    if not (eps >= 0.0 and math.isfinite(eps)):
        raise InputError(f"eps must be nonnegative and finite, got {eps}")
    d = space.dist
    n = space.n
    failures = []
    checked = 0
    for i in range(n):
        # best[j] = min_z max(d[i,z], d[j,z])
        best = np.maximum(d[i][None, :], d).min(axis=1)
        for j in range(i + 1, n):
            checked += 1
            allowed = 0.5 * d[i, j] + eps
            if best[j] > allowed + EXACT_TOL * max(1.0, allowed):
                failures.append((i, j, float(best[j] - 0.5 * d[i, j])))
    return IntrinsicReport(ok=not failures, checked_pairs=checked, failures=tuple(failures))


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Axiom6Entry:
    """Smoothing-axiom verdict for one (deduplicated) slice pair.

    ``verdict`` is "complete" (two-point extremal sweep: a pass certifies the
    axiom at grid resolution) or "necessary-only" (cone battery on larger
    slices: a pass is evidence, a failure is a genuine violation).
    ``worst_ratio`` is the largest observed |f_t(x)-f_t(y)| / (d_t(x,y) ·
    (tau+T)^{-1/2}); ``worst_excess`` the largest Lipschitz-ratio excess over
    the admissible bound (the entry passes when it is at most 1e-9).
    ``saturated`` counts swept configurations whose propagated values left
    float64 range and were excluded (never happens for kernels with positive
    entries). ``gating`` is False when the verdict is informational only.
    Point pairs at distance 0 are judged by the slice-metrics record alone:
    an entry with no pair at positive distance left reads 0.0, 0.0 and 0
    cases.
    """

    s_idx: int
    t_idx: int
    verdict: str
    passed: bool
    worst_ratio: float
    worst_excess: float
    n_cases: int
    saturated: int
    duplicates: tuple
    gating: bool = True


@dataclass(frozen=True)
class FlowVerifyReport:
    records: tuple
    axiom6: tuple

    @property
    def ok(self) -> bool:
        """The verdict: every gating record and smoothing entry passed."""
        return all(r.passed for r in self.records + self.axiom6 if r.gating)

    def record(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


# slope rows per sweep block: one 32 × 999 float64 buffer (256 KB) stays in L2
_SWEEP_ROWS = 32
# every 64th slope row is swept in full before the rest, so that pruning
# starts from worst values that cases attain
_SEED_STRIDE = 64
# an entry with no point pair at positive distance: points at distance 0 fail
# slice-metrics and are left out of the ratio, and as data they admit only
# equal values, so a two-point pair with either slice at distance 0 has no case
_NO_PAIR = (0.0, 0.0, 0, 0)

_EPS = 2.0**-52
# scipy's ndtri is within this many ulps of the exact inverse, relative to
# the result, over (0, 1/2 + 1e-9] with subnormals (tested against mpmath)
_NDTRI_ULPS = 16


def _profile_table():
    """A floor under the isoperimetric profile I = Phi'∘Phi^-1 at each power of two.

    Returns ``x`` with x[e + 1074] <= Phi^-1(2^e) for e = -1074, ..., -1,
    and ``floor`` with floor[e + 1074] <= I(2^e) for e = -1074, ..., 0.
    Each x starts at sqrt2·ndtri(2^e) and moves down by a relative and an
    absolute 2^-30 until the forward map certifies Phi(x) < 2^e. The check
    runs in logs, log Phi(x) = log(erfcx(-x/2)/2) - x²/4 for x <= 0, so it
    does not underflow where 2^e is subnormal, and it keeps 2^-30 of room
    for the rounding of erfcx, log and x². Phi' decreases in |x|, so
    Phi'(x) <= I(2^e); the floor is Phi'(x) as computed, shrunk by 2^-30 and
    by two subnormal ulps for its own rounding. I(1) = 0.
    """
    e = np.arange(-1074, 0)
    step = 2.0**-30
    x = _SQRT2 * ndtri(np.ldexp(1.0, e)) * (1.0 + step) - step
    while True:
        z = -0.5 * x
        high = np.log(0.5 * erfcx(z)) - z * z >= e * math.log(2.0) - step
        if not high.any():
            break
        x[high] = x[high] * (1.0 + step) - step
    floor = np.exp(-0.25 * x * x) * ((1.0 - step) / math.sqrt(4.0 * math.pi)) - 2.0**-1073
    return x, np.append(np.maximum(floor, 0.0), 0.0)


def _chord_tables(x, floor):
    """Per octave [2^e, 2^(e+1)): a line J(m) = base + slope·m below I, and
    ``noise``, the allowance for ndtri's error.

    Entry e + 1074 holds octave e = -1074, ..., -1, which is ``np.frexp``'s
    exponent plus 1073. Up to e = -2, J is the chord of ``floor``, below I
    as I is concave. Octaves below 2^-1022 carry J = 0: there the rounding
    of base + slope·m is absolute, so their cases are never pruned. ``np.frexp``
    puts 0 in the top octave too, and the sweep's m reach that octave only
    at 0 (a saturated side) and in [1/2, 1/2 + 1e-9], so it carries the chord
    from the origin, 2·floor(1/2)·m, shrunk by 2^-26: 0 at 0, and at most
    floor(1/2) <= I on the rest. ``noise`` is ndtri's error on both sides
    plus the rounding of sqrt2·ndtri, at the octave's largest |Phi^-1|: |x|
    at its low end, and 1e-8 > |Phi^-1(1/2 + 1e-9)| at the top.
    """
    e = np.arange(-1022, -1)
    lo, hi = floor[e + 1074], floor[e + 1075]
    base, slope = np.zeros(1074), np.zeros(1074)
    base[e + 1074] = 2.0 * lo - hi
    slope[e + 1074] = np.ldexp(hi - lo, -e)
    slope[-1] = 2.0 * floor[-2] * (1.0 - 2.0**-26)
    noise = 2 * (_NDTRI_ULPS + 4) * _EPS * np.maximum(-x, 1e-8)
    return base, slope, noise


_PROFILE_X, _PROFILE_FLOOR = _profile_table()
_CHORD_BASE, _CHORD_SLOPE, _NDTRI_NOISE = _chord_tables(_PROFILE_X, _PROFILE_FLOOR)
# the bound's relative margin: the rounding of the gap (3 ulps), of the
# computed |f0 - f1| and of the bound itself; J's rounding stays inside the
# table's 2^-30
_BOUND_REL = 16 * _EPS


def _two_point_gap(m0, m1, flip, out, scratch):
    """|w0 - w1| for each case: the distance of the two sides' values of Phi.

    Side i inverts m_i = min(u_i, v_i), so f_i = Phi^-1(w_i) with w_i = m_i
    where it has u <= v and 1 - m_i elsewhere; ``flip`` marks the cases
    whose sides differ there. The gap is |m0 - m1| on equal sides and
    |(1/2 - m0) + (1/2 - m1)| across, each within 3 ulps. ``scratch`` is
    two float buffers shaped like ``out``.
    """
    np.subtract(m0, m1, out=out)
    if flip.any():
        t0, t1 = scratch
        np.subtract(0.5, m0, out=t0)
        np.subtract(0.5, m1, out=t1)
        np.add(t0, t1, out=t0)
        np.copyto(out, t0, where=flip)
    return np.abs(out, out=out)


def _two_point_bound(gap, lo, out, scratch):
    """Bound |f0 - f1| from above by the gap |w0 - w1|, without inverting Phi.

    ``lo`` is min(m0, m1) (see :func:`_two_point_gap`). I = Phi'∘Phi^-1 is
    concave and symmetric about 1/2, so on [w0, w1] it is smallest at an end,
    and |f0 - f1| <= |w0 - w1| / min I there. With each m_i in
    [0, 1/2 + 1e-9], that end's I is at least I(lo)(1 - 1e-17), and the
    chord floor J(lo) of :func:`_chord_tables` is below it with the table's
    2^-30 to spare. Writes (1 + _BOUND_REL)·gap/J(lo) + noise(lo) into
    ``out``: inf or NaN where J is 0, and elsewhere at least the |f0 - f1|
    that the sweep computes. The argument holds as well for any larger gap
    or smaller lo, as I grows up to 1/2: taken at a set's largest gap and
    smallest lo, the bound covers every case of the set.
    ``scratch`` is two float buffers, an int32 and an int64 buffer shaped
    like ``out``.
    """
    t0, t1, exp, octave = scratch
    np.frexp(lo, out=(t0, exp))
    np.add(exp, 1073, out=octave)
    np.take(_CHORD_SLOPE, octave, out=t0, mode="clip")
    np.multiply(t0, lo, out=t0)
    np.take(_CHORD_BASE, octave, out=t1, mode="clip")
    np.add(t0, t1, out=t0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # J = 0: inf or NaN, kept
        np.divide(gap, t0, out=out)
    np.multiply(out, 1.0 + _BOUND_REL, out=out)
    np.take(_NDTRI_NOISE, octave, out=t0, mode="clip")
    return np.add(out, t0, out=out)


# a sweep cell: the slope rows of one block by this many consecutive u columns
_CELL_COLS = 4
# scipy's erfc(z) is within _erfc_rel(z) of erfc relative, plus _ERFC_ABS
# absolute where erfc is subnormal (it flushes to 0 from z ≈ 26.64 on); the
# error grows like z²/2 ulps from the rounding of z² (tested against mpmath)
_ERFC_ABS = 2.0**-1022


def _erfc_rel(z):
    return (8.0 + np.square(np.maximum(z, 0.0))) * _EPS


def _phi_cells(f_plus, big_a, sigma, first, last):
    """Enclose Phi(f_-) and Phi(-f_-), as the sweep computes them, on cells.

    The blocks have slope sign ``sigma``, and block b's slope rows run from
    ``first[b]`` to ``last[b]``. f_- = fl(f_+ + sigma·A) is monotone in the
    column and in the row when ``f_plus`` and ``big_a`` increase, so on the
    cell of columns [4c, 4c + 3] it lies between its values at the corner
    knots 4c and 4c + 4 (clipped), computed as the sweep computes its
    cases. The true Phi is monotone. Each corner value of 0.5·erfc is
    widened by three times erfc's allowance at the cell's largest argument,
    which covers the error at the corner and at every case, plus three
    times ``_ERFC_ABS`` and 8 ulps for the rounding of the widening.
    Returns ((lo, hi) of Phi(f_-), (lo, hi) of Phi(-f_-)), each shaped
    (blocks, cells).
    """
    knots = np.minimum(np.arange(0, f_plus.size + _CELL_COLS, _CELL_COLS), f_plus.size - 1)
    a_lo, a_hi = (big_a[first], big_a[last]) if sigma > 0.0 else (big_a[last], big_a[first])
    f_lo = f_plus[knots[:-1]] + sigma * a_lo[:, None]
    f_hi = f_plus[knots[1:]] + sigma * a_hi[:, None]

    k_u = 3.0 * _erfc_rel(-0.5 * f_lo) + 8.0 * _EPS
    k_v = 3.0 * _erfc_rel(0.5 * f_hi) + 8.0 * _EPS
    pad = 3.0 * _ERFC_ABS
    return ((0.5 * erfc(-0.5 * f_lo) * (1.0 - k_u) - pad, 0.5 * erfc(-0.5 * f_hi) * (1.0 + k_u) + pad),
            (0.5 * erfc(0.5 * f_hi) * (1.0 - k_v) - pad, 0.5 * erfc(0.5 * f_lo) * (1.0 + k_v) + pad))


def _cell_bounds(k, sides, rank_one, phi_cells, u, v_plus):
    """A bound on every case's |f0 - f1|, as the sweep computes it, in each
    cell of :func:`_phi_cells`; ``sides`` is as the sweep holds it.

    A side's w_u = fl(fl(Phi(f_-)·p) + fl(p'·u)) rounds monotonically in
    both terms for p >= 0, so the cell's enclosure of Phi(f_-) and the range
    of p'·u over its columns enclose w_u exactly, and w_v likewise. Where
    both sides are surely ``below`` (w_u <= w_v), w0 - w1 is
    (p00 - p10)·u + (p01 - p11)·Phi(f_-) up to the rounding of the
    propagation, at most 2 ulps of each side's value. So the gap is at most
    the largest |·| over the box of u and Phi(f_-), which a linear form
    takes at a corner, plus 8 ulps of u + Phi(f_-) for that rounding and
    for the rounding of the coefficients and of the corners. Surely above,
    the same holds with v_plus and Phi(-f_-). The bound is then
    :func:`_two_point_bound` at that gap and at the lower enclosure of
    min(m0, m1). It is inf on a cell whose sides are not surely on one side,
    or whose lower enclosure is <= 0, where a case may saturate. A rank-one
    pair has f0 == f1: its bound is 0, and inf where m0 may be 0.
    """
    (um_lo, um_hi), (vm_lo, vm_hi) = phi_cells
    starts = np.arange(0, u.size, _CELL_COLS)
    vecs, p01, p11 = sides

    def enclose(p_u, p_v, p):
        # the lower enclosure of min(w_u, w_v), and the cells where
        # w_u <= w_v surely and where w_u > w_v surely
        wu_lo = um_lo * p + np.minimum.reduceat(p_u, starts)
        wu_hi = um_hi * p + np.maximum.reduceat(p_u, starts)
        wv_lo = vm_lo * p + np.minimum.reduceat(p_v, starts)
        wv_hi = vm_hi * p + np.maximum.reduceat(p_v, starts)
        return np.minimum(wu_lo, wv_lo), wu_hi <= wv_lo, wu_lo > wv_hi

    lo, below, above = enclose(vecs[0], vecs[1], p01)
    if rank_one:
        return np.where(lo > 0.0, 0.0, math.inf)
    lo1, below1, above1 = enclose(vecs[2], vecs[3], p11)
    np.minimum(lo, lo1, out=lo)
    d0, d1 = float(k[0, 0] - k[1, 0]), float(k[0, 1] - k[1, 1])

    def gap(x, y_lo, y_hi):
        # largest |d0·x + d1·y| over x in each cell's columns and y in [y_lo, y_hi]
        x_lo, x_hi = np.minimum.reduceat(x, starts), np.maximum.reduceat(x, starts)
        most = np.maximum(d0 * x_lo, d0 * x_hi) + np.maximum(d1 * y_lo, d1 * y_hi)
        least = np.minimum(d0 * x_lo, d0 * x_hi) + np.minimum(d1 * y_lo, d1 * y_hi)
        return np.maximum(most, -least) + 8.0 * _EPS * (x_hi + y_hi) + 2.0**-1069

    g = np.where(below & below1, gap(u, um_lo, um_hi),
                 np.where(above & above1, gap(v_plus, vm_lo, vm_hi), math.inf))
    scratch = (np.empty(g.shape), np.empty(g.shape), np.empty(g.shape, dtype=np.int32),
               np.empty(g.shape, dtype=np.int64))
    ub = _two_point_bound(g, lo, np.empty(g.shape), scratch)
    ub[~(lo > 0.0)] = math.inf
    return ub


def _sweep_two_point(groups, u_step, a_step):
    """Complete extremal sweep of the smoothing axiom on two-point slices.

    Initial data u_s = Phi(f_s) with f_s exactly T^{-1/2}-Lipschitz is, up to
    symmetry and monotone domination, parametrized by the value u = Phi(f_s)
    at the first point, the dimensionless slope A = T^{-1/2} d_s in [0, inf)
    (compactified as a = A/(1+A)), and the sign of the slope. Sub-extremal
    slopes are dominated: w·T^{-1/2}-Lipschitz data with w < 1 is extremal
    for T/w², whose admissible output bound is stricter, so sweeping extremal
    data over all (u, a, sign) on a grid is complete at that resolution.
    Each output slope |f_t(0) - f_t(1)| / d_t is compared with the bound
    (tau + T)^{-1/2} = A / sqrt(tau·A² + d_s²). The propagated value is
    tracked together with its complement so the output slope is recovered
    accurately in both tails.

    ``groups`` holds one (k, d_s, d_t, tau) per slice pair. The slope rows
    run in blocks of ``_SWEEP_ROWS`` through scratch buffers allocated once
    per call. Phi at ±f for each block is shared by every pair, so ``erfc``
    costs 2 calls per evaluated case for all pairs together.

    Every ``_SEED_STRIDE``-th slope row is swept in full first; after that
    each pair keeps its running worst ratio r and worst excess x, computed
    from its row maxima as the result is, so both are attained. A case can
    still set a result only if its |f0 - f1| reaches
    theta = min(r·b, x + b)·d_t·(1 - 1e-12) for its row's bound b; a case
    below that can set neither, as the 1e-12 outweighs the rounding of the
    ratio and of the excess. Two bounds leave the other cases out, so the
    result is the grid maximum itself, bit for bit.

    Cells. Before any ``erfc`` of a later block, each cell of the block's
    rows by ``_CELL_COLS`` columns is bounded from its corners
    (:func:`_phi_cells`, :func:`_cell_bounds`): f_- is monotone in the row
    and the column (checked once per call: ``f_plus`` and the slopes
    increase, or no cell is skipped), the true Phi is monotone, and each
    corner value is widened by erfc's allowance, ``_erfc_rel(z)`` relative
    plus ``_ERFC_ABS`` (tested against mpmath). Propagation with p >= 0
    rounds monotonically, so the enclosures of each side's values are
    exact, and the gap of a cell whose sides are surely on one side of 1/2
    is bounded by a linear form at its box corners plus 8 ulps for
    rounding. A sign's cell bounds are built before its first block after
    the seed rows, as they do not depend on theta. A pair reaches a cell
    unless the cell's bound is below its least theta over the block's rows;
    a cell whose sides are unsure or whose lower enclosure of min(m0, m1)
    is <= 0 always reaches, so a cell left out holds no saturated case.
    ``erfc``, the propagation and everything after run only on the columns
    of the cells that some pair reaches, gathered with ``np.take``, and
    only for those pairs; a block that no pair reaches costs nothing. So
    ``n_cases`` and ``saturated`` count every case as before.

    Cases. On the gathered columns, each unsaturated case's |f0 - f1| is
    bounded without ``ndtri`` (:func:`_two_point_bound`): the isoperimetric
    profile I = Phi'∘Phi^-1 is concave, so |f0 - f1| <= |w0 - w1| / J for
    the values w_i = Phi(f_i) and a chord J below I, certified at import.
    J undercuts I by 2^-30, which covers J's own rounding; the margins are
    16 ulps relative for the rounding of the gap and of the division, plus
    ndtri's error (16 ulps on each side) at the octave's largest |Phi^-1|.
    A case is inverted only if this bound reaches its row's theta. Both
    bounds assume kernel entries >= 0 and row sums <= 1 + 1e-9, which keep
    each propagated min(u, v) below 1/2 + 1e-9; a pair outside that reaches
    every cell and inverts every case.

    A kernel whose rows are bitwise equal (rank one) maps every datum to a
    constant: both sides propagate the same floats, so its output slope is
    exactly 0 and it costs no ``ndtri``, only its saturated count, and it
    reaches only the cells where it may saturate. The slope
    sign -1 is skipped only when the kernel equals its point swap,
    ``(k == k[::-1, ::-1]).all()``: then the data of sign -1 are those of
    sign +1 with the points exchanged. Returns one (worst_ratio,
    worst_excess, n_cases, saturated) per group, and ``_NO_PAIR`` for a
    group with either slice at distance 0.
    """
    u = np.arange(u_step, 1.0, u_step)
    f_plus = phi_inv(u)
    v_plus = phi(-f_plus)
    a = np.arange(0.0, 1.0, a_step)
    big_a = a / (1.0 - a)

    pairs = []  # (group index, k, sides, d_t, bound, symmetric, rank one, prunable) per swept group
    for g, (k, d_s, d_t, tau) in enumerate(groups):
        du, dt_ = float(d_s[0, 1]), float(d_t[0, 1])
        if du == 0.0 or dt_ == 0.0:
            continue  # no case to sweep (see _NO_PAIR)
        bound = big_a / np.sqrt(tau * big_a**2 + du * du)
        p00, p01, p10, p11 = (float(p) for p in k.ravel())
        # per column p_i0·u and p_i0·v_plus of each side i, and its weight p_i1 on point 1
        sides = (np.stack((p00 * u, p00 * v_plus, p10 * u, p10 * v_plus)), p01, p11)
        symmetric = bool((k == k[::-1, ::-1]).all())
        prunable = bool((k >= 0.0).all() and (k.sum(axis=1) <= 1.0 + 1e-9).all())
        pairs.append((g, k, sides, dt_, bound, symmetric, bool((k[0] == k[1]).all()), prunable))
    top = np.zeros((len(pairs), big_a.size))  # each slope row's largest evaluated |f0 - f1|
    saturated = [0] * len(pairs)
    best_ratio = [0.0] * len(pairs)
    best_excess = [-math.inf] * len(pairs)

    seeded = np.zeros(big_a.size, dtype=bool)
    seeded[::_SEED_STRIDE] = True
    monotone = bool((np.diff(f_plus) > 0.0).all() and (np.diff(big_a) > 0.0).all())

    def blocks():
        # (sigma, slope rows, active pairs, seed rows or not, and after the
        # seed rows each active pair's bound on each cell, or None); one
        # sign's cell bounds are built before its first block after the seeds
        for rows, full in ((np.flatnonzero(seeded), True), (np.flatnonzero(~seeded), False)):
            for sigma in (1.0, -1.0):
                active = [i for i, p in enumerate(pairs) if sigma > 0.0 or not p[5]]
                starts = range(0, rows.size, _SWEEP_ROWS) if active else ()
                cell_ub = None
                if starts and not full and monotone:
                    ends = np.minimum(np.array(starts) + _SWEEP_ROWS, rows.size) - 1
                    phi_cells = _phi_cells(f_plus, big_a, sigma, rows[list(starts)], rows[ends])
                    cell_ub = np.full((len(active), *phi_cells[0][0].shape), math.inf)
                    for j, i in enumerate(active):
                        _, k, sides, _, _, _, rank_one, prunable = pairs[i]
                        if prunable:
                            cell_ub[j] = _cell_bounds(k, sides, rank_one, phi_cells, u, v_plus)
                for b, start in enumerate(starts):
                    # a copy, so no block holds a sign's bounds past its last block
                    yield (sigma, rows[start:start + _SWEEP_ROWS], active, full,
                           None if cell_ub is None else cell_ub[:, b].copy())

    all_cols = np.arange(u.size)

    size = _SWEEP_ROWS * u.size
    floats = [np.empty(size) for _ in range(9)]
    bools = [np.empty(size, dtype=bool) for _ in range(4)]
    exp_buf, octave_buf = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int64)
    row_max = np.empty(_SWEEP_ROWS)

    def propagate(p_u, p_v, p, w_u, below):
        # w_u = min(u, v) for the side's propagated value u and its
        # complement v, ``below`` where u <= v
        np.multiply(u_minus, p, out=w_u)
        np.add(w_u, p_u, out=w_u)
        np.multiply(v_minus, p, out=w_v)
        np.add(w_v, p_v, out=w_v)
        np.less_equal(w_u, w_v, out=below)
        np.minimum(w_u, w_v, out=w_u)

    def extremes(row_tops, b, dt_):
        # worst ratio and worst excess over slope rows with bounds b: x / b
        # and x - b (b > 0) round monotonically in x, so each row's extremes
        # come from its largest |f0 - f1|
        ratio = row_tops / dt_
        worst = np.zeros_like(b)
        np.divide(ratio, b, out=worst, where=b > 0.0)
        return float(worst.max()), float((ratio - b).max())

    for sigma, rows, active, full, cell_ub in blocks():
        n = rows.size
        thetas = {}
        cols = all_cols
        if not full:
            for i in active:
                _, _, _, dt_, bound, _, rank_one, prunable = pairs[i]
                if prunable and not rank_one:
                    b = bound[rows]
                    thetas[i] = np.minimum(best_ratio[i] * b, best_excess[i] + b) * (dt_ * (1.0 - 1e-12))
            if cell_ub is not None:
                # a pair reaches a cell unless the cell's bound is below the
                # pair's least theta over the block's rows; a rank-one pair
                # reaches only where it may saturate
                least = [thetas[i].min() if i in thetas else math.inf for i in active]
                reach = ~(cell_ub < np.array(least)[:, None])
                active = [i for i, r in zip(active, reach.any(axis=1)) if r]
                if not active:
                    continue
                cols = np.flatnonzero(np.repeat(reach.any(axis=0), _CELL_COLS)[:u.size])
        w = cols.size
        f_minus, u_minus, v_minus, m0, m1, lo, gap, x0, x1 = (
            buf[:n * w].reshape(n, w) for buf in floats)
        # f_minus is free once erfc has read it: it holds each side's
        # complement, then the bounds of a block's cases, then its evaluated
        # |f0 - f1|
        w_v = diffs = f_minus
        below0, below1, bad, flip = (buf[:n * w].reshape(n, w) for buf in bools)
        exp, octave = exp_buf[:n * w].reshape(n, w), octave_buf[:n * w].reshape(n, w)
        slope = big_a[rows]
        # Phi(f_-) and Phi(-f_-) = 0.5·erfc(∓f_-/2), with f_- = f_+ + sigma·A
        np.add(np.take(f_plus, cols), sigma * slope[:, None], out=f_minus)
        np.multiply(f_minus, -0.5, out=f_minus)
        erfc(f_minus, out=u_minus)
        np.negative(f_minus, out=f_minus)
        erfc(f_minus, out=v_minus)
        np.multiply(u_minus, 0.5, out=u_minus)
        np.multiply(v_minus, 0.5, out=v_minus)
        for i in active:
            _, _, (vecs, p01, p11), dt_, bound, _, rank_one, _ = pairs[i]
            pu0, pv0, pu1, pv1 = np.take(vecs, cols, axis=1)
            propagate(pu0, pv0, p01, m0, below0)
            if rank_one:  # f0 == f1, so the row maxima stay 0
                saturated[i] += int(np.count_nonzero(np.less_equal(m0, 0.0, out=bad)))
                continue
            propagate(pu1, pv1, p11, m1, below1)
            # a side whose min(u, v) underflowed to 0 saturates the case
            np.minimum(m0, m1, out=lo)
            np.less_equal(lo, 0.0, out=bad)
            saturated[i] += int(np.count_nonzero(bad))
            np.not_equal(below0, below1, out=flip)
            if i in thetas:
                # the unsaturated cases whose bound reaches their row's theta
                _two_point_gap(m0, m1, flip, gap, (x0, x1))
                ub = _two_point_bound(gap, lo, diffs, (x0, x1, exp, octave))
                keep = np.flatnonzero(~(ub < thetas[i][:, None]) & ~bad)
                if not keep.size:
                    continue
            else:
                keep = np.flatnonzero(~bad)
            # |f0 - f1| = |x0 - x1| where the signs agree, |x0 + x1| where not,
            # with x = sqrt2·ndtri(min(u, v)) on each side
            y0, y1 = x0.reshape(-1)[:keep.size], x1.reshape(-1)[:keep.size]
            np.take(m0, keep, out=y0)
            np.take(m1, keep, out=y1)
            ndtri(y0, out=y0)  # Phi(f) = ndtr(f / sqrt2)
            ndtri(y1, out=y1)
            np.multiply(y0, _SQRT2, out=y0)
            np.multiply(y1, _SQRT2, out=y1)
            np.negative(y1, out=y1, where=np.take(flip, keep))
            np.subtract(y0, y1, out=y0)
            np.abs(y0, out=y0)
            diffs.fill(0.0)
            np.put(diffs, keep, y0)
            np.max(diffs, axis=1, out=row_max[:n])
            b = bound[rows]
            top[i, rows] = np.maximum(top[i, rows], row_max[:n])
            ratio, excess = extremes(top[i, rows], b, dt_)
            best_ratio[i], best_excess[i] = max(best_ratio[i], ratio), max(best_excess[i], excess)

    out = [_NO_PAIR] * len(groups)
    for i, (g, _, _, dt_, bound, symmetric, *_) in enumerate(pairs):
        n_cases = (1 if symmetric else 2) * big_a.size * u.size
        out[g] = (*extremes(top[i], bound, dt_), n_cases, saturated[i])
    return out


_SIGNS = np.array([-1.0, 1.0])
# largest seeds × slice size a battery may build, checked before any draw
_BATTERY_LIMIT = 4_000_000


def _battery_cone(k, d_s, d_t, tau, T_values, offsets, seeds, rng):
    """Necessary-only battery on slices with three or more points.

    Tests the smoothing axiom on cone data f_s = ±T^{-1/2} d_s(·, y0) + c
    (every anchor, sign, and offset) and on seeded random maxima of a few
    cones (a max of T^{-1/2}-Lipschitz functions is T^{-1/2}-Lipschitz).
    Each seeded datum is the max of three cones; for each T in turn the
    battery draws from ``rng`` all ``seeds × 3`` anchors, then all signs,
    then all offsets in [-3, 3). Output pairs at distance 0 are left out;
    with none left it still draws (later entries read the same stream) and
    returns ``_NO_PAIR``.
    """
    n_s = d_s.shape[0]
    pair_i, pair_j = np.nonzero(np.triu(d_t > 0.0, k=1))
    d_pairs = d_t[pair_i, pair_j]
    worst_ratio = 0.0
    worst_excess = -math.inf
    n_cases = 0
    saturated = 0
    for T in T_values:
        lam = T ** -0.5
        # columns ordered by anchor y0, then sign (+, -), then offset
        cones = (
            np.array([1.0, -1.0])[None, None, :, None] * (lam * d_s)[:, :, None, None]
            + np.asarray(offsets, dtype=float)[None, None, None, :]
        ).reshape(n_s, -1)
        # three draws per T: every anchor, then every sign, then every
        # offset; _SIGNS[integers(0, 2)] reads the stream as choice([-1, 1])
        J = rng.integers(0, n_s, size=(seeds, 3))
        S = rng.integers(0, 2, size=(seeds, 3))
        C = rng.uniform(-3.0, 3.0, size=(seeds, 3))
        if not pair_i.size:
            continue
        seeded = np.max(_SIGNS[S][None] * lam * d_s[:, J] + C[None], axis=2)
        f_s = np.concatenate([cones, seeded], axis=1)
        u_s = phi(f_s)
        v_s = phi(-f_s)
        u_t = k @ u_s
        v_t = k @ v_s
        f_t, ok = _phi_inv_pair(u_t, v_t)
        bound = (tau + T) ** -0.5
        step = max(1, 4_000_000 // max(1, pair_i.size))
        for lo in range(0, f_t.shape[1], step):
            hi = min(f_t.shape[1], lo + step)
            blk = f_t[:, lo:hi]
            okblk = ok[:, lo:hi]
            with np.errstate(invalid="ignore"):  # inf - inf where both saturate, masked below
                diffs = np.abs(blk[pair_i, :] - blk[pair_j, :])
            valid = okblk[pair_i, :] & okblk[pair_j, :]
            n_cases += valid.size
            saturated += int(valid.size - int(valid.sum()))
            ratio = np.where(valid, diffs, 0.0) / d_pairs[:, None]
            # np.maximum keeps a NaN, which then fails the entry
            worst_excess = float(np.maximum(worst_excess, (ratio - bound).max()))
            worst_ratio = float(np.maximum(worst_ratio, ratio.max() / bound))
    return (worst_ratio, worst_excess, n_cases, saturated) if pair_i.size else _NO_PAIR


def _dedupe_pairs(flow: MetricFlow):
    """Group (s, t) grid pairs whose (lag, kernel, d_s, d_t) data coincide up
    to float clustering (the grid-time rule on the lag, 1e-14 absolute on the
    matrices), so static flows sweep one representative per distinct lag.
    Each pair joins the first group, in creation order, that it matches.

    Groups are listed per (kernel, d_s, d_t) shape triple with one row
    ``[lag, K[0], d_s[0], d_t[0]]`` each. A match needs the lag rule and,
    as its matrices agree within 1e-14, first rows within 1e-14 too: a
    vectorised test of the list's lags, then of the first rows of the
    groups that pass, picks the candidates, and ``np.allclose`` decides
    only those.
    """
    groups = []  # (tau, K, d_s, d_t, [pairs])
    lists = {}  # shape triple -> [group indices, rows (grown by doubling)]
    for t_idx in range(flow.grid.n):
        d_t = flow.slices[t_idx].dist
        for s_idx, k in enumerate(flow.column(t_idx)):
            tau = flow.grid.times[t_idx] - flow.grid.times[s_idx]
            d_s = flow.slices[s_idx].dist
            row = np.concatenate(([tau], k[0], d_s[0], d_t[0]))
            entry = lists.setdefault((k.shape, d_s.shape, d_t.shape), [[], np.empty((1, row.size))])
            ids, rows = entry
            n = len(ids)
            hit = np.flatnonzero(np.abs(rows[:n, 0] - tau) <= _time_tol(tau))
            hit = hit[(np.abs(rows[hit, 1:] - row[1:]) <= 1e-14).all(axis=1)]
            for i in hit:
                g = groups[ids[i]]
                if (
                    np.allclose(g[1], k, rtol=0.0, atol=1e-14)
                    and np.allclose(g[2], d_s, rtol=0.0, atol=1e-14)
                    and np.allclose(g[3], d_t, rtol=0.0, atol=1e-14)
                ):
                    g[4].append((s_idx, t_idx))
                    break
            else:
                if n == rows.shape[0]:
                    rows = entry[1] = np.resize(rows, (2 * n, row.size))
                rows[n] = row
                ids.append(len(groups))
                groups.append((tau, k, d_s, d_t, [(s_idx, t_idx)]))
    return groups


def _reproduction_audit(flow: MetricFlow):
    """Worst max |K(t1,t3) - K(t2,t3) K(t1,t2)| over triples t1 < t2 < t3
    whose three kernels are all stored, with its first witness in
    (t1, t2, t3) order. A Markov flow stores only adjacent pairs, so it has
    no such triple: its longer kernels are compositions and reproduction
    holds by definition (worst 0.0, no witness). The residuals of one pair
    (t1, t2) over all its t3 share one abs and one max."""
    stored = flow.stored()
    worst, witness = 0.0, ()
    for (t1, t2), k12 in stored.items():
        t3s = [t3 for t3 in range(t2 + 1, flow.grid.n) if (t2, t3) in stored and (t1, t3) in stored]
        if not t3s:
            continue
        blocks = [(stored[t1, t3] - stored[t2, t3] @ k12).ravel() for t3 in t3s]
        res = np.abs(np.concatenate(blocks))
        at = int(res.argmax())
        if res[at] > worst:
            t3 = t3s[int(np.searchsorted(np.cumsum([b.size for b in blocks]), at, "right"))]
            worst, witness = float(res[at]), ((t1, t2, t3),)
    return worst, witness


def verify_flow_axioms(
    flow: MetricFlow,
    *,
    mode: str = "exhaustive-2pt",
    seeds: int = 256,
    rng_seed: int = 0,
) -> FlowVerifyReport:
    """Audit a flow against the structural and smoothing axioms.

    Structural records: slice metric validity, kernel stochasticity, the
    identity kernel at equal times (it holds by construction, so that record
    always passes), and the reproduction property over every grid triple
    whose three kernels are stored (worst residual, tolerance 1e-10). A
    Markov flow stores no such triple, as its longer kernels are compositions
    of its steps, so it holds reproduction by definition and that record
    reads 0.0. ``seeds`` and ``rng_seed`` must be >= 0, and unless ``mode``
    is ``"skip"``, ``seeds`` times the largest slice size must be at most
    4 000 000: the battery's seeded cones take about that many triples of
    floats (96 MB).

    Smoothing axiom: ``mode="exhaustive-2pt"`` runs the complete extremal
    sweep on two-point slices and the cone battery on larger ones (verdicts
    labeled accordingly); ``mode="randomized"`` runs the battery everywhere;
    ``mode="skip"`` omits the smoothing axiom. Slice pairs carrying identical
    (lag, kernel, metric) data are swept once.

    On a flow flagged ``approximate`` (a discretization of a continuum flow),
    reproduction and the smoothing entries are informational: their
    ``gating`` is False and they do not decide :attr:`FlowVerifyReport.ok`.
    """
    if mode not in ("exhaustive-2pt", "randomized", "skip"):
        raise InputError(f"unknown mode {mode!r}")
    if seeds < 0 or rng_seed < 0:
        raise InputError(f"seeds and rng_seed must be >= 0, got {seeds} and {rng_seed}")
    n_max = max(s.n for s in flow.slices)
    if mode != "skip" and seeds * n_max > _BATTERY_LIMIT:
        raise InputError(
            f"--seeds {seeds} times the largest slice size {n_max} exceeds the cone "
            f"battery's limit of {_BATTERY_LIMIT:,} (seeds x points)"
        )
    exact = not flow.flagged("approximate")
    records = []

    # axioms: points exist / time function well-formed (by construction)
    records.append(CheckRecord("points-nonempty", True, 0.0))
    records.append(CheckRecord("time-grid-increasing", True, 0.0))

    # slice metrics
    worst_metric = 0.0
    metric_rows = []
    for i, s in enumerate(flow.slices):
        rep = check_metric_axioms(s)
        if not rep.ok:
            w = rep.worst()
            worst_metric = max(worst_metric, w.magnitude)
            metric_rows.append((i, w.kind, w.indices, w.magnitude))
    records.append(
        CheckRecord("slice-metrics", not metric_rows, worst_metric, tuple(metric_rows))
    )

    # kernels are probability measures (stored matrices; compositions inherit)
    worst_row = 0.0
    for k in flow.stored().values():
        worst_row = max(worst_row, float(np.abs(k.sum(axis=1) - 1.0).max()))
        worst_row = max(worst_row, max(0.0, -float(k.min())))
    records.append(CheckRecord("kernel-stochastic", worst_row <= EXACT_TOL, worst_row))

    # delta property at equal times: K(s, s) is the identity by construction
    records.append(CheckRecord("delta-at-equal-times", True, 0.0))

    # reproduction over the triples of stored kernels
    worst_rep, rep_witness = _reproduction_audit(flow)
    records.append(
        CheckRecord("reproduction", worst_rep <= 1e-10, worst_rep, rep_witness, gating=exact)
    )

    # smoothing axiom
    entries = []
    if mode != "skip":
        rng = np.random.default_rng(rng_seed)
        groups = _dedupe_pairs(flow)
        complete = [
            mode == "exhaustive-2pt" and d_s.shape[0] == 2 and d_t.shape[0] == 2
            for _, _, d_s, d_t, _ in groups
        ]
        sweeps = iter(_sweep_two_point(
            [(k, d_s, d_t, tau) for (tau, k, d_s, d_t, _), c in zip(groups, complete) if c],
            1e-3, 1e-3,
        ))
        for (tau, k, d_s, d_t, members), is_complete in zip(groups, complete):
            s_idx, t_idx = members[0]
            if is_complete:
                ratio, excess, n_cases, sat = next(sweeps)
                verdict = "complete"
            else:
                t_vals = tuple(sorted({0.01, 0.1, 1.0, 10.0, tau, 4.0 * tau}))
                ratio, excess, n_cases, sat = _battery_cone(
                    k, d_s, d_t, tau, t_vals, (-3.0, -1.5, 0.0, 1.5, 3.0), seeds, rng
                )
                verdict = "necessary-only"
            entries.append(
                Axiom6Entry(
                    s_idx=s_idx,
                    t_idx=t_idx,
                    verdict=verdict,
                    passed=excess <= 1e-9,
                    worst_ratio=ratio,
                    worst_excess=excess,
                    n_cases=n_cases,
                    saturated=sat,
                    duplicates=tuple(members[1:]),
                    gating=exact,
                )
            )
    return FlowVerifyReport(records=tuple(records), axiom6=tuple(entries))
