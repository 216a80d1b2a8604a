"""Common ambient spaces, gluing constructions, and the flow distance.

The comparison story, bottom to top:

* ``GluedSpace`` — one ambient metric space containing isometric copies of
  k constituent spaces (index maps record where each point went). The
  ambient may be a pseudometric: points glued at distance zero are kept
  distinct rather than quotiented.

* ``glue_two_slices`` — the flow-specific gluing of a later slice X_t onto
  an earlier slice X_s through a set W of points with kernels nu_{w;s},
  with cross-distance  min_w (d_t(y, w) + W1(delta_x, nu_{w;s})) + delta.
  Valid whenever 0 <= d_t(w1, w2) - W1(nu_{w1;s}, nu_{w2;s}) <= delta on W
  (checked), in which case all mixed triangles hold.

* ``build_union_correspondence`` — per-time disjoint-union ambients for two
  flows glued along a relation of matched points, with additive constant
  eps_t = half the relation's metric distortion (the smallest constant
  making the union a pseudometric).

* ``combine_correspondences`` — the quotient-and-complete combination of a
  (1,2)- and a (2,3)-correspondence into a three-way one: cross-distance
  between the outer ambients is the infimum over routes through the shared
  middle slice.

* ``gw1_upper_bound`` — W1 between pushforwards into a glued ambient; with
  exhaustive bijection search (n <= 6) this upper-bounds the Gromov-W1
  distance, exactly zero on isometric inputs.

* ``f_distance_within`` — the flow distance within a fixed correspondence:
  the smallest r for which there are an exceptional time set E (of measure
  <= r²) and couplings q_t of the two conjugate heat flows with

      integral of W1^{Z_s}(pushed kernels) dq_t  <=  r

  for all s <= t in the participating times outside E. For fixed E and t
  the optimal q_t solves a min-max transport LP (auxiliary variable r_t
  bounding every s-integral); E is then the empty set or the optimum of a
  time-ordered branch and bound over the participating times. The
  report's couplings and integrals are built once, for the chosen E, from
  the LPs the search solved.

* ``f_triangle_check`` — the triangle inequality for three pairs inside a
  combined correspondence, plus an explicit certificate for the outer pair
  obtained by gluing the two chains of couplings time-by-time.

Values are upper bounds for the correspondence-free distances (the infimum
over ambient choices is not searched); within a fixed correspondence the
LP values are exact at this scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .flow_core import MetricFlow, MetricFlowPair, TimeGrid, _on_slice
from .ot_core import (
    EXACT_TOL,
    CertificateError,
    Coupling,
    FiniteMetricSpace,
    InputError,
    InternalInvariantError,
    ProbMeasure,
    _coupling_columns,
    _fit_marginals,
    _measures,
    _prefetch_w1,
    _w1_results,
    check_metric_axioms,
    glue_couplings,
    linprog,
    solve_once,
    w1_distance,
)

__all__ = [
    "GluedSpace",
    "Correspondence",
    "FDistanceReport",
    "FTriangleReport",
    "GWBound",
    "glue_two_slices",
    "build_union_correspondence",
    "combine_correspondences",
    "gw1_upper_bound",
    "f_distance_within",
    "f_triangle_check",
]


# ---------------------------------------------------------------------------
# glued ambient spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GluedSpace:
    """An ambient (pseudo)metric space with isometric copies of k spaces.

    ``embeddings[i]`` is the index map of constituent i into ``ambient``;
    each must be exactly distance-preserving for the constituent it came
    from (checked by :meth:`validate`).
    """

    ambient: FiniteMetricSpace
    embeddings: tuple

    def validate(self, spaces: Sequence[FiniteMetricSpace]) -> None:
        if len(spaces) != len(self.embeddings):
            raise InputError(
                f"{len(spaces)} constituent spaces for {len(self.embeddings)} embeddings"
            )
        for k, (space, emb) in enumerate(zip(spaces, self.embeddings)):
            idx = np.asarray(emb, dtype=int)
            if idx.shape != (space.n,):
                raise InputError(f"embedding {k}: {idx.size} indices for {space.n} points")
            sub = self.ambient.dist[np.ix_(idx, idx)]
            if not np.array_equal(sub, space.dist):
                worst = float(np.abs(sub - space.dist).max())
                raise InputError(f"embedding {k} is not isometric (worst offset {worst:.3e})")

    def push(self, which: int, mu: ProbMeasure) -> ProbMeasure:
        """Pushforward of a constituent measure into the ambient."""
        return ProbMeasure(self.push_weights(which, mu.weights))

    def push_weights(self, which: int, weights: np.ndarray) -> np.ndarray:
        """Pushforward of constituent weights into the ambient; each row of
        a stack (..., n) is pushed as it would be alone."""
        idx = np.asarray(self.embeddings[which], dtype=int)
        w = np.zeros(np.shape(weights)[:-1] + (self.ambient.n,))
        np.add.at(w, (..., idx), weights)
        return w


def _glue(
    a: FiniteMetricSpace, b: FiniteMetricSpace, left: np.ndarray, right: np.ndarray,
    plus: float, tags: str, where: str,
) -> GluedSpace:
    """The ambient [[d_a, cross], [crossᵀ, d_b]] with labels prefixed
    ``tags[0]:`` and ``tags[1]:`` and each space embedded as its own block
    (a copy, so isometric). The cross block is every gluing's one route
    rule: cross(x, y) = min_w (left(x, w) + right(w, y)) + plus, the
    shortest way from x in ``a`` through a link point w to y in ``b``. A
    cross block that breaks the (pseudo)metric axioms is a bug, not bad
    input: it raises :class:`InternalInvariantError` naming ``where``."""
    n_a, n_b = a.n, b.n
    cross = (left[:, :, None] + right[None, :, :]).min(axis=1) + plus
    dist = np.zeros((n_a + n_b, n_a + n_b))
    dist[:n_a, :n_a] = a.dist
    dist[n_a:, n_a:] = b.dist
    dist[:n_a, n_a:] = cross
    dist[n_a:, :n_a] = cross.T
    labels = tuple(f"{tags[0]}:{l}" for l in a.labels) + tuple(f"{tags[1]}:{l}" for l in b.labels)
    ambient = FiniteMetricSpace(labels=labels, dist=dist)
    report = check_metric_axioms(ambient, require_positive=False)
    if not report.ok:
        raise InternalInvariantError(
            f"{where}: glued ambient violates metric axioms: {report.worst()}"
        )
    return GluedSpace(
        ambient=ambient, embeddings=(tuple(range(n_a)), tuple(range(n_a, n_a + n_b)))
    )


def glue_two_slices(
    space_s: FiniteMetricSpace,
    space_t: FiniteMetricSpace,
    link: dict,
    delta: float,
) -> GluedSpace:
    """Glue a later slice onto an earlier one through kernels on a subset W.

    ``link`` maps indices w of ``space_t`` (the set W) to probability weight
    vectors nu_{w;s} on ``space_s``. Requires the two-sided hypothesis

        0 <= d_t(w1, w2) - d_W1(nu_{w1;s}, nu_{w2;s}) <= delta   on W

    (checked within 1e-9; violation raises
    :class:`InputError` with the worst witness pair). The ambient keeps both
    point sets disjoint with cross-distance

        d_Z(x, y) = min_{w in W} ( d_t(y, w) + E_{nu_w} d_s(x, ·) ) + delta,

    the W1 distance from delta_x to nu_w being exactly its expected
    distance. All triangle inequalities then hold; this is audited.
    """
    if not (delta >= 0.0 and math.isfinite(delta)):
        raise InputError(f"delta must be a finite nonnegative real, got {delta}")
    if not link:
        raise InputError("link: need at least one kernel point w in W")
    w_idx = sorted(int(w) for w in link)
    if w_idx[0] < 0 or w_idx[-1] >= space_t.n:
        raise InputError(f"link points out of range for a {space_t.n}-point slice")
    kernels = np.zeros((len(w_idx), space_s.n))
    for row, w in enumerate(w_idx):
        vec = np.asarray(link[w], dtype=float)
        if vec.shape != (space_s.n,):
            raise InputError(f"kernel at w={w}: expected {space_s.n} weights")
        kernels[row] = ProbMeasure(vec).weights

    # hypothesis: kernel W1 distances track d_t on W up to delta; the worst
    # failing pair, the first of equals in combinations order, is the witness
    ab = list(itertools.combinations(range(len(w_idx)), 2))
    w1s = _w1_results([(space_s, ProbMeasure(kernels[a]), ProbMeasure(kernels[b])) for a, b in ab])
    gaps = np.array([space_t.dist[w_idx[a], w_idx[b]] - res.value for (a, b), res in zip(ab, w1s)])
    off = np.maximum(-gaps, gaps - delta)
    failing = np.flatnonzero((gaps < -1e-9) | (gaps > delta + 1e-9))
    if failing.size:
        k = failing[off[failing].argmax()]
        raise InputError(
            "gluing hypothesis fails: d_t - W1(kernels) must lie in "
            f"[0, delta={delta}], worst witness pair {(w_idx[ab[k][0]], w_idx[ab[k][1]])} "
            f"with gap {gaps[k]:.6g}"
        )

    expected = kernels @ space_s.dist.T  # E_{nu_w} d_s(x, ·), shape (|W|, n_s)
    return _glue(space_s, space_t, expected.T, space_t.dist[w_idx], delta, "st", "glue_two_slices")


# ---------------------------------------------------------------------------
# union gluing along a relation; correspondences
# ---------------------------------------------------------------------------


def _union_glue(
    space1: FiniteMetricSpace,
    space2: FiniteMetricSpace,
    pairs: Sequence,
    where: str,
) -> tuple:
    """Disjoint-union ambient glued along matched point pairs.

    Additive constant eps = half the relation's distortion; cross-distance
    min over matched (w1, w2) of d1(x1, w1) + eps + d2(w2, x2). Returns
    ``(GluedSpace, eps)``.
    """
    pairs = [(int(a), int(b)) for a, b in pairs]
    if not pairs:
        raise InputError(f"{where}: empty relation")
    for a, b in pairs:
        if not (0 <= a < space1.n and 0 <= b < space2.n):
            raise InputError(f"{where}: matched pair ({a},{b}) out of range")
    w1_ = np.array([a for a, _ in pairs])
    w2_ = np.array([b for _, b in pairs])
    d1w = space1.dist[np.ix_(w1_, w1_)]
    d2w = space2.dist[np.ix_(w2_, w2_)]
    eps = 0.5 * float(np.abs(d1w - d2w).max())
    return _glue(space1, space2, space1.dist[:, w1_], space2.dist[w2_], eps, "12", where), eps


@dataclass(frozen=True, eq=False)
class Correspondence:
    """Per-time ambient spaces with one isometric embedding per flow.

    ``time_indices`` are the participating grid indices I''; ``ambients``
    holds one :class:`GluedSpace` (k embeddings for k flows) per entry.
    """

    grid: TimeGrid
    time_indices: tuple
    ambients: tuple
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.time_indices) != len(self.ambients):
            raise InputError("one ambient per participating time required")
        if list(self.time_indices) != sorted(set(int(i) for i in self.time_indices)):
            raise InputError("time_indices must be strictly increasing")
        for i in self.time_indices:
            if not (0 <= i < self.grid.n):
                raise InputError(f"time index {i} outside the grid")

    @property
    def n_flows(self) -> int:
        return len(self.ambients[0].embeddings)

    def ambient_at(self, t_idx: int) -> GluedSpace:
        return self.ambients[self.time_indices.index(int(t_idx))]

    def pair_view(self, i: int, j: int) -> "Correspondence":
        """The two-flow sub-correspondence using embeddings i and j of each
        ambient (the ambient spaces themselves are shared, not rebuilt)."""
        views = tuple(
            GluedSpace(ambient=g.ambient, embeddings=(g.embeddings[i], g.embeddings[j]))
            for g in self.ambients
        )
        return Correspondence(self.grid, self.time_indices, views)


def build_union_correspondence(
    flow1: MetricFlow,
    flow2: MetricFlow,
    relation,
    *,
    time_indices: Sequence[int] | None = None,
) -> Correspondence:
    """Per-time union gluing of two flows over a relation of matched points.

    ``relation`` is a list of index pairs (x1, x2) applied at every
    participating time, or a dict mapping grid indices to per-time pair
    lists. Each per-time ambient is the disjoint union with additive
    constant eps_t = half the relation's distortion at that time. Flows
    must live on the same time grid.
    """
    if not flow1.grid.matches(flow2.grid):
        raise InputError("flows live on different time grids")
    if time_indices is None:
        time_indices = tuple(range(flow1.grid.n))
    else:
        time_indices = tuple(sorted(int(i) for i in set(time_indices)))
    ambients = []
    eps_by_time = {}
    for t_idx in time_indices:
        pairs = relation.get(t_idx) if isinstance(relation, dict) else relation
        if not pairs:
            raise InputError(f"empty relation at participating time index {t_idx}")
        glued, eps = _union_glue(
            flow1.slices[t_idx], flow2.slices[t_idx], pairs, where=f"union gluing at t_idx={t_idx}"
        )
        ambients.append(glued)
        eps_by_time[t_idx] = eps
    return Correspondence(
        flow1.grid, time_indices, tuple(ambients), extras={"eps_by_time": eps_by_time}
    )


def combine_correspondences(c12: Correspondence, c23: Correspondence) -> Correspondence:
    """Combine a (1,2)- and a (2,3)-correspondence into a three-way one.

    Per common time, the new ambient is the disjoint union of the two old
    ambients with cross-distance the infimum over routes through the shared
    middle slice:  d(z12, z23) = min_x ( d12(z12, phi2(x)) + d23(phi2(x), z23) ).
    The two copies of a middle point i end up at distance at most
    d12(phi2(i), phi2(i)) + d23(phi2(i), phi2(i)) (the route x = i), two
    diagonal entries the gluing helper audits, so zero for a metric middle
    slice (the pseudometric keeps the copies distinct); the canonical middle
    embedding is the one through the first ambient. The gluing helper
    checks the axioms and copies the two outer ambients as its blocks, so
    the three flow embeddings, restrictions of those blocks, are isometric.
    """
    common = sorted(set(c12.time_indices) & set(c23.time_indices))
    if not common:
        raise InputError("correspondences share no participating times")
    if c12.n_flows != 2 or c23.n_flows != 2:
        raise InputError("combine_correspondences expects two-flow correspondences")
    ambients = []
    for t_idx in common:
        g12, g23 = c12.ambient_at(t_idx), c23.ambient_at(t_idx)
        mid_a = np.asarray(g12.embeddings[1], dtype=int)
        mid_b = np.asarray(g23.embeddings[0], dtype=int)
        if mid_a.size != mid_b.size:
            raise InputError(
                f"middle slice sizes disagree at t_idx={t_idx}: {mid_a.size} vs {mid_b.size}"
            )
        da, db = g12.ambient.dist, g23.ambient.dist
        mid_dist_a = da[np.ix_(mid_a, mid_a)]
        mid_dist_b = db[np.ix_(mid_b, mid_b)]
        if not np.allclose(mid_dist_a, mid_dist_b, rtol=0.0, atol=EXACT_TOL):
            raise InputError(f"middle embeddings carry different metrics at t_idx={t_idx}")
        ambient = _glue(
            g12.ambient, g23.ambient, da[:, mid_a], db[mid_b], 0.0, "LR",
            f"combine_correspondences at t_idx={t_idx}",
        ).ambient
        glued = GluedSpace(
            ambient=ambient,
            embeddings=(
                tuple(int(i) for i in g12.embeddings[0]),
                tuple(int(i) for i in mid_a),
                tuple(int(g12.ambient.n + i) for i in g23.embeddings[1]),
            ),
        )
        ambients.append(glued)
    return Correspondence(c12.grid, tuple(common), tuple(ambients))


# ---------------------------------------------------------------------------
# Gromov-W1 upper bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GWBound:
    """An upper bound for the Gromov-W1 distance, with the gluing that
    realized it."""

    value: float
    relation: tuple
    glued: GluedSpace
    exhaustive: bool


def gw1_upper_bound(
    space1: FiniteMetricSpace,
    mu1: ProbMeasure,
    space2: FiniteMetricSpace,
    mu2: ProbMeasure,
    *,
    relation: Sequence | None = None,
) -> GWBound:
    """Upper bound on the Gromov-W1 distance between two metric measure
    spaces: W1 between the pushforwards into a union gluing.

    One loop glues, solves and keeps the least value over its candidate
    relations. With an explicit ``relation`` that is the only candidate.
    Without one, every bijective relation is a candidate (requires equal
    sizes <= 6), less those whose half-distortion eps already reaches the
    best value found: every coupling moves all mass across, at cost >= eps.
    The exhaustive result is exactly zero for isometric inputs with matched
    measures. Either way the value only certifies "Gromov-W1 <= value" — no
    tightness is claimed.
    """
    if mu1.n != space1.n or mu2.n != space2.n:
        raise InputError("measures and spaces have mismatched sizes")
    exhaustive = relation is None
    if exhaustive:
        n = space1.n
        if space2.n != n:
            raise InputError("exhaustive mode needs equal point counts (pass a relation otherwise)")
        if n > 6:
            raise InputError(f"exhaustive mode is limited to 6 points, got {n}")
        d1, d2 = space1.dist, space2.dist
        candidates = (
            (0.5 * float(np.abs(d1 - d2[np.ix_(p, p)]).max()), tuple(enumerate(map(int, p))))
            for p in map(np.array, itertools.permutations(range(n)))
        )
    else:
        candidates = [(0.0, tuple((int(a), int(b)) for a, b in relation))]
    best = None
    for eps, pairs in candidates:
        if best is not None and eps >= best.value:
            continue
        glued, _ = _union_glue(space1, space2, pairs, where="gw1_upper_bound")
        value = w1_distance(glued.ambient, glued.push(0, mu1), glued.push(1, mu2)).value
        if best is None or value < best.value:
            best = GWBound(value=value, relation=pairs, glued=glued, exhaustive=exhaustive)
    return best


# ---------------------------------------------------------------------------
# the flow distance within a correspondence
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FDistanceReport:
    """Certified outcome of a flow-distance computation.

    ``value`` = max(sqrt(measure E), max_t r_t); ``r_by_time`` maps each
    participating non-exceptional grid index t to its certified coupling
    value r_t; ``per_pair_integrals`` maps (s_idx, t_idx) to the integral
    of the s-cost against q_t. E avoids J, measure(E) <= value² and every
    integral <= r_t <= value hold by construction. Certified before return:
    the s = t specialization W1(pushed top measures) <= value + 1e-9, from
    W1 solves independent of the min-max LPs.
    """

    value: float
    E_indices: tuple
    E_measure: float
    r_by_time: dict
    per_pair_integrals: dict
    couplings: dict
    mode: str
    J_indices: tuple

    def to_json_dict(self, *, include_couplings: bool = False) -> dict:
        out = {
            "value": self.value,
            "E": {
                "indices": [int(i) for i in self.E_indices],
                "measure": self.E_measure,
            },
            "r_by_time": {str(int(t)): float(r) for t, r in self.r_by_time.items()},
            "per_pair_integrals": {
                f"{int(s)}:{int(t)}": float(v) for (s, t), v in self.per_pair_integrals.items()
            },
            "mode": self.mode,
            "J_indices": [int(i) for i in self.J_indices],
        }
        if include_couplings:
            out["couplings"] = {
                str(int(t)): q.matrix.tolist() for t, q in self.couplings.items()
            }
        return out


def _cost_matrices(
    c: Correspondence, pair1: MetricFlowPair, pair2: MetricFlowPair, idxs: Sequence[int],
    top_times: Sequence[int] = (),
) -> tuple:
    """``(costs, tops)``: the read-only cost matrices c_{s,t}(x1, x2) for
    every s <= t of ``idxs``, keyed ``(s, t)``: W1 on Z_s between the pushed
    kernels nu^1_{x1;s} and nu^2_{x2;s}; the ambient distance when s = t.
    ``tops`` maps each time of ``top_times`` to the W1 problem (ambient,
    pushed basepoint measure of pair 1, of pair 2) of that time.

    Each ambient is checked isometric first. Each kernel matrix is pushed
    into the ambient in one step, its rows checked as measures as one stack.
    The LPs of every entry and of every top are then solved ahead in one
    batch of block-diagonal LPs (:func:`_prefetch_w1`), which do not depend
    on the order of the entries: the matrices of the two orientations of a
    correspondence are transposes, bit for bit. Each W1 is certified with a
    single call's tolerances, as array operations over the batch; each
    entry is read by one ``w1_distance`` call, which the benchmark's tracer
    counts, and each top is left for the caller to read the same way.
    """
    for t_idx in idxs:
        c.ambient_at(t_idx).validate((pair1.flow.slices[t_idx], pair2.flow.slices[t_idx]))
    entries = {}
    for pos, t_idx in enumerate(idxs):
        cols = [pair.flow.column(t_idx, idxs[:pos]) for pair in (pair1, pair2)]
        ambients = [c.ambient_at(s_idx) for s_idx in idxs[:pos]]
        pushed = _measures([glued.push_weights(which, k) for glued, *kernels in zip(ambients, *cols)
                            for which, k in enumerate(kernels)])
        for s_idx, glued, pushed1, pushed2 in zip(idxs[:pos], ambients, pushed[::2], pushed[1::2]):
            entries[s_idx, t_idx] = [[(glued.ambient, m1, m2) for m2 in pushed2] for m1 in pushed1]
    ambients = [c.ambient_at(t_idx) for t_idx in top_times]
    pushed = _measures([glued.push_weights(which, pair.mu.measure_at(t_idx).weights[None])
                        for t_idx, glued in zip(top_times, ambients) for which, pair in enumerate((pair1, pair2))])
    tops = {t_idx: (glued.ambient, m1, m2)
            for t_idx, glued, [m1], [m2] in zip(top_times, ambients, pushed[::2], pushed[1::2])}
    _prefetch_w1([entry for block in entries.values() for row in block for entry in row] + list(tops.values()))
    costs = {}
    for t_idx in idxs:
        glued = c.ambient_at(t_idx)
        costs[t_idx, t_idx] = np.ascontiguousarray(glued.ambient.dist[np.ix_(*glued.embeddings)])
    for key, block in entries.items():
        costs[key] = np.array([[w1_distance(*entry).value for entry in row] for row in block])
    for out in costs.values():
        out.setflags(write=False)
    return costs, tops


def _resolve_J(grid: TimeGrid, idxs: tuple, J) -> tuple:
    out = []
    for t in J:
        t_idx = int(t) if isinstance(t, (int, np.integer)) else grid.index_of(float(t))
        if t_idx not in idxs:
            raise InputError(f"J contains grid index {t_idx}, outside the participating times")
        out.append(t_idx)
    return tuple(sorted(set(out)))


# Largest number of W1 solves one flow distance may need (about 20 s).
_W1_BUDGET = 20_000
# Largest number of nodes one exceptional-set search may visit (about 3 s
# at 99 two-point times, the most the W1 budget admits, on a 2-vCPU Xeon).
_NODE_BUDGET = 20_000


def _least_exceptional_set(idxs: tuple, free: list, half: float, measure, r_at) -> tuple:
    """The least ``(value, measure(E), E)``, with E's r_t by time, over the
    sets E of ``free`` times with ``measure(E) <= half``: value is
    max(sqrt(measure(E)), r_t of the other times of ``idxs``), r_t being
    ``r_at(t, active)`` with the times up to t outside E active.

    Depth first over ``idxs`` in increasing order, each time active or in E.
    An active t's r_t is then final, so a node's (value, measure(E)) never
    decreases along a path and a node above the best leaf is cut: the result
    is the enumeration's. Past ``_NODE_BUDGET`` nodes it raises InputError."""
    best = None
    nodes = 0

    def visit(pos: int, E: tuple, e_measure: float, active: list, r_by_time: dict, value: float):
        nonlocal best, nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise InputError(f"exceptional-set search over {len(idxs)} times passed {_NODE_BUDGET} nodes: "
                             "use --e-mode empty, protect times with --J, or use fewer times")
        if best is not None and (value, e_measure) > best[:2]:
            return
        if pos == len(idxs):
            if best is None or (value, e_measure, E) < best[:3]:
                best = (value, e_measure, E, r_by_time)
            return
        t = idxs[pos]
        r_t = r_at(t, active + [t])
        visit(pos + 1, E, e_measure, active + [t], {**r_by_time, t: r_t}, max(value, r_t))
        if t in free and (m := measure(E + (t,))) <= half:
            visit(pos + 1, E + (t,), m, active, r_by_time, max(value, math.sqrt(m)))

    visit(0, (), 0.0, [], {}, 0.0)
    return best


@solve_once()
def f_distance_within(
    c: Correspondence,
    pair1: MetricFlowPair,
    pair2: MetricFlowPair,
    *,
    J: Sequence = (),
    e_mode: str = "empty",
) -> FDistanceReport:
    """Flow distance between two metric flow pairs within a correspondence.

    The value is the smallest certified r with an exceptional set E of
    participating times (measure(E) <= r², E disjoint from the protected
    times J) and couplings q_t of the basepoint measures for every
    participating t outside E such that the integral of

        W1^{Z_s}( pushforward of nu^1_{x1;s}, pushforward of nu^2_{x2;s} )

    against q_t is <= r for every participating s <= t outside E. For each
    candidate E the couplings solve exact min-max LPs; the search over E is
    controlled by ``e_mode``:

    * ``"empty"``      — E = {} (always a valid upper bound);
    * ``"exhaustive"`` — the least value over every E of measure
      <= measure(I'')/2, then the least measure, then the least E, by the
      branch and bound of :func:`_least_exceptional_set`.

    The couplings and per-pair integrals are built once, for the chosen E.

    Both orientations give bit-identical reports, couplings transposed: each
    LP, W1 or min-max, is solved in the orientation whose bytes sort first.
    The cost matrices read each participating column in one walk, and ask
    only for participating pairs.

    The W1 solves it needs, one per cost-matrix entry (x1, x2) at each
    participating pair s < t plus one per participating time, are counted
    first: above 20 000 it raises :class:`InputError` before any LP runs,
    as does an unknown ``e_mode``, and so does a search past
    ``_NODE_BUDGET`` nodes. Each distinct transport LP is solved once
    (:func:`solve_once`). All the W1 run ahead as one batch of
    block-diagonal LPs (:func:`_cost_matrices`): the cost-matrix entries
    and the pushed top measures of every participating time, of which the
    final check reads only the times outside E. Each min-max LP drops the
    cost rows that another row bounds entrywise, found once per time for
    every s <= t.
    """
    if c.n_flows != 2:
        raise InputError("f_distance_within expects a two-flow correspondence (use pair_view)")
    for pair in (pair1, pair2):
        if not pair.flow.grid.matches(c.grid):
            raise InputError("flow pair lives on a different time grid than the correspondence")
    idxs = tuple(int(i) for i in c.time_indices)
    J_idx = _resolve_J(c.grid, idxs, J)
    for which, pair in enumerate((pair1, pair2), start=1):
        for t_idx in idxs:
            _on_slice(pair.flow, pair.mu, t_idx, f"the basepoint measure of flow pair {which}")
    w1_count = len(idxs) + sum(
        pos * pair1.flow.slices[t].n * pair2.flow.slices[t].n for pos, t in enumerate(idxs)
    )
    if w1_count > _W1_BUDGET:
        raise InputError(
            f"flow distance needs {w1_count} W1 solves ({len(idxs)} participating times), "
            f"over the budget of {_W1_BUDGET}: use fewer times or fewer points per slice"
        )
    if e_mode not in ("empty", "exhaustive"):
        raise InputError(f"unknown e_mode {e_mode!r} (use empty or exhaustive)")

    costs, tops = _cost_matrices(c, pair1, pair2, idxs, idxs)
    tables: dict = {}
    solves: dict = {}

    def table(t_idx: int) -> tuple:
        """The times s <= t by position, their cost rows c_{s,t} as one
        stack, and for each row the bits of the positions whose row implies
        it. A cost row that another row bounds entrywise is implied (q >= 0),
        and of equal rows all but the first; HiGHS called LPs with such rows
        infeasible."""
        if t_idx not in tables:
            below = [s for s in idxs if s <= t_idx]
            rows = np.array([costs[s, t_idx] for s in below]).reshape(len(below), -1)
            ge = (rows[None, :, :] >= rows[:, None, :]).all(axis=2)  # ge[i, j]: row j >= row i
            order = np.arange(len(below))
            implies = ge & (~ge.T | (order[:, None] > order))
            bits = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in implies]
            tables[t_idx] = {s: k for k, s in enumerate(below)}, rows, bits
        return tables[t_idx]

    def solve_time(t_idx: int, s_list: Sequence[int]) -> tuple:
        """Min-max LP at one time: the marginal-repaired coupling of the two
        basepoint measures minimizing the largest s-integral over the
        increasing times ``s_list``, and its integrals keyed by s. The
        implied cost rows of ``s_list`` (``table``) are dropped. Each
        distinct LP is solved once (the E-search asks for many repeats), in
        whichever of (a, b, kept rows) and (b, a, each row transposed) has
        the bytes that sort first, with its integrals at every s <= t as
        one stack; the plan is returned in the caller's orientation. The
        integrals, and so r_t, are certified from the plan with the unscaled
        costs."""
        at, rows, bits = table(t_idx)
        asked = sum(1 << at[s] for s in s_list)
        key = (t_idx, tuple(s for s in s_list if not bits[at[s]] & asked))
        if key not in solves:
            a, b = pair1.mu.measure_at(t_idx).weights, pair2.mu.measure_at(t_idx).weights
            n1, n2 = a.size, b.size
            kept, stack = rows[[at[s] for s in key[1]]], rows.reshape(len(rows), n1, n2)
            mirror = kept.reshape(-1, n1, n2).transpose(0, 2, 1).reshape(len(kept), -1)
            flip = (b.tobytes(), a.tobytes(), mirror.tobytes()) < (a.tobytes(), b.tobytes(), kept.tobytes())
            if flip:
                a, b, kept, stack, n1, n2 = b, a, mirror, stack.transpose(0, 2, 1), n2, n1
            nq, m = n1 * n2, len(kept)
            # variables (q, r): rows -inf <= <c_s, q> - r <= 0, then the
            # marginals of q; the r column holds -1 in each of the m cost rows.
            # The cost rows are divided by the power of two at or below their
            # largest entry (exact), so HiGHS sees the same LP at every scale
            kept = np.ldexp(kept, 1 - math.frexp(float(kept.max()))[1])
            indptr, indices, data = _coupling_columns(n1, n2, kept)
            res = linprog(
                np.concatenate([np.zeros(nq), [1.0]]),
                np.concatenate([indptr, [indptr[-1] + m]]),
                np.concatenate([indices, np.arange(m, dtype=np.int32)]),
                np.concatenate([data, np.full(m, -1.0)]),
                np.concatenate([np.full(m, -np.inf), a, b]),
                np.concatenate([np.zeros(m), a, b]),
            )
            if res.x is None:
                raise InternalInvariantError(f"min-max transport LP failed at t_idx={t_idx}: {res.message}")
            plan = _fit_marginals(res.x[:nq].reshape(n1, n2), a, b)
            ints = (stack * plan).reshape(len(rows), -1).sum(axis=1)
            solves[key] = np.ascontiguousarray(plan.T) if flip else plan, dict(zip(at, ints.tolist()))
        plan, ints = solves[key]
        return plan, {s: ints[s] for s in s_list}

    free = [] if e_mode == "empty" else [t for t in idxs if t not in J_idx]
    value, e_measure, best_E, r_by_time = _least_exceptional_set(
        idxs, free, 0.5 * c.grid.measure(idxs) + EXACT_TOL, c.grid.measure,
        lambda t, active: max(solve_time(t, active)[1].values()),
    )

    # the report, for the chosen E only: E avoids J, measure(E) <= value²
    # and every integral <= r_t <= value hold by construction
    active = list(r_by_time)
    integrals, couplings = {}, {}
    for pos, t in enumerate(active):
        plan, ints = solve_time(t, active[: pos + 1])
        integrals.update(((s, t), v) for s, v in ints.items())
        couplings[t] = Coupling(matrix=plan)

    # the s = t specialization, from W1 solves independent of the min-max LPs
    for t in active:
        top = w1_distance(*tops[t]).value
        if top > value + 1e-9:
            raise CertificateError(
                f"pushed top-measure W1 at t_idx={t} is {top:.12g} > value {value:.12g} + 1e-9"
            )

    return FDistanceReport(
        value=float(value),
        E_indices=best_E,
        E_measure=float(e_measure),
        r_by_time={int(t): float(r) for t, r in r_by_time.items()},
        per_pair_integrals={(int(s), int(t)): float(v) for (s, t), v in integrals.items()},
        couplings=couplings,
        mode=e_mode,
        J_indices=J_idx,
    )


@dataclass(frozen=True, eq=False)
class FTriangleReport:
    """Triangle inequality audit for three flow pairs in one combined
    correspondence, with the explicit glued-coupling certificate for the
    outer pair."""

    d12: FDistanceReport
    d23: FDistanceReport
    d13: FDistanceReport
    holds: bool
    certificate_value: float
    certificate_ok: bool
    E_union: tuple


@solve_once()
def f_triangle_check(
    c123: Correspondence,
    pair1: MetricFlowPair,
    pair2: MetricFlowPair,
    pair3: MetricFlowPair,
    *,
    J: Sequence = (),
    e_mode: str = "empty",
) -> FTriangleReport:
    """Audit d(1,3) <= d(1,2) + d(2,3) + 1e-8 within a three-way correspondence.

    Beyond comparing the three computed values, the (1,2)- and (2,3)-
    couplings are glued through the middle flow time-by-time (outside the
    union of the two exceptional sets) and the resulting (1,3) couplings
    are certified directly: every cost integral must stay below
    d(1,2) + d(2,3) up to float slack. This realizes the inequality's proof
    as a checkable object rather than trusting the three optimizations.
    The three distances and the certificate share one :func:`solve_once`
    scope, so a transport LP they have in common is solved once.
    """
    if c123.n_flows != 3:
        raise InputError("f_triangle_check expects a three-flow correspondence")
    d12 = f_distance_within(c123.pair_view(0, 1), pair1, pair2, J=J, e_mode=e_mode)
    d23 = f_distance_within(c123.pair_view(1, 2), pair2, pair3, J=J, e_mode=e_mode)
    d13 = f_distance_within(c123.pair_view(0, 2), pair1, pair3, J=J, e_mode=e_mode)
    holds = d13.value <= d12.value + d23.value + 1e-8

    bound = d12.value + d23.value
    idxs = tuple(int(i) for i in c123.time_indices)
    e_union = sorted(set(d12.E_indices) | set(d23.E_indices))
    e_measure = c123.grid.measure(e_union)
    active = [t for t in idxs if t not in e_union]
    costs13, _ = _cost_matrices(c123.pair_view(0, 2), pair1, pair3, active)
    cert_worst = math.sqrt(e_measure)
    for t in active:
        q12 = d12.couplings[t]
        q23 = d23.couplings[t]
        q123 = glue_couplings(q12, q23)
        q13 = q123.sum(axis=1)
        for s in active:
            if s > t:
                continue
            integral = float(np.sum(costs13[s, t] * q13))
            cert_worst = max(cert_worst, integral)
    cert_ok = cert_worst <= bound + 1e-9
    return FTriangleReport(
        d12=d12,
        d23=d23,
        d13=d13,
        holds=bool(holds),
        certificate_value=float(cert_worst),
        certificate_ok=bool(cert_ok),
        E_union=tuple(e_union),
    )
