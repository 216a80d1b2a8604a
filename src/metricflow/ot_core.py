"""Exact optimal transport and metric-measure primitives on finite spaces.

Everything in this module is finite and exact-up-to-LP-tolerance: a metric
space is a labelled symmetric matrix, a measure is a probability vector, a
coupling is a joint mass matrix, and Wasserstein distances are computed by a
dense LP whose optimality is certified through the dual (Kantorovich
potential) rather than trusted blindly.

The LP is reduced before it is solved. It runs over the supports of the two
measures only, and for W1 over their excess mass only: by
Kantorovich-Rubinstein duality W1 depends on mu - nu alone, so the mass the
measures share stays in place. A batch of problems is reduced, its LPs are
solved in block-diagonal LPs, and each W1 result is certified with a single
call's tolerances, as array operations over the batch; inside a
:func:`solve_once` scope each distinct LP is solved once, and a batch of W1
problems computed ahead hands each W1 call its finished result.

Core objects
------------
FiniteMetricSpace      labelled points + distance matrix (structure-checked)
ProbMeasure            probability vector on a space's points
Coupling               joint mass matrix with prescribed marginals
TransportCertificate   primal value + 1-Lipschitz potential + duality gap
BFunction              sampled lower mass-distribution profile on (0, 1]

Core operations
---------------
check_metric_axioms    audit symmetry / diagonal / positivity / triangle,
                       keeping the worst violation of each failed axiom
w1_distance            first Wasserstein distance, coupling + dual certificate
wp_distance            p-th Wasserstein distance (p >= 1)
solve_once             scope in which each distinct transport LP is solved once
variance               joint second moment  Var(mu1, mu2) = ∬ d² dmu1 dmu2
glue_couplings         tri-index gluing of couplings sharing a middle marginal
mass_distribution_fn   b_r(eps): largest mass threshold that eps-most points'
                       (eps r)-balls exceed
in_class_M             membership in the class {full support, Var <= V r²,
                       b_r >= b}
finite_approximation   replace mu by a controlled finite atomic measure with a
                       transport-certified error bound
product_space          l²-product of two spaces

Conventions
-----------
Distances are float64 throughout. Probability vectors must sum to 1 within
1e-12; entries in [-1e-12, 0) are treated as solver noise and clamped to 0.
All randomness is caller-supplied; nothing in this module draws random
numbers.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import threading
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MetricflowError",
    "StructuralError",
    "InputError",
    "CertificateError",
    "InternalInvariantError",
    "MetricAxiomViolation",
    "MetricAxiomReport",
    "FiniteMetricSpace",
    "ProbMeasure",
    "Coupling",
    "TransportCertificate",
    "W1Result",
    "BFunction",
    "MClassReport",
    "FiniteApproximation",
    "check_metric_axioms",
    "w1_distance",
    "wp_distance",
    "solve_once",
    "variance",
    "glue_couplings",
    "mass_distribution_fn",
    "in_class_M",
    "finite_approximation",
    "product_space",
]

# Absolute tolerance for "exact" float bookkeeping (measure sums, marginals,
# symmetry, diagonals).
EXACT_TOL = 1e-12
# Relative duality-gap budget for transport certificates.
GAP_REL_TOL = 1e-8


# ---------------------------------------------------------------------------
# exceptions
# ---------------------------------------------------------------------------


class MetricflowError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(MetricflowError, ValueError):
    """Malformed numeric data: wrong shape, non-finite or negative entries."""


class InputError(MetricflowError, ValueError):
    """Structurally sound but semantically invalid argument."""


class CertificateError(MetricflowError, RuntimeError):
    """An LP solve or its certification failed beyond tolerance."""


class InternalInvariantError(MetricflowError, RuntimeError):
    """A mathematically guaranteed post-condition failed (a bug, not bad input)."""


# ---------------------------------------------------------------------------
# small array helpers
# ---------------------------------------------------------------------------


def _as_matrix(obj, name: str) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"{name}: expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise StructuralError(f"{name}: non-finite entries")
    return a


def _as_vector(obj, name: str) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    if a.ndim != 1:
        raise StructuralError(f"{name}: expected a 1-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise StructuralError(f"{name}: non-finite entries")
    return a


def _clamp_noise(a: np.ndarray, name: str) -> np.ndarray:
    """Zero out entries in [-EXACT_TOL, 0); raise on anything more negative."""
    worst = float(a.min(initial=0.0))
    if worst < -EXACT_TOL:
        raise InputError(f"{name}: negative entry {worst:.3e} below tolerance {-EXACT_TOL:.0e}")
    if worst < 0.0:
        a = np.where(a < 0.0, 0.0, a)
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# metric spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricAxiomViolation:
    """One failed metric axiom: kind in {symmetry, diagonal, positivity, triangle}."""

    kind: str
    indices: tuple
    magnitude: float

    def __str__(self) -> str:
        return f"{self.kind} violated at {self.indices} by {self.magnitude:.3e}"


@dataclass(frozen=True)
class MetricAxiomReport:
    """Audit result: at most one violation per failed axiom, in the order
    symmetry, diagonal, positivity, triangle; ``ok`` iff there are none."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0

    def worst(self) -> MetricAxiomViolation | None:
        if not self.violations:
            return None
        return max(self.violations, key=lambda v: v.magnitude)


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite metric space: point labels and a distance matrix.

    The constructor enforces *structure* only (square, entries in [0, 1e150]
    so squares stay finite, matching label count, unique labels). The metric
    axioms themselves are audited by :func:`check_metric_axioms`;
    constructions in this package that must output a genuine metric run that
    audit and raise on violations.
    """

    labels: tuple
    dist: np.ndarray

    def __post_init__(self):
        d = _as_matrix(self.dist, "dist")
        if float(d.min(initial=0.0)) < 0.0:
            raise StructuralError("dist: negative entries")
        if float(d.max(initial=0.0)) > 1e150:
            raise InputError("dist: distances must not exceed 1e150 (a larger square overflows)")
        labels = tuple(self.labels)
        if len(labels) != d.shape[0]:
            raise InputError(
                f"labels: {len(labels)} labels for a {d.shape[0]}-point distance matrix"
            )
        if len(set(labels)) != len(labels):
            raise InputError("labels: point labels must be unique")
        if len(labels) == 0:
            raise InputError("a metric space needs at least one point")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", _readonly(d))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> float:
        return float(self.dist.max(initial=0.0))

    def index_of(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown point label {label!r}") from None

    def subspace(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        idx = np.asarray(list(indices), dtype=int)
        if idx.size == 0:
            raise InputError("subspace: empty index set")
        return FiniteMetricSpace(
            labels=tuple(self.labels[i] for i in idx),
            dist=self.dist[np.ix_(idx, idx)],
        )

    def scaled(self, factor: float) -> "FiniteMetricSpace":
        if not (factor > 0.0 and math.isfinite(factor)):
            raise InputError(f"scale factor must be positive and finite, got {factor}")
        return FiniteMetricSpace(labels=self.labels, dist=factor * self.dist)


def check_metric_axioms(
    space: FiniteMetricSpace, *, require_positive: bool = True
) -> MetricAxiomReport:
    """Audit the distance matrix of a :class:`FiniteMetricSpace` against the
    metric axioms.

    Checks, with witnesses (tol = EXACT_TOL = 1e-12):
      * symmetry              |d[i,j] - d[j,i]| <= tol
      * zero diagonal         |d[i,i]| <= tol
      * positivity (optional) d[i,j] > 0 for i != j
      * triangle inequality   d[i,k] <= d[i,j] + d[j,k] + tol·max(1, max d)

    The triangle slack scales with the magnitude of the distances so that
    spaces assembled in float arithmetic (glued or product spaces) are not
    flagged for ~1 ulp rounding. Set ``require_positive=False`` to audit
    pseudometrics (distinct points at distance zero are then legal). For each
    failed axiom the report holds its worst violation: the largest magnitude,
    the first (i, j) or (i, k) in row-major order among equals, and for the
    triangle the first j attaining min_j d[i,j] + d[j,k].
    """
    d = space.dist
    n = d.shape[0]
    asym = np.abs(d - d.T)
    diag = np.abs(np.diagonal(d))
    tri_tol = EXACT_TOL * max(1.0, float(d.max(initial=0.0)))
    # min_j d[i,j] + d[j,k]; chunk rows to bound memory at n^2·chunk.
    chunk = max(1, int(2_000_000 // max(1, n * n)))
    best = np.concatenate(
        [(d[i0:i0 + chunk, :, None] + d[None, :, :]).min(axis=1) for i0 in range(0, n, chunk)]
    )
    # each axiom's violation magnitudes, -inf where it holds
    audits = {
        "symmetry": np.where(np.triu(asym > EXACT_TOL, 1), asym, -np.inf),
        "diagonal": np.where(diag > EXACT_TOL, diag, -np.inf),
        "positivity": np.where(np.triu(d <= 0.0, 1) & require_positive, -d, -np.inf),
        "triangle": np.where(d > best + tri_tol, d - best, -np.inf),
    }
    out = []
    for kind, mag in audits.items():
        at = np.unravel_index(int(mag.argmax()), mag.shape)  # first largest, row-major
        if mag[at] > -np.inf:
            idx = tuple(int(i) for i in at)
            if kind == "triangle":  # witness: the first j attaining the minimum
                idx = (idx[0], int(np.argmin(d[idx[0]] + d[:, idx[1]])), idx[1])
            out.append(MetricAxiomViolation(kind, idx, float(mag[at])))
    return MetricAxiomReport(violations=tuple(out))


# ---------------------------------------------------------------------------
# measures and couplings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProbMeasure:
    """A probability vector. Sum must be 1 within 1e-12; tiny negative noise
    (>= -1e-12) is clamped to zero at construction."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_vector(self.weights, "weights")
        w = _clamp_noise(w, "weights")
        s = float(w.sum())
        if abs(s - 1.0) > EXACT_TOL:
            raise InputError(f"weights must sum to 1 within {EXACT_TOL:.0e}; got {s!r}")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def support(self) -> np.ndarray:
        return np.nonzero(self.weights > 0.0)[0]

    @staticmethod
    def delta(i: int, n: int) -> "ProbMeasure":
        if not (0 <= i < n):
            raise InputError(f"delta: index {i} out of range for {n} points")
        w = np.zeros(n)
        w[i] = 1.0
        return ProbMeasure(w)

    @staticmethod
    def uniform(n: int) -> "ProbMeasure":
        if n <= 0:
            raise InputError("uniform: need at least one point")
        return ProbMeasure(np.full(n, 1.0 / n))


def _measures(stacks: Sequence) -> list:
    """``[[ProbMeasure(row) for row in rows] for rows in stacks]`` for (k, n)
    arrays ``stacks``, bit for bit, the checks run once over all the rows of
    one width as one stack. Where a row fails one, each row is measured
    alone, in order, so the first that fails raises what it raises alone."""
    by_width: dict = {}
    for i, rows in enumerate(stacks):
        by_width.setdefault(rows.shape[1], []).append(i)
    out = [None] * len(stacks)
    for where in by_width.values():
        w = np.concatenate([stacks[i] for i in where])
        worst = w.min(axis=1, initial=0.0)
        w[w < 0.0] = 0.0
        with np.errstate(invalid="ignore", over="ignore"):
            bad = ~np.isfinite(w).all(axis=1) | (worst < -EXACT_TOL) | ~(np.abs(w.sum(axis=1) - 1.0) <= EXACT_TOL)
        if bad.any():
            return [[ProbMeasure(row) for row in rows] for rows in stacks]
        w.setflags(write=False)
        measures = [_certified(ProbMeasure, weights=row) for row in w]
        for i, ms in zip(where, _pieces(measures, np.array([len(stacks[i]) for i in where]))):
            out[i] = ms
    return out


@dataclass(frozen=True, eq=False)
class Coupling:
    """A joint mass matrix with unit total mass.

    ``marginal_first``/``marginal_second`` return the induced marginals;
    :meth:`check_marginals` reports the residual against prescribed ones
    (within EXACT_TOL = 1e-12 passes).
    """

    matrix: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=float)
        if q.ndim != 2:
            raise StructuralError(f"coupling: expected a matrix, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise StructuralError("coupling: non-finite entries")
        q = _clamp_noise(q, "coupling")
        total = float(q.sum())
        if abs(total - 1.0) > EXACT_TOL:
            raise InputError(f"coupling mass must be 1 within {EXACT_TOL:.0e}; got {total!r}")
        object.__setattr__(self, "matrix", _readonly(q))

    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    def marginal_first(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def marginal_second(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    def check_marginals(self, mu1: ProbMeasure, mu2: ProbMeasure):
        if mu1.n != self.matrix.shape[0] or mu2.n != self.matrix.shape[1]:
            raise InputError(
                f"marginal sizes ({mu1.n}, {mu2.n}) do not match the "
                f"{self.matrix.shape} coupling"
            )
        res = float(_marginal_residuals(self.matrix[None], mu1.weights[None], mu2.weights[None])[0])
        return res <= EXACT_TOL, res

    @staticmethod
    def diagonal(mu: ProbMeasure) -> "Coupling":
        return Coupling(np.diag(mu.weights))

    @staticmethod
    def independent(mu1: ProbMeasure, mu2: ProbMeasure) -> "Coupling":
        return Coupling(np.outer(mu1.weights, mu2.weights))


@dataclass(frozen=True, eq=False)
class TransportCertificate:
    """Optimality certificate for a first-Wasserstein solve.

    ``primal_value``  cost of the returned coupling,
    ``dual_potential`` a 1-Lipschitz potential f with
                       dual = sum f d(mu1 - mu2) <= primal (weak duality),
    ``gap``            primal - dual, in [0, 1e-8·max(1, largest cost)];
                       like the Lipschitz slack, it scales with the space.
    """

    primal_value: float
    dual_potential: np.ndarray
    gap: float

    def __post_init__(self):
        object.__setattr__(self, "dual_potential", _readonly(self.dual_potential))

    def validate(self, space: FiniteMetricSpace, mu1: ProbMeasure, mu2: ProbMeasure) -> None:
        _validate(self.dual_potential[None], space.dist[None], np.array([self.primal_value]),
                  np.array([self.gap]), mu1.weights[None], mu2.weights[None])


def _marginal_residuals(q: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Each coupling of ``q`` (K, n1, n2)'s largest residual against ``w1``, ``w2``."""
    return np.maximum(np.abs(q.sum(axis=2) - w1).max(axis=1), np.abs(q.sum(axis=1) - w2).max(axis=1))


def _refuse(bad: np.ndarray, values: np.ndarray, message: str, error=CertificateError) -> None:
    """Raise ``error(message)``, formatted with the value of the first bad entry, if any."""
    if bad.any():
        raise error(message.format(float(values[bad.argmax()])))


def _validate(f, dist, value, gap, w1, w2) -> None:
    """:meth:`TransportCertificate.validate` over stacks of K certificates."""
    lip = (np.abs(f[:, :, None] - f[:, None, :]) - dist).max(axis=(1, 2), initial=0.0)
    scale = np.maximum(1.0, dist.max(axis=(1, 2), initial=0.0))
    _refuse(lip > EXACT_TOL * scale, lip, "dual potential not 1-Lipschitz (excess {:.3e})")
    drift = np.abs(value - (f * (w1 - w2)).sum(axis=1) - gap)
    _refuse(drift > 1e-9 * np.maximum(1.0, np.abs(value)), gap, "stored gap inconsistent with potential")
    in_range = (gap >= 0.0) & (gap <= GAP_REL_TOL * scale)
    _refuse(~in_range, gap, "duality gap {:.3e} outside certified range")


class W1Result(NamedTuple):
    value: float
    coupling: Coupling
    certificate: TransportCertificate


# ---------------------------------------------------------------------------
# transport solves
# ---------------------------------------------------------------------------


# ``solver``: this thread's (HiGHS bindings, HiGHS instance), set by _highs()
_THREAD = threading.local()


def _highs():
    """SciPy's HiGHS bindings and this thread's one HiGHS instance, made on
    the thread's first solve with the options scipy.optimize.linprog(
    method="highs") sets, this package's feasibility tolerances and presolve
    off (every other option keeps its default). Imported on the first solve:
    ``scipy.optimize`` adds about 0.4 s to the start of a command, which
    commands that solve no LP (``verify`` of a two-point flow, for one) need
    not pay.
    """
    try:
        return _THREAD.solver
    except AttributeError:
        pass
    from scipy.optimize._highspy import _core

    options = _core.HighsOptions()
    options.presolve = "off"
    options.highs_debug_level = 0
    options.dual_feasibility_tolerance = 1e-10
    options.log_to_console = False
    options.output_flag = False
    options.primal_feasibility_tolerance = 1e-10
    options.simplex_strategy = 1  # dual simplex
    highs = _core._Highs()
    highs.passOptions(options)
    _THREAD.solver = (_core, highs)
    return _THREAD.solver


# linprog's post-solve feasibility tolerance: 10 * sqrt(tol) with tol = 1e-9
_LP_CHECK_TOL = 10.0 * math.sqrt(1e-9)


class LPSolution(NamedTuple):
    """Primal values and row duals of a solved LP; both are ``None`` when the
    solve failed, and ``message`` then says why."""

    x: np.ndarray | None
    row_dual: np.ndarray | None
    message: str


@functools.lru_cache(maxsize=64)
def _column_bounds(n: int) -> tuple:
    """The bounds 0 <= x < inf of n columns, as lists; HiGHS copies them."""
    return [0.0] * n, [math.inf] * n


def linprog(c, indptr, indices, data, lhs, rhs) -> LPSolution:
    """Solve ``min c @ x  s.t.  lhs <= A x <= rhs,  x >= 0`` with HiGHS.

    ``A`` is given in CSC form (``indptr``, ``indices``, ``data``); ``c``,
    ``lhs`` and ``rhs`` are float arrays. This is the call
    ``scipy.optimize.linprog(method="highs")`` makes with the option
    ``"presolve": False``, without its input cleaning: the same arrays,
    bounds and options reach HiGHS, and the result is bit-identical to that
    linprog call's. Each thread solves on its own HiGHS instance, made on
    its first solve (:func:`_highs`); ``passModel`` resets that instance's
    model and basis, so no solve warm-starts from the one before. The
    solution is accepted under linprog's own rule, an optimal model status
    and no bound or row violated by more than ``_LP_CHECK_TOL``.

    Every LP of the package goes through this function. Callers look it up
    as a module attribute, ``ot_core.linprog`` and ``correspondence.linprog``
    (imported from here), and the name stays ``linprog``: the benchmark's
    per-layer tracer (``perfbench/tracer.py``) rebinds that attribute in
    both modules to count and time transport and min-max solves apart.
    """
    core, highs = _highs()
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = len(rhs)
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    # the setters copy a list into HiGHS faster than an array
    lp.a_matrix_.start_ = indptr.tolist()
    lp.a_matrix_.index_ = indices.tolist()
    lp.a_matrix_.value_ = data.tolist()
    lp.col_cost_ = c.tolist()
    lp.col_lower_, lp.col_upper_ = _column_bounds(c.size)
    lp.row_lower_ = lhs.tolist()
    lp.row_upper_ = rhs.tolist()

    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        return LPSolution(None, None, f"model status is {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    row = np.array(solution.row_value)
    tol = _LP_CHECK_TOL
    # NaN fails every comparison, so it is refused here too
    if not (
        np.all(x >= -tol)
        and np.all(row >= lhs - tol)
        and np.all(row <= rhs + tol)
    ):
        return LPSolution(None, None, f"solution violates its constraints by more than {tol:.2e}")
    return LPSolution(x, np.array(solution.row_dual), "optimal")


def _coupling_columns(n1: int, n2: int, rows: np.ndarray):
    """CSC arrays ``(indptr, indices, data)`` of the n1*n2 coupling columns
    of a transport-type LP whose first ``m = len(rows)`` constraint rows are
    ``rows`` (shape ``(m, n1*n2)``) and whose next n1 + n2 rows are the two
    marginals. Column k = i*n2 + j holds the nonzero entries of
    ``rows[:, k]`` first (explicit zeros dropped), then ones in rows m + i
    and m + n1 + j.
    """
    m = rows.shape[0]
    idx = np.empty((n1, n2, m + 2), dtype=np.int32)
    idx[:, :, :m] = np.arange(m)
    idx[:, :, m] = np.arange(m, m + n1)[:, None]
    idx[:, :, m + 1] = np.arange(m + n1, m + n1 + n2)
    val = np.ones((n1, n2, m + 2))
    val[:, :, :m] = rows.T.reshape(n1, n2, m)
    keep = val != 0.0
    indptr = np.zeros(n1 * n2 + 1, dtype=np.int32)
    keep.sum(axis=2, dtype=np.int32).cumsum(out=indptr[1:])
    return indptr, idx[keep], val[keep]


def _transport_block(problems: Sequence):
    """Solve the transport LPs ``problems``, each a ``(cost, a, b)`` of min
    <cost, q> over couplings of (a, b), as one block-diagonal LP. Problem
    k's n1*n2 coupling columns and n1 + n2 marginal rows follow those of
    problem k - 1, and its column i*n2 + j holds ones in its rows i and
    n1 + j (the layout of ``_coupling_columns`` with no extra rows), all
    built as array operations over the block. No constraint links two
    problems, so each block of the solution is an optimal solution of its
    problem. Returns ``(solved, message)``; ``solved`` lists each problem's
    ``(plan, alpha, beta)``, its plan and the row duals of its two
    marginals, or is ``None`` when the solve failed, and ``message`` then
    says why.
    """
    n1, n2 = np.array([cost.shape for cost, _, _ in problems]).T
    size, height = n1 * n2, n1 + n2
    k = np.repeat(np.arange(len(problems)), size)  # each column's problem
    i, j = np.divmod(np.arange(size.sum()) - (np.cumsum(size) - size)[k], n2[k])
    top = (np.cumsum(height) - height)[k]
    indices = np.stack([top + i, top + n1[k] + j], axis=1).ravel().astype(np.int32)
    ab = np.concatenate([v for _, a, b in problems for v in (a, b)])
    res = linprog(
        np.concatenate([cost for cost, _, _ in problems], axis=None),
        np.arange(0, indices.size + 1, 2, dtype=np.int32), indices, np.ones(indices.size), ab, ab,
    )
    if res.x is None:
        return None, res.message
    res.x.setflags(write=False)  # and so every piece
    res.row_dual.setflags(write=False)
    pieces = zip(problems, _pieces(res.x, size), _pieces(res.row_dual, height), n1.tolist())
    return [(x.reshape(cost.shape), duals[:m], duals[m:]) for (cost, _, _), x, duals, m in pieces], res.message


def _transport_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Solve min <cost, q> over couplings of (a, b), the one-problem case
    of ``_transport_block``. Returns (plan, row duals of a, of b)."""
    solved, message = _transport_block([(cost, a, b)])
    if solved is None:
        raise CertificateError(f"transport LP failed: {message}")
    return solved[0]


def _fit_marginals(plan: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Proportionally refit a near-coupling to its prescribed marginals, to
    within 1e-13 on every row and column sum.

    Solver output usually satisfies the marginal equations to ~1e-15 already;
    this loop is a guard that nudges the plan when it does not, moving
    O(residual) mass and therefore perturbing the cost far below the
    certified gap budget.
    """
    q = np.array(plan, dtype=float)
    q[q < 0.0] = 0.0
    for _ in range(100):
        rows = q.sum(axis=1)
        cols = q.sum(axis=0)
        if (
            float(np.abs(rows - a).max()) <= 1e-13
            and float(np.abs(cols - b).max()) <= 1e-13
        ):
            return q
        # scale away surpluses (always possible), then fill the remaining
        # deficits with a rank-1 patch — this repairs support-deficient plans
        # (e.g. a diagonal plan between unequal marginals) where plain
        # proportional fitting stalls
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(rows > a, a / np.where(rows > 0.0, rows, 1.0), 1.0)
        q *= scale[:, None]
        cols = q.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(cols > b, b / np.where(cols > 0.0, cols, 1.0), 1.0)
        q *= scale[None, :]
        r = a - q.sum(axis=1)
        r[r < 0.0] = 0.0
        c = b - q.sum(axis=0)
        c[c < 0.0] = 0.0
        sr, sc = float(r.sum()), float(c.sum())
        if sr > 0.0 and sc > 0.0:
            q += np.outer(r, c) / max(sr, sc)
    raise CertificateError("could not refit coupling marginals to tolerance")


# Solved transport LPs of the current solve_once() scope, keyed by the exact
# bytes of their (cost, a, b); None outside every scope.
_SOLVED: contextvars.ContextVar = contextvars.ContextVar("metricflow_solved_lps", default=None)
# Reductions that _prefetch_w1 hands to w1_distance in the current scope,
# keyed by the (space, mu1, mu2) objects; None outside every scope.
_HANDED: contextvars.ContextVar = contextvars.ContextVar("metricflow_handed_w1", default=None)


@contextlib.contextmanager
def solve_once():
    """Solve each distinct transport LP once within this scope.

    Inside it, :func:`w1_distance` and :func:`wp_distance` reuse a reduced
    LP (see ``_plans``) solved with the same cost, source and target bytes
    by an earlier call, or ahead by ``_prefetch_w1``, which also hands each
    W1 call its result, certified as array operations over the batch. A
    nested entry joins the outer scope; the LPs and results are dropped when
    the outermost scope exits. Usable as ``with solve_once():`` or as a
    decorator.
    """
    if _SOLVED.get() is not None:
        yield
        return
    tokens = _SOLVED.set({}), _HANDED.set({})
    try:
        yield
    finally:
        _SOLVED.reset(tokens[0])
        _HANDED.reset(tokens[1])


# Largest number of columns (plan entries) of one block-diagonal LP that
# _solve builds; a problem wider than this goes alone. The simplex costs
# more than linearly in the block's size: the 60 LPs of a 24-point dW1
# curve, about 13 x 11 each, take 28 ms one by one, 18 ms in blocks of
# 1 024 columns and 25 ms in blocks of 8 192.
_BLOCK_COLUMNS = 1024


def _lp_key(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """The key of a reduced LP in the :func:`solve_once` memo: its exact bytes."""
    return cost.tobytes(), a.tobytes(), b.tobytes()


def _solve(lps: Sequence) -> list:
    """Read-only plan and column duals of each transport LP ``(cost, a, b)``
    of ``lps``: read from the :func:`solve_once` scope's memo (outside every
    scope, a memo local to this call), repeats solved once, and the rest
    solved in ``_lp_key`` order, so the result does not depend on the order
    of ``lps``, as block-diagonal LPs of at most ``_BLOCK_COLUMNS`` columns
    (``_transport_block``). A failed block, and a block of one LP, is
    solved one LP at a time by ``_transport_lp``, which raises
    :class:`CertificateError` when an LP fails.
    """
    memo = _SOLVED.get()
    if memo is None:
        memo = {}
    keys = [_lp_key(*lp) for lp in lps]
    todo = {key: lp for key, lp in zip(keys, lps) if key not in memo}
    blocks, width = [], _BLOCK_COLUMNS  # starts full, so the first LP opens a block
    for key, lp in sorted(todo.items(), key=lambda item: item[0]):
        if width + lp[0].size > _BLOCK_COLUMNS:
            blocks.append([])
            width = 0
        blocks[-1].append(key)
        width += lp[0].size
    for block in blocks:
        problems = [todo[key] for key in block]
        solved = _transport_block(problems)[0] if len(problems) > 1 else None
        if solved is None:
            solved = [_transport_lp(*lp) for lp in problems]
        memo.update((key, (plan, beta)) for key, (plan, _, beta) in zip(block, solved))
    return [memo[key] for key in keys]


# K problems of one size n at ``where`` in _plans's list: costs, weights as
# given (mu1, mu2) and oriented (a, b; ``swapped`` if a is mu2), flags ``equal``,
# ``balanced``, plans of (a, b) at cost ``value``, LP column duals ``beta`` (-inf
# off its columns). K·n² <= _STACK_ELEMENTS unless K = 1: 512 KB stacks stay cached.
_Plans = namedtuple("_Plans", "where cost mu1 mu2 swapped a b equal balanced plan beta value")
_STACK_ELEMENTS = 1 << 16


def _pieces(x: np.ndarray, sizes: np.ndarray) -> list:
    """``x`` cut into consecutive pieces of the given sizes, as views (np.split is slower)."""
    ends = np.cumsum(sizes).tolist()
    return [x[end - size : end] for end, size in zip(ends, sizes.tolist())]


def _plans(pairs: Sequence, p: float = 1.0):
    """Optimal plans of the transport problems ``(space, mu1, mu2)`` of
    ``pairs`` under the cost ``space.dist ** p``, as ``_Plans`` stacks made
    one at a time. Pairs are stacked by size, and each stack is handled as
    array operations, not entry by entry: a measure whose size is not its
    space's is refused for the first such pair, before any LP. The weights
    whose bytes sort first are the source ``a`` (the bytes are compared at
    the first that differ), so swapping the measures gives the same plan.
    For p = 1 the shared mass ``stay = min(a, b)`` stays on the diagonal,
    which is optimal when the cost satisfies the triangle inequality (W1 on
    a metric); otherwise ``stay`` is zero. An LP moves the rest over the
    supports ``rows`` and ``cols`` of ``a - stay`` and ``b - stay``, each
    divided by its mass ``sa`` or ``sb``, a row sum over the stack (excess
    entries can sit near HiGHS's 1e-10 feasibility tolerance); one
    ``_solve`` call solves all LPs. Bit-equal weights, and an excess on one
    side only (a mass imbalance below ProbMeasure's 1e-12 sum tolerance),
    need no LP. The plan is ``diag(stay)`` plus the LP's
    plan times the mean excess mass, in one scatter (``rows`` and ``cols``
    are disjoint), clamped at zero and refitted by ``_fit_marginals`` where
    it misses ``(a, b)`` by more than 1e-13. Masses more than 1e-13 apart
    have no such coupling, so both sides are fitted to their mean mass; the
    one-sided plan is then ``diag((a + b)/2)``.
    """
    by_size: dict = {}
    for i, (space, mu1, mu2) in enumerate(pairs):
        by_size.setdefault((space.n, mu1.n, mu2.n), []).append(i)
    for (n, n1, n2), idx in by_size.items():
        if (n1, n2) != (n, n):  # raises for the first pair of the first mis-sized stack
            space, mu1, mu2 = pairs[idx[0]]
            _check_measure_space(space, mu1, "mu1")
            _check_measure_space(space, mu2, "mu2")
    chunks, groups, lps = [], [], {}
    for (n, _, _), idx in by_size.items():
        step = max(1, _STACK_ELEMENTS // (n * n))
        chunks += [idx[k : k + step] for k in range(0, len(idx), step)]
    for where in chunks:
        cost = np.array([pairs[i][0].dist for i in where]) ** p
        mu1, mu2 = (np.array([pairs[i][j].weights for i in where]) for j in (1, 2))
        # a's bytes sort first: compare the weights' bytes at the first that differ
        bytes1, bytes2 = mu1.view(np.uint8), mu2.view(np.uint8)
        k, first = np.arange(len(where)), (bytes1 != bytes2).argmax(axis=1)
        swapped = bytes1[k, first] > bytes2[k, first]
        a, b = np.where(swapped[:, None], mu2, mu1), np.where(swapped[:, None], mu1, mu2)
        equal = (mu1 == mu2).all(axis=1)
        stay = np.minimum(a, b) if p == 1.0 else np.zeros_like(a)
        da, db = a - stay, b - stay
        rows, cols = da != 0.0, db != 0.0
        sa, sb = da.sum(axis=1), db.sum(axis=1)  # zero off the excesses
        lp = rows.any(axis=1) & cols.any(axis=1) & ~equal
        rows, cols = rows & lp[:, None], cols & lp[:, None]
        m, q = rows.sum(axis=1), cols.sum(axis=1)
        src, dst = _pieces(da[rows] / np.repeat(sa, m), m), _pieces(db[cols] / np.repeat(sb, q), q)
        sub = _pieces(cost[rows[:, :, None] & cols[:, None, :]], m * q)
        lps.update((where[k], (sub[k].reshape(m[k], q[k]), src[k], dst[k])) for k in np.flatnonzero(lp))
        groups.append((where, cost, mu1, mu2, swapped, a, b, equal, stay, rows, cols, sa, sb, lp))
    solved = dict(zip(lps, _solve(list(lps.values()))))
    for where, cost, mu1, mu2, swapped, a, b, equal, stay, rows, cols, sa, sb, lp in groups:
        K, n = a.shape
        block = rows[:, :, None] & cols[:, None, :]
        balanced = np.abs(sa - sb) <= 1e-13  # the masses differ as their excesses do
        plan = np.zeros((K, n, n))
        plan[:, np.arange(n), np.arange(n)] = np.where((lp | balanced)[:, None], stay, 0.5 * (a + b))
        got = [(np.empty(0), np.empty(0))] + [solved[where[k]] for k in np.flatnonzero(lp)]
        scale = np.repeat(0.5 * (sa + sb), block.sum(axis=(1, 2)))
        plan[block] += scale * np.concatenate([x for x, _ in got], axis=None)
        beta = np.where(lp[:, None], -np.inf, np.zeros((K, n)))
        beta[cols] = np.concatenate([duals for _, duals in got])
        plan[plan < 0.0] = 0.0
        ma, mb = a.sum(axis=1), b.sum(axis=1)
        ta, tb = (x * np.where(balanced, 1.0, 0.5 * (ma + mb) / mx)[:, None]
                  for x, mx in ((a, ma), (b, mb)))
        for k in np.flatnonzero(lp & ~(_marginal_residuals(plan, ta, tb) <= 1e-13)):
            plan[k] = _fit_marginals(plan[k], ta[k], tb[k])
        value = np.where(equal, 0.0, (plan * cost).reshape(K, -1).sum(axis=1))
        yield _Plans(where, cost, mu1, mu2, swapped, a, b, equal, balanced, plan, beta, value)


def _certified(cls, **fields):
    """A ``cls`` holding ``fields``, made without the constructor's checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _w1_results(pairs: Sequence) -> list:
    """The :class:`W1Result` of ``w1_distance(*pair)`` for each pair of
    ``pairs``, each ``_Plans`` stack passing the checks of :class:`Coupling`
    (unit mass, failed by a non-finite plan), :meth:`Coupling.check_marginals`
    and :meth:`TransportCertificate.validate`, with their tolerances, as
    array operations; the centring of unbalanced potentials and the duality
    gaps take each row's dot product by ``_dots``, bit for bit as one pair
    alone. The potential is the c-transform of the LP's column
    duals over its columns (-inf elsewhere): a min of 1-Lipschitz functions
    (triangle inequality) whose dual value dominates the reduced LP's dual
    optimum, as ``a - b`` is the difference of the two excesses.
    """
    results = [None] * len(pairs)
    for g in _plans(pairs):
        f = (g.cost - g.beta[:, None, :]).min(axis=2)
        f[g.equal] = 0.0
        off = ~g.balanced
        if off.any():
            # masses that differ make f @ (a - b) depend on f's free constant:
            # centre f on a + b, so the imbalance adds nothing to first order
            w = g.a[off] + g.b[off]
            f[off] -= (_dots(f[off], w) / w.sum(axis=1))[:, None]
        gap = g.value - _dots(f, g.a - g.b)
        gap[(gap < 0.0) & (gap >= -EXACT_TOL * np.maximum(1.0, g.cost.max(axis=(1, 2))))] = 0.0
        _refuse(gap < 0.0, gap, "negative duality gap {:.3e}")
        f[g.swapped] *= -1.0
        total = g.plan.sum(axis=(1, 2))
        _refuse(~(np.abs(total - 1.0) <= EXACT_TOL), total,
                f"coupling mass must be 1 within {EXACT_TOL:.0e}; got {{!r}}", InputError)
        _validate(f, g.cost, g.value, gap, g.mu1, g.mu2)
        oriented = np.where(g.swapped[:, None, None], g.plan.transpose(0, 2, 1), g.plan)
        res = _marginal_residuals(oriented, g.mu1, g.mu2)
        _refuse(~(res <= EXACT_TOL), res, "coupling marginals off by {:.3e}")
        oriented.setflags(write=False)
        f.setflags(write=False)
        for i, q, fk, value, gk in zip(g.where, oriented, f, g.value.tolist(), gap.tolist()):
            cert = _certified(TransportCertificate, primal_value=value, dual_potential=fk, gap=gk)
            results[i] = W1Result(value, _certified(Coupling, matrix=q), cert)
    return results


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[k] @ y[k]`` for each row k of two (K, n) stacks, bit for bit: the
    stacked matmul runs the same vector-vector loop once per row."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _prefetch_w1(pairs: Sequence) -> None:
    """Compute ahead, in the current :func:`solve_once` scope, the result of
    ``w1_distance(space, mu1, mu2)`` for each ``(space, mu1, mu2)`` of
    ``pairs`` as one ``_w1_results`` batch, and hand each to the one call
    with those three objects. Any other call (a pair asked twice, or equal
    measures in other objects) computes its result again, as a batch of
    one, and finds its LP in the scope's memo.

    Only callers whose every value must pass through a ``w1_distance`` call
    take this hand-off: the flow distance's cost matrices and top-measure
    certificate (``correspondence``) and the CLI's dW1 curve, the call sites
    whose ``w1_distance`` calls the benchmark counts. Every other batch
    reads ``_w1_results`` directly.
    """
    handed = _HANDED.get()
    if handed is None:
        raise InternalInvariantError("_prefetch_w1 needs an open solve_once() scope")
    handed.update(zip(map(tuple, pairs), _w1_results(pairs)))


def w1_distance(space: FiniteMetricSpace, mu1: ProbMeasure, mu2: ProbMeasure) -> W1Result:
    """First Wasserstein distance between two measures on one finite space.

    Returns ``(value, coupling, certificate)``. The coupling attains the
    value; the certificate carries a 1-Lipschitz potential whose dual value
    matches the primal up to a gap in [0, 1e-8·max(1, largest distance)]; a
    gap down to -1e-12·max(1, largest distance) is float noise, certified as
    0. So rescaling the metric by λ scales the value by λ, still certified.

    Symmetry is exact: the argument pair is canonically oriented internally
    (byte order of the weight vectors), so swapping the measures returns
    bit-identical values. Bit-equal measures give value 0 with the
    diagonal coupling.

    Only the excess mass moves: the mass the two measures share stays in
    place, and the LP runs between the supports of the excesses (see
    ``_plans``). That is optimal when ``space.dist`` satisfies the
    triangle inequality, which :class:`FiniteMetricSpace` does not check.
    On a space that breaks it the result is either the value of the full
    transport LP, certified as always, or a :class:`CertificateError`
    (the shared-mass plan is then not optimal, and no 1-Lipschitz
    potential closes its gap).
    """
    handed, key = _HANDED.get() or {}, (space, mu1, mu2)
    return handed.pop(key) if key in handed else _w1_results([key])[0]


def wp_distance(space: FiniteMetricSpace, mu1: ProbMeasure, mu2: ProbMeasure, p: float) -> float:
    """p-th Wasserstein distance, ``inf over couplings of (∬ d^p dq)^{1/p}``.

    Requires p >= 1. For p == 1 this equals ``w1_distance(...).value``
    exactly (the same excess-mass LP and plan, no certificate returned
    here). For p > 1 the shared mass is not kept in place (``d**p`` breaks
    the triangle inequality), and the LP runs over the supports of the two
    measures only. Like W1 it is bit-for-bit symmetric in the two measures.
    """
    if not (isinstance(p, (int, float)) and math.isfinite(p)):
        raise InputError(f"p must be a finite real, got {p!r}")
    if p < 1.0:
        raise InputError(f"wp_distance requires p >= 1, got {p}")
    total = float(next(_plans([(space, mu1, mu2)], p)).value[0])
    return total if p == 1.0 else total ** (1.0 / p)


def _check_measure_space(space: FiniteMetricSpace, mu: ProbMeasure, name: str) -> None:
    if mu.n != space.n:
        raise InputError(f"{name}: measure on {mu.n} points but space has {space.n}")


# ---------------------------------------------------------------------------
# variance functional
# ---------------------------------------------------------------------------


def variance(space: FiniteMetricSpace, mu1: ProbMeasure, mu2: ProbMeasure | None = None) -> float:
    """Joint second moment ``Var(mu1, mu2) = ∬ d(x, y)² dmu1(x) dmu2(y)``.

    With one argument this is Var(mu, mu). Bilinear in (mu1, mu2); satisfies
    d_W1 <= sqrt(Var(mu1, mu2)) <= d_W1 + sqrt(Var(mu1)) + sqrt(Var(mu2)).
    """
    _check_measure_space(space, mu1, "mu1")
    if mu2 is None:
        mu2 = mu1
    else:
        _check_measure_space(space, mu2, "mu2")
    d2 = space.dist * space.dist
    return float(mu1.weights @ d2 @ mu2.weights)


# ---------------------------------------------------------------------------
# gluing couplings
# ---------------------------------------------------------------------------


def glue_couplings(q12: Coupling, q23: Coupling) -> np.ndarray:
    """Glue two couplings along their shared middle marginal.

    Returns the three-index joint mass array
    ``q[i, j, k] = q12[i, j] · q23[j, k] / mid[j]`` (zero where ``mid[j] = 0``),
    whose (1,2)-marginal is q12 and whose (2,3)-marginal is q23 whenever the
    middle marginals agree. Raises :class:`InputError` when the second
    marginal of ``q12`` and the first of ``q23`` differ by more than 1e-10.
    """
    mid_a = q12.marginal_second()
    mid_b = q23.marginal_first()
    if q12.shape[1] != q23.shape[0]:
        raise InputError(
            f"middle dimensions differ: {q12.shape[1]} vs {q23.shape[0]}"
        )
    res = float(np.abs(mid_a - mid_b).max())
    if res > 1e-10:
        raise InputError(f"middle marginals differ by {res:.3e} > 1e-10")
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(mid_a > 0.0, 1.0 / np.where(mid_a > 0.0, mid_a, 1.0), 0.0)
    return q12.matrix[:, :, None] * (q23.matrix * inv[:, None])[None, :, :]


# ---------------------------------------------------------------------------
# mass distribution function and the class M
# ---------------------------------------------------------------------------


def mass_distribution_fn(space: FiniteMetricSpace, mu: ProbMeasure, r: float, eps: float) -> float:
    """Lower mass-distribution value ``b_r(eps)`` at scale r.

    ``b_r(eps) = sup { delta > 0 : mu({x : mu(D(x, eps·r)) < delta}) <= eps }``
    with D a closed ball, capped at 1 (the codomain is (0, 1]; at eps = 1
    every delta qualifies, so the cap binds and b_r(1) = 1).

    On a finite space ``G(delta) = mu({x : B_x < delta})`` is a left-continuous
    step function of delta jumping exactly at the distinct ball masses
    ``B_x = mu(D(x, eps·r))``, so the sup is attained at one of those values
    or at the cap.
    """
    _check_measure_space(space, mu, "mu")
    if not (r > 0.0 and math.isfinite(r)):
        raise InputError(f"r must be positive and finite, got {r}")
    if not (0.0 < eps <= 1.0):
        raise InputError(f"eps must lie in (0, 1], got {eps}")
    ball_mass = (space.dist <= eps * r) @ mu.weights  # B_x, closed balls
    order = np.argsort(ball_mass, kind="stable")
    sorted_mass = ball_mass[order]
    sorted_w = mu.weights[order]
    # distinct ball-mass values v_1 < ... < v_m and c_k = mu({B <= v_k})
    values, starts = np.unique(sorted_mass, return_index=True)
    cums = np.cumsum(sorted_w)
    c = cums[np.append(starts[1:] - 1, len(sorted_w) - 1)]
    # G(delta) <= eps holds on (v_k, v_{k+1}] iff c_k <= eps; scan for the
    # largest admissible right endpoint.
    best = float(values[0])  # (0, v_1] always admissible since G there is 0
    for k in range(len(values)):
        if c[k] <= eps + EXACT_TOL:
            best = float(values[k + 1]) if k + 1 < len(values) else 1.0
        else:
            break
    return min(best, 1.0)


@dataclass(frozen=True)
class BFunction:
    """A sampled lower-bound profile b on (0, 1].

    Stored as samples on an increasing eps-grid with the piecewise-constant
    right-continuous extension: b(eps) = values[i] for eps in
    [eps_grid[i], eps_grid[i+1]), constant beyond the ends.
    """

    eps_grid: tuple
    values: tuple

    def __post_init__(self):
        e = _as_vector(np.asarray(self.eps_grid, dtype=float), "eps_grid")
        v = _as_vector(np.asarray(self.values, dtype=float), "values")
        if e.size == 0 or e.size != v.size:
            raise InputError("eps_grid and values must be equal-length and nonempty")
        if np.any(np.diff(e) <= 0.0):
            raise InputError("eps_grid must be strictly increasing")
        if e[0] <= 0.0 or e[-1] > 1.0:
            raise InputError("eps_grid must lie in (0, 1]")
        if np.any(v <= 0.0) or np.any(v > 1.0):
            raise InputError("values must lie in (0, 1]")
        object.__setattr__(self, "eps_grid", tuple(float(x) for x in e))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    def __call__(self, eps: float) -> float:
        if not (0.0 < eps <= 1.0):
            raise InputError(f"eps must lie in (0, 1], got {eps}")
        grid = np.asarray(self.eps_grid)
        i = int(np.searchsorted(grid, eps, side="right")) - 1
        return self.values[max(0, i)]

    @staticmethod
    def constant(value: float) -> "BFunction":
        return BFunction((1.0,), (value,))


@dataclass(frozen=True)
class MClassReport:
    """Outcome of an M-class membership test.

    ``ok`` iff the (support-restricted) measure has Var <= V·r² and its mass
    distribution dominates b at every sampled eps. ``restricted`` records
    whether zero-mass points had to be dropped to obtain full support.
    """

    ok: bool
    var_value: float
    var_bound: float
    b_failures: tuple
    restricted: bool
    support_indices: tuple


def in_class_M(
    space: FiniteMetricSpace, mu: ProbMeasure, r: float, V: float, b: BFunction
) -> MClassReport:
    """Test membership of (space, mu) in the class of (V, b)-controlled spaces
    at scale r: full support, Var(mu) <= V·r², and b_r >= b.

    Domination ``b_r >= b`` is evaluated at each sampled eps of ``b`` through
    the equivalent finite criterion
    ``mu({x : mu(D(x, eps·r)) < b(eps)}) <= eps``, which avoids computing
    b_r where it is flat. If ``mu`` lacks full support the test is performed
    on the support restriction and reported as such.
    """
    _check_measure_space(space, mu, "mu")
    if not (r > 0.0 and math.isfinite(r)):
        raise InputError(f"r must be positive and finite, got {r}")
    if not (V >= 0.0 and math.isfinite(V)):
        raise InputError(f"V must be nonnegative and finite, got {V}")
    supp = mu.support()
    restricted = supp.size < space.n
    if restricted:
        space_r = space.subspace(supp)
        mu_r = ProbMeasure(mu.weights[supp])
    else:
        space_r, mu_r = space, mu
    var_value = variance(space_r, mu_r)
    var_bound = V * r * r
    failures = []
    for eps in b.eps_grid:
        need = b(eps)
        ball_mass = (space_r.dist <= eps * r) @ mu_r.weights
        low = float(mu_r.weights[ball_mass < need].sum())
        if low > eps:
            failures.append((float(eps), float(need), low))
    ok = (var_value <= var_bound) and not failures
    return MClassReport(
        ok=ok,
        var_value=var_value,
        var_bound=var_bound,
        b_failures=tuple(failures),
        restricted=restricted,
        support_indices=tuple(int(i) for i in supp),
    )


# ---------------------------------------------------------------------------
# finite approximation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteApproximation:
    """Result of :func:`finite_approximation`.

    ``measure`` lives on the original space (zeros off ``subset_indices``),
    with weights that are integer multiples of 1/N; ``bound`` is the
    LP-certified transport distance d_W1(mu, measure), guaranteed <= alpha·r.
    """

    subset_indices: tuple
    measure: ProbMeasure
    bound: float
    eps: float
    N: int
    anchor_index: int


def finite_approximation(
    space: FiniteMetricSpace,
    mu: ProbMeasure,
    r: float,
    alpha: float,
    V: float,
    b: BFunction,
) -> FiniteApproximation:
    """Replace mu by a measure on few points, with a certified error <= alpha·r.

    Requires (space, mu) to lie in the (V, b)-class at scale r (checked;
    :class:`InputError` otherwise). The construction follows the covering
    argument behind that class:

    1. rescale distances by 1/r, pick the largest eps <= 1 with
       sqrt(eps·V) + 3·eps <= alpha/2 (bisection);
    2. greedily select points with ball mass mu(D(x, eps)) >= b(eps), in
       descending ball-mass order (ties by index), keeping closed eps-balls
       pairwise disjoint — the selection is maximal, with at most 1/b(eps)
       points;
    3. add an anchor x0 minimizing Var(delta_x, mu); partition the 3·eps
       neighborhoods of the selected points, dump the uncovered remainder
       (mass <= eps) onto the anchor;
    4. round the resulting weights to multiples of 1/N by largest remainder,
       where N is the smallest power of two with
       (b(eps)^{-2} V + 2 eps)/N <= alpha/2, raised if needed so that
       N >= #X' and N >= diameter(X')/r;
    5. certify d_W1(mu, mu') by an exact transport solve on the original
       space.
    """
    report = in_class_M(space, mu, r, V, b)
    if not report.ok:
        raise InputError(
            "finite_approximation requires class membership: "
            f"Var {report.var_value:.6g} vs bound {report.var_bound:.6g}, "
            f"{len(report.b_failures)} mass-distribution failures"
        )
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise InputError(f"alpha must be positive and finite, got {alpha}")

    supp = np.asarray(report.support_indices, dtype=int)
    d = space.dist[np.ix_(supp, supp)] / r  # dimensionless working copy
    w = mu.weights[supp]
    n = supp.size

    # -- step 1: eps by bisection on sqrt(eps V) + 3 eps <= alpha/2
    target = alpha / 2.0

    def margin(e: float) -> float:
        return math.sqrt(e * V) + 3.0 * e - target

    if margin(1.0) <= 0.0:
        eps = 1.0
    else:
        lo, hi = 0.0, 1.0  # margin(lo) < 0 <= margin(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if margin(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        eps = lo
    if eps <= 0.0:
        raise InputError(f"alpha={alpha} too small to admit any eps > 0")

    b_eps = b(eps)

    # -- step 2: greedy maximal disjoint closed eps-balls with mass >= b(eps)
    balls = d <= eps
    ball_mass = balls @ w
    order = sorted(range(n), key=lambda i: (-ball_mass[i], i))
    chosen: list[int] = []
    blocked = np.zeros(n, dtype=bool)  # points covered by an accepted ball
    for i in order:
        if ball_mass[i] < b_eps:
            break  # descending order: nothing later qualifies
        if not np.any(balls[i] & blocked):
            chosen.append(i)
            blocked |= balls[i]

    # -- step 3: anchor and partition of the 3-eps neighborhoods
    second_moment = (d * d) @ w  # Var(delta_x, mu) per point
    anchor = int(np.argmin(second_moment))
    wide = d <= 3.0 * eps
    masses = []
    taken = np.zeros(n, dtype=bool)
    for i in chosen:
        cell = wide[i] & ~taken
        masses.append(float(w[cell].sum()))
        taken |= wide[i]
    leftover = float(w[~taken].sum())

    # atoms: anchor carries the uncovered remainder
    atom_local = [anchor] + chosen
    atom_mass = np.array([leftover] + masses, dtype=float)
    # merge duplicates (the anchor may coincide with a selected point)
    uniq: dict[int, float] = {}
    for i, m in zip(atom_local, atom_mass):
        uniq[i] = uniq.get(i, 0.0) + m
    atom_local = list(uniq.keys())
    atom_mass = np.array(list(uniq.values()), dtype=float)

    # -- step 4: N and largest-remainder rounding to multiples of 1/N
    rounding_need = (b_eps ** (-2) * V + 2.0 * eps) / target
    N = 1
    while N < rounding_need:
        N *= 2
    sub_diam = float(d[np.ix_(atom_local, atom_local)].max(initial=0.0))
    while N < len(atom_local) or N < sub_diam:
        N *= 2
    scaled = atom_mass * N
    base = np.floor(scaled).astype(int)
    rem = scaled - base
    short = N - int(base.sum())
    if short > 0:
        top = sorted(range(len(rem)), key=lambda i: (-rem[i], i))[:short]
        for i in top:
            base[i] += 1
    weights_sub = base / N

    out = np.zeros(space.n)
    subset = supp[np.asarray(atom_local, dtype=int)]
    out[subset] = weights_sub
    mu_prime = ProbMeasure(out)

    bound = w1_distance(space, mu, mu_prime).value
    if bound > alpha * r + EXACT_TOL * max(1.0, alpha * r):
        raise InternalInvariantError(
            f"approximation bound {bound!r} exceeds guaranteed {alpha * r!r}"
        )
    return FiniteApproximation(
        subset_indices=tuple(int(i) for i in subset),
        measure=mu_prime,
        bound=bound,
        eps=float(eps),
        N=int(N),
        anchor_index=int(supp[anchor]),
    )


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def product_space(s1: FiniteMetricSpace, s2: FiniteMetricSpace) -> FiniteMetricSpace:
    """l²-product: points are pairs, d((x1,x2),(y1,y2))² = d1(x1,y1)² + d2(x2,y2)².

    Point order is row-major in (index1, index2); labels are rendered as
    ``"(a,b)"`` strings so products remain serializable.
    """
    d1, d2 = s1.dist, s2.dist
    block = np.sqrt(
        (d1 * d1)[:, None, :, None] + (d2 * d2)[None, :, None, :]
    ).reshape(s1.n * s2.n, s1.n * s2.n)
    labels = tuple(f"({a},{b})" for a in s1.labels for b in s2.labels)
    return FiniteMetricSpace(labels=labels, dist=block)
