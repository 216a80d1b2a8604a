"""Exact transport layer: metric spaces, measures, couplings, W1 with dual
certificates, variance identities, mass-distribution functions, and the
finite-approximation lemma."""

import concurrent.futures
import math
import sys
import threading
import types

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import metricflow as mf
from metricflow import (
    BFunction,
    CertificateError,
    Coupling,
    FiniteMetricSpace,
    InputError,
    ProbMeasure,
)
from metricflow import ot_core
from metricflow.ot_core import _coupling_columns, _transport_lp, linprog

from conftest import euclidean_space, random_measure, random_space, two_point_space


# ---------------------------------------------------------------------------
# metric spaces
# ---------------------------------------------------------------------------


def test_metric_axioms_pass_on_point_cloud():
    space = random_space(np.random.default_rng(0), 12)
    rep = mf.check_metric_axioms(space)
    assert rep.ok
    assert rep.violations == ()


def test_metric_axioms_detect_asymmetry():
    # the constructor checks structure only; the audit finds the asymmetry
    space = FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, 1.0], [2.0, 0.0]]))
    rep = mf.check_metric_axioms(space)
    assert not rep.ok
    assert any(v.kind == "symmetry" for v in rep.violations)


def test_metric_axioms_detect_triangle_violation():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    space = FiniteMetricSpace(labels=("a", "b", "c"), dist=d)
    rep = mf.check_metric_axioms(space)
    assert not rep.ok
    assert any(v.kind == "triangle" for v in rep.violations)


def test_zero_offdiagonal_needs_relaxed_positivity():
    space = FiniteMetricSpace(labels=("a", "b"), dist=np.zeros((2, 2)))
    assert not mf.check_metric_axioms(space).ok
    assert mf.check_metric_axioms(space, require_positive=False).ok


def _all_axiom_violations(d: np.ndarray, require_positive: bool) -> list:
    """Every violation, listed the plain way: symmetry and positivity over
    i < j, the diagonal, then the triangle over (i, k) with the first j
    attaining min_j d[i,j] + d[j,k], each in row-major order."""
    n, tol = d.shape[0], 1e-12
    found = [("symmetry", (i, j), abs(d[i, j] - d[j, i]))
             for i in range(n) for j in range(i + 1, n) if abs(d[i, j] - d[j, i]) > tol]
    found += [("diagonal", (i,), abs(d[i, i])) for i in range(n) if abs(d[i, i]) > tol]
    if require_positive:
        found += [("positivity", (i, j), -d[i, j])
                  for i in range(n) for j in range(i + 1, n) if d[i, j] <= 0.0]
    tri_tol = tol * max(1.0, float(d.max()))
    for i in range(n):
        through = d[i][:, None] + d  # [j, k] -> d[i,j] + d[j,k]
        best, arg = through.min(axis=0), through.argmin(axis=0)
        found += [("triangle", (i, int(arg[k]), k), d[i, k] - best[k])
                  for k in range(n) if d[i, k] > best[k] + tri_tol]
    return found


@pytest.mark.parametrize("seed", range(6))
def test_metric_axioms_report_the_first_worst_violation_per_axiom(seed):
    """On random integer-valued spaces (many ties, every axiom broken, more
    than 256 violations), the audit holds, per failed axiom in the order
    symmetry, diagonal, positivity, triangle, the first largest violation
    of the full list. n = 130 spans two row chunks of the triangle check."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 5, 17, 130):
        d = rng.integers(0, 4, (n, n)).astype(float)
        if seed % 2:
            d = np.maximum(d, d.T)  # symmetric: only some axioms fail
        for require_positive in (True, False):
            found = _all_axiom_violations(d, require_positive)
            expected = []
            for kind in ("symmetry", "diagonal", "positivity", "triangle"):
                of_kind = [v for v in found if v[0] == kind]
                if of_kind:
                    expected.append(max(of_kind, key=lambda v: v[2]))
            rep = mf.check_metric_axioms(FiniteMetricSpace(tuple(range(n)), d),
                                         require_positive=require_positive)
            assert [(v.kind, v.indices, v.magnitude) for v in rep.violations] == expected
            assert rep.ok == (found == [])
            if n == 130:
                assert len(found) > 256


def test_metric_axioms_worst_triangle_past_256_violations():
    """2 546 triangle violations: the worst is found wherever it lies."""
    u = np.random.default_rng(1).uniform(size=(60, 60))
    d = u + u.T
    np.fill_diagonal(d, 0.0)
    worst = mf.check_metric_axioms(FiniteMetricSpace(tuple(range(60)), d)).worst()
    assert (worst.kind, worst.indices) == ("triangle", (45, 52, 58))
    assert worst.magnitude == pytest.approx(1.5196, abs=1e-4)
    assert len(_all_axiom_violations(d, True)) == 2546


def test_subspace_and_scaling():
    space = euclidean_space(np.array([0.0, 1.0, 3.0]))
    sub = space.subspace([0, 2])
    assert sub.n == 2
    assert sub.dist[0, 1] == 3.0
    assert space.scaled(2.0).diameter == pytest.approx(6.0, abs=0)
    assert space.index_of("p1") == 1
    with pytest.raises(InputError):
        space.index_of("nope")


# ---------------------------------------------------------------------------
# measures and couplings
# ---------------------------------------------------------------------------


def test_measure_must_be_probability():
    with pytest.raises(InputError):
        ProbMeasure(np.array([0.5, 0.4]))
    with pytest.raises(InputError):
        ProbMeasure(np.array([1.5, -0.5]))
    mu = ProbMeasure.delta(1, 3)
    assert mu.weights.tolist() == [0.0, 1.0, 0.0]
    assert ProbMeasure.uniform(4).weights.tolist() == [0.25] * 4
    assert ProbMeasure(np.array([0.0, 1.0])).support().tolist() == [1]


def test_coupling_marginals():
    rng = np.random.default_rng(3)
    q = rng.dirichlet(np.ones(12)).reshape(3, 4)
    c = Coupling(q)
    a, b = c.marginal_first(), c.marginal_second()
    assert np.allclose(a, q.sum(axis=1), atol=1e-15)
    assert np.allclose(b, q.sum(axis=0), atol=1e-15)
    ok, resid = c.check_marginals(ProbMeasure(a), ProbMeasure(b))
    assert ok and resid <= 1e-12
    with pytest.raises(InputError):
        c.check_marginals(ProbMeasure(b), ProbMeasure(a))  # shapes 4 vs 3
    with pytest.raises(InputError):
        Coupling(q * 0.5)  # total mass 1/2


def test_diagonal_and_independent_couplings():
    mu = ProbMeasure(np.array([0.25, 0.75]))
    nu = ProbMeasure(np.array([0.5, 0.5]))
    diag = Coupling.diagonal(mu)
    assert np.array_equal(diag.matrix, np.diag(mu.weights))
    ind = Coupling.independent(mu, nu)
    assert np.array_equal(ind.matrix, np.outer(mu.weights, nu.weights))


def test_glue_couplings_marginal_identities():
    rng = np.random.default_rng(7)
    mu1 = random_measure(rng, 4)
    mu2 = ProbMeasure(rng.dirichlet(np.ones(4)))
    mu3 = random_measure(rng, 5)
    sp12 = mf.w1_distance(random_space(rng, 4), mu1, mu2).coupling
    # manual coupling mu2 -> mu3 via independence
    q23 = Coupling.independent(mu2, mu3)
    q123 = mf.glue_couplings(sp12, q23)
    assert q123.shape == (4, 4, 5)
    assert np.abs(q123.sum(axis=(1, 2)) - mu1.weights).max() <= 1e-12
    assert np.abs(q123.sum(axis=(0, 1)) - mu3.weights).max() <= 1e-12
    assert np.abs(q123.sum(axis=2) - sp12.matrix).max() <= 1e-12
    assert np.abs(q123.sum(axis=0) - q23.matrix).max() <= 1e-12
    # the (1,3)-marginal is itself a valid coupling
    ok, _ = Coupling(q123.sum(axis=1)).check_marginals(mu1, mu3)
    assert ok


def test_glue_couplings_rejects_mismatched_middle():
    mu1 = ProbMeasure(np.array([0.5, 0.5]))
    mu2 = ProbMeasure(np.array([0.25, 0.75]))
    q12 = Coupling.independent(mu1, mu1)
    q23 = Coupling.independent(mu2, mu1)
    with pytest.raises(InputError):
        mf.glue_couplings(q12, q23)


# ---------------------------------------------------------------------------
# W1 exactness
# ---------------------------------------------------------------------------


def test_w1_two_point_closed_form():
    space = two_point_space(d=2.5)
    for a, b in ((0.5, 0.5), (0.2, 0.9), (1.0, 0.0), (0.37, 0.61)):
        mu = ProbMeasure(np.array([a, 1 - a]))
        nu = ProbMeasure(np.array([b, 1 - b]))
        res = mf.w1_distance(space, mu, nu)
        assert res.value == pytest.approx(abs(a - b) * 2.5, abs=1e-13)
        res.certificate.validate(space, mu, nu)


def test_w1_identical_measures_is_exact_zero():
    rng = np.random.default_rng(11)
    space = random_space(rng, 9)
    mu = random_measure(rng, 9)
    res = mf.w1_distance(space, mu, ProbMeasure(mu.weights.copy()))
    assert res.value == 0.0
    assert np.array_equal(res.coupling.matrix, np.diag(mu.weights))


def test_w1_line_matches_cdf_formula():
    """On a 1-D euclidean space, W1 equals the L1 distance between CDFs:
    sum over consecutive gaps of gap * |F1 - F2|. Independent oracle."""
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        pts = np.sort(rng.normal(size=n) * 3)
        space = euclidean_space(pts)
        mu, nu = random_measure(rng, n), random_measure(rng, n, sparse=True)
        gaps = np.diff(pts)
        cdf_gap = np.abs(np.cumsum(mu.weights - nu.weights)[:-1])
        oracle = float((gaps * cdf_gap).sum())
        res = mf.w1_distance(space, mu, nu)
        assert res.value == pytest.approx(oracle, abs=1e-9, rel=1e-9)


def test_w1_symmetry_is_bit_exact():
    rng = np.random.default_rng(5)
    space = random_space(rng, 7)
    mu, nu = random_measure(rng, 7), random_measure(rng, 7)
    assert mf.w1_distance(space, mu, nu).value == mf.w1_distance(space, nu, mu).value


def test_w1_certificate_gap_is_certified():
    rng = np.random.default_rng(19)
    space = random_space(rng, 20)
    mu, nu = random_measure(rng, 20), random_measure(rng, 20)
    res = mf.w1_distance(space, mu, nu)
    cert = res.certificate
    assert 0.0 <= cert.gap <= 1e-8 * max(1.0, cert.primal_value)
    # potential is 1-Lipschitz
    lip = np.abs(cert.dual_potential[:, None] - cert.dual_potential[None, :]) - space.dist
    assert lip.max() <= 1e-12 * max(1.0, space.diameter)


def test_certificate_validate_rejects_tampering():
    space = two_point_space()
    mu = ProbMeasure(np.array([1.0, 0.0]))
    nu = ProbMeasure(np.array([0.0, 1.0]))
    res = mf.w1_distance(space, mu, nu)
    bad = mf.TransportCertificate(
        primal_value=res.certificate.primal_value,
        dual_potential=np.array([5.0, 0.0]),  # 5-Lipschitz
        gap=res.certificate.gap,
    )
    with pytest.raises(CertificateError):
        bad.validate(space, mu, nu)


_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "presolve": False,
}


def _scipy_linprog(c, a_ub, a_eq, b_eq):
    """The public route: ``scipy.optimize.linprog(method="highs")``.
    Returns ``(x, ineq duals, eq duals)``."""
    n_ub = 0 if a_ub is None else a_ub.shape[0]
    res = scipy.optimize.linprog(
        c,
        A_ub=a_ub,
        b_ub=None if a_ub is None else np.zeros(n_ub),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options=_LP_OPTIONS,
    )
    assert res.success, res.message
    ineq = np.zeros(0) if a_ub is None else res.ineqlin.marginals
    return res.x, ineq, res.eqlin.marginals


def _transport_case(rng, n: int, ties: bool, zeros: bool):
    cost = rng.uniform(0.0, 2.0, (n, n))
    if ties:
        cost = np.round(cost * 2.0) / 2.0
    a, b = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    if zeros:
        a[: n // 2] = 0.0
        b[n // 3 :: 2] = 0.0
    return cost, a / a.sum(), b / b.sum()


@pytest.mark.parametrize("n", [2, 3, 4, 8, 24])
def test_transport_lp_is_bit_identical_to_scipy_linprog(n):
    """The direct HiGHS route returns linprog's vertex and duals bit for
    bit, on tied costs and on marginals with zero entries too."""
    rng = np.random.default_rng(1000 + n)
    a_eq = sp.vstack(
        [sp.kron(sp.eye(n), np.ones((1, n))), sp.kron(np.ones((1, n)), sp.eye(n))], format="csr"
    )
    for ties in (False, True):
        for zeros in (False, True):
            for _ in range(4):
                cost, a, b = _transport_case(rng, n, ties, zeros)
                plan, alpha, beta = _transport_lp(cost, a, b)
                x, _, duals = _scipy_linprog(cost.ravel(), None, a_eq, np.concatenate([a, b]))
                assert np.array_equal(plan.ravel(), x)
                assert np.array_equal(np.concatenate([alpha, beta]), duals)


def test_minmax_lp_is_bit_identical_to_scipy_linprog():
    """A min-max coupling LP (minimise z with <c_s, q> <= z for three cost
    rows, q a coupling) through the package helper and through linprog."""
    rng = np.random.default_rng(7)
    n1, n2, n_ub = 3, 4, 3
    nq = n1 * n2
    a_eq = np.zeros((n1 + n2, nq + 1))
    for i in range(n1):
        a_eq[i, i * n2 : (i + 1) * n2] = 1.0
    for j in range(n2):
        a_eq[n1 + j, j:nq:n2] = 1.0
    b_eq = np.concatenate([rng.dirichlet(np.ones(n1)), rng.dirichlet(np.ones(n2))])
    a_ub = np.zeros((n_ub, nq + 1))
    a_ub[:, :nq] = np.round(rng.uniform(0.0, 1.0, (n_ub, nq)) * 4.0) / 4.0
    a_ub[:, nq] = -1.0
    c = np.zeros(nq + 1)
    c[nq] = 1.0
    x, ineq, eq = _scipy_linprog(c, a_ub, a_eq, b_eq)
    a = sp.csc_array(np.vstack((a_ub, a_eq)))
    res = linprog(
        c,
        a.indptr,
        a.indices,
        a.data,
        np.concatenate([np.full(n_ub, -np.inf), b_eq]),
        np.concatenate([np.zeros(n_ub), b_eq]),
    )
    assert np.array_equal(res.x, x)
    assert np.array_equal(res.row_dual, np.concatenate([ineq, eq]))


def _dense_coupling_columns(n1, n2, rows):
    """The coupling columns as the min-max LP once built them: a dense
    ``[rows; marginals]`` matrix scanned for nonzeros in CSC order."""
    nq = n1 * n2
    a_eq = np.zeros((n1 + n2, nq))
    for i in range(n1):
        a_eq[i, i * n2 : (i + 1) * n2] = 1.0
    for j in range(n2):
        a_eq[n1 + j, j:nq:n2] = 1.0
    a = np.vstack((rows, a_eq))
    cols, rws = np.nonzero(a.T)
    indptr = np.zeros(nq + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(a, axis=0), out=indptr[1:])
    return indptr, rws.astype(np.int32), a[rws, cols]


def _marginal_columns(n1, n2):
    """The transport LP's marginal block as it was once built directly."""
    indices = np.empty((n1, n2, 2), dtype=np.int32)
    indices[:, :, 0] = np.arange(n1, dtype=np.int32)[:, None]
    indices[:, :, 1] = n1 + np.arange(n2, dtype=np.int32)
    return (np.arange(0, 2 * n1 * n2 + 1, 2, dtype=np.int32), indices.ravel(),
            np.ones(2 * n1 * n2))


def test_coupling_columns_match_dense_and_marginal_layouts():
    rng = np.random.default_rng(11)
    for _ in range(400):
        n1, n2, m = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(0, 5))
        rows = rng.uniform(0.0, 3.0, (m, n1 * n2))
        rows[rng.random(rows.shape) < 0.3] = 0.0
        got = _coupling_columns(n1, n2, rows)
        refs = [_dense_coupling_columns(n1, n2, rows)]
        if m == 0:
            refs.append(_marginal_columns(n1, n2))
        for ref in refs:
            for x, y in zip(got, ref):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def test_transport_lp_refuses_unequal_masses():
    with pytest.raises(CertificateError, match="transport LP failed: model status is Infeasible"):
        _transport_lp(np.ones((2, 2)), np.array([0.5, 0.5]), np.array([0.5, 0.6]))


def _minmax_case(rng, n1, n2, m=3):
    """A min-max coupling LP laid out as ``solve_time`` lays it out:
    minimise r with <c_s, q> - r <= 0 for m tied cost rows, q a coupling."""
    nq = n1 * n2
    indptr, indices, data = _coupling_columns(
        n1, n2, np.round(rng.uniform(0.0, 1.0, (m, nq)) * 4.0) / 4.0
    )
    ab = np.concatenate([rng.dirichlet(np.ones(n1)), rng.dirichlet(np.ones(n2))])
    c = np.zeros(nq + 1)
    c[nq] = 1.0
    return (
        c,
        np.append(indptr, indptr[-1] + m),
        np.concatenate([indices, np.arange(m, dtype=np.int32)]),
        np.concatenate([data, np.full(m, -1.0)]),
        np.concatenate([np.full(m, -np.inf), ab]),
        np.concatenate([np.zeros(m), ab]),
    )


def _solver_cases(seed):
    """LPs as ``linprog`` arguments: transport LPs with and without tied
    costs and zero marginals, then an infeasible transport LP (unequal
    masses) and right after it a min-max LP, for each size."""
    rng = np.random.default_rng(seed)
    lps = []
    for n in (2, 3, 5, 8):
        columns = _coupling_columns(n, n, np.empty((0, n * n)))
        for ties in (False, True):
            for zeros in (False, True):
                cost, a, b = _transport_case(rng, n, ties, zeros)
                ab = np.concatenate([a, b])
                lps.append((cost.ravel(), *columns, ab, ab))
        unequal = np.concatenate([a, 1.1 * b])
        lps.append((cost.ravel(), *columns, unequal, unequal))
        lps.append(_minmax_case(rng, n, n + 1))
    return lps


def _same_solution(got, ref):
    return (
        got.message == ref.message
        and (got.x is None) == (ref.x is None)
        and (ref.x is None or np.array_equal(got.x, ref.x))
        and (ref.row_dual is None or np.array_equal(got.row_dual, ref.row_dual))
    )


def test_reused_highs_instance_solves_as_a_fresh_one(monkeypatch):
    """Every LP solved in sequence on this thread's one instance (an
    infeasible LP just before each min-max LP) returns the vertex and duals a
    fresh instance with the same options returns, bit for bit."""
    lps = _solver_cases(21)
    _, highs = ot_core._highs()
    reused = [linprog(*lp) for lp in lps]
    assert ot_core._highs()[1] is highs
    assert sum(res.x is None for res in reused) == 4
    for lp, got in zip(lps, reused):
        monkeypatch.setattr(ot_core, "_THREAD", threading.local())
        ref = linprog(*lp)
        assert ot_core._highs()[1] is not highs
        assert _same_solution(got, ref)


def test_threads_solve_on_their_own_highs_instances():
    """Threads (more than the cores) solving the same LPs at once each get
    the serial results bit for bit, each on an instance of its own."""
    lps = _solver_cases(22)
    serial = [linprog(*lp) for lp in lps]
    workers = 4
    start = threading.Barrier(workers)

    def work():
        start.wait(timeout=30)
        highs = ot_core._highs()[1]
        results = [linprog(*lp) for _ in range(3) for lp in lps]
        assert ot_core._highs()[1] is highs
        return highs, results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(work) for _ in range(workers)]
            done = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    instances = {id(highs) for highs, _ in done} | {id(ot_core._highs()[1])}
    assert len(instances) == workers + 1
    for _, results in done:
        assert len(results) == 3 * len(lps)
        assert all(_same_solution(got, ref) for got, ref in zip(results, serial * 3))


def test_wp_distance_consistency():
    space = two_point_space(d=2.0)
    mu = ProbMeasure(np.array([0.8, 0.2]))
    nu = ProbMeasure(np.array([0.3, 0.7]))
    w1 = mf.w1_distance(space, mu, nu).value
    assert mf.wp_distance(space, mu, nu, 1.0) == pytest.approx(w1, abs=1e-12)
    # two-point W_p: mass |a-b| moves across distance d
    assert mf.wp_distance(space, mu, nu, 2.0) == pytest.approx(
        2.0 * math.sqrt(0.5), abs=1e-9
    )
    # p-monotonicity (Jensen)
    assert mf.wp_distance(space, mu, nu, 1.0) <= mf.wp_distance(space, mu, nu, 2.0) + 1e-12
    with pytest.raises(InputError):
        mf.wp_distance(space, mu, nu, 0.5)
    # W1 and Wp share one oriented solve: p = 1 is W1 exactly, and Wp is
    # bit-for-bit symmetric
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        space = random_space(rng, n)
        mu, nu = random_measure(rng, n, sparse=True), random_measure(rng, n)
        assert mf.wp_distance(space, mu, nu, 1.0) == mf.w1_distance(space, mu, nu).value
        assert mf.wp_distance(space, mu, nu, 2.0) == mf.wp_distance(space, nu, mu, 2.0)


# ---------------------------------------------------------------------------
# reduced solves: excess mass, supports, solved once
# ---------------------------------------------------------------------------


def _pseudometric_space(rng, n):
    """n points on fewer distinct sites, so distinct points can be at
    distance zero."""
    sites = random_space(rng, max(1, n // 2))
    where = rng.integers(0, sites.n, n)
    return FiniteMetricSpace(tuple(range(n)), sites.dist[np.ix_(where, where)])


def _measure_pairs(rng, n):
    """Zero weights; shared mass; measures on two disjoint blocks, as the
    pushed kernels of a flow distance sit in a glued ambient."""
    yield random_measure(rng, n, sparse=True), random_measure(rng, n, sparse=True)
    mu, other = random_measure(rng, n), random_measure(rng, n, sparse=True)
    yield mu, ProbMeasure(0.7 * mu.weights + 0.3 * other.weights)
    k = n // 2
    left, right = np.zeros(n), np.zeros(n)
    left[:k], right[k:] = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(n - k))
    yield ProbMeasure(left), ProbMeasure(right)


def _full_lp_value(cost, mu, nu):
    plan, _, _ = _transport_lp(cost, mu.weights, nu.weights)
    return float(np.sum(plan * cost))


@pytest.mark.parametrize("space_kind", ["metric", "pseudometric"])
def test_reduced_solve_equals_the_full_lp(space_kind):
    rng = np.random.default_rng(29 if space_kind == "metric" else 31)
    make = random_space if space_kind == "metric" else _pseudometric_space
    for _ in range(12):
        n = int(rng.integers(2, 10))
        space = make(rng, n)
        for mu, nu in _measure_pairs(rng, n):
            res = mf.w1_distance(space, mu, nu)
            full = _full_lp_value(space.dist, mu, nu)
            assert res.value == pytest.approx(full, rel=1e-12, abs=1e-15)
            assert res.value == mf.w1_distance(space, nu, mu).value
            assert mf.wp_distance(space, mu, nu, 1.0) == res.value
            full2 = math.sqrt(_full_lp_value(space.dist**2, mu, nu))
            assert mf.wp_distance(space, mu, nu, 2.0) == pytest.approx(full2, rel=1e-12, abs=1e-15)


def test_excess_on_one_side_only_is_certified():
    """b exceeds a at one point by 1e-13 (ProbMeasure allows 1e-12 on the
    sum): no mass has to move, and no LP or division runs."""
    rng = np.random.default_rng(37)
    for n in (2, 5, 8):
        space = random_space(rng, n)
        a = rng.dirichlet(np.ones(n))
        b = a.copy()
        b[0] += 1e-13
        mu, nu = ProbMeasure(a), ProbMeasure(b)
        for first, second in ((mu, nu), (nu, mu)):
            res = mf.w1_distance(space, first, second)
            assert res.value == 0.0 and res.certificate.gap == 0.0
            res.certificate.validate(space, first, second)
            assert mf.wp_distance(space, first, second, 1.0) == 0.0


@pytest.mark.parametrize("imbalance", [1e-13, 5e-13, 1e-12])
def test_measures_whose_sums_differ_are_certified(imbalance):
    """ProbMeasure admits sums 1e-12 off 1, so two legal measures' masses
    can differ by about 1e-12, beyond the 1e-13 marginal refit: W1 fits
    both to their mean mass, and certifies every such pair. A copy that
    differs at one point only has its excess on one side, and no LP runs."""
    rng = np.random.default_rng(43)
    for kind in ("near-equal", "unrelated", "copy"):
        for _ in range(40):
            n = int(rng.integers(3, 10))
            space = random_space(rng, n)
            a = rng.dirichlet(np.ones(n))
            if kind == "near-equal":
                b = a * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, n))
                b /= b.sum()
            elif kind == "copy":
                b = a.copy()
            else:
                b = rng.dirichlet(np.ones(n))
            i = a.argmax()
            a[i] -= 0.5 * imbalance
            b[i if kind == "copy" else rng.integers(n)] += 0.5 * imbalance
            mu, nu = ProbMeasure(a), ProbMeasure(b)
            res = mf.w1_distance(space, mu, nu)
            assert res.coupling.check_marginals(mu, nu)[0]
            res.certificate.validate(space, mu, nu)
            assert mf.w1_distance(space, nu, mu).value == res.value
            assert mf.wp_distance(space, mu, nu, 1.0) == res.value


def test_near_equal_measures_are_certified_tightly():
    """Measures 1e-10 apart on 24 points: the full LP's 1e-10 feasibility
    slack swamps such a W1 (its certified gap was about half the value);
    the excess-mass LP certifies it to a gap of at most 1e-12 of it."""
    rng = np.random.default_rng(2)
    space = random_space(rng, 24)
    unit = 2.0**-40  # dyadic weights: both sums are exactly 1
    counts = rng.multinomial(2**40 - 24 * 2**20, np.ones(24) / 24) + 2**20
    shift = rng.integers(-200, 201, 24)
    shift[-1] -= shift.sum()
    mu, nu = ProbMeasure(counts * unit), ProbMeasure((counts + shift) * unit)
    res = mf.w1_distance(space, mu, nu)
    assert 0.0 < res.value < 1e-8
    assert res.certificate.gap <= 1e-12 * res.value


def test_w1_on_a_non_metric_cost_is_the_full_lp_or_refused():
    """Keeping shared mass in place needs the triangle inequality, which
    FiniteMetricSpace does not check: on a space that breaks it, W1 is the
    full LP's value or a CertificateError, never another value."""
    rng = np.random.default_rng(41)
    outcomes = {"value": 0, "refused": 0}
    while sum(outcomes.values()) < 100:
        d = np.triu(rng.uniform(0.0, 1.0, (5, 5)), 1)
        space = FiniteMetricSpace(tuple(range(5)), d + d.T)
        if mf.check_metric_axioms(space).ok:
            continue
        mu, nu = random_measure(rng, 5), random_measure(rng, 5)
        try:
            value = mf.w1_distance(space, mu, nu).value
        except CertificateError:
            outcomes["refused"] += 1
            continue
        outcomes["value"] += 1
        assert value == pytest.approx(_full_lp_value(space.dist, mu, nu), rel=1e-12)
    assert outcomes["value"] > 0 and outcomes["refused"] > 0


def test_solve_once_scope(monkeypatch):
    """Inside one scope a repeated W1 solves its LP once; results stay
    independent and read-only; nested scopes share the outer memo; the memo
    is gone after the scope exits, by return or by an exception."""
    solves = []
    real = ot_core.linprog
    monkeypatch.setattr(ot_core, "linprog", lambda *a: solves.append(1) or real(*a))
    rng = np.random.default_rng(43)
    space = random_space(rng, 6)
    mu, nu = random_measure(rng, 6), random_measure(rng, 6)
    with mf.solve_once():
        first = mf.w1_distance(space, mu, nu)
        with mf.solve_once():
            memo = ot_core._SOLVED.get()
            second = mf.w1_distance(space, nu, mu)
        assert ot_core._SOLVED.get() is memo and len(memo) == 1
        assert all(not v.flags.writeable for hit in memo.values() for v in hit)
    assert len(solves) == 1 and first.value == second.value
    assert not first.coupling.matrix.flags.writeable
    assert ot_core._SOLVED.get() is None
    with pytest.raises(InputError):
        with mf.solve_once():
            mf.w1_distance(space, mu, ProbMeasure.uniform(5))
    assert ot_core._SOLVED.get() is None
    mf.w1_distance(space, mu, nu)
    assert len(solves) == 2


def _cycle_space(n: int) -> FiniteMetricSpace:
    """Hop distances on an n-cycle: small integers, so costs tie."""
    hops = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return FiniteMetricSpace(tuple(range(n)), np.minimum(hops, n - hops).astype(float))


def _mixed_w1_pairs(rng) -> list:
    """W1 problems whose reduced LPs differ in shape: tied costs, one-point
    excess sides, near-equal measures, zero weights."""
    pairs = []
    for n in (2, 3, 5, 7):
        for space in (random_space(rng, n), _cycle_space(n)):
            pairs += [(space, mu, nu) for mu, nu in _measure_pairs(rng, n)]
            mu = random_measure(rng, n)
            near = mu.weights.copy()
            near[np.argmax(near)] -= 1e-9
            near[np.argmin(near)] += 1e-9
            pairs.append((space, mu, ProbMeasure(near)))
            pairs.append((space, ProbMeasure.delta(n - 1, n), mu))
    return pairs


def test_block_lp_agrees_with_single_lps():
    """Each member of a block-diagonal LP gets a coupling of its own
    marginals whose cost is the single LP's optimum, on mixed shapes with
    one-point sides, tied costs and zero weights."""
    rng = np.random.default_rng(71)
    problems = []
    for n1, n2 in ((1, 3), (4, 1), (1, 1), (2, 2), (3, 5), (6, 4), (5, 5)):
        for ties in (False, True):
            cost, a, b = _transport_case(rng, max(n1, n2), ties, zeros=False)
            problems.append((cost[:n1, :n2], a[:n1] / a[:n1].sum(), b[:n2] / b[:n2].sum()))
    solved, message = ot_core._transport_block(problems)
    assert message == "optimal" and len(solved) == len(problems)
    for (cost, a, b), (plan, _, _) in zip(problems, solved):
        assert plan.shape == cost.shape and plan.min() >= 0.0
        np.testing.assert_allclose(plan.sum(axis=1), a, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(plan.sum(axis=0), b, rtol=0.0, atol=1e-10)
        single = _transport_lp(cost, a, b)[0]
        assert float(np.sum(plan * cost)) == pytest.approx(
            float(np.sum(single * cost)), rel=1e-12, abs=1e-15
        )


def test_solve_gives_the_same_bits_in_any_request_order():
    """``_solve`` fills its blocks in ``_lp_key`` order, so the LPs of a
    batch asked for in a shuffled order get bit-identical plans and duals;
    the batch spans several blocks, on tied costs and zero weights too."""
    rng = np.random.default_rng(79)
    lps = [_transport_case(rng, n, ties, zeros)
           for n in (3, 5, 8, 12) for ties in (False, True) for zeros in (False, True) for _ in range(3)]
    assert sum(cost.size for cost, _, _ in lps) > 2 * ot_core._BLOCK_COLUMNS
    order = rng.permutation(len(lps))
    first = ot_core._solve(lps)
    shuffled = ot_core._solve([lps[i] for i in order])
    for i, (plan, beta) in zip(order, shuffled):
        assert np.array_equal(plan, first[i][0]) and np.array_equal(beta, first[i][1])


def test_prefetched_w1_agrees_with_single_solves(monkeypatch):
    """W1 answered from prefetched block LPs matches W1 solved one LP at a
    time within 1e-12 relative, and certifies; the prefetch solves the
    distinct reduced LPs in a few blocks, and no W1 after it solves one.
    Each pair is reduced once: the prefetch hands its reduction to the W1
    call with the same objects, and none is left over. A call with a copy
    of a prefetched measure reduces its pair again, to the same result."""
    rng = np.random.default_rng(73)
    pairs = _mixed_w1_pairs(rng)
    single = [mf.w1_distance(*pair) for pair in pairs]
    solves, reduced = [], []
    real, real_plans = ot_core.linprog, ot_core._plans
    monkeypatch.setattr(ot_core, "linprog", lambda *a: solves.append(1) or real(*a))
    monkeypatch.setattr(ot_core, "_plans", lambda batch: reduced.extend(batch) or real_plans(batch))
    with mf.solve_once():
        ot_core._prefetch_w1(pairs)
        n_blocks, n_solved = len(solves), len(ot_core._SOLVED.get())
        blocked = [mf.w1_distance(*pair) for pair in pairs]
        assert len(reduced) == len(pairs) and ot_core._HANDED.get() == {}
        copied = [mf.w1_distance(space, ProbMeasure(mu.weights), nu) for space, mu, nu in pairs]
    assert len(solves) == n_blocks and 1 <= n_blocks < n_solved / 4
    for res, copy in zip(blocked, copied):
        assert copy.value == res.value
        assert np.array_equal(copy.coupling.matrix, res.coupling.matrix)
        assert np.array_equal(copy.certificate.dual_potential, res.certificate.dual_potential)
    for (space, mu, nu), one, res in zip(pairs, single, blocked):
        assert res.value == pytest.approx(one.value, rel=1e-12, abs=1e-15)
        res.certificate.validate(space, mu, nu)
        assert res.coupling.check_marginals(mu, nu)[0]
    with pytest.raises(mf.InternalInvariantError, match="solve_once"):
        ot_core._prefetch_w1(pairs)


def test_batch_refuses_the_first_mis_sized_measure():
    """A batch checks measure sizes per stack, before any LP, and refuses
    the first pair in order whose measure does not fit its space, mu1 before
    mu2, as a single W1 call refuses it."""
    rng = np.random.default_rng(81)
    three, four = random_space(rng, 3), random_space(rng, 4)
    fits, short = random_measure(rng, 3), random_measure(rng, 2)
    pairs = [(three, fits, fits), (four, random_measure(rng, 4), fits), (three, short, fits)]
    for batch, name in ((pairs, "mu2: measure on 3 points but space has 4"),
                        (pairs[::-1], "mu1: measure on 2 points but space has 3")):
        with pytest.raises(InputError, match=name):
            ot_core._w1_results(batch)
        with pytest.raises(InputError, match=name):
            mf.w1_distance(*next(p for p in batch if p[1].n != p[0].n or p[2].n != p[0].n))


def test_failed_block_leaves_its_lps_to_single_solves(monkeypatch):
    """A block LP that fails is solved again one LP at a time, inside the
    prefetch: no W1 after it solves an LP, and every W1 matches the one
    solved with no prefetch bit for bit."""
    rng = np.random.default_rng(79)
    pairs = _mixed_w1_pairs(rng)
    single = [mf.w1_distance(*pair) for pair in pairs]
    refused, solves = [], []
    real = ot_core.linprog

    def failing_blocks(c, indptr, indices, data, lhs, rhs):
        solves.append(1)
        if lhs.sum() > 2.5:  # more than one problem: each carries two unit marginals
            refused.append(1)
            return ot_core.LPSolution(None, None, "forced failure")
        return real(c, indptr, indices, data, lhs, rhs)

    monkeypatch.setattr(ot_core, "linprog", failing_blocks)
    with mf.solve_once():
        ot_core._prefetch_w1(pairs)
        assert refused
        n_solves = len(solves)
        again = [mf.w1_distance(*pair) for pair in pairs]
        assert len(solves) == n_solves
    for one, res in zip(single, again):
        assert res.value == one.value
        assert np.array_equal(res.coupling.matrix, one.coupling.matrix)
        assert np.array_equal(res.certificate.dual_potential, one.certificate.dual_potential)


def _corner_pairs(rng) -> list:
    """``_mixed_w1_pairs`` plus the batch's corner cases, each pair in both
    orientations: sums 1e-12 apart (unbalanced masses), an excess on one
    side only, and bit-equal weights in two objects."""
    pairs = _mixed_w1_pairs(rng)
    for n in (3, 6):
        space = random_space(rng, n)
        a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        a[a.argmax()] -= 5e-13
        b[b.argmax()] += 5e-13
        one_sided = a.copy()
        one_sided[0] += 1e-13
        mu = ProbMeasure(a)
        pairs += [(space, mu, ProbMeasure(b)), (space, mu, ProbMeasure(one_sided)),
                  (space, mu, ProbMeasure(a))]
    return pairs + [(space, nu, mu) for space, mu, nu in pairs]


def _reference_w1(space, mu1, mu2) -> tuple:
    """``(value, coupling, potential, gap)`` of W1 computed one pair at a
    time, with no stacks, as each call did before W1 was certified in
    batches; its LP comes from the ``solve_once`` scope's memo."""
    a, b = mu1.weights, mu2.weights
    if np.array_equal(a, b):
        return 0.0, np.diag(a), np.zeros(a.size), 0.0
    swapped = a.tobytes() > b.tobytes()
    if swapped:
        a, b = b, a
    stay = np.minimum(a, b)
    rows, cols = np.flatnonzero(a - stay), np.flatnonzero(b - stay)
    src, dst = (a - stay)[rows], (b - stay)[cols]
    sa, sb = float(src.sum()), float(dst.sum())
    balanced = abs(sa - sb) <= 1e-13
    if rows.size and cols.size:
        [(x, duals)] = ot_core._solve([(space.dist[np.ix_(rows, cols)], src / sa, dst / sb)])
        plan = np.diag(stay)
        plan[np.ix_(rows, cols)] += (0.5 * (sa + sb)) * x
        beta = np.full(a.size, -np.inf)
        beta[cols] = duals
        ma, mb = float(a.sum()), float(b.sum())
        mean = 0.5 * (ma + mb)
        fit = (a, b) if balanced else (a * (mean / ma), b * (mean / mb))
        plan = ot_core._fit_marginals(plan, *fit)
    else:
        plan, beta = np.diag(stay if balanced else 0.5 * (a + b)), np.zeros(a.size)
    value = float(np.sum(plan * space.dist))
    f = (space.dist - beta[None, :]).min(axis=1)
    if not balanced:
        f = f - float(f @ (a + b)) / float((a + b).sum())
    gap = value - float(f @ (a - b))
    if -1e-12 <= gap < 0.0:
        gap = 0.0
    return value, plan.T if swapped else plan, -f if swapped else f, gap


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_equals_batch_of_one_bit_for_bit(seed):
    """A prefetched W1, the same W1 computed alone as a batch of one
    (another object with the same weights), and the one-pair reference
    computation agree bit for bit in value, coupling, potential and gap,
    all from the same LP solutions in the scope's memo; swapping the
    measures transposes the coupling and negates the potential; and W_p at
    p = 1 is the same value."""
    pairs = _corner_pairs(np.random.default_rng(seed))
    with mf.solve_once():
        ot_core._prefetch_w1(pairs)
        batched = [mf.w1_distance(*pair) for pair in pairs]
        alone = [mf.w1_distance(space, ProbMeasure(mu.weights), nu) for space, mu, nu in pairs]
        reference = [_reference_w1(*pair) for pair in pairs]
        wp = [mf.wp_distance(*pair, 1) for pair in pairs]
    for res, one, (value, coupling, potential, gap), w in zip(batched, alone, reference, wp):
        for r in (res, one):
            assert r.value == value == w and r.certificate.gap == gap
            assert np.array_equal(r.coupling.matrix, coupling)
            assert np.array_equal(r.certificate.dual_potential, potential)
    half = len(pairs) // 2
    for res, swapped in zip(batched[:half], batched[half:]):
        assert res.value == swapped.value
        assert np.array_equal(res.coupling.matrix, swapped.coupling.matrix.T)
        assert np.array_equal(res.certificate.dual_potential, -swapped.certificate.dual_potential)


def test_batch_on_larger_spaces_matches_the_one_pair_reference():
    """On spaces of 9 points and more, a stack's excess masses are row sums
    whose float order is not that of each excess summed alone, so a batch
    may move a W1 at the ulp level: values, couplings and potentials stay
    within 1e-12 relative (of the largest distance) of the one-pair
    reference, and the batch still certifies."""
    rng = np.random.default_rng(85)
    pairs = [(space, mu, nu) for n in (9, 12, 24) for space in (random_space(rng, n),)
             for mu, nu in _measure_pairs(rng, n)]
    with mf.solve_once():
        batch = ot_core._w1_results(pairs)
        for (space, mu, nu), res in zip(pairs, batch):
            value, coupling, potential, _ = _reference_w1(space, mu, nu)
            tol = 1e-12 * max(1.0, space.diameter)
            assert res.value == pytest.approx(value, rel=1e-12, abs=tol)
            assert np.allclose(res.coupling.matrix, coupling, rtol=0.0, atol=1e-12)
            assert np.allclose(res.certificate.dual_potential, potential, rtol=0.0, atol=tol)
            res.certificate.validate(space, mu, nu)


def test_small_stacks_certify_as_one_stack_per_size(monkeypatch):
    """Stacks cut to a few entries (``_STACK_ELEMENTS``) certify every W1
    bit for bit as one stack per space size does, from the same LPs, asked
    for in one ``_solve`` call in the same order."""
    pairs = _corner_pairs(np.random.default_rng(83))
    asked, real = [], ot_core._solve
    monkeypatch.setattr(ot_core, "_solve",
                        lambda lps: asked.append([ot_core._lp_key(*lp) for lp in lps]) or real(lps))
    whole = ot_core._w1_results(pairs)
    monkeypatch.setattr(ot_core, "_STACK_ELEMENTS", 30)
    cut = ot_core._w1_results(pairs)
    assert len(asked) == 2 and asked[0] == asked[1]
    for res, one in zip(whole, cut):
        assert res.value == one.value and res.certificate.gap == one.certificate.gap
        assert np.array_equal(res.coupling.matrix, one.coupling.matrix)
        assert np.array_equal(res.certificate.dual_potential, one.certificate.dual_potential)


def _valid_batch(rng, entry, n=3) -> list:
    """Eight W1 problems on random n-point spaces, with ``entry`` fifth."""
    pairs = []
    for _ in range(8):
        pairs.append((random_space(rng, n), random_measure(rng, n), random_measure(rng, n)))
    pairs.insert(4, entry)
    return pairs


def _non_metric(dist, mu, nu):
    return (FiniteMetricSpace((0, 1, 2), np.array(dist, dtype=float)),
            ProbMeasure(np.array(mu, dtype=float)), ProbMeasure(np.array(nu, dtype=float)))


def _corrupt_largest_lp(monkeypatch, corrupt):
    """Make ``_solve`` hand back ``corrupt(cost, a, b, plan)`` as the plan
    of the largest LP it is asked for."""
    real = ot_core._solve

    def solve(lps):
        solved = real(lps)
        k = max(range(len(lps)), key=lambda i: lps[i][0].size)
        solved[k] = (corrupt(*lps[k], solved[k][0]), solved[k][1])
        return solved

    monkeypatch.setattr(ot_core, "_solve", solve)


def _corrupt_plans(monkeypatch, position, corrupt):
    """Make ``_plans`` hand on its stacks after ``corrupt(stack, k)`` for the
    problem at ``position``, entry k of its stack."""
    real = ot_core._plans

    def plans(pairs, p=1.0):
        for g in real(pairs, p):
            if position in g.where:
                corrupt(g, g.where.index(position))
            yield g

    monkeypatch.setattr(ot_core, "_plans", plans)


def _flip_orientation(monkeypatch, position):
    """The opposite orientation for the problem at ``position``, reported
    after its plan and its gap's dual are fixed."""

    def flip(g, k):
        g.swapped[k] = not g.swapped[k]

    _corrupt_plans(monkeypatch, position, flip)


def _negative_gap(rng, monkeypatch):
    # d(1, 2) = 5 > d(1, 0) + d(0, 2): the c-transform's dual exceeds the cost
    return _valid_batch(rng, _non_metric([[0, 1, 1], [1, 0, 5], [1, 5, 0]], [0, 0, 1], [.5, .5, 0]))


def _lipschitz(rng, monkeypatch):
    # d(0, 2) = 10 > d(0, 1) + d(1, 2): the potential varies by 9 across d(1, 2) = 1
    return _valid_batch(rng, _non_metric([[0, 1, 10], [1, 0, 1], [10, 1, 0]], [.5, .5, 0], [0, .5, .5]))


def _gap_consistency(rng, monkeypatch):
    _flip_orientation(monkeypatch, 4)
    return _valid_batch(rng, (random_space(rng, 3), ProbMeasure.delta(0, 3), ProbMeasure.uniform(3)))


def _gap_range(rng, monkeypatch):
    # the costliest coupling instead of the cheapest
    _corrupt_largest_lp(monkeypatch, lambda cost, a, b, plan: _transport_lp(-cost, a, b)[0])
    mu, nu = np.zeros(6), np.zeros(6)
    mu[:3], nu[3:] = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
    return _valid_batch(rng, (random_space(rng, 6), ProbMeasure(mu), ProbMeasure(nu)), n=6)


def _marginals(rng, monkeypatch):
    # W1 about 1e-10: the flipped potential's dual stays within the 1e-9
    # consistency budget, and only the coupling's marginals show the flip
    _flip_orientation(monkeypatch, 4)
    mu = random_measure(rng, 3)
    near = mu.weights.copy()
    near[0] += 1e-10
    near[1] -= 1e-10
    return _valid_batch(rng, (random_space(rng, 3), mu, ProbMeasure(near)))


def _nan_plan(cost, a, b, plan):
    plan = plan.copy()
    plan[0, 0] = np.nan
    return plan


def _unit_mass(rng, monkeypatch):
    def scale(g, k):
        g.plan[k] *= 1.0 + 1e-9

    _corrupt_plans(monkeypatch, 4, scale)
    return _valid_batch(rng, (random_space(rng, 3), ProbMeasure.delta(0, 3), ProbMeasure.uniform(3)))


def _refit(rng, monkeypatch):
    _corrupt_largest_lp(monkeypatch, _nan_plan)
    return _valid_batch(rng, (random_space(rng, 3), ProbMeasure.delta(0, 3), ProbMeasure.uniform(3)))


_MARK = 0.8125  # a distance no random space has


def _linprog_check(rng, monkeypatch):
    """A batch with one entry whose LP costs ``_MARK``, solved on a HiGHS
    instance that returns x = -1 for every column of that cost: in the
    block LP and in the entry's own LP after it."""
    core, highs = ot_core._highs()

    class Corrupted:
        def __getattr__(self, name):
            return getattr(highs, name)

        def passModel(self, lp):
            self.cost = np.array(lp.col_cost_)
            return highs.passModel(lp)

        def getSolution(self):
            solution = highs.getSolution()
            x = np.array(solution.col_value)
            x[self.cost == _MARK] = -1.0
            return types.SimpleNamespace(col_value=x, row_value=solution.row_value,
                                         row_dual=solution.row_dual)

    monkeypatch.setattr(ot_core, "_highs", lambda: (core, Corrupted()))
    mu, nu = ProbMeasure.delta(0, 2), ProbMeasure.delta(1, 2)
    return _valid_batch(rng, (two_point_space(_MARK), mu, nu))


@pytest.mark.parametrize("fault, error, message", [
    (_negative_gap, CertificateError, "negative duality gap"),
    (_unit_mass, InputError, r"coupling mass must be 1 within 1e-12; got 1\.0000000"),
    (_lipschitz, CertificateError, "dual potential not 1-Lipschitz"),
    (_gap_consistency, CertificateError, "stored gap inconsistent with potential"),
    (_gap_range, CertificateError, "duality gap .* outside certified range"),
    (_marginals, CertificateError, "coupling marginals off by"),
    (_refit, CertificateError, "could not refit coupling marginals"),
    (_linprog_check, CertificateError, "transport LP failed: solution violates its constraints"),
], ids=["negative-gap", "unit-mass", "lipschitz", "gap-consistency", "gap-range", "marginals",
        "refit", "linprog-check"])
def test_every_w1_refusal_fires_inside_a_batch(monkeypatch, fault, error, message):
    """Each check of the W1 certificate refuses a batch of nine in which one
    entry is faulty: a space that breaks the triangle inequality, a plan
    scaled or an orientation flipped after the plan is built, a suboptimal
    or NaN plan from the LP, or a HiGHS solution that violates its bounds."""
    pairs = fault(np.random.default_rng(97), monkeypatch)
    with pytest.raises(error, match=message), mf.solve_once():
        ot_core._prefetch_w1(pairs)


def test_w1_refusal_in_a_flow_distance_exits_1(tmp_path, monkeypatch, capsys):
    """A W1 of a flow distance's cost matrix that fails its certificate
    makes ``distance`` report the failed check and exit 1."""
    from metricflow.cli import main

    paths = []
    for rate in (0.8, 1.3):
        paths.append(str(tmp_path / f"static-{rate}.json"))
        assert main(["generate", "static", "--m", "4", "--steps", "2", "--rate", str(rate),
                     "--out", paths[-1]]) == 0
    capsys.readouterr()
    _corrupt_largest_lp(monkeypatch, _nan_plan)
    assert main(["distance", *paths, "--e-mode", "empty"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("check failed: could not refit coupling marginals")


def test_w1_batches_certify_without_per_entry_work(tmp_path, monkeypatch):
    """The 2-file distance on 4-point, 5-time cycle walks makes 165 W1
    calls, but ot_core refits, builds a ``Coupling`` through its
    constructor or calls ``np.ix_`` at most once per prefetched batch: the
    entries are certified as array operations. Certifying each W1 call on
    its own ran each of these once per entry."""
    from metricflow import correspondence
    from metricflow.cli import main

    paths = []
    for rate in (0.8, 1.3):
        paths.append(str(tmp_path / f"static-{rate}.json"))
        assert main(["generate", "static", "--m", "4", "--steps", "4", "--rate", str(rate),
                     "--out", paths[-1]]) == 0
    counts = dict.fromkeys(("w1", "batches", "fit", "coupling", "ix_"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    post_init = Coupling.__post_init__

    def coupling_post_init(self):
        # frame 1 is the dataclass __init__, frame 2 the constructor's caller
        if sys._getframe(2).f_globals["__name__"] == ot_core.__name__:
            counts["coupling"] += 1
        post_init(self)

    numpy = types.ModuleType("numpy")
    numpy.__dict__.update(np.__dict__)
    numpy.ix_ = counted("ix_", np.ix_)
    monkeypatch.setattr(ot_core, "np", numpy)
    monkeypatch.setattr(ot_core, "_fit_marginals", counted("fit", ot_core._fit_marginals))
    monkeypatch.setattr(Coupling, "__post_init__", coupling_post_init)
    monkeypatch.setattr(correspondence, "w1_distance", counted("w1", mf.w1_distance))
    monkeypatch.setattr(correspondence, "_prefetch_w1", counted("batches", ot_core._prefetch_w1))
    assert main(["distance", *paths, "--e-mode", "empty", "--out", str(tmp_path / "d.json")]) == 0
    assert counts["w1"] == 165 and 1 <= counts["batches"] <= 2
    assert max(counts["fit"], counts["coupling"], counts["ix_"]) <= counts["batches"]


def test_flow_distance_solves_its_w1_lps_in_blocks(tmp_path, monkeypatch):
    """A 2-file ``distance --e-mode empty`` on 4-point, 3-time static cycle
    flows, the benchmark's shape, makes 51 W1 calls (48 cost-matrix entries
    and 3 top measures) but only a few transport LPs: one per block. A
    change that solves them one at a time again fails here."""
    from metricflow.cli import main

    paths = []
    for rate in (0.8, 1.3):
        paths.append(str(tmp_path / f"static-{rate}.json"))
        assert main(["generate", "static", "--m", "4", "--steps", "2", "--rate", str(rate),
                     "--out", paths[-1]]) == 0
    solves = []
    real = ot_core.linprog
    monkeypatch.setattr(ot_core, "linprog", lambda *a: solves.append(1) or real(*a))
    assert main(["distance", *paths, "--e-mode", "empty", "--out", str(tmp_path / "d.json")]) == 0
    assert 1 <= len(solves) <= 4


# ---------------------------------------------------------------------------
# variance
# ---------------------------------------------------------------------------


def test_variance_closed_form_two_point():
    space = two_point_space(d=3.0)
    mu = ProbMeasure(np.array([0.25, 0.75]))
    nu = ProbMeasure(np.array([0.6, 0.4]))
    expect = 9.0 * (0.25 * 0.4 + 0.75 * 0.6)
    assert mf.variance(space, mu, nu) == pytest.approx(expect, abs=1e-15)
    assert mf.variance(space, mu) == pytest.approx(9.0 * 2 * 0.25 * 0.75, abs=1e-15)
    assert mf.variance(space, ProbMeasure.delta(0, 2)) == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_variance_bilinearity(seed):
    """Var(sum a_i mu_i, sum a_j' nu_j) = sum_ij a_i a_j' Var(mu_i, nu_j)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    space = random_space(rng, n)
    mus = [random_measure(rng, n) for _ in range(2)]
    nus = [random_measure(rng, n) for _ in range(3)]
    a = rng.dirichlet(np.ones(2))
    b = rng.dirichlet(np.ones(3))
    mix_mu = ProbMeasure(a[0] * mus[0].weights + a[1] * mus[1].weights)
    mix_nu = ProbMeasure(sum(b[j] * nus[j].weights for j in range(3)))
    lhs = mf.variance(space, mix_mu, mix_nu)
    rhs = sum(
        a[i] * b[j] * mf.variance(space, mus[i], nus[j])
        for i in range(2)
        for j in range(3)
    )
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, rhs))


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_variance_sandwich_and_triangle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    space = random_space(rng, n)
    m1, m2, m3 = (random_measure(rng, n) for _ in range(3))
    w = mf.w1_distance(space, m1, m2).value
    root = math.sqrt(mf.variance(space, m1, m2))
    assert w <= root + 1e-9
    assert root <= w + math.sqrt(mf.variance(space, m1)) + math.sqrt(
        mf.variance(space, m2)
    ) + 1e-9
    assert math.sqrt(mf.variance(space, m1, m3)) <= math.sqrt(
        mf.variance(space, m1, m2)
    ) + math.sqrt(mf.variance(space, m2, m3)) + 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_w1_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    space = random_space(rng, n)
    m1, m2, m3 = (random_measure(rng, n, sparse=bool(seed % 2)) for _ in range(3))
    d12 = mf.w1_distance(space, m1, m2).value
    d23 = mf.w1_distance(space, m2, m3).value
    d13 = mf.w1_distance(space, m1, m3).value
    assert d13 <= d12 + d23 + 1e-9


# ---------------------------------------------------------------------------
# mass-distribution function and class membership
# ---------------------------------------------------------------------------


def test_mass_distribution_two_point_enumeration():
    space = two_point_space()
    mu = ProbMeasure.uniform(2)
    assert mf.mass_distribution_fn(space, mu, 1.0, 0.5) == pytest.approx(0.5, abs=0)
    assert mf.mass_distribution_fn(space, mu, 1.0, 1.0) == 1.0


def test_mass_distribution_single_point():
    space = euclidean_space(np.array([0.0]))
    mu = ProbMeasure(np.array([1.0]))
    for eps in (0.1, 0.5, 1.0):
        assert mf.mass_distribution_fn(space, mu, 2.0, eps) == 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_mass_distribution_monotone_in_eps(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    space = random_space(rng, n)
    mu = random_measure(rng, n)
    r = float(rng.uniform(0.2, 3.0))
    eps_grid = np.linspace(0.05, 1.0, 9)
    vals = [mf.mass_distribution_fn(space, mu, r, float(e)) for e in eps_grid]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1.0 + 1e-15


def test_bfunction_step_evaluation():
    b = BFunction(eps_grid=(0.25, 0.5, 1.0), values=(0.1, 0.2, 0.9))
    assert b(0.25) == 0.1
    assert b(0.3) == 0.1
    assert b(0.5) == 0.2
    assert b(1.0) == 0.9
    assert BFunction.constant(0.3)(0.7) == 0.3
    # below the sampled grid the step function extends left
    assert b(0.1) == 0.1


def test_in_class_M_examples():
    space = two_point_space()
    mu = ProbMeasure.uniform(2)
    ok = mf.in_class_M(space, mu, r=1.0, V=1.0, b=BFunction.constant(0.25))
    assert ok.ok and ok.var_value == pytest.approx(0.5, abs=0)
    bad = mf.in_class_M(space, mu, r=1.0, V=0.4, b=BFunction.constant(0.25))
    assert not bad.ok
    single = euclidean_space(np.array([0.0]))
    assert mf.in_class_M(single, ProbMeasure(np.ones(1)), 1.0, 0.0, BFunction.constant(1.0)).ok
    # at eps = 0.5 each ball holds only its centre, mass 0.5 < b = 0.9, so
    # all the mass (1 > eps) sits where the ball falls short: a b-failure
    short = mf.in_class_M(space, mu, r=1.0, V=1.0, b=BFunction(eps_grid=(0.5,), values=(0.9,)))
    assert not short.ok and short.var_value <= short.var_bound
    assert short.b_failures == ((0.5, 0.9, 1.0),)


def test_in_class_M_restricts_to_support():
    space = euclidean_space(np.array([0.0, 1.0, 2.0]))
    mu = ProbMeasure(np.array([0.5, 0.0, 0.5]))
    rep = mf.in_class_M(space, mu, r=2.0, V=1.0, b=BFunction.constant(0.25))
    assert rep.restricted
    assert rep.support_indices == (0, 2)


def test_finite_approximation_ten_point_line():
    pts = 0.1 * np.arange(10)
    space = euclidean_space(pts)
    mu = ProbMeasure.uniform(10)
    b = BFunction.constant(0.05)
    for alpha in (0.5, 0.25):
        fa = mf.finite_approximation(space, mu, r=1.0, alpha=alpha, V=1.0, b=b)
        w = fa.measure.weights
        scaled = w * fa.N
        assert np.abs(scaled - np.round(scaled)).max() <= 1e-9
        sub = space.subspace(fa.subset_indices)
        check = mf.w1_distance(space, mu, _embed(fa, space)).value
        assert check <= alpha * 1.0 + 1e-12
        assert fa.bound <= alpha * 1.0
        assert sub.n <= fa.N


def _embed(fa, space):
    w = np.zeros(space.n)
    for idx, mass in zip(fa.subset_indices, fa.measure.weights):
        w[idx] += mass
    return ProbMeasure(w)


def test_finite_approximation_bound_above_alpha_r_raises(monkeypatch):
    """A certified W1 above alpha r contradicts the lemma: it raises."""
    space = euclidean_space(0.1 * np.arange(10))
    monkeypatch.setattr(ot_core, "w1_distance", lambda *args: types.SimpleNamespace(value=0.6))
    with pytest.raises(mf.InternalInvariantError, match="exceeds guaranteed 0.5"):
        mf.finite_approximation(space, ProbMeasure.uniform(10), r=1.0, alpha=0.5, V=1.0,
                                b=BFunction.constant(0.05))


def test_finite_approximation_trivial_cases():
    space = euclidean_space(np.array([0.0, 1.0, 2.0]))
    mu = ProbMeasure(np.array([0.5, 0.5, 0.0]))
    fa = mf.finite_approximation(space, mu, r=1.0, alpha=10.0, V=1.0, b=BFunction.constant(0.1))
    assert fa.bound <= 10.0
    assert set(fa.subset_indices) <= {0, 1, 2}
    with pytest.raises(InputError):
        # V = 0 puts a nondegenerate measure outside the class
        mf.finite_approximation(space, mu, r=1.0, alpha=0.5, V=0.0, b=BFunction.constant(0.1))


def test_product_space_pythagoras():
    s1 = two_point_space(d=3.0)
    s2 = two_point_space(d=4.0)
    prod = mf.product_space(s1, s2)
    assert prod.n == 4
    assert prod.dist.max() == pytest.approx(5.0, abs=1e-12)
