"""Gluings, correspondences, Gromov-W1 upper bounds, and the flow distance
with its exceptional-set search and triangle certificate."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

import metricflow as mf
from metricflow import (
    FiniteMetricSpace,
    GluedSpace,
    InputError,
    MetricFlow,
    MetricFlowPair,
    ProbMeasure,
    TimeGrid,
)
from metricflow import correspondence

from conftest import C_STAR, two_point_space


def tp_pair(flow, anchor):
    return MetricFlowPair(flow, mf.conj_backward(flow, flow.grid.times[-1], anchor))


# ---------------------------------------------------------------------------
# glued spaces
# ---------------------------------------------------------------------------


def test_glued_space_validate_and_push():
    ambient = FiniteMetricSpace(
        labels=("p", "q", "r"),
        dist=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
    )
    glued = GluedSpace(ambient=ambient, embeddings=((0, 1), (1, 2)))
    seg = FiniteMetricSpace(labels=("x", "y"), dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
    glued.validate((seg, seg))
    far = FiniteMetricSpace(labels=("x", "y"), dist=np.array([[0.0, 2.0], [2.0, 0.0]]))
    with pytest.raises(InputError, match="isometric"):
        glued.validate((seg, far))
    with pytest.raises(InputError):
        glued.validate((seg,))
    pushed = glued.push(1, ProbMeasure(np.array([0.3, 0.7])))
    assert np.array_equal(pushed.weights, np.array([0.0, 0.3, 0.7]))


def test_glue_two_slices_cross_distance():
    """Routing through the best kernel point: d(x, y) =
    min_w (d_t(y, w) + expected d_s(x, .) under the kernel at w) + delta."""
    space_s = two_point_space(1.0)
    space_t = two_point_space(0.8)
    link = {0: np.array([0.8, 0.2]), 1: np.array([0.2, 0.8])}
    # d_t - W1(kernels) = 0.8 - 0.6 = 0.2, so any delta >= 0.2 is admissible
    glued = mf.glue_two_slices(space_s, space_t, link, delta=0.25)
    glued.validate((space_s, space_t))
    d = glued.ambient.dist
    assert d[0, 2] == pytest.approx(0.2 + 0.25, abs=1e-15)
    assert d[0, 3] == pytest.approx(0.8 + 0.25, abs=1e-15)  # route via w = 1
    report = mf.check_metric_axioms(glued.ambient, require_positive=False)
    assert report.ok


def test_glue_two_slices_ambient_layout():
    """Earlier slice first with ``s:`` labels, later slice second with
    ``t:`` labels; every entry is dyadic, so the cross block must equal its
    defining formula exactly."""
    space_s = FiniteMetricSpace(
        labels=("p", "q", "r"),
        dist=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
    )
    space_t = FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, 2.0], [2.0, 0.0]]))
    link = {0: np.array([0.75, 0.25, 0.0]), 1: np.array([0.0, 0.25, 0.75])}
    delta = 0.75  # d_t - W1(kernels) = 2.0 - 1.5 = 0.5
    glued = mf.glue_two_slices(space_s, space_t, link, delta=delta)
    cross = np.array(
        [
            [min(link[w] @ space_s.dist[x] + space_t.dist[w, y] for w in link) + delta for y in range(2)]
            for x in range(3)
        ]
    )
    d = glued.ambient.dist
    assert glued.ambient.labels == ("s:p", "s:q", "s:r", "t:a", "t:b")
    assert np.array_equal(d[:3, :3], space_s.dist)
    assert np.array_equal(d[3:, 3:], space_t.dist)
    assert np.array_equal(d[:3, 3:], cross)
    assert np.array_equal(d[3:, :3], cross.T)
    assert glued.embeddings == ((0, 1, 2), (3, 4))


def test_glue_audit_rejects_a_broken_cross_block():
    """Zero cross distances put both points of one slice at distance zero
    from one point of the other, while they sit at distance 1 apart."""
    seg = two_point_space(1.0)
    with pytest.raises(
        mf.InternalInvariantError,
        match=r"audit probe: glued ambient violates metric axioms: triangle violated at \(",
    ):
        correspondence._glue(seg, seg, np.zeros((2, 2)), "st", "audit probe")


def test_glue_two_slices_rejects_bad_hypothesis():
    space_s = two_point_space(1.0)
    link = {0: np.array([0.8, 0.2]), 1: np.array([0.2, 0.8])}
    with pytest.raises(InputError, match="hypothesis"):
        mf.glue_two_slices(space_s, two_point_space(0.8), link, delta=0.1)
    with pytest.raises(InputError, match="hypothesis"):
        # d_t below the kernel W1 distance: the gap goes negative
        mf.glue_two_slices(space_s, two_point_space(0.5), link, delta=0.3)
    with pytest.raises(InputError):
        mf.glue_two_slices(space_s, two_point_space(0.8), link, delta=-0.1)
    with pytest.raises(InputError):
        mf.glue_two_slices(space_s, two_point_space(0.8), {}, delta=0.3)


# ---------------------------------------------------------------------------
# correspondences
# ---------------------------------------------------------------------------


def test_union_correspondence_eps_is_half_distortion():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    f1 = mf.two_point_flow(C_STAR, 1.0, grid)
    f2 = mf.two_point_flow(C_STAR, 1.2, grid)
    c = mf.build_union_correspondence(f1, f2, [(0, 0), (1, 1)])
    assert c.time_indices == tuple(range(5))
    for eps in c.extras["eps_by_time"].values():
        assert eps == pytest.approx(0.1, abs=1e-15)
    collapsed = mf.build_union_correspondence(f1, f2, [(0, 0), (1, 0)])
    assert collapsed.extras["eps_by_time"][0] == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(InputError):
        mf.build_union_correspondence(f1, f2, [])
    with pytest.raises(InputError):
        mf.build_union_correspondence(f1, f2, [(0, 5)])
    other = mf.two_point_flow(C_STAR, 1.0, TimeGrid.uniform(0.0, 2.0, 4))
    with pytest.raises(InputError, match="grid"):
        mf.build_union_correspondence(f1, other, [(0, 0)])


def test_combine_correspondences_three_way():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    fa, fb, fc = (mf.two_point_flow(C_STAR, d, grid) for d in (1.0, 1.1, 1.2))
    ident = [(0, 0), (1, 1)]
    c12 = mf.build_union_correspondence(fa, fb, ident)
    c23 = mf.build_union_correspondence(fb, fc, ident)
    c123 = mf.combine_correspondences(c12, c23)
    assert c123.n_flows == 3
    for t in c123.time_indices:
        g = c123.ambient_at(t)
        g.validate((fa.slices[t], fb.slices[t], fc.slices[t]))
    view = c123.pair_view(0, 2)
    assert view.n_flows == 2
    early = mf.build_union_correspondence(fa, fb, ident, time_indices=(0, 1))
    late = mf.build_union_correspondence(fb, fc, ident, time_indices=(3, 4))
    with pytest.raises(InputError, match="no participating times"):
        mf.combine_correspondences(early, late)


def _layout_flows():
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    return tuple(mf.two_point_flow(C_STAR, d, grid) for d in (1.0, 1.5, 2.0))


def test_union_correspondence_ambient_layout():
    """Flow 1 first with ``1:`` labels, flow 2 second with ``2:`` labels;
    cross distance min over matched (w1, w2) of d1(x, w1) + d2(w2, y) + eps."""
    f1, f2, _ = _layout_flows()
    pairs = [(0, 0), (1, 1)]
    c = mf.build_union_correspondence(f1, f2, pairs)
    for t in c.time_indices:
        d1, d2 = f1.slices[t].dist, f2.slices[t].dist
        eps = c.extras["eps_by_time"][t]
        assert eps == 0.25
        cross = np.array(
            [[min(d1[x, a] + d2[b, y] for a, b in pairs) + eps for y in range(2)] for x in range(2)]
        )
        g = c.ambient_at(t)
        d = g.ambient.dist
        assert g.ambient.labels == ("1:+", "1:-", "2:+", "2:-")
        assert np.array_equal(d[:2, :2], d1)
        assert np.array_equal(d[2:, 2:], d2)
        assert np.array_equal(d[:2, 2:], cross)
        assert np.array_equal(d[2:, :2], cross.T)
        assert g.embeddings == ((0, 1), (2, 3))


def test_combined_correspondence_ambient_layout():
    """The (1,2) ambient first with ``L:`` labels, the (2,3) ambient second
    with ``R:`` labels; cross distance the cheapest route through a middle
    point; flow 3 embedded through the second block."""
    fa, fb, fc = _layout_flows()
    ident = [(0, 0), (1, 1)]
    c12 = mf.build_union_correspondence(fa, fb, ident)
    c23 = mf.build_union_correspondence(fb, fc, ident)
    c123 = mf.combine_correspondences(c12, c23)
    for t in c123.time_indices:
        da, db = c12.ambient_at(t).ambient.dist, c23.ambient_at(t).ambient.dist
        cross = np.array(
            [[min(da[z, 2 + x] + db[x, w] for x in range(2)) for w in range(4)] for z in range(4)]
        )
        g = c123.ambient_at(t)
        d = g.ambient.dist
        assert g.ambient.labels == (
            "L:1:+", "L:1:-", "L:2:+", "L:2:-", "R:1:+", "R:1:-", "R:2:+", "R:2:-",
        )
        assert np.array_equal(d[:4, :4], da)
        assert np.array_equal(d[4:, 4:], db)
        assert np.array_equal(d[:4, 4:], cross)
        assert np.array_equal(d[4:, :4], cross.T)
        assert g.embeddings == ((0, 1), (2, 3), (6, 7))


# ---------------------------------------------------------------------------
# Gromov-W1 upper bounds
# ---------------------------------------------------------------------------


def test_gw1_identical_inputs_give_zero():
    space = two_point_space(1.0)
    mu = ProbMeasure(np.array([0.3, 0.7]))
    bound = mf.gw1_upper_bound(space, mu, space, mu)
    assert bound.value == 0.0
    assert bound.exhaustive


def test_gw1_rescaled_two_point():
    mu = ProbMeasure.uniform(2)
    bound = mf.gw1_upper_bound(two_point_space(1.0), mu, two_point_space(1.1), mu)
    assert bound.value == pytest.approx(0.05, abs=1e-12)


def test_gw1_relabeling_invariance():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(5, 3))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    space = FiniteMetricSpace(labels=tuple("abcde"), dist=d)
    mu = ProbMeasure(rng.dirichlet(np.ones(5)))
    perm = np.array([2, 0, 4, 1, 3])
    shuffled = FiniteMetricSpace(labels=tuple("vwxyz"), dist=d[np.ix_(perm, perm)])
    mu_p = ProbMeasure(mu.weights[perm])
    bound = mf.gw1_upper_bound(space, mu, shuffled, mu_p)
    assert bound.value <= 1e-10
    assert dict(bound.relation) == {int(i): int(np.nonzero(perm == i)[0][0]) for i in range(5)}


def test_gw1_exhaustive_no_worse_than_explicit_relation():
    rng = np.random.default_rng(8)
    d1 = np.abs(rng.normal(size=(4, 4)))
    d1 = d1 + d1.T
    np.fill_diagonal(d1, 0.0)
    # force the triangle inequality by shortest-path closure
    for k in range(4):
        d1 = np.minimum(d1, d1[:, [k]] + d1[[k], :])
    s1 = FiniteMetricSpace(labels=tuple("abcd"), dist=d1)
    s2 = FiniteMetricSpace(labels=tuple("wxyz"), dist=1.3 * d1)
    mu1, mu2 = ProbMeasure(rng.dirichlet(np.ones(4))), ProbMeasure(rng.dirichlet(np.ones(4)))
    best = mf.gw1_upper_bound(s1, mu1, s2, mu2)
    explicit = mf.gw1_upper_bound(s1, mu1, s2, mu2, relation=[(i, i) for i in range(4)])
    assert best.value <= explicit.value + 1e-12
    assert not explicit.exhaustive


def test_gw1_exhaustive_limits():
    n = 7
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    space = FiniteMetricSpace(labels=tuple(str(i) for i in range(n)), dist=d)
    mu = ProbMeasure.uniform(n)
    with pytest.raises(InputError, match="6"):
        mf.gw1_upper_bound(space, mu, space, mu)
    small = two_point_space(1.0)
    with pytest.raises(InputError):
        mf.gw1_upper_bound(small, ProbMeasure.uniform(2), space, mu)


# ---------------------------------------------------------------------------
# the flow distance
# ---------------------------------------------------------------------------


def _coupling_oracle_value(c, pair1, pair2):
    """Independent recomputation for two-point flows: couplings of the
    (a, 1-a) x (b, 1-b) marginals form a one-parameter family, each cost
    integral is affine in the parameter, so the best worst-case integral is
    found by ternary search on a convex piecewise-linear function."""

    def cost_matrix(s_idx, t_idx):
        g = c.ambient_at(s_idx)
        M = np.zeros((2, 2))
        for x1 in range(2):
            for x2 in range(2):
                nu1 = ProbMeasure(pair1.flow.kernel(s_idx, t_idx)[x1])
                nu2 = ProbMeasure(pair2.flow.kernel(s_idx, t_idx)[x2])
                M[x1, x2] = mf.w1_distance(g.ambient, g.push(0, nu1), g.push(1, nu2)).value
        return M

    def r_t(t_idx):
        a = pair1.mu.measure_at(t_idx).weights[0]
        b = pair2.mu.measure_at(t_idx).weights[0]
        costs = [cost_matrix(s, t_idx) for s in range(t_idx + 1)]

        def worst(th):
            q = np.array([[th, a - th], [b - th, 1.0 - a - b + th]])
            return max(float((M * q).sum()) for M in costs)

        lo, hi = max(0.0, a + b - 1.0), min(a, b)
        for _ in range(200):
            m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            if worst(m1) <= worst(m2):
                hi = m2
            else:
                lo = m1
        return worst(0.5 * (lo + hi))

    return max(r_t(t) for t in c.time_indices)


@pytest.fixture(scope="module")
def tp_corr():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    f1 = mf.two_point_flow(C_STAR, 1.0, grid)
    f2 = mf.two_point_flow(C_STAR, 1.1, grid)
    c = mf.build_union_correspondence(f1, f2, [(0, 0), (1, 1)])
    return c, f1, f2


def test_f_distance_self_is_zero(tp_corr):
    _, f1, _ = tp_corr
    c_self = mf.build_union_correspondence(f1, f1, [(0, 0), (1, 1)])
    pair = tp_pair(f1, ProbMeasure.uniform(2))
    rep = mf.f_distance_within(c_self, pair, pair)
    assert rep.value == 0.0
    assert rep.E_indices == ()


def test_f_distance_frozen_value_uniform(tp_corr):
    c, f1, f2 = tp_corr
    p1, p2 = tp_pair(f1, ProbMeasure.uniform(2)), tp_pair(f2, ProbMeasure.uniform(2))
    rep = mf.f_distance_within(c, p1, p2)
    assert rep.value == pytest.approx(0.050025906092710626, abs=1e-12)
    assert rep.value >= c.extras["eps_by_time"][0]  # crossing costs at least eps
    assert rep.E_indices == () and rep.mode == "empty" and rep.flags == ()
    # every certified integral respects the value
    assert all(v <= rep.value + 1e-9 for v in rep.per_pair_integrals.values())
    assert rep.E_measure <= rep.value**2


def _assert_mirror_images(fwd, bwd):
    """Two reports of one flow distance in opposite orientations agree bit
    for bit, their couplings transposed."""
    assert bwd.value == fwd.value
    assert fwd.swapped != bwd.swapped
    assert bwd.E_indices == fwd.E_indices
    assert bwd.r_by_time == fwd.r_by_time
    assert bwd.per_pair_integrals == fwd.per_pair_integrals
    assert bwd.couplings.keys() == fwd.couplings.keys()
    for t, q in fwd.couplings.items():
        assert np.array_equal(bwd.couplings[t].matrix.T, q.matrix)


def test_f_distance_symmetric_bit_for_bit(tp_corr, spiked_corr):
    c, f1, f2 = tp_corr
    for anchor in (ProbMeasure.uniform(2), ProbMeasure.delta(0, 2)):
        p1, p2 = tp_pair(f1, anchor), tp_pair(f2, anchor)
        fwd = mf.f_distance_within(c, p1, p2)
        bwd = mf.f_distance_within(c.pair_view(1, 0), p2, p1)
        _assert_mirror_images(fwd, bwd)
    c, p1, p2 = spiked_corr
    fwd = mf.f_distance_within(c, p1, p2, e_mode="exhaustive")
    bwd = mf.f_distance_within(c.pair_view(1, 0), p2, p1, e_mode="exhaustive")
    assert fwd.E_indices == (1,)
    _assert_mirror_images(fwd, bwd)


def test_f_distance_matches_coupling_family_oracle(tp_corr):
    c, f1, f2 = tp_corr
    for anchor in (ProbMeasure.uniform(2), ProbMeasure.delta(0, 2)):
        p1, p2 = tp_pair(f1, anchor), tp_pair(f2, anchor)
        rep = mf.f_distance_within(c, p1, p2)
        oracle = _coupling_oracle_value(c, p1, p2)
        assert rep.value == pytest.approx(oracle, abs=1e-6)


def test_f_distance_top_time_pushforward_bound(tp_corr):
    c, f1, f2 = tp_corr
    p1, p2 = tp_pair(f1, ProbMeasure.uniform(2)), tp_pair(f2, ProbMeasure.uniform(2))
    rep = mf.f_distance_within(c, p1, p2)
    for t in rep.r_by_time:
        g = c.ambient_at(t)
        top = mf.w1_distance(
            g.ambient, g.push(0, p1.mu.measure_at(t)), g.push(1, p2.mu.measure_at(t))
        ).value
        assert top <= rep.value + 1e-9


@pytest.fixture(scope="module")
def spiked_corr():
    """flow2's middle slice is blown up to distance 4: a time worth cutting."""
    grid = TimeGrid((0.0, 0.5, 1.0))
    f1 = mf.two_point_flow(C_STAR, 1.0, grid)
    kern = np.array([[0.9, 0.1], [0.1, 0.9]])
    f2 = MetricFlow(
        grid,
        (two_point_space(1.0), two_point_space(4.0), two_point_space(1.0)),
        adjacent_kernels=(kern, kern),
    )
    c = mf.build_union_correspondence(f1, f2, [(0, 0), (1, 1)])
    anchor = ProbMeasure.uniform(2)
    return c, tp_pair(f1, anchor), tp_pair(f2, anchor)


def test_f_distance_exhaustive_cuts_spike(spiked_corr):
    c, p1, p2 = spiked_corr
    emp = mf.f_distance_within(c, p1, p2)
    assert emp.value > 1.5  # dominated by the spiked slice
    exh = mf.f_distance_within(c, p1, p2, e_mode="exhaustive")
    assert exh.E_indices == (1,)
    # cutting the middle time leaves sqrt of its half-gap measure
    assert exh.value == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert exh.E_measure == pytest.approx(0.5, abs=1e-15)
    assert exh.value <= emp.value


def test_f_distance_minmax_lps_solved_once_and_match_linprog(tp_corr, monkeypatch):
    """The exhaustive E-search asks for the same (t, active s) LP under many
    candidate sets: each distinct LP is solved once, and each solve returns
    the vertex scipy's linprog returns on the same dense constraints."""
    c, f1, f2 = tp_corr
    p1, p2 = tp_pair(f1, ProbMeasure.uniform(2)), tp_pair(f2, ProbMeasure.delta(0, 2))
    solve = correspondence.linprog
    calls = []

    def spy(*lp):
        res = solve(*lp)
        calls.append((lp, res))
        return res

    monkeypatch.setattr(correspondence, "linprog", spy)
    rep = mf.f_distance_within(c, p1, p2, e_mode="exhaustive")
    assert rep.mode == "exhaustive"
    fingerprints = {b"".join(np.asarray(arr).tobytes() for arr in lp) for lp, _ in calls}
    assert len(calls) > len(c.time_indices)
    assert len(fingerprints) == len(calls)
    for (cvec, indptr, indices, data, lhs, rhs), res in calls:
        a = sp.csc_array((data, indices, indptr), shape=(len(rhs), len(cvec))).toarray()
        n_ub = int(np.isinf(lhs).sum())
        ref = scipy.optimize.linprog(
            cvec,
            A_ub=a[:n_ub],
            b_ub=rhs[:n_ub],
            A_eq=a[n_ub:],
            b_eq=rhs[n_ub:],
            bounds=(0, None),
            method="highs",
            options={
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
                "presolve": False,
            },
        )
        assert np.array_equal(res.x, ref.x)
        assert np.all(data != 0.0)


def test_f_distance_greedy_is_flagged_and_weaker(spiked_corr):
    c, p1, p2 = spiked_corr
    grd = mf.f_distance_within(c, p1, p2, e_mode="greedy")
    assert "greedy" in grd.flags
    exh = mf.f_distance_within(c, p1, p2, e_mode="exhaustive")
    assert grd.value >= exh.value  # greedy may miss the best cut (here it does)


def _spiked_three_times(spike: tuple):
    """Three-time two-point flows 0.5 apart, flow2's slices at ``spike``
    blown up to distance 4, in their union correspondence."""
    grid = TimeGrid((0.0, 0.5, 1.0))
    f1 = mf.two_point_flow(C_STAR, 1.0, grid)
    kern = np.array([[0.9, 0.1], [0.1, 0.9]])
    slices = tuple(two_point_space(4.0 if i in spike else 1.0) for i in range(3))
    f2 = MetricFlow(grid, slices, adjacent_kernels=(kern, kern))
    anchor = ProbMeasure.uniform(2)
    return mf.build_union_correspondence(f1, f2, [(0, 0), (1, 1)]), tp_pair(f1, anchor), tp_pair(f2, anchor)


@pytest.mark.parametrize("spike, J, measured, E", [
    # no droppable time left once t = 2 is dropped: J protects the others
    ((2,), (0, 1), [(), (2,), (2,)], (2,)),
    # sqrt(measure {2}) = 0.5 already dominates r_1 = 0.4
    ((2,), (), [(), (2,), (2,)], (2,)),
    # dropping t = 1 as well would take 0.75 of the measure 1
    ((1,), (), [(), (2,), (2,), (1, 2)], (2,)),
    # dropping t = 1 of the unspiked pair costs sqrt(0.5) > r = 0.4
    ((), (), [(), (1,), (1,)], ()),
])
def test_f_distance_greedy_stops(monkeypatch, spike, J, measured, E):
    """Each of the greedy search's four stops ends it where it should: the
    measured sets (after the total) are the start, then for each step the
    next set's measure and, unless that exceeds half, its evaluation."""
    c, p1, p2 = _spiked_three_times(spike)
    calls = []
    measure = TimeGrid.measure
    monkeypatch.setattr(TimeGrid, "measure",
                        lambda self, idx: calls.append(tuple(sorted(idx))) or measure(self, idx))
    rep = mf.f_distance_within(c, p1, p2, J=J, e_mode="greedy")
    assert calls == [(0, 1, 2)] + measured
    assert rep.E_indices == E and rep.flags == ("greedy",)


def test_f_distance_builds_one_coupling_per_reported_time(spiked_corr, monkeypatch):
    """The exhaustive search evaluates every candidate E by its r_t alone;
    only the chosen E's couplings are built, one per reported time."""
    c, p1, p2 = spiked_corr
    made = []

    class Counted(correspondence.Coupling):
        def __post_init__(self):
            made.append(1)
            super().__post_init__()

    monkeypatch.setattr(correspondence, "Coupling", Counted)
    rep = mf.f_distance_within(c, p1, p2, e_mode="exhaustive")
    assert rep.E_indices == (1,)
    assert len(made) == len(rep.couplings) == len(rep.r_by_time) == 2


def test_f_distance_protected_times(spiked_corr):
    c, p1, p2 = spiked_corr
    prot = mf.f_distance_within(c, p1, p2, e_mode="exhaustive", J=(1,))
    assert 1 not in prot.E_indices
    assert prot.J_indices == (1,)
    exh = mf.f_distance_within(c, p1, p2, e_mode="exhaustive")
    assert prot.value >= exh.value
    with pytest.raises(InputError):
        mf.f_distance_within(c, p1, p2, J=(9,))


def _spy_lps(monkeypatch) -> list:
    """Record every transport and min-max LP solve."""
    calls = []
    for module in (mf.ot_core, correspondence):
        real = module.linprog
        monkeypatch.setattr(module, "linprog", lambda *a, real=real: calls.append(1) or real(*a))
    return calls


def test_f_distance_input_validation(tp_corr, monkeypatch):
    c, f1, f2 = tp_corr
    p1, p2 = tp_pair(f1, ProbMeasure.uniform(2)), tp_pair(f2, ProbMeasure.uniform(2))
    calls = _spy_lps(monkeypatch)
    with pytest.raises(InputError, match="unknown e_mode"):
        mf.f_distance_within(c, p1, p2, e_mode="annealed")
    assert calls == []
    grid13 = TimeGrid.uniform(0.0, 1.0, 12)
    g1, g2 = (mf.two_point_flow(C_STAR, d, grid13) for d in (1.0, 1.1))
    c13 = mf.build_union_correspondence(g1, g2, [(0, 0), (1, 1)])
    anchor = ProbMeasure.uniform(2)
    with pytest.raises(InputError, match="limited to 12 participating times, got 13"):
        mf.f_distance_within(c13, tp_pair(g1, anchor), tp_pair(g2, anchor), e_mode="exhaustive")
    assert calls == []
    other = mf.two_point_flow(C_STAR, 1.0, TimeGrid.uniform(0.0, 2.0, 4))
    with pytest.raises(InputError, match="grid"):
        mf.f_distance_within(c, tp_pair(other, ProbMeasure.uniform(2)), p2)
    fa, fb, fc = (mf.two_point_flow(C_STAR, d, c.grid) for d in (1.0, 1.1, 1.2))
    c12 = mf.build_union_correspondence(fa, fb, [(0, 0), (1, 1)])
    c23 = mf.build_union_correspondence(fb, fc, [(0, 0), (1, 1)])
    c3 = mf.combine_correspondences(c12, c23)
    with pytest.raises(InputError, match="two-flow"):
        mf.f_distance_within(c3, p1, p2)


def test_f_distance_names_the_pair_whose_measures_fall_short(tp_corr):
    """A conjugate heat flow that misses a participating time, or whose
    measure does not fit its slice, is an InputError naming the caller's
    pair, in either argument position."""
    c, f1, f2 = tp_corr
    anchor = ProbMeasure.uniform(2)
    full = tp_pair(f2, anchor)
    short = MetricFlowPair(f1, mf.conj_backward(f1, f1.grid.times[-2], anchor))
    with pytest.raises(InputError, match="flow pair 1 has no basepoint measure at grid index 4"):
        mf.f_distance_within(c, short, full)
    short = MetricFlowPair(f2, mf.conj_backward(f2, f2.grid.times[-2], anchor))
    with pytest.raises(InputError, match="flow pair 2 has no basepoint measure at grid index 4"):
        mf.f_distance_within(c, tp_pair(f1, anchor), short)
    wrong = mf.ConjHeatFlowField(
        full.mu.time_indices, full.mu.measures[:-1] + (ProbMeasure.uniform(3),)
    )
    with pytest.raises(InputError, match="flow pair 2: basepoint measure size mismatch"):
        mf.f_distance_within(c, tp_pair(f1, anchor), MetricFlowPair(f2, wrong))


def test_f_distance_of_a_partially_stored_flow_on_times_avoiding_its_gaps():
    """A pair-stored flow missing K(1, 2) gets, within a correspondence on
    times (0, 2, 3), bit for bit the distance of the flow it copies; one on
    every time needs the missing pair and refuses it by name."""
    grid = TimeGrid((0.0, 0.3, 0.6, 1.0))
    f1 = mf.static_cycle_flow(4, 1.1, 1.0, grid)
    f2 = mf.static_cycle_flow(4, 1.6, 1.0, grid)
    kernels = {pair: k for pair, k in f1.stored().items() if pair != (1, 2)}
    gapped = MetricFlow(grid, f1.slices, pair_kernels=kernels)
    anchor = ProbMeasure.uniform(4)
    ident = [(i, i) for i in range(4)]
    c = mf.build_union_correspondence(f1, f2, ident, time_indices=(0, 2, 3))
    full = mf.f_distance_within(c, tp_pair(f1, anchor), tp_pair(f2, anchor))
    rep = mf.f_distance_within(c, tp_pair(gapped, anchor), tp_pair(f2, anchor))
    assert full.value > 0.0
    assert rep.value == full.value and rep.per_pair_integrals == full.per_pair_integrals
    every = mf.build_union_correspondence(f1, f2, ident)
    with pytest.raises(InputError, match=r"no stored kernel for pair \(1, 2\)"):
        mf.f_distance_within(every, tp_pair(gapped, anchor), tp_pair(f2, anchor))


def _count_products(flow) -> list:
    """Store ``flow``'s adjacent kernels as an ndarray subclass that counts
    the matrix-matrix products composed from them; returns the counter."""
    count = [0]

    class Counting(np.ndarray):
        def __matmul__(self, other):
            count[0] += np.ndim(other) == 2
            return super().__matmul__(other)

    flow._kernels = {pair: k.view(Counting) for pair, k in flow._kernels.items()}
    return count


def test_f_distance_reads_each_kernel_column_in_one_walk():
    """A distance on P = 40 Markov times composes at most P² kernel products
    per flow: one walk per column for the fingerprint and one for the cost
    matrices (a walk per pair would take about P³/3)."""
    n_times = 40
    grid = TimeGrid.uniform(0.0, 1.0, n_times - 1)
    f1, f2 = (mf.two_point_flow(C_STAR, d, grid) for d in (1.0, 1.2))
    p1, p2 = tp_pair(f1, ProbMeasure.uniform(2)), tp_pair(f2, ProbMeasure.uniform(2))
    counts = [_count_products(f) for f in (f1, f2)]
    c = mf.build_union_correspondence(f1, f2, [(0, 0), (1, 1)])
    assert mf.f_distance_within(c, p1, p2).value > 0.0
    for count in counts:
        assert 0 < count[0] <= n_times**2


def test_f_distance_json_payload(tp_corr):
    c, f1, f2 = tp_corr
    p1, p2 = tp_pair(f1, ProbMeasure.uniform(2)), tp_pair(f2, ProbMeasure.uniform(2))
    rep = mf.f_distance_within(c, p1, p2)
    doc = rep.to_json_dict()
    assert set(doc) == {
        "value", "E", "r_by_time", "per_pair_integrals", "mode", "flags", "J_indices",
    }
    assert doc["E"] == {"indices": [], "measure": 0.0}
    with_q = rep.to_json_dict(include_couplings=True)
    assert "couplings" in with_q
    q0 = np.array(with_q["couplings"]["0"])
    assert q0.shape == (2, 2) and q0.sum() == pytest.approx(1.0, abs=1e-12)


def test_f_triangle_certificate():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    fa, fb, fc = (mf.two_point_flow(C_STAR, d, grid) for d in (1.0, 1.1, 1.2))
    ident = [(0, 0), (1, 1)]
    c123 = mf.combine_correspondences(
        mf.build_union_correspondence(fa, fb, ident),
        mf.build_union_correspondence(fb, fc, ident),
    )
    anchor = ProbMeasure.uniform(2)
    tri = mf.f_triangle_check(
        c123, tp_pair(fa, anchor), tp_pair(fb, anchor), tp_pair(fc, anchor)
    )
    assert tri.holds
    assert tri.certificate_ok
    assert tri.d13.value <= tri.d12.value + tri.d23.value + 1e-8
    assert tri.certificate_value <= tri.d12.value + tri.d23.value + 1e-9
    assert tri.d12.value == pytest.approx(0.050025906092710626, abs=1e-12)
    assert tri.d23.value == pytest.approx(0.050122126241779, abs=1e-10)
    assert tri.d13.value == pytest.approx(0.10013692994887335, abs=1e-10)
    assert tri.E_union == ()
    with pytest.raises(InputError, match="three-flow"):
        mf.f_triangle_check(
            c123.pair_view(0, 1), tp_pair(fa, anchor), tp_pair(fb, anchor), tp_pair(fc, anchor)
        )
