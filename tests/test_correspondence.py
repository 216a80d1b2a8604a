"""Gluings, correspondences, Gromov-W1 upper bounds, and the flow distance
with its exceptional-set search and triangle certificate."""

import itertools
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
from metricflow import correspondence, ot_core

from conftest import C_STAR, euclidean_space, random_space, two_point_space


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
        correspondence._glue(seg, seg, np.zeros((2, 1)), np.zeros((1, 2)), 0.0, "st", "audit probe")


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


def test_glue_two_slices_names_the_first_worst_failing_pair():
    """Random links with several failing pairs, exact ties among them (bit-equal
    kernels at distance L): the refusal names the pair and gap that a plain
    loop over the pairs finds, the first of the worst, as plain ints."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        space_s = random_space(rng, 4)
        n_t, L = 7, float(rng.uniform(0.5, 2.0))
        space_t = FiniteMetricSpace(tuple(f"y{i}" for i in range(n_t)), L * (1.0 - np.eye(n_t)))
        pool = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        w_idx = sorted(int(w) for w in rng.choice(n_t, size=int(rng.integers(3, 7)), replace=False))
        link = {w: pool[int(rng.integers(3))] for w in w_idx}
        delta = float(rng.uniform(0.0, 0.6 * L))
        pairs = list(itertools.combinations(range(len(w_idx)), 2))
        vals = correspondence._w1_results(
            [(space_s, ProbMeasure(link[w_idx[a]]), ProbMeasure(link[w_idx[b]])) for a, b in pairs]
        )
        worst, witness = 0.0, None
        for (a, b), res in zip(pairs, vals):
            gap = space_t.dist[w_idx[a], w_idx[b]] - res.value
            off = max(-gap, gap - delta)
            if (gap < -1e-9 or gap > delta + 1e-9) and (witness is None or off > worst):
                worst, witness = off, (w_idx[a], w_idx[b], gap)
        if witness is None:
            mf.glue_two_slices(space_s, space_t, link, delta)
            continue
        with pytest.raises(InputError) as exc:
            mf.glue_two_slices(space_s, space_t, link, delta)
        assert str(exc.value).endswith(
            f"worst witness pair ({witness[0]}, {witness[1]}) with gap {witness[2]:.6g}"
        )


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


def _ambients_of_each_kind() -> list:
    """A union, a two-slice and a combined ambient (the last with three
    embeddings), each with its constituent spaces."""
    fa, fb, fc = _layout_flows()
    ident = [(0, 0), (1, 1)]
    c12 = mf.build_union_correspondence(fa, fb, ident)
    c23 = mf.build_union_correspondence(fb, fc, ident)
    union = (c12.ambient_at(1), (fa.slices[1], fb.slices[1]))
    space_s, space_t = two_point_space(1.0), two_point_space(0.8)
    two_slice = mf.glue_two_slices(space_s, space_t, {0: np.array([0.8, 0.2]), 1: np.array([0.2, 0.8])}, 0.25)
    combined = mf.combine_correspondences(c12, c23).ambient_at(1)
    return [union, (two_slice, (space_s, space_t)), (combined, (fa.slices[1], fb.slices[1], fc.slices[1]))]


def test_stacked_pushes_equal_single_pushes_bit_for_bit():
    """A kernel matrix pushed into an ambient in one step and checked as one
    stack gives, row by row, the bytes of ``GluedSpace.push(which,
    ProbMeasure(row))``, noise clamped alike, on union, two-slice and
    combined ambients, several stacks of several widths at once."""
    rng = np.random.default_rng(5)
    stacks, expected = [], []
    for glued, spaces in _ambients_of_each_kind():
        for which, space in enumerate(spaces):
            rows = rng.dirichlet(np.ones(space.n), size=4)
            rows[2, 0] += rows[2, -1] + 4e-13
            rows[2, -1] = -4e-13  # noise below the tolerance, clamped to zero
            stacks.append(glued.push_weights(which, rows))
            expected.append([glued.push(which, ProbMeasure(row)).weights for row in rows])
    for measures, want in zip(ot_core._measures(stacks), expected):
        assert [m.weights.tobytes() for m in measures] == [w.tobytes() for w in want]
        assert all(not m.weights.flags.writeable for m in measures)


@pytest.mark.parametrize("fault", ["negative", "mis-summed", "both"])
def test_stacked_pushes_refuse_the_first_bad_row_as_alone(fault):
    """A pushed row that fails the measure checks raises the InputError a
    single push raises for it; with bad rows in several stacks, the first
    bad row in order decides."""
    rng = np.random.default_rng(6)
    (glued, spaces), *_ = _ambients_of_each_kind()
    rows = rng.dirichlet(np.ones(2), size=3)
    negative, mis_summed = rows.copy(), rows.copy()
    negative[2] = [1.0 + 1e-9, -1e-9]
    mis_summed[1] = [0.5, 0.5 + 1e-9]
    first = {"negative": negative[2], "mis-summed": mis_summed[1], "both": mis_summed[1]}[fault]
    with pytest.raises(InputError) as alone:
        ProbMeasure(glued.push_weights(1, first))
    bad = {"negative": [negative], "mis-summed": [mis_summed], "both": [mis_summed, negative]}[fault]
    stacks = [glued.push_weights(0, rows)] + [glued.push_weights(1, b) for b in bad]
    with pytest.raises(InputError) as stacked:
        ot_core._measures(stacks)
    assert str(stacked.value) == str(alone.value)


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
    assert rep.E_indices == () and rep.mode == "empty"
    # every certified integral respects the value
    assert all(v <= rep.value + 1e-9 for v in rep.per_pair_integrals.values())
    assert rep.E_measure <= rep.value**2


def _assert_mirror_images(fwd, bwd):
    """Two reports of one flow distance in opposite orientations agree bit
    for bit, their couplings transposed."""
    assert bwd.value == fwd.value
    assert bwd.E_indices == fwd.E_indices and bwd.E_measure == fwd.E_measure
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


def _random_markov_flow(rng, n: int, grid: TimeGrid) -> MetricFlow:
    """Random plane points at every time, random adjacent kernels."""
    slices = tuple(euclidean_space(rng.normal(size=(n, 2))) for _ in range(grid.n))
    return MetricFlow(grid, slices, adjacent_kernels=[rng.dirichlet(np.ones(n), size=n) for _ in slices[1:]])


@pytest.mark.parametrize("n1, n2", [(3, 4), (4, 3), (2, 5), (3, 3)])
def test_f_distance_symmetric_on_random_markov_pairs(n1, n2):
    """Random Markov pairs on three times, with uniform and with delta
    anchors, in both e_modes: the two orientations agree bit for bit, their
    couplings transposed. At n1 = n2 the uniform anchors make the top
    time's min-max LPs tie in their measures' bytes, so their cost rows
    decide the orientation."""
    rng = np.random.default_rng(10 * n1 + n2)
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    relation = sorted({(i, i % n2) for i in range(n1)} | {(j % n1, j) for j in range(n2)})
    anchors = [(ProbMeasure.uniform(n1), ProbMeasure.uniform(n2)),
               (ProbMeasure.delta(0, n1), ProbMeasure.delta(n2 - 1, n2))]
    for _ in range(3):
        f1, f2 = _random_markov_flow(rng, n1, grid), _random_markov_flow(rng, n2, grid)
        c = mf.build_union_correspondence(f1, f2, relation)
        for a1, a2 in anchors:
            p1, p2 = tp_pair(f1, a1), tp_pair(f2, a2)
            for e_mode in ("empty", "exhaustive"):
                fwd = mf.f_distance_within(c, p1, p2, e_mode=e_mode)
                bwd = mf.f_distance_within(c.pair_view(1, 0), p2, p1, e_mode=e_mode)
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
    # J protects t = 0 and 1: only t = 2 may join E
    ((2,), (0, 1), [(2,)], (2,)),
    # E = {0} ties the best (value 0.5, measure 0.25), so its branch goes on
    # to measure {0, 2} and {0, 1}; E = {1} is cut at once
    ((2,), (), [(2,), (1,), (0,), (0, 2), (0, 1)], (2,)),
    # {1, 2} and {0, 1} would take 0.75 of the measure 1, over half
    ((1,), (), [(2,), (1,), (1, 2), (0,), (0, 1)], (1,)),
    # sqrt(measure) of any one time is above r = 0.4: each E-branch is cut
    ((), (), [(2,), (1,), (0,)], ()),
])
def test_f_distance_search_branches(monkeypatch, spike, J, measured, E):
    """The search measures E ∪ {t} only for a free time t whose node is
    reached, depth first over increasing times with the active branch
    first. The measured sets (after the total) and the chosen E are
    pinned."""
    c, p1, p2 = _spiked_three_times(spike)
    calls = []
    measure = TimeGrid.measure
    monkeypatch.setattr(TimeGrid, "measure",
                        lambda self, idx: calls.append(tuple(sorted(idx))) or measure(self, idx))
    rep = mf.f_distance_within(c, p1, p2, J=J, e_mode="exhaustive")
    assert calls == [(0, 1, 2)] + measured
    assert rep.E_indices == E


def _exceptional_set_candidates(idxs, free, half, measure, r_at) -> list:
    """Every E of ``free`` times within ``half`` of the measure, as
    (value, measure(E), E, {t: r_t}), r_t asked of ``r_at`` as the search
    asks it."""
    out = []
    for size in range(len(free) + 1):
        for E in itertools.combinations(free, size):
            e_measure = measure(E)
            if e_measure <= half:
                active = [t for t in idxs if t not in E]
                r_by_time = {t: r_at(t, active[: pos + 1]) for pos, t in enumerate(active)}
                out.append((max([math.sqrt(e_measure), *r_by_time.values()]), e_measure, E, r_by_time))
    return out


def test_f_distance_search_matches_brute_force(monkeypatch):
    """Random static cycle pairs on short uniform grids (where cutting a
    time is cheap and cells tie in measure) and randomly spiked two-point
    pairs, with and without a protected time, in both orientations: every
    search returns, bit for bit, the least (value, measure(E), E) and r_t of
    enumerating every E on the same r_t oracle (the same min-max LPs)."""
    search = correspondence._least_exceptional_set
    chosen = []

    def checked(*args):
        got = search(*args)
        assert got == min(_exceptional_set_candidates(*args), key=lambda cand: cand[:3])
        chosen.append(got[2])
        return got

    monkeypatch.setattr(correspondence, "_least_exceptional_set", checked)
    rng = np.random.default_rng(0)
    kern = np.array([[0.9, 0.1], [0.1, 0.9]])
    for k in range(8):
        n_times = 4 + k % 2
        if k % 2 == 0:
            grid = TimeGrid.uniform(0.0, 0.1, n_times - 1)
            f1, f2 = (mf.static_cycle_flow(3, rng.uniform(5, 10), rng.uniform(0.8, 1.25) * scale, grid)
                      for scale in (1.0, 1.3))
        else:
            grid = TimeGrid.uniform(0.0, 1.0, n_times - 1)
            f1 = mf.two_point_flow(C_STAR, 1.0, grid)
            spikes = rng.choice(n_times, size=rng.integers(1, 3), replace=False)
            slices = tuple(two_point_space(rng.choice([2.0, 4.0]) if i in spikes else 1.0)
                           for i in range(n_times))
            f2 = MetricFlow(grid, slices, adjacent_kernels=(kern,) * (n_times - 1))
        n = f1.slices[0].n
        c = mf.build_union_correspondence(f1, f2, [(i, i) for i in range(n)])
        p1, p2 = tp_pair(f1, ProbMeasure.uniform(n)), tp_pair(f2, ProbMeasure.uniform(n))
        for J in ((), (1,)):
            fwd = mf.f_distance_within(c, p1, p2, J=J, e_mode="exhaustive")
            bwd = mf.f_distance_within(c.pair_view(1, 0), p2, p1, J=J, e_mode="exhaustive")
            _assert_mirror_images(fwd, bwd)
    assert len(chosen) == 32 and len(set(chosen)) >= 6 and () not in chosen


def test_exceptional_set_search_breaks_ties_as_enumeration_does():
    """r_t drawn from three values for each (t, active times), over uniform
    cells: in at least 5 of 60 instances several sets tie with the best in
    value and measure, and the search still returns the enumeration's least
    (value, measure(E), E) and its r_t. The search needs no monotone r_t:
    each r_t is final once its time is reached."""
    ties = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n_times = int(rng.integers(5, 8))
        grid = TimeGrid.uniform(0.0, 1.0, n_times - 1)
        idxs = tuple(range(n_times))
        free = [t for t in idxs if rng.random() < 0.8]
        table = {}

        def r_at(t, active):
            return table.setdefault((t, tuple(active)), float(rng.choice([0.25, 0.5, 0.75])))

        half = 0.5 * grid.measure(idxs)
        cands = _exceptional_set_candidates(idxs, free, half, grid.measure, r_at)
        want = min(cands, key=lambda cand: cand[:3])
        assert correspondence._least_exceptional_set(idxs, free, half, grid.measure, r_at) == want
        ties += sum(cand[:2] == want[:2] for cand in cands) > 1
    assert ties >= 5


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
    for mode in ("annealed", "greedy"):
        with pytest.raises(InputError, match=f"unknown e_mode '{mode}'"):
            mf.f_distance_within(c, p1, p2, e_mode=mode)
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
    with pytest.raises(InputError, match="basepoint measure of flow pair 1 is not defined at grid index 4"):
        mf.f_distance_within(c, short, full)
    short = MetricFlowPair(f2, mf.conj_backward(f2, f2.grid.times[-2], anchor))
    with pytest.raises(InputError, match="basepoint measure of flow pair 2 is not defined at grid index 4"):
        mf.f_distance_within(c, tp_pair(f1, anchor), short)
    wrong = mf.ConjHeatFlowField(
        full.mu.time_indices, full.mu.measures[:-1] + (ProbMeasure.uniform(3),)
    )
    with pytest.raises(InputError, match=r"basepoint measure of flow pair 2 at grid index 4 has shape \(3,\)"):
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
    """A distance on P = 40 Markov times composes at most P²/2 kernel
    products per flow: one walk per column for the cost matrices (a walk per
    pair would take about P³/6)."""
    n_times = 40
    grid = TimeGrid.uniform(0.0, 1.0, n_times - 1)
    f1, f2 = (mf.two_point_flow(C_STAR, d, grid) for d in (1.0, 1.2))
    p1, p2 = tp_pair(f1, ProbMeasure.uniform(2)), tp_pair(f2, ProbMeasure.uniform(2))
    counts = [_count_products(f) for f in (f1, f2)]
    c = mf.build_union_correspondence(f1, f2, [(0, 0), (1, 1)])
    assert mf.f_distance_within(c, p1, p2).value > 0.0
    for count in counts:
        assert 0 < count[0] <= n_times**2 // 2


def test_f_distance_json_payload(tp_corr):
    c, f1, f2 = tp_corr
    p1, p2 = tp_pair(f1, ProbMeasure.uniform(2)), tp_pair(f2, ProbMeasure.uniform(2))
    rep = mf.f_distance_within(c, p1, p2)
    doc = rep.to_json_dict()
    assert set(doc) == {
        "value", "E", "r_by_time", "per_pair_integrals", "mode", "J_indices",
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
