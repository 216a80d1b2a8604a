"""Discrete metric flows: grids, kernels, axiom verification, heat flows,
concentration constants and centers, monotonicity checks, and the
mass-distribution lower bound."""

import itertools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from functools import reduce
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import erfcinv

import metricflow as mf
from metricflow import (
    FiniteMetricSpace,
    InputError,
    MetricFlow,
    MetricFlowPair,
    ProbMeasure,
    StructuralError,
    TimeGrid,
    phi,
    phi_inv,
)
from metricflow import cli, flow_core, ot_core

from conftest import C_STAR, euclidean_space, random_space


def two_point_kernel_p(C, D, tau):
    """Mixing weight of the two-point kernel after a lag tau."""
    return 0.5 + 0.5 * math.exp(-C * tau / (2.0 * D * D))


# ---------------------------------------------------------------------------
# the Gaussian antiderivative
# ---------------------------------------------------------------------------


def test_phi_basics():
    assert phi(0.0) == 0.5
    for x in (-3.0, -0.7, 0.2, 1.9, 6.0):
        assert phi(x) + phi(-x) == pytest.approx(1.0, abs=1e-15)
    assert phi(-60.0) >= 0.0 and phi(60.0) <= 1.0


def test_phi_matches_quadrature_oracle():
    """phi integrates (4 pi)^(-1/2) exp(-x^2/4); check against mpmath."""
    for x in (-2.0, 0.3, 1.0, 2.0):
        with mpmath.workdps(30):
            oracle = float(
                mpmath.quad(
                    lambda u: mpmath.exp(-u * u / 4) / mpmath.sqrt(4 * mpmath.pi),
                    [-mpmath.inf, x],
                )
            )
        assert phi(x) == pytest.approx(oracle, rel=1e-14)
    # frozen value at x = 2 (equals (1 + erf(1))/2)
    assert phi(2.0) == pytest.approx(0.9213503964748574, abs=1e-15)


def test_phi_and_phi_inv_arbitrary_precision_path():
    """mpf input stays in mpmath, so the round trip holds far into the tail,
    where float64 spacing of y near 1 limits the float path."""
    with mpmath.workdps(40):
        x = mpmath.mpf(9)
        y = phi(x)
        assert isinstance(y, mpmath.mpf)
        assert mpmath.almosteq(y, (1 + mpmath.erf(x / 2)) / 2, rel_eps=mpmath.mpf(10) ** -35)
        back = phi_inv(y)
        assert isinstance(back, mpmath.mpf)
        assert abs(back - x) < mpmath.mpf(10) ** -25
        with pytest.raises(InputError):
            phi_inv(mpmath.mpf(1))


def test_importing_the_cli_leaves_mpmath_unloaded():
    code = "import sys, metricflow.cli; print('mpmath' in sys.modules)"
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_phi_inv_roundtrip():
    for x in np.linspace(-6, 6, 25):
        assert phi_inv(phi(float(x))) == pytest.approx(float(x), abs=1e-10)
    # deep in the tails the map is flat, so only ask for what double
    # precision can resolve (phi'(10) ~ 3e-12)
    for x in (-10.0, 8.0, 10.0):
        assert phi_inv(phi(x)) == pytest.approx(x, abs=1e-4)
    with pytest.raises(InputError):
        phi_inv(0.0)
    with pytest.raises(InputError):
        phi_inv(1.0)
    # pinned bit for bit to -2·erfcinv(2y) (y <= 1/2) and its reflection
    # 2·erfcinv(2(1-y)), on a seeded sample with 1/2 and the sweep's u grid
    y = np.concatenate([np.random.default_rng(7).random(10_000), [0.5, 1e-300, 1.0 - 2.0**-53],
                        np.arange(1e-3, 1.0, 1e-3)])
    formula = np.where(y <= 0.5, -2.0 * erfcinv(2.0 * np.minimum(y, 0.5)),
                       2.0 * erfcinv(2.0 * (1.0 - np.maximum(y, 0.5))))
    assert np.array_equal(phi_inv(y).view(np.int64), formula.view(np.int64))
    for v, want in zip(y[-1200:], formula[-1200:]):
        for arg in (float(v), np.float64(v), np.array(v)):
            got = phi_inv(arg)
            assert type(got) is float and np.float64(got).view(np.int64) == want.view(np.int64)


# ---------------------------------------------------------------------------
# time grids and flow construction
# ---------------------------------------------------------------------------


def test_time_grid_basics():
    g = TimeGrid.uniform(0.0, 1.0, 4)
    assert g.n == 5
    assert g.span == 1.0
    assert g.index_of(0.5) == 2
    with pytest.raises(InputError):
        g.index_of(0.3)
    w = g.weights()
    assert w.sum() == pytest.approx(g.span, abs=1e-15)
    assert w[0] == pytest.approx(0.125) and w[2] == pytest.approx(0.25)
    assert g.measure([0, 4]) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(InputError):
        TimeGrid((1.0, 0.5))  # not increasing
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="is not finite"):
            g.index_of(bad)
    assert TimeGrid((-1e300, 1e300)).span == 2e300
    with pytest.raises(InputError, match="1e300"):
        TimeGrid((0.0, 1.5e300))


def test_time_grid_window():
    g = TimeGrid((0.0, 0.5, 1000.0))
    assert g.window(0.5 + 4e-13, 1000.0 - 5e-10).tolist() == [1, 2]
    assert g.window(0.5 + 2e-12, 1000.0).tolist() == [2]
    assert g.window(0.1, 0.4).tolist() == []


def test_time_grid_measure_is_the_sorted_weight_sum():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 16))
        g = TimeGrid(tuple(rng.uniform(-3.0, 3.0) + np.cumsum(rng.uniform(0.01, 1.0, n))))
        idx = rng.integers(0, n, size=int(rng.integers(0, 13))).tolist()
        expected = float(g.weights()[sorted(set(idx))].sum())
        assert g.measure(idx) == expected  # bit for bit


def test_flow_requires_exactly_one_kernel_form():
    sp = euclidean_space(np.array([0.0, 1.0]))
    g = TimeGrid((0.0, 1.0))
    k = [np.full((2, 2), 0.5)]
    with pytest.raises(InputError):
        MetricFlow(g, (sp, sp))
    with pytest.raises(InputError):
        MetricFlow(g, (sp, sp), adjacent_kernels=k, pair_kernels={(0, 1): k[0]})


def test_flow_rejects_bad_kernels():
    sp = euclidean_space(np.array([0.0, 1.0]))
    g = TimeGrid((0.0, 1.0))
    with pytest.raises(InputError):
        # corrupted row: sums 0.9 (the stochasticity axiom)
        MetricFlow(g, (sp, sp), adjacent_kernels=[np.array([[0.5, 0.4], [0.2, 0.8]])])
    with pytest.raises(InputError):
        MetricFlow(g, (sp, sp), adjacent_kernels=[np.array([[1.2, -0.2], [0.0, 1.0]])])
    with pytest.raises(StructuralError):
        MetricFlow(g, (sp, sp), adjacent_kernels=[np.full((3, 3), 1.0 / 3)])
    with pytest.raises(StructuralError):
        MetricFlow(g, (sp, sp), adjacent_kernels=[np.array([[np.nan, 1.0], [0.5, 0.5]])])


def test_kernel_composition_and_identity(two_point_flow_fx):
    flow = two_point_flow_fx
    k03 = flow.kernel(0, 3)
    comp = flow.kernel(0, 1) @ flow.kernel(1, 3)
    # kernels compose backward in time: nu_{x;s} = sum_y nu_{y;s} nu_{x;m}(y)
    assert np.abs(k03 - flow.kernel(1, 3) @ flow.kernel(0, 1)).max() <= 1e-15 or (
        np.abs(k03 - comp).max() <= 1e-15
    )
    assert np.array_equal(flow.kernel(2, 2), np.eye(2))
    with pytest.raises(InputError):
        flow.kernel(3, 1)


def test_full_mode_missing_pair():
    sp = euclidean_space(np.array([0.0, 1.0]))
    g = TimeGrid((0.0, 0.5, 1.0))
    pairs = {(0, 2): np.full((2, 2), 0.5)}
    flow = MetricFlow(g, (sp,) * 3, pair_kernels=pairs)
    assert np.array_equal(flow.kernel(0, 2), pairs[(0, 2)])
    with pytest.raises(InputError):
        flow.kernel(0, 1)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def test_two_point_flow_passes_complete_sweep(two_point_flow_fx):
    rep = mf.verify_flow_axioms(two_point_flow_fx)
    assert rep.ok
    assert rep.record("reproduction").worst <= 1e-12
    assert all(e.verdict == "complete" for e in rep.axiom6)
    assert all(e.passed for e in rep.axiom6)


def _single_sweep(flow):
    rep = mf.verify_flow_axioms(flow)
    (entry,) = rep.axiom6
    assert entry.verdict == "complete"
    return rep, entry


def test_two_point_sweep_is_scale_invariant():
    """two_point_flow(C, D) at lag tau·D² is two_point_flow(C, 1) at lag tau
    with every length scaled by D, so its worst ratio does not depend on D."""
    ratios = [_single_sweep(mf.two_point_flow(60.0, D, TimeGrid((0.0, 0.02 * D * D))))[1].worst_ratio
              for D in (0.1, 1.0, 3.0)]
    assert ratios == pytest.approx([ratios[1]] * 3, rel=1e-9)
    assert 0.5 < ratios[1] < 0.6


def test_two_point_sweep_fails_a_subcritical_wide_flow():
    rep, entry = _single_sweep(mf.two_point_flow(3.0, 3.0, TimeGrid((0.0, 0.45))))
    assert not rep.ok and not entry.passed
    assert entry.worst_ratio == pytest.approx(1.2944, abs=1e-4)


def _brute_two_point_ratio(k, d, tau):
    """Worst |f_t(+) - f_t(-)| / (d · (tau + T)^{-1/2}) over extremal data
    f_s = (x, x ± d T^{-1/2}), taken from the definition on a (T, x) grid."""
    x = np.linspace(-7.0, 7.0, 1401)
    worst = 0.0
    for T in d * d * np.geomspace(1e-3, 1e4, 300):
        for sign in (1.0, -1.0):
            f_t = phi_inv(k @ phi(np.stack([x, x + sign * d / math.sqrt(T)])))
            worst = max(worst, float(np.abs(f_t[0] - f_t[1]).max()) / d * math.sqrt(tau + T))
    return worst


@pytest.mark.parametrize("C, D, tau", [(3.0, 3.0, 0.45), (60.0, 0.1, 2e-4), (150.0, 2.0, 0.1)])
def test_two_point_sweep_matches_brute_force_off_unit_distance(C, D, tau):
    flow = mf.two_point_flow(C, D, TimeGrid((0.0, tau)))
    _, entry = _single_sweep(flow)
    assert entry.worst_ratio == pytest.approx(_brute_two_point_ratio(flow.kernel(0, 1), D, tau), rel=1e-4)


def test_reproduction_identity_closed_form():
    C, D = C_STAR, 1.0
    for t1, t2 in ((0.1, 0.2), (0.05, 0.6)):
        p1, p2 = two_point_kernel_p(C, D, t1), two_point_kernel_p(C, D, t2)
        lhs = p1 * p2 + (1 - p1) * (1 - p2)
        assert lhs == pytest.approx(two_point_kernel_p(C, D, t1 + t2), abs=1e-12)


def test_battery_detects_gradient_violation_slow_cycle():
    """A slowly mixing cycle steepens propagated data: the axiom battery
    must flag it (the same mechanism that forces C >= min_C for two points)."""
    flow = mf.static_cycle_flow(5, 2.0, 0.3, TimeGrid.uniform(0.0, 1.0, 4))
    rep = mf.verify_flow_axioms(flow)
    assert not rep.ok
    assert max(e.worst_excess for e in rep.axiom6) > 0.1


def test_battery_detects_frozen_flow():
    """Identity kernels never gain regularity, so the Lipschitz budget
    (t - s + T)^(-1/2) < T^(-1/2) is impossible to meet on two points at
    distance > 0."""
    sp = euclidean_space(np.array([0.0, 1.0, 2.0]))
    g = TimeGrid((0.0, 0.5, 1.0))
    frozen = MetricFlow(g, (sp,) * 3, adjacent_kernels=[np.eye(3), np.eye(3)])
    rep = mf.verify_flow_axioms(frozen)
    assert not rep.ok
    assert mf.h_concentration_constant(frozen)[0] == 0.0  # frozen flows do not spread variance


@pytest.mark.parametrize("steps", [4, 7])
def test_battery_fails_slow_cycle_walks_under_every_seed(steps):
    """Cycle walks that mix too slowly for their edge length fail the
    smoothing axiom whichever random cones the battery draws."""
    for rate, edge in ((2.0, 0.3), (0.5, 1.0), (5.0, 0.3)):
        flow = mf.static_cycle_flow(5, rate, edge, TimeGrid.uniform(0.0, 1.0, steps))
        for seed in range(5):
            rep = mf.verify_flow_axioms(flow, rng_seed=seed)
            assert all(r.passed for r in rep.records)
            assert not rep.ok, (rate, edge, seed)


@pytest.mark.parametrize("fixture", ["two_point_flow_fx", "static_cycle_fx", "product_fx"])
def test_passing_fixtures_pass_under_every_seed(fixture, request):
    flow = request.getfixturevalue(fixture)
    for seed in range(5):
        for mode in ("exhaustive-2pt", "randomized"):
            if seed and mode == "exhaustive-2pt" and fixture == "two_point_flow_fx":
                continue  # the complete sweep draws no random cones
            assert mf.verify_flow_axioms(flow, mode=mode, rng_seed=seed).ok, (mode, seed)


@pytest.mark.filterwarnings("ignore:box half-width:UserWarning")
def test_battery_masks_saturated_pairs_without_warnings():
    """Lattice points 12 apart saturate Phi at T = 0.01 on both points of a
    pair; the battery masks those cases (inf - inf) and warns nothing
    (RuntimeWarning is an error in this suite)."""
    flow, _ = mf.gaussian_flow_discrete(1, 6.0, 0.5, TimeGrid((0.0, 1.0, 1.5, 2.0)))
    rep = mf.verify_flow_axioms(flow, mode="randomized")
    assert rep.ok and all(e.saturated > 0 for e in rep.axiom6)


def test_battery_draws_are_batched():
    """20 000 seeds on a 4-time, 4-point product flow: with three draws
    per T this takes about 0.25 s on a 2-vCPU Xeon, with three draws per
    seed 5.6 to 14 s."""
    tp = mf.two_point_flow(C_STAR, 1.0, TimeGrid.uniform(0.0, 1.0, 3))
    flow = mf.cartesian_product_flow(tp, tp)
    start = time.perf_counter()
    rep = mf.verify_flow_axioms(flow, mode="randomized", seeds=20000)
    elapsed = time.perf_counter() - start
    assert rep.ok and all(e.verdict == "necessary-only" for e in rep.axiom6)
    assert elapsed < 3.0, f"{elapsed:.2f} s"


def test_randomized_mode_agrees_on_valid_flow(two_point_flow_fx):
    rep = mf.verify_flow_axioms(two_point_flow_fx, mode="randomized", seeds=64)
    assert rep.ok
    skip = mf.verify_flow_axioms(two_point_flow_fx, mode="skip")
    assert skip.axiom6 == ()
    assert skip.ok


def test_verify_rejects_unknown_mode(two_point_flow_fx):
    with pytest.raises(InputError):
        mf.verify_flow_axioms(two_point_flow_fx, mode="nope")


# ---------------------------------------------------------------------------
# heat flows
# ---------------------------------------------------------------------------


def test_heat_forward_two_point_closed_form(two_point_flow_fx):
    flow = two_point_flow_fx
    u = mf.heat_forward(flow, 0.0, np.array([1.0, 0.0]))
    for t_idx in range(flow.grid.n):
        tau = flow.grid.times[t_idx]
        p = two_point_kernel_p(C_STAR, 1.0, tau)
        vals = u.value_at(t_idx)
        assert vals[0] == pytest.approx(p, abs=1e-12)
        assert vals[1] == pytest.approx(1 - p, abs=1e-12)


def test_heat_forward_constant_and_max_principle(static_cycle_fx):
    flow = static_cycle_fx
    const = mf.heat_forward(flow, 0.0, np.full(5, 0.3))
    for t_idx in range(flow.grid.n):
        assert np.abs(const.value_at(t_idx) - 0.3).max() <= 1e-14
    rng = np.random.default_rng(1)
    u0 = rng.normal(size=5)
    u = mf.heat_forward(flow, 0.0, u0)
    for t_idx in range(1, flow.grid.n):
        vals = u.value_at(t_idx)
        assert vals.max() <= u0.max() + 1e-12
        assert vals.min() >= u0.min() - 1e-12


def test_conj_backward_delta_gives_kernel_rows(two_point_flow_fx):
    flow = two_point_flow_fx
    mu = mf.conj_backward(flow, 1.0, ProbMeasure.delta(0, 2))
    top = flow.grid.n - 1
    for s_idx in range(flow.grid.n):
        expect = flow.kernel(s_idx, top)[0]
        assert np.abs(mu.measure_at(s_idx).weights - expect).max() <= 1e-15


def test_conj_backward_is_linear(static_cycle_fx):
    flow = static_cycle_fx
    rng = np.random.default_rng(2)
    a = 0.3
    m1, m2 = ProbMeasure(rng.dirichlet(np.ones(5))), ProbMeasure(rng.dirichlet(np.ones(5)))
    mix = ProbMeasure(a * m1.weights + (1 - a) * m2.weights)
    f1 = mf.conj_backward(flow, 1.0, m1)
    f2 = mf.conj_backward(flow, 1.0, m2)
    fm = mf.conj_backward(flow, 1.0, mix)
    for s_idx in range(flow.grid.n):
        blend = a * f1.measure_at(s_idx).weights + (1 - a) * f2.measure_at(s_idx).weights
        assert np.abs(fm.measure_at(s_idx).weights - blend).max() <= 1e-12


def test_pairing_invariant(two_point_flow_fx, product_fx):
    flow = two_point_flow_fx
    u = mf.heat_forward(flow, 0.0, np.array([1.0, 0.0]))
    mu = mf.conj_backward(flow, 1.0, ProbMeasure(np.array([0.7, 0.3])))
    rec = mf.pairing_invariant_check(flow, u, mu)
    assert rec.passed and rec.worst <= 1e-12
    ones = mf.heat_forward(flow, 0.0, np.ones(2))
    rec1 = mf.pairing_invariant_check(flow, ones, mu)
    assert rec1.passed and rec1.worst <= 1e-15
    rng = np.random.default_rng(4)
    n_top = product_fx.slices[-1].n
    up = mf.heat_forward(product_fx, 0.0, rng.normal(size=product_fx.slices[0].n))
    mup = mf.conj_backward(product_fx, 1.0, ProbMeasure(rng.dirichlet(np.ones(n_top))))
    assert mf.pairing_invariant_check(product_fx, up, mup).passed


# ---------------------------------------------------------------------------
# concentration constant and centers
# ---------------------------------------------------------------------------


def test_h_constant_two_point_closed_form(two_point_flow_fx):
    flow = two_point_flow_fx
    H, witness = mf.h_concentration_constant(flow)
    gaps = np.diff(np.asarray(flow.grid.times))
    expect = max(
        0.5 * (1.0 - math.exp(-C_STAR * float(g))) / float(g) for g in gaps
    )
    assert H == pytest.approx(expect, abs=1e-12)
    s_idx, t_idx, x1, x2 = witness
    assert x1 == x2  # off-diagonal pairs have negative numerator
    assert t_idx == s_idx + 1  # attained on an adjacent pair


def test_h_constant_single_time_is_zero():
    sp = euclidean_space(np.array([0.0, 1.0]))
    flow = MetricFlow(TimeGrid((0.0,)), (sp,), adjacent_kernels=())
    assert mf.h_concentration_constant(flow) == (0.0, None)


def test_h_constant_product_subadditive(static_cycle_fx, product_fx):
    tp = mf.two_point_flow(C_STAR, 1.0, TimeGrid.uniform(0.0, 1.0, 4))
    h1 = mf.h_concentration_constant(tp)[0]
    h2 = mf.h_concentration_constant(static_cycle_fx)[0]
    hp = mf.h_concentration_constant(product_fx)[0]
    assert hp <= h1 + h2 + 1e-9
    assert hp >= max(h1, h2) - 1e-9


def _pair_ratios(flow):
    """(s_idx, t_idx, ratio matrix) for every grid pair in (t, s) order, with
    the arithmetic of ``h_concentration_constant``."""
    times = flow.grid.times
    d2 = [s.dist ** 2 for s in flow.slices]
    for t_idx in range(flow.grid.n):
        for s_idx, k in enumerate(flow.column(t_idx)):
            var = k @ d2[s_idx] @ k.T
            yield s_idx, t_idx, (var - d2[t_idx]) / (times[t_idx] - times[s_idx])


def _pair_ratio_max(flow, s_idx, t_idx):
    return next(r.max() for s, t, r in _pair_ratios(flow) if (s, t) == (s_idx, t_idx))


def _h_all_pairs(flow):
    """The all-pairs search: every grid pair, strict > keeps the first maximum."""
    best = 0.0
    witness = None
    for s_idx, t_idx, ratio in _pair_ratios(flow):
        i, j = np.unravel_index(int(ratio.argmax()), ratio.shape)
        cand = float(ratio[i, j])
        if witness is None or cand > best:
            best = cand
            witness = (s_idx, t_idx, int(i), int(j))
    if witness is None:
        return 0.0, None
    return max(best, 0.0), witness


# the largest float whose distance from 1 passes the row-sum check
ROW_SUM_TOP = 1.0 + math.floor(ot_core.EXACT_TOL / 2.0 ** -52) * 2.0 ** -52


PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _markov_doc_flow(n, n_times, seed):
    """The benchmark's random Markov flow (``perfbench/inputs.markov_doc``)."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import inputs

    return cli.document_to_flow(inputs.markov_doc(np.random.default_rng(seed), n, n_times))


def _line_space(xs) -> FiniteMetricSpace:
    xs = np.asarray(xs, dtype=float)
    return FiniteMetricSpace(
        labels=tuple(f"p{i}" for i in range(xs.size)), dist=np.abs(xs[:, None] - xs[None, :])
    )


def _longest_lag_flow():
    """Slice diameters growing with t, every stored pair mixing weakly except
    (0, T - 1), which mixes fully: the maximum sits at the longest lag. Only
    a pair-stored flow can do this: Var is bilinear, so on a Markov flow a
    pair's ratio is at most the larger ratio of its two halves, and the exact
    maximum sits on an adjacent pair."""
    n_times, weak = 6, 1e-4
    slices = tuple(_line_space(np.array([0.0, 1.0, 3.0]) * (1.0 + t)) for t in range(n_times))
    pairs = {(s, t): (1.0 - weak) * np.eye(3) + weak / 3.0 for t in range(n_times) for s in range(t)}
    pairs[(0, n_times - 1)] = np.full((3, 3), 1.0 / 3.0)
    return MetricFlow(TimeGrid.uniform(0.0, 1.0, n_times - 1), slices, pair_kernels=pairs)


def _growing_flow():
    """Random Markov steps on slices whose diameters grow with t."""
    rng = np.random.default_rng(7)
    n, n_times = 5, 12
    slices = tuple(euclidean_space(rng.normal(size=(n, 2)) * (1.0 + t)) for t in range(n_times))
    steps = []
    for _ in range(n_times - 1):
        w = rng.random((n, n)) + 0.1
        steps.append(w / w.sum(axis=1, keepdims=True))
    return MetricFlow(TimeGrid.uniform(0.0, 1.0, n_times - 1), slices, adjacent_kernels=steps)


def _top_row_sum_flow(scale: float, markov: bool):
    """Two-point slices shrinking 1e8-fold per step, with kernels whose rows
    sum to the largest value the row check admits: the off-diagonal ratios
    sit within about 1e-12 of the cap. ``scale`` 1e-160 makes the squared
    distances underflow."""
    n_times = 6
    slices = tuple(_line_space([0.0, scale * 1e-8 ** t]) for t in range(n_times))
    keep = np.diag([ROW_SUM_TOP, ROW_SUM_TOP])
    half = np.array([[0.5, ROW_SUM_TOP - 0.5], [ROW_SUM_TOP - 0.5, 0.5]])
    grid = TimeGrid.uniform(0.0, 1.0, n_times - 1)
    if markov:
        return MetricFlow(grid, slices, adjacent_kernels=[keep, half, keep, keep, half])
    pairs = {(s, t): keep if (s + t) % 3 else half for t in range(n_times) for s in range(t)}
    return MetricFlow(grid, slices, pair_kernels=pairs)


def _subnormal_flow():
    """Six equidistant points whose squared distance is 3 * 2^-1074: the
    products of the variance round up in the subnormal range, past the
    squared diameter, which only the cap's underflow term covers."""
    d = math.sqrt(3.0 * math.ulp(0.0))
    sp = FiniteMetricSpace(labels=tuple("abcdef"), dist=d * (1.0 - np.eye(6)))
    w = np.random.default_rng(0).random((6, 6)) ** 0.3
    step = w / w.sum(axis=1, keepdims=True)
    return MetricFlow(TimeGrid((0.0, 1.0, 2.0)), (sp,) * 3, adjacent_kernels=[step, step])


def _tied_flow():
    """Pairs (1, 2) and (2, 3) carry the same kernel, slices and lag, so their
    ratios tie exactly and are the largest."""
    small, big = _line_space([0.0, 0.1]), _line_space([0.0, 1.0])
    mixing = np.array([[0.8, 0.2], [0.2, 0.8]])
    return MetricFlow(
        TimeGrid((0.0, 1.0, 2.0, 3.0)), (small, big, big, big), adjacent_kernels=[mixing] * 3
    )


def _h_search_flows(request):
    sp = euclidean_space(np.array([0.0, 1.0, 2.0]))
    flows = {
        "two-point": request.getfixturevalue("two_point_flow_fx"),
        "static-cycle": request.getfixturevalue("static_cycle_fx"),
        "gaussian": request.getfixturevalue("gaussian_fx")[0],
        "product": request.getfixturevalue("product_fx"),
        "frozen": MetricFlow(TimeGrid((0.0, 0.5, 1.0)), (sp,) * 3, adjacent_kernels=[np.eye(3)] * 2),
        "single-time": MetricFlow(TimeGrid((0.0,)), (sp,), adjacent_kernels=()),
        "longest-lag": _longest_lag_flow(),
        "growing": _growing_flow(),
        "top-row-sums": _top_row_sum_flow(1.0, markov=True),
        "top-row-sums-pairs": _top_row_sum_flow(1.0, markov=False),
        "top-row-sums-underflow": _top_row_sum_flow(1e-160, markov=True),
        "subnormal": _subnormal_flow(),
        "tie": _tied_flow(),
    }
    for seed in range(3):
        flows[f"markov-24x60-{seed}"] = _markov_doc_flow(24, 60, seed)
        flows[f"markov-6x120-{seed}"] = _markov_doc_flow(6, 120, seed)
    return flows


def test_h_search_matches_all_pairs_and_its_caps_hold(request):
    """The pruned search returns the all-pairs (H, witness) bit for bit, and
    every computed ratio is at most the cap that lets it skip a pair."""
    for name, flow in _h_search_flows(request).items():
        assert mf.h_concentration_constant(flow) == _h_all_pairs(flow), name
        d2 = [s.dist ** 2 for s in flow.slices]
        caps = {t_idx: cap for t_idx, cap in enumerate(flow_core._h_ratio_caps(flow, d2), start=1)}
        for s_idx, t_idx, ratio in _pair_ratios(flow):
            assert ratio.max() <= caps[t_idx][s_idx], (name, s_idx, t_idx)


def test_h_search_fixtures_pin_the_hard_cases():
    """The adversarial flows do what they are built for: the maximum at the
    longest lag, caps within 1e-11 of an attained ratio, a ratio above the
    squared diameter by underflow, and an exact tie."""
    assert _h_all_pairs(_longest_lag_flow())[1][:2] == (0, 5)
    flow = _top_row_sum_flow(1.0, markov=True)
    assert all(abs(k.sum(axis=1) - 1.0).max() <= ot_core.EXACT_TOL for k in flow.stored().values())
    caps = list(flow_core._h_ratio_caps(flow, [s.dist ** 2 for s in flow.slices]))
    tight = max(ratio.max() / caps[t_idx - 1][s_idx] for s_idx, t_idx, ratio in _pair_ratios(flow))
    assert 1.0 - 1e-11 < tight <= 1.0
    flow = _subnormal_flow()
    assert flow.slices[0].dist.max() ** 2 == 3.0 * math.ulp(0.0)
    assert _pair_ratio_max(flow, 0, 1) > 3.0 * math.ulp(0.0)
    flow = _tied_flow()
    H, witness = _h_all_pairs(flow)
    maxima = [(s, t) for s, t, ratio in _pair_ratios(flow) if ratio.max() == H]
    assert maxima == [(1, 2), (2, 3)] and witness[:2] == (1, 2)


def test_h_search_reads_few_pairs_on_the_benchmark_flow():
    """On the 24-point, 60-time Markov flow the caps skip most pairs: the
    search reads at most a third of the 1 770 kernels."""
    flow = _markov_doc_flow(24, 60, 0)
    read = []
    column = flow.column
    flow.column = lambda t_idx, s_idxs: read.extend(s_idxs) or column(t_idx, s_idxs)
    H = mf.h_concentration_constant(flow)
    del flow.column
    assert H == _h_all_pairs(flow)
    assert 0 < len(read) <= 1770 // 3


def test_h_search_refuses_a_missing_pair_the_cap_would_skip():
    """A pair-stored flow without kernel (0, 2) is refused, naming (0, 2),
    even though the long lag to t = 100 puts the cap of (0, 2) below the
    ratio of (0, 1)."""
    pairs = {(0, 1): np.full((2, 2), 0.5), (1, 2): np.eye(2)}
    flow = MetricFlow(TimeGrid((0.0, 1.0, 100.0)), (_line_space([0.0, 1.0]),) * 3, pair_kernels=pairs)
    best = _pair_ratio_max(flow, 0, 1)
    caps = list(flow_core._h_ratio_caps(flow, [s.dist ** 2 for s in flow.slices]))
    assert caps[1][0] < best
    with pytest.raises(InputError, match=r"^no stored kernel for pair \(0, 2\)$"):
        mf.h_concentration_constant(flow)


def test_h_centers_at_equal_times(two_point_flow_fx):
    centers = mf.h_centers(two_point_flow_fx, 1, t=0.5, s=0.5, H=10.0)
    assert centers.tolist() == [1]


def test_h_centers_two_point_plus_qualifies(two_point_flow_fx):
    """Var(delta_+, nu_{+;s}) = (D^2/2)(1 - p-mix decay) <= (C/2) tau by
    1 - exp(-u) <= u, so + is always a C/2-center of itself."""
    flow = two_point_flow_fx
    H = C_STAR / 2.0
    for s in (0.0, 0.4, 0.9):
        centers = mf.h_centers(flow, 0, t=1.0, s=s, H=H)
        assert 0 in centers.tolist()
        tau = 1.0 - s
        var_plus = 1.0 * (0.5 - 0.5 * math.exp(-C_STAR * tau / 2.0))
        assert var_plus <= H * tau + 1e-15


def test_h_centers_mutual_distance(static_cycle_fx):
    flow = static_cycle_fx
    H, _ = mf.h_concentration_constant(flow)
    for x in range(5):
        centers = mf.h_centers(flow, x, t=1.0, s=0.5, H=H)
        assert centers.size > 0
        d = flow.slices[2].dist
        bound = 2.0 * math.sqrt(H * 0.5)
        for i in centers:
            for j in centers:
                assert d[i, j] <= bound + 1e-12


def test_h_centers_require_admissible_H(two_point_flow_fx):
    H, _ = mf.h_concentration_constant(two_point_flow_fx)
    with pytest.raises(InputError):
        mf.h_centers(two_point_flow_fx, 0, t=1.0, s=0.0, H=0.5 * H)
    # knife-edge H equal to the constant still yields a center
    centers = mf.h_centers(two_point_flow_fx, 0, t=1.0, s=0.0, H=H)
    assert centers.size > 0


def test_h_centers_empty_set_raises(two_point_flow_fx, monkeypatch):
    """With the concentration constant faked to 0, H = 0 passes the
    admissibility check, but on a mixing flow every point has positive
    Var(delta_z, nu) at s < t: the empty center set raises."""
    monkeypatch.setattr(mf.flow_core, "h_concentration_constant", lambda flow: (0.0, None))
    with pytest.raises(mf.InternalInvariantError, match="no H-center found"):
        mf.h_centers(two_point_flow_fx, 0, t=1.0, s=0.0, H=0.0)


def test_h_center_within_cell_on_lattice(gaussian_fx):
    flow, sidecar = gaussian_fx
    coords = sidecar.coords[:, 0]
    x = int(np.argmin(np.abs(coords - 1.5)))
    nu = flow.kernel(0, 3)[x]
    second = (flow.slices[0].dist ** 2) @ nu
    z_best = int(np.argmin(second))
    assert abs(coords[z_best] - coords[x]) <= 0.1 + 1e-12


def test_hcenter_mass_bound(two_point_flow_fx, gaussian_fx):
    H, _ = mf.h_concentration_constant(two_point_flow_fx)
    rec = mf.hcenter_mass_bound_check(two_point_flow_fx, 0, t=1.0, s=0.0, H=H)
    assert rec.passed
    flow, _ = gaussian_fx
    Hg, _ = mf.h_concentration_constant(flow)
    recg = mf.hcenter_mass_bound_check(flow, flow.slices[3].n // 2, t=2.0, s=1.0, H=Hg)
    assert recg.passed
    with pytest.raises(InputError):
        mf.hcenter_mass_bound_check(two_point_flow_fx, 0, t=1.0, s=0.0, H=H, A_values=(0.5,))


@pytest.mark.parametrize("check", [
    lambda flow, t, s: mf.h_centers(flow, 0, t=t, s=s, H=1e3),
    lambda flow, t, s: mf.hcenter_mass_bound_check(flow, 0, t=t, s=s, H=1e3),
    lambda flow, t, s: mf.kernel_w1_contraction_check(flow, t, s),
    lambda flow, t, s: mf.intd_diff_bounds_check(
        flow, mf.conj_backward(flow, 1.0, ProbMeasure.uniform(2)), 1e3, s=s, t=t),
], ids=["h_centers", "hcenter_mass_bound_check", "kernel_w1_contraction_check",
        "intd_diff_bounds_check"])
def test_checks_share_one_time_pair_rule(two_point_flow_fx, check):
    """Every check on a time pair resolves t, then s, on the grid and
    refuses s > t: an off-grid pair names t."""
    with pytest.raises(InputError, match="need s <= t"):
        check(two_point_flow_fx, 0.5, 1.0)
    with pytest.raises(InputError, match=r"time 0\.77 is not on the grid"):
        check(two_point_flow_fx, 0.77, 0.33)


# ---------------------------------------------------------------------------
# monotonicity checks
# ---------------------------------------------------------------------------


def _pair_of_conj_flows(flow):
    top = flow.grid.times[-1]
    n = flow.slices[-1].n
    mu1 = mf.conj_backward(flow, top, ProbMeasure.delta(0, n))
    mu2 = mf.conj_backward(flow, top, ProbMeasure.delta(n - 1, n))
    return mu1, mu2


@pytest.mark.parametrize("fixture", ["two_point_flow_fx", "static_cycle_fx", "product_fx"])
def test_w1_monotonicity_suite(fixture, request):
    flow = request.getfixturevalue(fixture)
    mu1, mu2 = _pair_of_conj_flows(flow)
    assert mf.w1_kernel_monotonicity_check(flow, mu1, mu2).passed


@pytest.mark.parametrize("fixture", ["two_point_flow_fx", "static_cycle_fx", "product_fx"])
def test_kernel_contraction_suite(fixture, request):
    flow = request.getfixturevalue(fixture)
    t, s = flow.grid.times[-1], flow.grid.times[0]
    assert mf.kernel_w1_contraction_check(flow, t, s).passed


def test_kernel_contraction_reads_one_w1_batch(product_fx):
    """The check's W1 values are those of one batch over its pairs, in
    combinations order; a one-point slice has no pairs."""
    flow = product_fx
    kernels = [ProbMeasure(row) for row in flow.kernel(1, 3)]
    pairs = list(itertools.combinations(range(flow.slices[3].n), 2))
    batch = ot_core._w1_results([(flow.slices[1], kernels[a], kernels[b]) for a, b in pairs])
    rec = mf.kernel_w1_contraction_check(flow, flow.grid.times[3], flow.grid.times[1])
    assert [row[:3] for row in rec.details] == [(a, b, res.value) for (a, b), res in zip(pairs, batch)]
    point = FiniteMetricSpace(("p",), np.zeros((1, 1)))
    single = MetricFlow(TimeGrid((0.0, 1.0)), (point, point), adjacent_kernels=(np.ones((1, 1)),))
    rec = mf.kernel_w1_contraction_check(single, 1.0, 0.0)
    assert rec.passed and rec.details == ()


@pytest.mark.parametrize("fixture", ["two_point_flow_fx", "static_cycle_fx", "product_fx"])
def test_var_plus_Ht_suite(fixture, request):
    flow = request.getfixturevalue(fixture)
    H, _ = mf.h_concentration_constant(flow)
    mu1, mu2 = _pair_of_conj_flows(flow)
    assert mf.var_plus_Ht_monotonicity_check(flow, mu1, mu2, H).passed


def test_var_plus_Ht_needs_enough_H(two_point_flow_fx):
    mu1, mu2 = _pair_of_conj_flows(two_point_flow_fx)
    rec = mf.var_plus_Ht_monotonicity_check(two_point_flow_fx, mu1, mu1, 0.0)
    assert not rec.passed  # H = 0 cannot compensate the variance drop


def test_monotonicity_checks_need_two_common_times(two_point_flow_fx):
    flow = two_point_flow_fx
    top = flow.grid.times[-1]
    u = mf.heat_forward(flow, top, np.ones(2))  # defined at the top time only
    mu = mf.conj_backward(flow, top, ProbMeasure.uniform(2))
    late = mf.ConjHeatFlowField(u.time_indices, (mu.measure_at(flow.grid.n - 1),))
    for check in (
        lambda: mf.pairing_invariant_check(flow, u, mu),
        lambda: mf.w1_kernel_monotonicity_check(flow, late, mu),
        lambda: mf.var_plus_Ht_monotonicity_check(flow, mu, late, 1.0),
    ):
        with pytest.raises(InputError, match="need at least two common times to compare, got 1"):
            check()


def test_monotonicity_checks_need_common_times_on_the_grid(two_point_flow_fx):
    """Fields sharing a time index past the grid are refused by name, not by
    an IndexError from the slice lookup."""
    flow = two_point_flow_fx
    far = mf.ConjHeatFlowField((0, flow.grid.n), (ProbMeasure.uniform(2),) * 2)
    far_u = mf.HeatFlowField((0, flow.grid.n), (np.ones(2),) * 2)
    for check in (
        lambda: mf.pairing_invariant_check(flow, far_u, far),
        lambda: mf.w1_kernel_monotonicity_check(flow, far, far),
        lambda: mf.var_plus_Ht_monotonicity_check(flow, far, far, 1.0),
    ):
        with pytest.raises(InputError, match=rf"common time indices \[0, {flow.grid.n}\] run off the"):
            check()


# ---------------------------------------------------------------------------
# parabolic neighborhoods, restriction, rescaling
# ---------------------------------------------------------------------------


def test_pstar_membership():
    grid = TimeGrid.uniform(0.0, 1.0, 10)
    fast = mf.two_point_flow(C_STAR, 1.0, grid)
    assert mf.pstar_contains(fast, center=(0.7, 0), A=3.0, T_minus=0.5, T_plus=0.2, point=(0.8, 1))
    slow = mf.two_point_flow(0.5, 1.0, grid)  # mixes barely at all
    assert slow.flagged("axiom6_unverified")
    assert not mf.pstar_contains(
        slow, center=(0.7, 0), A=0.25, T_minus=0.5, T_plus=0.2, point=(0.8, 1)
    )
    # the center belongs to its own neighborhood
    assert mf.pstar_contains(slow, center=(0.7, 0), A=0.25, T_minus=0.5, T_plus=0.2, point=(0.7, 0))
    # a point outside the time window [0.2, 0.9] is outside, however large A
    for t in (0.1, 1.0):
        assert not mf.pstar_contains(fast, center=(0.7, 0), A=3.0, T_minus=0.5, T_plus=0.2,
                                     point=(t, 0))


@pytest.mark.parametrize("ask", [
    lambda flow, x: mf.h_centers(flow, x, t=1.0, s=0.0, H=1e3),
    lambda flow, x: mf.hcenter_mass_bound_check(flow, x, t=1.0, s=0.0, H=1e3),
    lambda flow, x: mf.pstar_contains(flow, (1.0, 0), 1.0, 0.5, 0.0, (1.0, x)),
    lambda flow, x: mf.pstar_contains(flow, (1.0, x), 1.0, 0.5, 0.0, (0.0, 0)),
], ids=["h_centers", "hcenter_mass_bound_check", "pstar_contains_point", "pstar_contains_center"])
def test_point_indices_name_a_point_of_their_slice(two_point_flow_fx, ask):
    """A point index must name a point of the slice at its time: -1 does not
    read the last point and n does not reach numpy's IndexError, even for
    a point outside the neighborhood's time window."""
    for x in (-1, 2):
        with pytest.raises(InputError, match=rf"point index {x} is not a point of the 2-point slice"):
            ask(two_point_flow_fx, x)


@pytest.mark.parametrize("ask", [
    lambda flow, u, mu: mf.d_integral(flow, mu, 0.0),
    lambda flow, u, mu: mf.intd_diff_bounds_check(flow, mu, 1e3, s=0.0, t=1.0),
    lambda flow, u, mu: mf.support_at(flow, mu, 0.0),
    lambda flow, u, mu: mf.pairing_invariant_check(
        flow, u, mf.conj_backward(flow, 1.0, ProbMeasure.uniform(2))),
    lambda flow, u, mu: mf.pairing_invariant_check(flow, mf.heat_forward(flow, 0.0, np.ones(2)), mu),
], ids=["d_integral", "intd_diff_bounds_check", "support_at", "pairing_heat_field",
        "pairing_conj_field"])
def test_fields_live_on_the_flows_slices(two_point_flow_fx, ask):
    """A field with three entries per time on a flow of 2-point slices is
    refused by name, not by numpy, and not read as a support."""
    flow = two_point_flow_fx
    times = tuple(range(flow.grid.n))
    u = mf.HeatFlowField(times, (np.ones(3),) * flow.grid.n)
    mu = mf.ConjHeatFlowField(times, (ProbMeasure.uniform(3),) * flow.grid.n)
    with pytest.raises(InputError, match=r"at grid index 0 has shape \(3,\), not one entry per point"):
        ask(flow, u, mu)


def test_support_at_final_time_is_whole_slice(two_point_flow_fx):
    flow = two_point_flow_fx
    top = flow.grid.times[-1]
    mu = mf.conj_backward(flow, top, ProbMeasure.delta(0, 2))
    rep = mf.support_at(flow, mu, top)
    assert rep == flow_core.SupportReport(
        indices=(0, 1), whole_slice=True, independent_ok=True, mismatches=()
    )


def test_support_at_final_time_reads_its_field():
    """The final grid time is no exception to the field checks: a field not
    defined there, or with a weight count not the slice's, is refused."""
    flow = mf.two_point_flow(C_STAR, 1.0, TimeGrid.uniform(0.0, 1.0, 3))
    top = flow.grid.n - 1
    wrong_size = mf.ConjHeatFlowField((top,), (ProbMeasure.uniform(5),))
    with pytest.raises(InputError, match=rf"mu at grid index {top} has shape \(5,\), not one entry per point"):
        mf.support_at(flow, wrong_size, 1.0)
    elsewhere = mf.ConjHeatFlowField((top - 1,), (ProbMeasure.uniform(2),))
    with pytest.raises(InputError, match=f"mu is not defined at grid index {top}"):
        mf.support_at(flow, elsewhere, 1.0)


def test_support_at_positive_markov_kernel_is_independent(two_point_flow_fx):
    flow = two_point_flow_fx
    assert flow.is_markov
    mu = mf.conj_backward(flow, flow.grid.times[-1], ProbMeasure.delta(1, 2))
    for t in flow.grid.times[:-1]:
        rep = mf.support_at(flow, mu, t)
        assert rep.indices == (0, 1) and not rep.whole_slice
        assert rep.independent_ok and rep.mismatches == ()


def test_support_at_reports_each_kernel_support_mismatch():
    space = euclidean_space(np.array([0.0, 1.0, 2.0]))
    k = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    flow = MetricFlow(TimeGrid((0.0, 1.0)), (space, space), pair_kernels={(0, 1): k})
    mu = mf.conj_backward(flow, 1.0, ProbMeasure.delta(0, 3))
    rep = mf.support_at(flow, mu, 0.0)
    assert rep.indices == (0,) and not rep.whole_slice
    assert not rep.independent_ok
    assert rep.mismatches == ((1, 1, (0, 1)), (1, 2, (2,)))


def test_restrict_flow(two_point_flow_fx):
    flow = two_point_flow_fx
    sub = mf.restrict_flow(flow, 0.2, 0.8)
    assert sub.grid.times[0] == pytest.approx(0.2)
    assert sub.grid.times[-1] == pytest.approx(0.8)
    k = sub.kernel(0, sub.grid.n - 1)
    k_orig = flow.kernel(flow.grid.index_of(0.2), flow.grid.index_of(0.8))
    assert np.abs(k - k_orig).max() <= 1e-15
    with pytest.raises(InputError):
        mf.restrict_flow(flow, 0.8, 0.2)


def test_rescale_shift_parabolic_invariance(two_point_flow_fx):
    flow = two_point_flow_fx
    lam = 2.0
    scaled = mf.rescale_shift(flow, lam, t_shift=1.0)
    assert scaled.slices[0].diameter == pytest.approx(lam * 1.0, abs=1e-15)
    assert scaled.grid.span == pytest.approx(lam * lam * flow.grid.span, abs=1e-12)
    assert scaled.grid.times[0] == pytest.approx(lam * lam * 0.0 + 1.0)
    h0, _ = mf.h_concentration_constant(flow)
    h1, _ = mf.h_concentration_constant(scaled)
    assert h1 == pytest.approx(h0, rel=1e-12)  # Var ~ lam^2, tau ~ lam^2
    with pytest.raises(InputError):
        mf.rescale_shift(flow, 0.0)


@pytest.mark.parametrize("fixture", ["static_cycle_fx", "gaussian_fx"])
def test_restrict_and_rescale_keep_pair_storage(fixture, request):
    flow = request.getfixturevalue(fixture)
    if isinstance(flow, tuple):  # (flow, sidecar)
        flow = flow[0]
    times = flow.grid.times
    sub = mf.restrict_flow(flow, times[1], times[-1])
    assert not sub.is_markov and sub.metadata == flow.metadata
    assert sub.grid.times == times[1:]
    assert list(sub.stored()) == [(s, t) for s in range(sub.grid.n) for t in range(s + 1, sub.grid.n)]
    for (s_idx, t_idx), k in sub.stored().items():
        assert np.array_equal(k, flow.kernel(s_idx + 1, t_idx + 1))
    scaled = mf.rescale_shift(flow, 1.5, t_shift=-0.25)
    assert not scaled.is_markov and scaled.metadata == flow.metadata
    assert scaled.grid.times == pytest.approx([2.25 * t - 0.25 for t in times], abs=1e-15)
    assert list(scaled.stored()) == list(flow.stored())
    for key, k in flow.stored().items():
        assert np.array_equal(scaled.stored()[key], k)


def test_restrict_partially_stored_flow_keeps_the_pairs_inside_the_window():
    rng = np.random.default_rng(5)
    flow, _, _ = _pair_stored_with_gaps(rng, [3, 4, 2, 3, 3, 4])
    times = flow.grid.times
    sub = mf.restrict_flow(flow, times[1], times[4])
    inside = {
        (s_idx - 1, t_idx - 1): k
        for (s_idx, t_idx), k in flow.stored().items()
        if 1 <= s_idx and t_idx <= 4
    }
    assert list(sub.stored()) == [(0, 2), (0, 3), (1, 2), (2, 3)] == sorted(inside)
    for key, k in inside.items():
        assert np.array_equal(sub.stored()[key], k)
    with pytest.raises(InputError, match=re.escape("pair (0, 1)")):
        sub.kernel(0, 1)  # (1, 2) is not stored in the source
    assert mf.verify_flow_axioms(sub, mode="skip").ok


def test_product_of_markov_flows_is_markov():
    grid = TimeGrid((0.0, 0.2, 0.5, 1.0))
    f1 = mf.two_point_flow(C_STAR, 1.0, grid)
    f2 = mf.two_point_flow(2.0 * C_STAR, 1.3, grid)
    prod = mf.cartesian_product_flow(f1, f2)
    assert prod.is_markov
    assert list(prod.stored()) == [(0, 1), (1, 2), (2, 3)]
    for key, k in prod.stored().items():
        assert np.array_equal(k, np.kron(f1.stored()[key], f2.stored()[key]))
    # longer lags: the composed product is the product of the composed factors
    for s_idx, t_idx in ((0, 2), (0, 3), (1, 3)):
        expect = np.kron(f1.kernel(s_idx, t_idx), f2.kernel(s_idx, t_idx))
        assert np.abs(prod.kernel(s_idx, t_idx) - expect).max() <= 1e-15


def test_stored_is_a_read_only_sorted_view():
    rng = np.random.default_rng(2)
    flow, _, _ = _pair_stored_with_gaps(rng, [3, 3, 3, 3])
    stored = flow.stored()
    assert list(stored) == sorted(stored)
    with pytest.raises(TypeError):
        stored[(0, 1)] = np.eye(3)
    assert not any(k.flags.writeable for k in stored.values())


# ---------------------------------------------------------------------------
# distance integrals and the mass-distribution bound
# ---------------------------------------------------------------------------


def test_d_integral_closed_forms(two_point_flow_fx):
    flow = two_point_flow_fx
    point = mf.conj_backward(flow, 0.5, ProbMeasure.delta(0, 2))
    assert mf.d_integral(flow, point, 0.5) == 0.0
    unif = mf.conj_backward(flow, 1.0, ProbMeasure.uniform(2))
    assert mf.d_integral(flow, unif, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_intd_diff_bounds(two_point_flow_fx, static_cycle_fx):
    for flow in (two_point_flow_fx, static_cycle_fx):
        H, _ = mf.h_concentration_constant(flow)
        n = flow.slices[-1].n
        mu = mf.conj_backward(flow, flow.grid.times[-1], ProbMeasure.uniform(n))
        rec = mf.intd_diff_bounds_check(flow, mu, H, s=flow.grid.times[0], t=flow.grid.times[-1])
        assert rec.passed


def test_mass_lower_bound_two_point_fine_grid():
    """tau H <= 1/8 requires a tiny lag; a fine adjacent step does it."""
    grid = TimeGrid((0.0, 1e-4, 2e-4))
    flow = mf.two_point_flow(C_STAR, 1.0, grid)
    H, _ = mf.h_concentration_constant(flow)
    mu = mf.conj_backward(flow, 2e-4, ProbMeasure.delta(0, 2))
    V = max(
        mf.variance(flow.slices[i], mu.measure_at(i)) for i in (1, 2)
    )
    rep = mf.mass_distribution_lower_bound_check(flow, mu, t=1e-4, tau=1e-4, r=1.0, V=V, H=H)
    assert rep.preconditions_ok and not rep.range_empty
    assert rep.ok
    assert all(entry[1] >= entry[2] - 1e-12 for entry in rep.entries)


def test_mass_lower_bound_reports_offgrid_window(two_point_flow_fx):
    mu = mf.conj_backward(two_point_flow_fx, 1.0, ProbMeasure.uniform(2))
    for t, off in ((0.9, "t + tau r^2 on grid"), (0.55, "t on grid")):
        rep = mf.mass_distribution_lower_bound_check(
            two_point_flow_fx, mu, t=t, tau=0.05, r=1.0, V=1.0, H=50.0
        )
        assert not rep.preconditions_ok and not rep.ok and rep.entries == ()
        assert [name for name, ok, _ in rep.preconditions if not ok] == [off]


def test_mass_lower_bound_empty_range(two_point_flow_fx):
    """The flagship flow has tau H >> 1/8 at grid lags: range empty."""
    H, _ = mf.h_concentration_constant(two_point_flow_fx)
    mu = mf.conj_backward(two_point_flow_fx, 1.0, ProbMeasure.uniform(2))
    rep = mf.mass_distribution_lower_bound_check(
        two_point_flow_fx, mu, t=0.5, tau=0.1, r=1.0, V=1.0, H=H
    )
    assert rep.range_empty


# ---------------------------------------------------------------------------
# approximate midpoints
# ---------------------------------------------------------------------------


def test_intrinsic_two_point_thresholds():
    space = FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
    # no midpoint below half the distance ...
    for eps in (0.2, 0.24, 0.49):
        assert not mf.intrinsic_diagnostic(space, eps).ok
    # ... while either endpoint works once eps reaches d/2
    assert mf.intrinsic_diagnostic(space, 0.51).ok


def test_intrinsic_lattice_threshold(gaussian_fx):
    flow, _ = gaussian_fx
    space = flow.slices[0].subspace(range(0, 41))  # 4-unit segment, spacing 0.1
    assert mf.intrinsic_diagnostic(space, 0.06).ok
    rep = mf.intrinsic_diagnostic(space, 0.04)
    assert not rep.ok
    assert rep.failures  # witnesses are reported


def test_field_accessors(two_point_flow_fx):
    u = mf.heat_forward(two_point_flow_fx, 0.5, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        u.value_at(0)  # before the start time
    mu = mf.conj_backward(two_point_flow_fx, 0.5, ProbMeasure.uniform(2))
    with pytest.raises(ValueError):
        mu.measure_at(two_point_flow_fx.grid.n - 1)  # after the anchor


# ---------------------------------------------------------------------------
# fast paths pinned bit for bit to their direct definitions
# ---------------------------------------------------------------------------


def _stochastic(rng, n_rows, n_cols):
    k = rng.random((n_rows, n_cols)) + 0.05
    return k / k.sum(axis=1, keepdims=True)


def _random_markov(rng, sizes):
    grid = TimeGrid(tuple(np.cumsum(rng.uniform(0.05, 0.3, len(sizes)))))
    slices = tuple(random_space(rng, n) for n in sizes)
    adj = [_stochastic(rng, sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]
    return MetricFlow(grid, slices, adjacent_kernels=adj), adj


def _left_to_right(adj, s, t):
    """adj[t-1] @ adj[t-2] @ ... @ adj[s], multiplied left to right."""
    return reduce(np.matmul, [adj[i] for i in range(t - 1, s - 1, -1)])


@pytest.mark.parametrize("first", ["inner-first", "conj-backward", "longest-first"])
def test_kernel_composition_bit_identical(first):
    rng = np.random.default_rng(11)
    flow, adj = _random_markov(rng, [6] * 30)
    if first == "inner-first":
        flow.kernel(5, 20)
        flow.kernel(0, 20)
    elif first == "conj-backward":
        mf.conj_backward(flow, flow.grid.times[20], ProbMeasure.uniform(6))
    else:
        flow.kernel(0, 29)
    for s_idx, t_idx in ((5, 20), (0, 20), (0, 29), (3, 4), (12, 29), (0, 1), (27, 29)):
        assert np.array_equal(flow.kernel(s_idx, t_idx), _left_to_right(adj, s_idx, t_idx))


def _pair_stored_with_gaps(rng, sizes):
    """A pair-stored flow with the kernels of a random Markov flow, some pairs
    missing; also returns the Markov flow and its adjacent kernels."""
    markov, adj = _random_markov(rng, sizes)
    pairs = {
        (s_idx, t_idx): markov.kernel(s_idx, t_idx)
        for t_idx in range(len(sizes))
        for s_idx in range(t_idx)
        if (s_idx + 2 * t_idx) % 5 != 0
    }
    return MetricFlow(markov.grid, markov.slices, pair_kernels=pairs), markov, adj


def test_column_is_the_kernel_walk_bit_for_bit():
    rng = np.random.default_rng(3)
    flow, markov, adj = _pair_stored_with_gaps(rng, [4, 3, 3, 5, 4, 4, 2, 3, 4, 4])
    for t_idx in range(markov.grid.n):
        col = markov.column(t_idx)
        assert len(col) == t_idx
        missing = [s_idx for s_idx in range(t_idx) if (s_idx + 2 * t_idx) % 5 == 0]
        if missing:
            with pytest.raises(InputError, match=re.escape(f"pair {(missing[0], t_idx)}")):
                flow.column(t_idx)
        else:
            assert len(flow.column(t_idx)) == t_idx
        for s_idx in range(t_idx):
            expect = _left_to_right(adj, s_idx, t_idx)
            assert np.array_equal(col[s_idx], expect)
            assert np.array_equal(markov.kernel(s_idx, t_idx), expect)
            if s_idx in missing:
                with pytest.raises(InputError, match=re.escape(f"pair {(s_idx, t_idx)}")):
                    flow.kernel(s_idx, t_idx)
            else:
                assert np.array_equal(flow.kernel(s_idx, t_idx), expect)
                if not missing:
                    assert flow.column(t_idx)[s_idx] is flow.kernel(s_idx, t_idx)
        # a requested subset, in any order, with s == t giving the identity
        subset = [t_idx, *range(t_idx - 1, -1, -3)]
        for f in (markov, flow):
            avoid = [s_idx for s_idx in subset if s_idx not in missing or f is markov]
            got = f.column(t_idx, avoid)
            assert len(got) == len(avoid)
            assert np.array_equal(got[0], np.eye(markov.slices[t_idx].n))
            for s_idx, k in zip(avoid[1:], got[1:]):
                assert np.array_equal(k, _left_to_right(adj, s_idx, t_idx))
        asked = [s_idx for s_idx in subset if s_idx in missing]
        if asked:
            with pytest.raises(InputError, match=re.escape(f"pair {(min(asked), t_idx)}")):
                flow.column(t_idx, subset)
    with pytest.raises(InputError):
        markov.column(markov.grid.n)
    for bad in ([-1], [4], [0, 5]):
        with pytest.raises(InputError, match=r"column\(3\)"):
            markov.column(3, bad)


def test_long_markov_flow_runs_in_bounded_memory():
    """Heat flow, conjugate heat flow and the H constant on a 200-time,
    40-point Markov flow keep one kernel column alive at a time: a cache of
    every composed kernel would hold about 255 MB."""
    rng = np.random.default_rng(0)
    flow, _ = _random_markov(rng, [40] * 200)
    tracemalloc.start()
    try:
        u = mf.heat_forward(flow, flow.grid.times[0], rng.normal(size=40))
        mu = mf.conj_backward(flow, flow.grid.times[-1], ProbMeasure.uniform(40))
        H, witness = mf.h_concentration_constant(flow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(u.values) == len(mu.measures) == 200
    assert H >= 0.0 and witness is not None
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"


def _brute_reproduction(flow):
    worst, witness = 0.0, ()
    for t1 in range(flow.grid.n):
        for t2 in range(t1 + 1, flow.grid.n):
            try:
                k12 = flow.kernel(t1, t2)
            except InputError:
                continue
            for t3 in range(t2 + 1, flow.grid.n):
                try:
                    res = float(np.abs(flow.kernel(t1, t3) - flow.kernel(t2, t3) @ k12).max())
                except InputError:
                    continue
                if res > worst:
                    worst, witness = res, ((t1, t2, t3),)
    return worst, witness


def _audit(flow):
    rec = mf.verify_flow_axioms(flow, mode="skip").record("reproduction")
    return rec.worst, rec.details


def test_reproduction_audit_of_markov_flow_is_empty():
    """A Markov flow stores only its adjacent steps, so no triple of stored
    kernels exists and reproduction holds by definition."""
    rng = np.random.default_rng(5)
    flow, _ = _random_markov(rng, [5] * 24)
    assert _audit(flow) == (0.0, ())


def test_reproduction_audit_matches_triple_loop_markov():
    """The Markov flow's composed kernels, stored as pairs: ulp-level
    residuals, many of them tied, so the witness is the first maximum."""
    rng = np.random.default_rng(5)
    markov, _ = _random_markov(rng, [5] * 24)
    pairs = {(s_idx, t_idx): markov.kernel(s_idx, t_idx)
             for t_idx in range(markov.grid.n) for s_idx in range(t_idx)}
    flow = MetricFlow(markov.grid, markov.slices, pair_kernels=pairs)
    worst, witness = _brute_reproduction(flow)
    assert worst > 0.0
    assert _audit(flow) == (worst, witness)


def test_verify_long_markov_flow_is_fast_and_small():
    """Structural verification of a 200-time, 40-point Markov flow reads
    only its stored steps: no composed kernel is held or multiplied."""
    flow, _ = _random_markov(np.random.default_rng(0), [40] * 200)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = mf.verify_flow_axioms(flow, mode="skip")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.record("reproduction").worst == 0.0
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"


def test_reproduction_audit_matches_triple_loop_pair_stored():
    """Missing pairs are skipped, unequal slice sizes mix, and perturbed
    kernels give residuals far above rounding."""
    rng = np.random.default_rng(9)
    sizes = [3, 2, 2, 3, 3, 3, 2, 3]
    markov, _ = _random_markov(rng, sizes)
    pairs = {}
    for s_idx in range(len(sizes)):
        for t_idx in range(s_idx + 1, len(sizes)):
            if (s_idx + 2 * t_idx) % 5 == 0:
                continue  # missing pair
            k = markov.kernel(s_idx, t_idx)
            if (s_idx * t_idx) % 3 == 1:  # breaks reproduction by a fixed amount
                k = 0.5 * k + 0.5 * _stochastic(rng, *k.shape)
            pairs[(s_idx, t_idx)] = k
    flow = MetricFlow(markov.grid, markov.slices, pair_kernels=pairs)
    worst, witness = _brute_reproduction(flow)
    assert worst > 1e-3
    assert _audit(flow) == (worst, witness)


def _reference_sweep(k, d_s, d_t, tau, u_step, a_step):
    """The sweep for one slice pair, written as its definition: every
    (sign, slope, u) case, one slope chunk at a time."""
    du, dt_ = float(d_s[0, 1]), float(d_t[0, 1])
    u = np.arange(u_step, 1.0, u_step)
    f_plus = phi_inv(u)
    v_plus = phi(-f_plus)
    a = np.arange(0.0, 1.0, a_step)
    big_a = a / (1.0 - a)
    bound = big_a / np.sqrt(tau * big_a**2 + du * du)
    sigmas = (1.0,) if (k == k[::-1, ::-1]).all() else (1.0, -1.0)
    worst_ratio, worst_excess, n_cases, saturated = 0.0, -math.inf, 0, 0
    for sigma in sigmas:
        for lo in range(0, big_a.size, 128):
            b = bound[lo:lo + 128][:, None]
            f_minus = f_plus[None, :] + sigma * big_a[lo:lo + 128][:, None]
            u_minus, v_minus = phi(f_minus), phi(-f_minus)
            f0, ok0 = flow_core._phi_inv_pair(k[0, 0] * u[None, :] + k[0, 1] * u_minus,
                                              k[0, 0] * v_plus[None, :] + k[0, 1] * v_minus)
            f1, ok1 = flow_core._phi_inv_pair(k[1, 0] * u[None, :] + k[1, 1] * u_minus,
                                              k[1, 0] * v_plus[None, :] + k[1, 1] * v_minus)
            valid = ok0 & ok1
            n_cases += valid.size
            saturated += int(valid.size - valid.sum())
            with np.errstate(invalid="ignore"):  # inf - inf where both sides saturate, masked
                ratio = np.where(valid, np.abs(f0 - f1), 0.0) / dt_
            worst_excess = max(worst_excess, float((ratio - b).max()))
            with np.errstate(divide="ignore", invalid="ignore"):
                rr = np.where(b > 0.0, ratio / np.where(b > 0.0, b, 1.0), 0.0)
            worst_ratio = max(worst_ratio, float(rr.max()))
    return worst_ratio, worst_excess, n_cases, saturated


_D1 = np.array([[0.0, 1.0], [1.0, 0.0]])
_D2 = np.array([[0.0, 0.7], [0.7, 0.0]])
_SWEEP_GROUPS = [
    (np.array([[0.8, 0.2], [0.2, 0.8]]), _D1, _D1, 0.3),
    (np.array([[0.9, 0.1], [0.35, 0.65]]), _D1, _D2, 0.2),  # asymmetric: both signs
    (np.array([[0.0, 1.0], [0.4, 0.6]]), _D2, _D2, 0.05),  # saturates at steep slopes
    (np.array([[0.3, 0.7], [0.0, 1.0]]), _D1, _D2, 0.1),  # saturates on both signs
    (np.array([[0.0, 1.0], [0.0, 1.0]]), _D2, _D1, 0.4),  # both sides saturate at once
    # rank one like the group above: f0 == f1 without inverting
    (np.array([[0.5, 0.5], [0.5, 0.5]]), _D1, _D2, 0.25),
    (np.array([[0.3, 0.7], [0.3, 0.7]]), _D2, _D2, 0.15),  # asymmetric: both signs
]


def test_multi_group_sweep_matches_single_pair_sweeps():
    # slope counts 25, 997 (31 blocks of 32 and 5 rows), 64 (two full
    # blocks) and 1000 (31 and 8)
    for u_step, a_step in ((0.05, 0.04), (0.01, 1 / 997), (0.01, 1 / 64), (1e-3, 1e-3)):
        together = flow_core._sweep_two_point(_SWEEP_GROUPS, u_step, a_step)
        for g, res in zip(_SWEEP_GROUPS, together):
            assert flow_core._sweep_two_point([g], u_step, a_step) == [res]
            assert res == _reference_sweep(*g, u_step, a_step)
    # groups 3 to 5 propagate one point's value alone on one side or
    # both, which underflows with its complement once |f_-| passes about 54:
    # from slope row 980 of the 1e-3 grid on, inside its second-to-last block
    assert [res[3] > 0 for res in together] == [False, False, True, True, True, False, False]
    assert all(res[3] < res[2] // 20 for res in together)
    assert [res[:2] for res in together[-3:]] == [(0.0, 0.0)] * 3
    assert [res[2] for res in together[-3:]] == [1_998_000, 999_000, 1_998_000]


def test_rank_one_pairs_invert_nothing(monkeypatch):
    """Only the 999-entry phi_inv(u) of the sweep's set-up reaches ndtri when
    every kernel has equal rows; a full-rank pair inverts both sides of each
    of its cases."""
    rank_one = [g for g in _SWEEP_GROUPS if (g[0][0] == g[0][1]).all()]
    assert len(rank_one) == 3
    want = [_reference_sweep(*g, 1e-3, 1e-3) for g in rank_one]
    counts = []
    real = flow_core.ndtri

    def counting(x, *args, **kwargs):
        counts.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(flow_core, "ndtri", counting)
    assert flow_core._sweep_two_point(rank_one, 1e-3, 1e-3) == want
    assert counts == [999]
    counts.clear()
    flow_core._sweep_two_point(_SWEEP_GROUPS[:1], 1e-3, 1e-3)  # symmetric: one sign
    assert sum(counts) == 999 + 2 * 999_000


def test_sign_rule_needs_the_whole_point_swap():
    """Equal diagonals alone do not make a kernel equal its point swap: an
    off-diagonal ulp apart sends the sweep over both slope signs."""
    k = np.array([[0.7, np.nextafter(0.3, 1.0)], [0.3, 0.7]])
    assert k[0, 0] == k[1, 1] and abs(k.sum(axis=1) - 1.0).max() <= 1e-12
    res = flow_core._sweep_two_point([(k, _D1, _D1, 0.3)], 1e-3, 1e-3)[0]
    assert res[2] == 1_998_000
    assert res == _reference_sweep(k, _D1, _D1, 0.3, 1e-3, 1e-3)


def test_sweep_working_set_stays_small():
    """Scratch buffers hold one block of slope rows, not the whole grid."""
    flow_core._sweep_two_point(_SWEEP_GROUPS, 1e-3, 1e-3)
    tracemalloc.start()
    try:
        flow_core._sweep_two_point(_SWEEP_GROUPS, 1e-3, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def _reference_battery(k, d_s, d_t, tau, T_values, offsets, seeds, rng):
    """The cone battery with each seeded column built on its own from three
    draws per T: all anchors, then all signs, then all offsets."""
    pair_i, pair_j = np.triu_indices(d_t.shape[0], k=1)
    worst_ratio, worst_excess = 0.0, -math.inf
    for T in T_values:
        lam = T ** -0.5
        cols = [sign * (lam * d_s[:, y0]) + c
                for y0 in range(d_s.shape[0]) for sign in (1.0, -1.0) for c in offsets]
        j = rng.integers(0, d_s.shape[0], size=(seeds, 3))
        sg = rng.choice([-1.0, 1.0], size=(seeds, 3))
        cc = rng.uniform(-3.0, 3.0, size=(seeds, 3))
        for i in range(seeds):
            cols.append(np.max(sg[i][None, :] * lam * d_s[:, j[i]] + cc[i][None, :], axis=1))
        f_s = np.stack(cols, axis=1)
        f_t, _ = flow_core._phi_inv_pair(k @ phi(f_s), k @ phi(-f_s))
        bound = (tau + T) ** -0.5
        ratio = np.abs(f_t[pair_i] - f_t[pair_j]) / d_t[pair_i, pair_j][:, None]
        worst_excess = max(worst_excess, float((ratio - bound).max()))
        worst_ratio = max(worst_ratio, float(ratio.max()) / bound)
    return worst_ratio, worst_excess


@pytest.mark.parametrize("offsets", [(), (-1.5, 0.0, 1.5)])
def test_cone_battery_reads_the_choice_stream(offsets):
    rng = np.random.default_rng(2)
    d_s, d_t = random_space(rng, 5).dist, random_space(rng, 4).dist
    k = _stochastic(rng, 4, 5)
    args = (k, d_s, d_t, 0.3, (0.1, 1.0, 4.0), offsets, 40)
    ours, ref = np.random.default_rng(7), np.random.default_rng(7)
    got = flow_core._battery_cone(*args, ours)
    assert got[:2] == _reference_battery(*args, ref)
    assert got[2] == 3 * 6 * (5 * 2 * len(offsets) + 40)
    assert ours.bit_generator.state == ref.bit_generator.state


def _brute_dedupe(flow):
    """Every pair compared with every group so far, in creation order."""
    groups = []
    for t_idx in range(flow.grid.n):
        for s_idx in range(t_idx):
            k = flow.kernel(s_idx, t_idx)
            tau = flow.grid.times[t_idx] - flow.grid.times[s_idx]
            d_s, d_t = flow.slices[s_idx].dist, flow.slices[t_idx].dist
            for g in groups:
                if (
                    abs(g[0] - tau) <= flow_core._time_tol(tau)
                    and (g[1].shape, g[2].shape, g[3].shape) == (k.shape, d_s.shape, d_t.shape)
                    and np.allclose(g[1], k, rtol=0.0, atol=1e-14)
                    and np.allclose(g[2], d_s, rtol=0.0, atol=1e-14)
                    and np.allclose(g[3], d_t, rtol=0.0, atol=1e-14)
                ):
                    g[4].append((s_idx, t_idx))
                    break
            else:
                groups.append((tau, k, d_s, d_t, [(s_idx, t_idx)]))
    return groups


def _group_bytes(groups):
    return [(tau, k.tobytes(), d_s.tobytes(), d_t.tobytes(), members)
            for tau, k, d_s, d_t, members in groups]


def test_dedupe_pairs_matches_the_group_loop():
    """Repeated lags (a static flow), distinct lags over mixed slice sizes
    (a jittered Markov flow), and equal lags whose kernels share their
    first row but differ below it, so np.allclose decides."""
    static = mf.static_cycle_flow(5, 8.0, 0.7, TimeGrid.uniform(0.0, 1.0, 6))
    jittered, _ = _random_markov(np.random.default_rng(4), [3, 2, 3, 3, 2, 4, 3])
    rng = np.random.default_rng(5)
    steps = []
    for _ in range(6):
        k = _stochastic(rng, 4, 4)
        k[0] = (1.0, 0.0, 0.0, 0.0)  # point 0 absorbs: every K(s, t) has this first row
        steps.append(k)
    absorbing = MetricFlow(TimeGrid.uniform(0.0, 1.0, 6), (random_space(rng, 4),) * 7,
                           adjacent_kernels=steps)
    for flow in (static, jittered, absorbing):
        got = flow_core._dedupe_pairs(flow)
        assert _group_bytes(got) == _group_bytes(_brute_dedupe(flow))
    assert len(flow_core._dedupe_pairs(static)) == 6  # one group per lag


@pytest.mark.parametrize("grid", ["uniform", "jittered"])
def test_dedupe_pairs_is_fast_on_long_flows(grid):
    """60 times of 24 points: 1 830 pairs, and on the uniform grid each lag
    recurs up to 59 times with distinct kernels."""
    rng = np.random.default_rng(6)
    flow, _ = _random_markov(rng, [24] * 60)
    if grid == "uniform":
        flow = MetricFlow(TimeGrid.uniform(0.0, 1.0, 59), flow.slices,
                          adjacent_kernels=[flow.kernel(i, i + 1) for i in range(59)])
    start = time.perf_counter()
    groups = flow_core._dedupe_pairs(flow)
    elapsed = time.perf_counter() - start
    assert sum(len(g[4]) for g in groups) == 60 * 59 // 2
    assert elapsed < 0.2, f"{elapsed:.2f} s"


def test_worst_decrease_matches_pair_loop():
    rng = np.random.default_rng(3)
    cases = [[1.0, 1.0], [2.0, 1.0], [1.0, 2.0], [0.0, -0.0, 0.0], [3.0, 3.0, 1.0, 3.0, 1.0]]
    for n in (2, 3, 5, 17, 40):
        for _ in range(25):
            vals = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            vals[rng.random(n) < 0.3] = vals[0]  # ties
            cases.append(list(vals))
    for vals in cases:
        loop = 0.0
        for a in range(len(vals)):
            for b in range(a + 1, len(vals)):
                loop = max(loop, vals[a] - vals[b])
        rec = flow_core._non_decreasing("curve", range(len(vals)), vals)
        assert rec.worst == loop and rec.passed == (loop <= 1e-9)


def test_time_grid_matches():
    g = TimeGrid((0.0, 0.5, 1000.0))
    assert g.matches(TimeGrid((0.0, 0.5 + 5e-13, 1000.0 + 5e-10)))
    assert not g.matches(TimeGrid((0.0, 0.5 + 5e-12, 1000.0)))
    assert not g.matches(TimeGrid((0.0, 0.5)))
    # the three grid checks that use it keep their messages
    f1 = mf.two_point_flow(C_STAR, 1.0, TimeGrid.uniform(0.0, 1.0, 3))
    f2 = mf.two_point_flow(C_STAR, 1.0, TimeGrid.uniform(0.0, 2.0, 3))
    with pytest.raises(InputError, match="product flows need identical time grids"):
        mf.cartesian_product_flow(f1, f2)
    with pytest.raises(InputError, match="flows live on different time grids"):
        mf.build_union_correspondence(f1, f2, [(0, 0)])
    c = mf.build_union_correspondence(f1, f1, [(0, 0), (1, 1)])
    p1 = MetricFlowPair(f1, mf.conj_backward(f1, 1.0, ProbMeasure.uniform(2)))
    p2 = MetricFlowPair(f2, mf.conj_backward(f2, 2.0, ProbMeasure.uniform(2)))
    with pytest.raises(InputError, match="different time grid than the correspondence"):
        mf.f_distance_within(c, p1, p2)


def test_phi_inv_pair_flags_underflow():
    f, ok = flow_core._phi_inv_pair(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.7, 0.0]))
    assert ok.tolist() == [False, True, False]
    assert f[0] == -np.inf and f[2] == np.inf
    assert f[1] == pytest.approx(phi_inv(0.3), rel=1e-14)
    f, ok = flow_core._phi_inv_pair(np.array([0.3, 0.9]), np.array([0.7, 0.1]))
    assert ok.all() and f == pytest.approx(phi_inv(np.array([0.3, 0.9])), rel=1e-14)
