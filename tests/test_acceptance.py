"""End-to-end acceptance checks: one test per guaranteed behavior, each with
its stated tolerance and a wall-clock budget. Every test prints a single
pass line (visible with -s or -rA)."""

import json
import math
import subprocess
import time

import numpy as np
import pytest

import metricflow as mf
import metricflow.cli
from metricflow import (
    BFunction,
    FiniteMetricSpace,
    MetricFlowPair,
    ProbMeasure,
    TimeGrid,
)

from conftest import C_STAR, console_argv, random_measure, random_space, two_point_space


def finish(t0, budget, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeded the {budget}s budget"
    print(f"{label}: PASS ({elapsed:.2f}s)")


def test_criterion_01_two_point_exactness():
    t0 = time.perf_counter()
    grid = TimeGrid.uniform(0.0, 1.0, 10)
    flow = mf.two_point_flow(C_STAR, 1.0, grid)
    report = mf.verify_flow_axioms(flow)
    assert report.ok
    assert report.record("reproduction").worst <= 1e-12
    assert all(e.verdict == "complete" and e.passed for e in report.axiom6)
    for s_idx in range(grid.n):
        for t_idx in range(s_idx + 1, grid.n):
            tau = grid.times[t_idx] - grid.times[s_idx]
            expect = 0.5 * (1.0 - math.exp(-C_STAR * tau))
            for x in range(2):
                nu = ProbMeasure(flow.kernel(s_idx, t_idx)[x])
                assert mf.variance(flow.slices[s_idx], nu) == pytest.approx(
                    expect, abs=1e-12
                )
    finish(t0, 5.0, "criterion 01 two-point exactness")


def test_criterion_02_h_concentration_limit():
    t0 = time.perf_counter()
    grid = TimeGrid.uniform(0.0, 1.0, 10)
    flow = mf.two_point_flow(C_STAR, 1.0, grid)
    H, _ = mf.h_concentration_constant(flow)
    dt = 0.1
    assert H == pytest.approx(0.5 * (1.0 - math.exp(-C_STAR * dt)) / dt, abs=1e-10)
    target = 1.0 / (C_STAR * 100.0)
    values = []
    for gap in np.geomspace(0.1, target, 12):
        f = mf.two_point_flow(C_STAR, 1.0, TimeGrid((0.0, float(gap))))
        values.append(mf.h_concentration_constant(f)[0])
    assert all(b > a for a, b in zip(values, values[1:]))  # upward convergence
    assert values[-1] <= C_STAR / 2.0
    assert abs(values[-1] - C_STAR / 2.0) <= 0.01 * (C_STAR / 2.0)
    finish(t0, 5.0, "criterion 02 concentration constant limit")


def test_criterion_03_gaussian_validation():
    t0 = time.perf_counter()
    grid = TimeGrid((0.0, 0.5, 1.0, 2.0))
    worst_by_h = {}
    for h in (0.1, 0.05):
        flow, sidecar = mf.gaussian_flow_discrete(1, 12.0, h, grid)
        coords = sidecar.coords[:, 0]
        idx = np.nonzero(np.abs(coords) <= 3.0 + 1e-12)[0]
        gap2 = (coords[idx][:, None] - coords[idx][None, :]) ** 2
        d2 = flow.slices[0].dist ** 2
        worst = 0.0
        for t_idx in (1, 2, 3):
            tau = grid.times[t_idx]
            k = flow.kernel(0, t_idx)[idx]
            var = k @ d2 @ k.T
            exact = gap2 + 4.0 * tau
            worst = max(worst, float(np.max(np.abs(var - exact) / exact)))
        worst_by_h[h] = worst
    assert worst_by_h[0.1] <= 0.02
    assert worst_by_h[0.1] / worst_by_h[0.05] >= 1.5
    finish(t0, 60.0, "criterion 03 lattice diffusion vs continuum")


def test_criterion_04_ot_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        space = random_space(rng, n)
        m1, m2, m3 = (random_measure(rng, n) for _ in range(3))
        r12 = mf.w1_distance(space, m1, m2)
        r23 = mf.w1_distance(space, m2, m3)
        r13 = mf.w1_distance(space, m1, m3)
        for r in (r12, r23, r13):
            assert 0.0 <= r.certificate.gap <= 1e-8 * max(1.0, r.value)
        assert r13.value <= r12.value + r23.value + 1e-9
        cross = mf.variance(space, m1, m2)
        assert r12.value <= math.sqrt(cross) + 1e-9
        assert math.sqrt(cross) <= r12.value + math.sqrt(
            mf.variance(space, m1)
        ) + math.sqrt(mf.variance(space, m2)) + 1e-9
    finish(t0, 30.0, "criterion 04 transport correctness (200 instances)")


def _fixture_flows():
    two_point = mf.two_point_flow(C_STAR, 1.0, TimeGrid.uniform(0.0, 1.0, 10))
    static = mf.static_cycle_flow(5, 8.0, 0.7, TimeGrid.uniform(0.0, 1.0, 4))
    tp4 = mf.two_point_flow(C_STAR, 1.0, TimeGrid.uniform(0.0, 1.0, 4))
    product = mf.cartesian_product_flow(tp4, static)
    return two_point, static, product


def test_criterion_05_monotonicity_suites():
    t0 = time.perf_counter()
    for flow in _fixture_flows():
        top = flow.grid.times[-1]
        n = flow.slices[-1].n
        mu1 = mf.conj_backward(flow, top, ProbMeasure.delta(0, n))
        mu2 = mf.conj_backward(flow, top, ProbMeasure.delta(n - 1, n))
        assert mf.w1_kernel_monotonicity_check(flow, mu1, mu2).passed
        H, _ = mf.h_concentration_constant(flow)
        assert mf.var_plus_Ht_monotonicity_check(flow, mu1, mu2, H).passed
        rng = np.random.default_rng(5)
        u = mf.heat_forward(flow, 0.0, rng.normal(size=flow.slices[0].n))
        rec = mf.pairing_invariant_check(flow, u, mu1)
        assert rec.passed and rec.worst <= 1e-10
    finish(t0, 20.0, "criterion 05 monotonicity suites")


def test_criterion_06_h_centers():
    t0 = time.perf_counter()
    two_point, static, _ = _fixture_flows()
    for flow in (two_point, static):
        H, _ = mf.h_concentration_constant(flow)
        times = flow.grid.times
        for s_pos in range(flow.grid.n):
            for t_pos in range(s_pos, flow.grid.n):
                s, t = times[s_pos], times[t_pos]
                d = flow.slices[s_pos].dist
                bound = 2.0 * math.sqrt(H * (t - s))
                for x in range(flow.slices[t_pos].n):
                    centers = mf.h_centers(flow, x, t=t, s=s, H=H)
                    assert centers.size > 0
                    sub = d[np.ix_(centers, centers)]
                    assert float(sub.max()) <= bound + 1e-9
                    if t > s:
                        rec = mf.hcenter_mass_bound_check(
                            flow, x, t=t, s=s, H=H, A_values=(2.0, 4.0, 8.0)
                        )
                        assert rec.passed
    finish(t0, 10.0, "criterion 06 concentration centers")


def test_criterion_07_mass_distribution_bound():
    t0 = time.perf_counter()
    fine = mf.two_point_flow(C_STAR, 1.0, TimeGrid((0.0, 1e-4, 2e-4)))
    gflow, gside = mf.gaussian_flow_discrete(1, 2.0, 0.1, TimeGrid((0.0, 0.02, 0.04)))
    cases = []
    h_fine, _ = mf.h_concentration_constant(fine)
    mu_f = mf.conj_backward(fine, 2e-4, ProbMeasure.delta(0, 2))
    v_f = max(mf.variance(fine.slices[i], mu_f.measure_at(i)) for i in (1, 2))
    cases.append((fine, mu_f, 1e-4, 1e-4, v_f, h_fine))
    h_g, _ = mf.h_concentration_constant(gflow)
    center = int(np.argmin(np.abs(gside.coords[:, 0])))
    mu_g = mf.conj_backward(gflow, 0.04, ProbMeasure.delta(center, gflow.slices[2].n))
    v_g = max(mf.variance(gflow.slices[i], mu_g.measure_at(i)) for i in (1, 2))
    cases.append((gflow, mu_g, 0.02, 0.02, v_g, h_g))
    for flow, mu, t, tau, V, H in cases:
        assert tau * H <= 0.125  # the eps-range precondition
        rep = mf.mass_distribution_lower_bound_check(flow, mu, t=t, tau=tau, r=1.0, V=V, H=H)
        assert rep.preconditions_ok and not rep.range_empty
        assert rep.ok
        for eps, b_val, rhs, ok in rep.entries:
            assert ok and b_val >= rhs - 1e-12
            assert 2.0 * (tau * H) ** (1.0 / 3.0) <= eps <= 1.0
    finish(t0, 10.0, "criterion 07 mass-distribution lower bound")


def test_criterion_08_flow_distance():
    t0 = time.perf_counter()
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    fa, fb, fc = (mf.two_point_flow(C_STAR, d, grid) for d in (1.0, 1.1, 1.2))
    ident = [(0, 0), (1, 1)]
    anchor = ProbMeasure.uniform(2)

    def pair(flow):
        return MetricFlowPair(flow, mf.conj_backward(flow, 1.0, anchor))

    c_self = mf.build_union_correspondence(fa, fa, ident)
    assert mf.f_distance_within(c_self, pair(fa), pair(fa)).value == 0.0

    c12 = mf.build_union_correspondence(fa, fb, ident)
    fwd = mf.f_distance_within(c12, pair(fa), pair(fb))
    bwd = mf.f_distance_within(c12.pair_view(1, 0), pair(fb), pair(fa))
    assert abs(fwd.value - bwd.value) <= 1e-10

    # independent coupling-family oracle on the 2-point pair
    def oracle():
        def cost(s_idx, t_idx):
            g = c12.ambient_at(s_idx)
            M = np.zeros((2, 2))
            for x1 in range(2):
                for x2 in range(2):
                    M[x1, x2] = mf.w1_distance(
                        g.ambient,
                        g.push(0, ProbMeasure(fa.kernel(s_idx, t_idx)[x1])),
                        g.push(1, ProbMeasure(fb.kernel(s_idx, t_idx)[x2])),
                    ).value
            return M

        best = 0.0
        for t_idx in c12.time_indices:
            costs = [cost(s, t_idx) for s in range(t_idx + 1)]

            def worst(th):
                q = np.array([[th, 0.5 - th], [0.5 - th, th]])
                return max(float((M * q).sum()) for M in costs)

            lo, hi = 0.0, 0.5
            for _ in range(120):
                m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
                if worst(m1) <= worst(m2):
                    hi = m2
                else:
                    lo = m1
            best = max(best, worst(0.5 * (lo + hi)))
        return best

    assert fwd.value == pytest.approx(oracle(), abs=1e-6)

    c123 = mf.combine_correspondences(c12, mf.build_union_correspondence(fb, fc, ident))
    tri = mf.f_triangle_check(c123, pair(fa), pair(fb), pair(fc))
    assert tri.holds and tri.certificate_ok
    assert tri.d13.value <= tri.d12.value + tri.d23.value + 1e-8

    for rep in (fwd, tri.d12, tri.d23, tri.d13):
        assert rep.E_measure <= rep.value**2 + 1e-12
        assert all(v <= rep.value + 1e-9 for v in rep.per_pair_integrals.values())
    for t in fwd.r_by_time:
        g = c12.ambient_at(t)
        top = mf.w1_distance(
            g.ambient,
            g.push(0, pair(fa).mu.measure_at(t)),
            g.push(1, pair(fb).mu.measure_at(t)),
        ).value
        assert top <= fwd.value + 1e-9
    finish(t0, 60.0, "criterion 08 flow distance")


def test_criterion_09_finite_approximation():
    t0 = time.perf_counter()
    pts = 0.1 * np.arange(10)
    d = np.abs(pts[:, None] - pts[None, :])
    space = FiniteMetricSpace(labels=tuple(f"p{i}" for i in range(10)), dist=d)
    mu = ProbMeasure.uniform(10)
    b = BFunction(eps_grid=(0.05, 1.0), values=(0.05, 0.05))
    for alpha in (0.5, 0.25):
        out = mf.finite_approximation(space, mu, r=1.0, alpha=alpha, V=1.0, b=b)
        assert out.bound <= alpha * 1.0
        scaled = out.measure.weights * out.N
        assert np.abs(scaled - np.round(scaled)).max() <= 1e-9
        check = mf.w1_distance(space, mu, out.measure)
        assert check.value == pytest.approx(out.bound, abs=1e-12)
        check.certificate.validate(space, mu, out.measure)
    finish(t0, 5.0, "criterion 09 finite approximation")


def test_criterion_10_soliton_contraction():
    t0 = time.perf_counter()
    flow, psi = mf.halving_two_point_soliton()
    res = mf.soliton_fixed_point(flow, psi)
    assert len(res.contraction_samples) >= 99
    assert max(res.contraction_samples) <= 0.5 + 1e-9
    assert res.trace[-1] <= 1e-10
    finish(t0, 10.0, "criterion 10 soliton contraction")


def test_criterion_11_cli_contract(tmp_path):
    t0 = time.perf_counter()

    def cli(*argv):
        return subprocess.run([*console_argv(), *argv], capture_output=True, text=True)

    doc = tmp_path / "tp.json"
    assert cli("generate", "two-point", "--steps", "4", "--out", str(doc)).returncode == 0

    flow = mf.cli.load_flow(str(doc))
    copy = tmp_path / "copy.json"
    mf.cli.save_flow(flow, str(copy))
    assert doc.read_bytes() == copy.read_bytes()

    ver = cli("verify", str(doc))
    assert ver.returncode == 0 and "summary: PASS" in ver.stdout

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli("verify", str(bad)).returncode == 2

    broken = json.loads(doc.read_text())
    broken["kernels"]["matrices"][0][0][0] += 0.25
    corrupted = tmp_path / "corrupt.json"
    corrupted.write_text(json.dumps(broken))
    assert cli("verify", str(corrupted)).returncode == 1
    finish(t0, 5.0, "criterion 11 command-line contract")
