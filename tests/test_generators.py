"""Flow generators: the critical two-point constant, two-point flows,
discretized diffusion on a lattice, static (time-independent) flows, and the
self-similar fixed-point construction."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import metricflow as mf
from metricflow import (
    FiniteMetricSpace,
    InputError,
    MetricFlow,
    ProbMeasure,
    TimeGrid,
)
from metricflow.cli import main

from conftest import C_STAR


# ---------------------------------------------------------------------------
# the smallest admissible two-point constant
# ---------------------------------------------------------------------------


def test_min_c_closed_form():
    assert mf.min_C() == pytest.approx(256.0 / math.e, rel=2e-14)


def test_min_c_is_exactly_256_over_e():
    assert mf.min_C() == 256.0 / math.e


def test_generate_two_point_does_not_import_scipy_optimize(tmp_path):
    out = tmp_path / "tp.json"
    code = (
        "import sys; from metricflow.cli import main; "
        f"main(['generate', 'two-point', '--out', {str(out)!r}]); "
        "print('scipy.optimize' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert proc.stdout.splitlines()[-1] == "False"


def test_verify_two_point_does_not_import_scipy_optimize(tmp_path):
    """No LP runs in ``verify`` of a two-point flow, so neither the HiGHS
    bindings nor a solver instance are loaded."""
    doc = tmp_path / "tp.json"
    assert main(["generate", "two-point", "--out", str(doc)]) == 0
    code = (
        "import sys; from metricflow.cli import main; "
        f"code = main(['verify', {str(doc)!r}]); "
        "print(code, 'scipy.optimize' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_min_c_is_the_threshold_of_the_gradient_condition():
    """min_C is the least C with 16 A^2 <= C e^{A^2/16} for every A >= 0."""
    a = np.linspace(0.0, 40.0, 4001)
    lhs = 16.0 * a * a
    good = mf.min_C() * (1.0 + 1e-9)
    assert np.all(lhs <= good * np.exp(a * a / 16.0))
    bad = 0.99 * mf.min_C()
    # fails exactly where the maximum is attained (A = 4)
    assert 16.0 * 16.0 > bad * math.exp(1.0)


# ---------------------------------------------------------------------------
# two-point flows
# ---------------------------------------------------------------------------


def test_two_point_closed_forms():
    C, D = C_STAR, 2.0
    grid = TimeGrid((0.0, 0.1, 0.3))
    flow = mf.two_point_flow(C, D, grid)
    assert flow.slices[0].labels == ("+", "-")
    for s_idx, t_idx in ((0, 1), (1, 2), (0, 2)):
        tau = grid.times[t_idx] - grid.times[s_idx]
        q = math.exp(-C * tau / (2.0 * D * D))
        k = flow.kernel(s_idx, t_idx)
        assert k[0, 0] == pytest.approx(0.5 + 0.5 * q, abs=1e-14)
        assert np.abs(k - k.T).max() <= 1e-15  # composed lags pick up rounding
        space = flow.slices[s_idx]
        nu_p, nu_m = ProbMeasure(k[0]), ProbMeasure(k[1])
        assert mf.variance(space, nu_p) == pytest.approx(
            0.5 * D * D * (1.0 - q * q), abs=1e-12
        )
        assert mf.variance(space, nu_p, nu_m) == pytest.approx(
            0.5 * D * D * (1.0 + q * q), abs=1e-12
        )
        assert mf.w1_distance(space, nu_p, nu_m).value == pytest.approx(D * q, abs=1e-12)
    # concentration constant: variance/lag at the smallest gap, same point
    H, witness = mf.h_concentration_constant(flow)
    g = 0.1
    assert H == pytest.approx(
        0.5 * D * D * (1.0 - math.exp(-C * g / (D * D))) / g, rel=1e-12
    )
    assert witness[1] == witness[0] + 1


def test_two_point_flag_below_threshold():
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    ok = mf.two_point_flow(C_STAR, 1.0, grid)
    assert not ok.flagged("axiom6_unverified")
    weak = mf.two_point_flow(0.9 * mf.min_C(), 1.0, grid)
    assert weak.flagged("axiom6_unverified")
    # the flag marks unverified, not violated: the gradient condition is
    # sharp only in the small-gap limit, and a clearly subcritical constant
    # does fail the battery on a fine grid
    slow = mf.two_point_flow(2.0, 1.0, TimeGrid.uniform(0.0, 1.0, 10))
    assert slow.flagged("axiom6_unverified")
    assert not mf.verify_flow_axioms(slow).ok


def test_two_point_rejects_bad_parameters():
    grid = TimeGrid((0.0, 1.0))
    with pytest.raises(InputError):
        mf.two_point_flow(C_STAR, 0.0, grid)
    with pytest.raises(InputError):
        mf.two_point_flow(-1.0, 1.0, grid)
    with pytest.raises(InputError):
        mf.two_point_flow(math.inf, 1.0, grid)


# ---------------------------------------------------------------------------
# discretized diffusion
# ---------------------------------------------------------------------------


def test_gaussian_matches_continuum_reference(gaussian_fx):
    flow, sidecar = gaussian_fx
    assert flow.flagged("approximate")
    assert not flow.metadata["truncation_warning"]
    space = flow.slices[1]
    k = flow.kernel(1, 2)  # lag 0.5
    i = space.n // 2
    j = i + 15  # offset 1.5
    vi = mf.variance(space, ProbMeasure(k[i]))
    assert vi == pytest.approx(sidecar.var_exact(i, i, 0.5), rel=1e-3)
    vij = mf.variance(space, ProbMeasure(k[i]), ProbMeasure(k[j]))
    assert vij == pytest.approx(sidecar.var_exact(i, j, 0.5), rel=1e-3)
    w = mf.w1_distance(space, ProbMeasure(k[i]), ProbMeasure(k[j])).value
    assert w == pytest.approx(sidecar.w1_exact(i, j), abs=1e-4)
    assert sidecar.w1_exact(i, j) == pytest.approx(1.5, abs=1e-12)


def test_gaussian_concentration_constant(gaussian_fx):
    """Cell quantization inflates the continuum constant 4n by exactly
    h^2/6 per unit lag at the smallest grid gap."""
    flow, sidecar = gaussian_fx
    H, _ = mf.h_concentration_constant(flow)
    h, tau_min = 0.1, 0.5
    assert H == pytest.approx(sidecar.h_exact + h * h / (6.0 * tau_min), rel=1e-10)
    assert H >= sidecar.h_exact


def test_gaussian_reflection_symmetry():
    flow, _ = mf.gaussian_flow_discrete(1, 3.0, 0.1, TimeGrid((0.0, 0.1)))
    k = flow.kernel(0, 1)
    assert np.abs(k - k[::-1, ::-1]).max() <= 1e-14


def test_gaussian_variance_error_shrinks_under_refinement():
    """Halving h divides the variance error by ~4 (it is h^2/6 + O(h^4))."""
    errs = []
    for h in (0.2, 0.1, 0.05):
        flow, sidecar = mf.gaussian_flow_discrete(1, 3.0, h, TimeGrid((0.0, 0.1)))
        k = flow.kernel(0, 1)
        space = flow.slices[0]
        i = space.n // 2
        j = i + int(round(0.5 / h))
        e_same = abs(mf.variance(space, ProbMeasure(k[i])) - sidecar.var_exact(i, i, 0.1))
        e_cross = abs(
            mf.variance(space, ProbMeasure(k[i]), ProbMeasure(k[j]))
            - sidecar.var_exact(i, j, 0.1)
        )
        errs.append(max(e_same, e_cross))
        assert max(e_same, e_cross) == pytest.approx(h * h / 6.0, rel=1e-3)
    assert errs[0] / errs[1] >= 1.5
    assert errs[1] / errs[2] >= 1.5


def test_gaussian_multidimensional():
    flow, sidecar = mf.gaussian_flow_discrete(2, 3.0, 0.5, TimeGrid((0.0, 0.3)))
    assert sidecar.h_exact == 8.0
    assert flow.slices[0].n == 13 * 13
    space = flow.slices[0]
    k = flow.kernel(0, 1)
    center = int(np.argmin(np.abs(sidecar.coords).sum(axis=1)))
    v = mf.variance(space, ProbMeasure(k[center]))
    assert v == pytest.approx(sidecar.var_exact(center, center, 0.3), rel=5e-2)


def test_gaussian_rejects_undersampled_lag():
    with pytest.raises(InputError):
        mf.gaussian_flow_discrete(1, 3.0, 0.2, TimeGrid((0.0, 0.02)))


def test_gaussian_warns_on_small_box():
    with pytest.warns(UserWarning):
        flow, _ = mf.gaussian_flow_discrete(1, 2.0, 0.1, TimeGrid((0.0, 1.0)))
    assert flow.metadata["truncation_warning"]


# ---------------------------------------------------------------------------
# static flows
# ---------------------------------------------------------------------------


def test_cycle_semigroup_is_a_semigroup():
    kernels = mf.cycle_semigroup(5, 2.0, (0.3, 0.6))
    p3, p6 = kernels[0.3], kernels[0.6]
    for p in (p3, p6):
        assert np.all(p >= 0.0)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-14
        # circulant: entries depend only on the hop count
        assert np.abs(p - np.roll(np.roll(p, 1, axis=0), 1, axis=1)).max() <= 1e-13
    assert np.abs(p3 @ p3 - p6).max() <= 1e-12
    with pytest.raises(InputError):
        mf.cycle_semigroup(2, 1.0, (0.5,))
    with pytest.raises(InputError):
        mf.cycle_semigroup(5, 1.0, (0.0,))


def test_static_flow_kernels_depend_only_on_lag():
    grid = TimeGrid((0.0, 0.5, 1.0))
    flow = mf.static_cycle_flow(4, 1.0, 1.0, grid)
    assert np.array_equal(flow.kernel(0, 1), flow.kernel(1, 2))
    assert flow.metadata["generator"] == "static-cycle"


def test_static_flow_rejects_semigroup_violation():
    space = FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
    p1 = np.array([[0.8, 0.2], [0.2, 0.8]])
    bad2 = np.array([[0.5, 0.5], [0.5, 0.5]])  # not p1 @ p1
    with pytest.raises(InputError, match="semigroup"):
        mf.static_flow(space, {1.0: p1, 2.0: bad2}, TimeGrid((0.0, 1.0, 2.0)))
    with pytest.raises(InputError, match="no kernel"):
        mf.static_flow(space, {1.0: p1}, TimeGrid((0.0, 1.0, 2.0)))


def test_static_cycle_contracts_w1(static_cycle_fx):
    flow = static_cycle_fx
    for s_idx in range(flow.grid.n - 1):
        rec = mf.kernel_w1_contraction_check(
            flow, flow.grid.times[s_idx + 1], flow.grid.times[s_idx]
        )
        assert rec.passed


# ---------------------------------------------------------------------------
# self-similar fixtures and the fixed-point construction
# ---------------------------------------------------------------------------


def test_halving_soliton_structure():
    flow, psi = mf.halving_two_point_soliton(t0=-1.0, levels=4, D0=1.0, p=0.7)
    times = flow.grid.times
    assert len(times) == 5 and len(psi) == 4
    for k in range(4):
        assert times[k + 1] == pytest.approx(times[k] / 4.0, abs=1e-15)
        assert flow.slices[k + 1].diameter == pytest.approx(
            0.5 * flow.slices[k].diameter, abs=1e-15
        )
    with pytest.raises(InputError):
        mf.halving_two_point_soliton(t0=1.0)
    with pytest.raises(InputError):
        mf.halving_two_point_soliton(p=0.5)
    with pytest.raises(InputError):
        mf.halving_two_point_soliton(p=1.0)


def test_soliton_fixed_point_two_point():
    flow, psi = mf.halving_two_point_soliton()
    res = mf.soliton_fixed_point(flow, psi)
    # uniform measure is the fixed point of the symmetric contraction
    assert np.abs(res.measure.weights - 0.5).max() <= 1e-9
    assert res.trace[-1] <= 1e-10
    # iteration from a point mass: residuals are exactly 0.3 * 0.4^k
    assert res.trace[0] == pytest.approx(0.3, abs=1e-12)
    for k in range(10):
        assert res.trace[k + 1] / res.trace[k] == pytest.approx(0.4, abs=1e-6)
    assert res.iterations <= 30
    # the contraction factor of the map is |2p - 1| on two points
    assert max(res.contraction_samples) == pytest.approx(0.4, abs=1e-9)
    assert max(res.contraction_samples) <= 0.5


def test_soliton_fixed_point_validates_self_similarity():
    flow, psi = mf.halving_two_point_soliton()
    with pytest.raises(InputError, match="bijection"):
        mf.soliton_fixed_point(flow, [np.array([0, 0])] * 4)
    with pytest.raises(InputError, match="psi maps"):
        mf.soliton_fixed_point(flow, psi[:-1])
    with pytest.raises(InputError):
        # no grid time at t0/4 below the last level
        mf.soliton_fixed_point(flow, psi, t0=flow.grid.times[-1])

    # distances that do not halve
    space = FiniteMetricSpace(labels=("+", "-"), dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
    kern = np.array([[0.7, 0.3], [0.3, 0.7]])
    grid = flow.grid
    rigid = MetricFlow(grid, (space,) * 5, adjacent_kernels=(kern,) * 4)
    with pytest.raises(InputError, match="pushed distances"):
        mf.soliton_fixed_point(rigid, psi)

    # kernels that change across levels
    slices = flow.slices
    kerns = [np.array([[0.7, 0.3], [0.3, 0.7]])] * 3 + [np.array([[0.6, 0.4], [0.4, 0.6]])]
    uneven = MetricFlow(grid, slices, adjacent_kernels=kerns)
    with pytest.raises(InputError, match="equivariance"):
        mf.soliton_fixed_point(uneven, psi)
