import hashlib
import math

import numpy as np
import pytest
from dataclasses import replace

from coneflow.errors import ConfigurationError, PositivityError
from coneflow import flow_engine
from coneflow.estimates import ricci_residual
from coneflow.fibration_model import product_model
from coneflow.flow_engine import (FlowOps, ProductFlow4D, fit_decay_slope,
                                  flow_step, run_flow)
from coneflow.ke_solver import (KESolution, build_problem, ke_residual,
                                newton_solve)
from coneflow.torus_field import ScalarField, lap_values
from tests.conftest import mesh, observers


def make_problem(n=64, eps=0.1, beta=0.5, delta=0.1):
    return build_problem(replace(product_model(), beta=beta, delta=delta), n,
                         eps)


@pytest.fixture(scope="module")
def problem64():
    return make_problem(64)


@pytest.fixture(scope="module")
def solved64(problem64):
    return newton_solve(problem64)


def state_of(problem, phi_values, t=0.0, dt=0.05):
    return FlowOps(problem).state(phi_values, t, dt)


def rk4_step(ops, state):
    """One classical RK4 step, the explicit reference that backward Euler
    is checked against; its dt must be within the stability guard
    0.2 h^2 A / max density."""
    phi, dt = state.phi.values, state.dt
    guard = 0.2 * ops.bg.grid.spacing**2 * ops.bg.area \
        / float(state.density.max())
    assert dt <= guard, f"rk4 step dt={dt} exceeds the stability guard " \
        f"{guard:.3e} (0.2 h^2 A / max density)"
    k1 = state.rhs
    k2 = ops.rhs_values(phi + 0.5 * dt * k1)
    k3 = ops.rhs_values(phi + 0.5 * dt * k2)
    k4 = ops.rhs_values(phi + dt * k3)
    return ops.state(phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                     state.t + dt, dt)


def test_rhs_vanishes_at_solution(problem64, solved64):
    rhs = FlowOps(problem64).rhs_values(solved64.phi.values)
    assert np.abs(rhs).max() <= 1e-8


def test_rhs_shift_by_constant(problem64):
    n = problem64.bg.grid.n
    rng = np.random.default_rng(2)
    x, y = mesh(problem64.bg.grid)
    phi = 0.02 * np.cos(2 * np.pi * x)
    ops = FlowOps(problem64)
    r0 = ops.rhs_values(phi)
    c = 0.37
    r1 = ops.rhs_values(phi + c)
    assert np.abs((r0 - c) - r1).max() < 1e-12


def test_snapshots_are_the_states_at_their_times(problem64):
    state, traj, _ = run_flow(problem64, T=0.2, dt=0.05, **observers(
        problem64, snapshot_times=(0.2, 0.1)))
    assert list(traj.snapshots) == [0.1, 0.2]
    assert traj.snapshots[0.2] is state
    ops = FlowOps(problem64)
    assert ops.cone is problem64.cone
    for t, snap in traj.snapshots.items():
        assert snap.t == pytest.approx(t)
        assert np.array_equal(snap.density,
                              ops.density_values(snap.phi.values))


@pytest.fixture(scope="module")
def problem32():
    return make_problem(32)


@pytest.mark.parametrize("times", [(0.0, 0.2), (0.07, 0.2), (0.2, 0.35)])
def test_snapshot_times_must_be_step_times(problem32, times):
    # t = 0 is no step, 0.07 falls between the steps 0.05 and 0.1, and
    # 0.35 lies past T; none may block or relabel the other snapshots
    with pytest.raises(ConfigurationError, match="not a step time"):
        run_flow(problem32, T=0.3, dt=0.05,
                 **observers(problem32, snapshot_times=times))


def test_rhs_identity_case_formula(problem64):
    # with F = (q + eps^2)^(1-beta) the rhs at phi = 0 has a closed form
    from coneflow.fibration_model import DensityData
    bg = problem64.bg
    eps, beta, delta = problem64.epsilon, problem64.beta, problem64.delta
    log_f = (1 - beta) * np.log(bg.q.values + eps * eps)
    p = replace(problem64,
                density=DensityData(ScalarField(bg.grid, log_f)))
    ops = FlowOps(p)
    rhs = ops.rhs_values(np.zeros((bg.grid.n,) * 2))
    cone = p.cone      # already delta * chi
    expected = np.log(1.0 + 0.5 * lap_values(cone) / bg.area) - cone
    assert np.abs(rhs - expected).max() < 1e-12


def test_rhs_reuses_given_density_bitwise(problem64):
    x, y = mesh(problem64.bg.grid)
    phi = 0.02 * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y)
    ops = FlowOps(problem64)
    assert np.array_equal(ops.rhs_values(phi, ops.density_values(phi)),
                          ops.rhs_values(phi))


@pytest.mark.parametrize("eps", [0.05, 0.0])
def test_formulas_match_written_out_expressions(m2, eps):
    # the metric density and log rho each have one home; each use must
    # still equal, bit for bit, the expression written out in full
    p = build_problem(m2, 64, eps)
    bg, log_f, beta = p.bg, p.density.log_density.values, p.beta
    q, area, grid = bg.q.values, bg.area, bg.grid
    x, y = mesh(grid)
    phi = 0.02 * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y)
    cone = p.cone
    v = phi + cone
    ops = FlowOps(p)
    assert np.array_equal(
        ops.log_prefactor,
        (1.0 - beta) * np.log(q + eps**2) - log_f - math.log(area))
    assert np.array_equal(
        ops.density_values(phi),
        area + 0.5 * lap_values(phi) + 0.5 * lap_values(cone))
    assert np.array_equal(
        ke_residual(p, ScalarField(grid, v)).values,
        area + 0.5 * lap_values(v) - p.coefficient_values() * np.exp(v))
    sol = KESolution(problem=p, v=ScalarField(grid, v),
                     residual_history=(0.0,))
    log_rho = log_f + v - (1.0 - beta) * np.log(q + eps**2) + math.log(area)
    assert np.array_equal(sol.log_density_values(), log_rho)
    resid, _ = ricci_residual(sol, np.ones((64, 64), dtype=bool))
    assert np.array_equal(resid.values, -0.5 * lap_values(log_rho)
                          + sol.density_values() - bg.wp.values)


@pytest.mark.parametrize("dt", [0.05], ids=["backward-euler-newton-0.05"])
def test_step_state_carries_its_density(dt):
    p = make_problem(16, eps=0.4)
    x, y = mesh(p.bg.grid)
    ops = FlowOps(p)
    st = ops.state(0.02 * np.cos(2 * np.pi * x), 0.0, dt)
    for _ in range(2):      # the second step starts from the carried state
        fresh = flow_step(ops.state(st.phi.values, st.t, dt), ops)
        st = flow_step(st, ops)
        assert np.array_equal(st.phi.values, fresh.phi.values)
        assert np.array_equal(st.density, ops.density_values(st.phi.values))
        assert np.array_equal(st.rhs, ops.rhs_values(st.phi.values))
        assert not st.density.flags.writeable
        assert not st.rhs.flags.writeable


@pytest.mark.parametrize("n, dt", [(64, 0.05)],
                         ids=["backward-euler-newton-64-0.05"])
def test_run_flow_evaluates_each_phi_once(n, dt, monkeypatch):
    # every rhs is formed once and carried by its state, which the
    # monitors' sup|d_t psi| reads: no two rhs_values calls see the same phi
    seen = []
    real = FlowOps.rhs_values

    def recording(self, phi_values, *args):
        seen.append(hashlib.sha256(phi_values.tobytes()).digest())
        return real(self, phi_values, *args)

    monkeypatch.setattr(FlowOps, "rhs_values", recording)
    problem = make_problem(n, eps=0.4)
    run_flow(problem, T=1.0, dt=dt, **observers(problem))
    assert len(seen) > round(1.0 / dt)
    assert len(set(seen)) == len(seen)


def test_step_fixed_point(problem64, solved64):
    st = state_of(problem64, solved64.phi.values, dt=0.1)
    out = flow_step(st, FlowOps(problem64))
    assert np.abs(out.phi.values - st.phi.values).max() <= 1e-8
    assert out.t == pytest.approx(0.1)


def test_run_flow_rejects_unknown_scheme(problem32):
    with pytest.raises(ConfigurationError, match="unknown scheme 'leapfrog'"):
        run_flow(problem32, T=0.1, dt=0.05, scheme="leapfrog",
                 **observers(problem32))


@pytest.mark.parametrize("dt", [0.0, -0.05, float("nan")])
def test_step_rejects_nonpositive_dt(problem32, dt):
    st = state_of(problem32, np.zeros((32, 32)), dt=dt)
    with pytest.raises(ConfigurationError, match="dt must be positive"):
        flow_step(st, FlowOps(problem32))


def test_backward_euler_vs_rk4_cross_check():
    # N = 16 so the rk4 guard admits dt = 1e-4
    p = make_problem(16, eps=0.4)
    x, y = mesh(p.bg.grid)
    phi = 0.02 * np.cos(2 * np.pi * x)
    dt = 1e-4
    st = state_of(p, phi, dt=dt)
    ops = FlowOps(p)
    out_be = flow_step(st, ops)
    out_rk = rk4_step(ops, st)
    assert np.abs(out_be.phi.values - out_rk.phi.values).max() <= 1e-6


def test_backward_euler_first_order():
    # Richardson: halving dt halves the one-step defect against rk4
    p = make_problem(16, eps=0.4)
    x, y = mesh(p.bg.grid)
    phi = 0.02 * np.cos(2 * np.pi * x)
    ops = FlowOps(p)
    errs = []
    for dt in (4e-4, 2e-4):
        be = flow_step(state_of(p, phi, dt=dt), ops)
        rk = rk4_step(ops, state_of(p, phi, dt=dt))
        errs.append(np.abs(be.phi.values - rk.phi.values).max())
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0    # local error O(dt^2): ratio ~ 4


def test_backward_euler_global_first_order():
    # reaching a fixed time with halved dt halves the defect against rk4
    p = make_problem(16, eps=0.4)
    x, y = mesh(p.bg.grid)
    phi0 = 0.02 * np.cos(2 * np.pi * x)
    t_final = 8e-3
    ops = FlowOps(p)
    errs = []
    for dt in (2e-4, 1e-4):
        a = state_of(p, phi0, dt=dt)
        b = state_of(p, phi0, dt=1e-4)
        for _ in range(int(round(t_final / dt))):
            a = flow_step(a, ops)
        for _ in range(int(round(t_final / 1e-4))):
            b = rk4_step(ops, b)
        errs.append(np.abs(a.phi.values - b.phi.values).max())
    ratio = errs[0] / errs[1]
    assert 1.6 < ratio < 2.4


def test_positivity_error_surfaces(problem64):
    x, y = mesh(problem64.bg.grid)
    bad = 0.2 * np.cos(2 * np.pi * 4 * x)   # curvature kills the density
    with pytest.raises(PositivityError):
        FlowOps(problem64).rhs_values(bad)


def test_run_flow_converges_and_reports(problem64, solved64):
    masks = {"all": np.ones((64, 64), dtype=bool),
             "qr>=0.1": problem64.bg.q.values >= 0.1}
    state, traj, decay = run_flow(problem64, T=6.0, dt=0.05, masks=masks,
                                  target_phi=solved64.phi,
                                  monitor_mask=masks["qr>=0.1"],
                                  snapshot_times=())
    gaps = traj.gaps["qr>=0.1"]
    assert gaps[-1] < 5e-3
    assert all(b < a for a, b in zip(gaps[40:], gaps[41:]))  # monotone tail
    fit = decay["qr>=0.1"]
    assert fit is not None and -1.15 < fit["slope"] < -0.85
    assert len(traj.times) == 120
    assert min(traj.min_density) > 0
    for key in ("sup_psi", "sup_dt_psi", "trace_ref"):
        assert np.isfinite(traj.monitors[key]).all()


def test_run_flow_matches_public_steps_bitwise(problem64, solved64):
    # run_flow reads each accepted step's density and rhs for its
    # diagnostics; here fresh ops recompute them for every state
    masks = {"all": np.ones((64, 64), dtype=bool),
             "qr>=0.1": problem64.bg.q.values >= 0.1}
    monitor = masks["qr>=0.1"]
    final, traj, _ = run_flow(problem64, T=1.0, dt=0.05, masks=masks,
                              target_phi=solved64.phi, monitor_mask=monitor,
                              snapshot_times=())
    ops = FlowOps(problem64)
    state = state_of(problem64, np.zeros((64, 64)))
    target = solved64.phi.values
    for k in range(20):
        state = flow_step(state, FlowOps(problem64))
        phi = state.phi.values
        density = ops.density_values(phi)
        rhs = ops.rhs_values(phi, density)
        assert traj.times[k] == state.t
        for name, mask in masks.items():
            assert traj.gaps[name][k] == np.abs(phi - target)[mask].max()
        assert traj.energy[k] == phi.mean()
        assert traj.min_density[k] == density.min()
        assert traj.monitors["sup_psi"][k] == \
            np.abs((phi + ops.cone)[monitor]).max()
        assert traj.monitors["sup_dt_psi"][k] == np.abs(rhs[monitor]).max()
        assert traj.monitors["trace_ref"][k] == \
            (ops.bg.area / density[monitor]).max()
    assert len(traj.times) == 20
    assert np.array_equal(final.phi.values, state.phi.values)


def test_backward_euler_forcing_matches_fixed_cg_tolerance(
        problem64, cg_tolerances, monkeypatch):
    steps = []
    real = flow_engine.damped_newton

    def counting(*args):
        out = real(*args)
        steps.append(len(out[2]) - 1)     # Newton steps of one flow step
        return out

    monkeypatch.setattr(flow_engine, "damped_newton", counting)
    runs = []
    for pin in (1e-13, None):
        steps.clear()
        asked = cg_tolerances(pin)
        final, _, _ = run_flow(problem64, T=2.0, dt=0.05,
                               **observers(problem64))
        runs.append((final.phi.values, list(steps), asked))
    (phi_pinned, steps_pinned, _), (phi, steps_forced, asked) = runs
    assert len(steps_forced) == 40
    assert steps_forced == steps_pinned
    assert np.abs(phi - phi_pinned).max() <= 1e-10
    assert min(asked) >= 1e-13 < max(asked)


def test_run_flow_rejects_long_horizon(problem64):
    with pytest.raises(ConfigurationError):
        run_flow(problem64, T=60.0, dt=0.05, **observers(problem64))


@pytest.mark.parametrize("T, dt", [(float("nan"), 0.05), (1.0, float("nan")),
                                   (1.0, float("inf")), (1.0, 5e-324),
                                   (50.0, 1e-300)])
def test_non_finite_horizons_are_rejected(problem32, oracle, T, dt):
    # a NaN or infinite horizon or step, a subnormal step whose T/dt
    # overflows, or a tiny one whose T/dt is finite but past MAX_STEPS, is
    # neither a crash, a zero-step flow nor an endless one, for the
    # reduced flow and the 4D oracle alike
    with pytest.raises(ConfigurationError, match="need 0 < dt <= T <= 50"):
        run_flow(problem32, T, dt, **observers(problem32))
    with pytest.raises(ConfigurationError, match="need 0 < dt <= T <= 50"):
        oracle.run(T, dt)


def test_step_cap_admits_its_own_count():
    assert flow_engine._step_count(50.0, 5e-4) == flow_engine.MAX_STEPS
    with pytest.raises(ConfigurationError,
                       match="in at most 100000 steps, got T/dt=125000"):
        flow_engine._step_count(50.0, 4e-4)


@pytest.mark.parametrize("dt", [0.3, 0.6])
def test_run_flow_rejects_horizon_off_the_step_lattice(problem64, dt):
    # 1/0.3 and 1/0.6 steps would stop at t=0.9 and t=1.2
    with pytest.raises(ConfigurationError, match="whole number of steps"):
        run_flow(problem64, T=1.0, dt=dt, **observers(problem64))


def test_dt_phi_decay_rate(problem64, solved64):
    masks = {"qr>=0.1": problem64.bg.q.values >= 0.1}
    _, traj, _ = run_flow(problem64, T=8.0, dt=0.05, masks=masks,
                          target_phi=solved64.phi,
                          monitor_mask=masks["qr>=0.1"], snapshot_times=())
    t = np.array(traj.times)
    d = np.array(traj.monitors["sup_dt_psi"])
    sel = (t >= 2.0) & (d > 1e-12)
    slope = np.polyfit(t[sel], np.log(d[sel]), 1)[0]
    assert slope <= -0.8


def test_shift_covariance(problem64, solved64):
    # from a near-stationary state, a constant shift decays like the
    # backward-Euler damping factor per unit time
    state, traj, _ = run_flow(problem64, T=10.0, dt=0.05, **observers(
        problem64, target_phi=solved64.phi))
    assert traj.gaps["all"][-1] <= 1e-4
    c = 1e-5
    phi0 = state.phi.values
    ops = FlowOps(problem64)
    a = state
    b = ops.state(phi0 + c, state.t, 0.05)
    for _ in range(20):   # one time unit
        a = flow_step(a, ops)
        b = flow_step(b, ops)
    drift = (b.phi.values - a.phi.values).mean()
    assert drift == pytest.approx(c * np.exp(-1.0), rel=0.1)


def test_stationarity_equivalence_long_run(problem64, solved64):
    _, traj, _ = run_flow(problem64, T=30.0, dt=0.1, **observers(
        problem64, target_phi=solved64.phi))
    assert traj.gaps["all"][-1] <= 1e-7


# ---------------------------------------------------------------------------
# 4D product oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle():
    p = make_problem(32, eps=0.2)
    return ProductFlow4D(p, nf=16, nb=32, fiber_area=2.0)


def test_oracle_requires_product_model():
    from coneflow.fibration_model import FibrationModel, SingularFiber
    model = FibrationModel(beta=0.5, delta=0.1, cone_point=(0.5, 0.5),
                           fibers=(SingularFiber((0.25, 0.25), 2),))
    p = build_problem(model, 64, 0.2)
    with pytest.raises(ConfigurationError):
        ProductFlow4D(p)


def test_oracle_keeps_problem_beta_and_delta():
    # the base problem is rebuilt on the nb grid; its cone angle and delta
    # are the given problem's, not the model's
    p = replace(make_problem(32, eps=0.2), beta=0.3, delta=0.05)
    base = ProductFlow4D(p, nf=8, nb=16).base_problem
    assert (base.beta, base.delta, base.epsilon) == (0.3, 0.05, 0.2)
    assert base.bg.grid.n == 16


def test_oracle_one_step_reduction_identity(oracle):
    # fiber-constant data: the 4D rhs equals the reduced rhs exactly
    phi4 = oracle.initial_state()
    r4 = oracle.rhs(phi4, 0.0)
    r_red = oracle.base_ops.rhs_values(np.zeros((32, 32)))
    assert np.abs(r4 - r_red[None, None]).max() < 1e-12


def test_oracle_preserves_fiber_constancy(oracle):
    phi4 = oracle.initial_state()
    dt = 1e-4
    phi4 = phi4 + dt * oracle.rhs(phi4, 0.0)
    assert oracle.fiber_gap(phi4) <= 1e-10


def test_oracle_rhs_matches_direct_formula_bitwise(oracle):
    # the formula transcribed here on its own, with numpy.fft, on a field
    # with content in every mode
    phi = 1e-4 * np.random.default_rng(7).normal(size=(16, 16, 32, 32))
    t = 0.3
    hat = np.fft.fftn(phi)
    z1 = np.fft.ifftn(oracle._mult_lap * hat)
    z2 = np.fft.ifftn(oracle._mult_mixed * hat)
    p = math.exp(-t) * oracle.fiber_area + 0.5 * z1.real
    ops = oracle.base_ops
    q = ops.bg.area + 0.5 * z1.imag + ops.half_lap_cone
    det = p * q - (0.5 * z2.real)**2 - (0.5 * z2.imag)**2
    expected = (t + oracle._base_log_prefactor + np.log(det)
                - phi - ops.cone)
    assert np.array_equal(oracle.rhs(phi, t), expected)


def test_oracle_large_step_stays_reduced(oracle):
    # dt = 1e-2 is 26 times the explicit Euler bound 2 / (lambda_fiber +
    # lambda_base + 1) = 3.8e-4 at T = 0.05: fiber-constant data stays
    # fiber-constant and in lockstep with the reduced flow, and a fiber
    # mode decays at every step
    _, samples = oracle.run(T=0.05, dt=1e-2, reduced_reference=True)
    assert samples["t"] == pytest.approx([0.01, 0.02, 0.03, 0.04, 0.05])
    assert max(samples["fiber_gap"]) <= 1e-10
    assert max(samples["reduced_diff"]) <= 1e-10
    phi0 = oracle.initial_state(fiber_mode_amplitude=0.01)
    _, pert = oracle.run(T=0.05, dt=1e-2, phi=phi0)
    gaps = [oracle.fiber_gap(phi0)] + pert["fiber_gap"]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_oracle_rejects_horizon_off_the_step_lattice(oracle):
    with pytest.raises(ConfigurationError, match="whole number of steps"):
        oracle.run(T=2.5e-4, dt=1e-4)


def test_oracle_positivity_error(oracle):
    xw = np.arange(16) / 16.0
    bad = oracle.initial_state() + 0.4 * np.cos(2 * np.pi * 4 * xw)[
        :, None, None, None]
    with pytest.raises(PositivityError):
        oracle.rhs(bad, 0.0)


def test_fit_decay_slope_window():
    t = np.linspace(0, 10, 201)
    g = 0.5 * np.exp(-t)
    fit = fit_decay_slope(t, g)
    assert fit["slope"] == pytest.approx(-1.0, abs=1e-9)
    assert fit_decay_slope(t, np.full_like(t, 1e-12)) is None
