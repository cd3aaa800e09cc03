import numpy as np
import pytest
from dataclasses import replace

from coneflow.errors import ConfigurationError, DivergenceError, ModelError
from coneflow.fibration_model import (DensityData, build_background,
                                      validate_lp)
from coneflow.ke_solver import (CG_MAX_ITER, POSITIVITY_EPSILONS, KEProblem,
                                build_problem,
                                continuation_solve,
                                default_extrapolation_schedule,
                                extrapolated_solution,
                                holder_exponent_estimate, ke_residual,
                                newton_solve, preconditioned_cg)
from coneflow.torus_field import (ScalarField, from_half_spectrum,
                                  half_spectrum, lap_values, make_grid,
                                  _lap_multiplier)
from tests.conftest import mesh, observers


def raw_density(grid, log_values):
    """DensityData wrapper for manufactured right-hand sides."""
    return DensityData(log_density=ScalarField(grid, log_values))


def identity_problem(bg, beta, delta, eps):
    """F = (q + eps^2)^(1-beta): the equation coefficient is constant A and
    v = 0 solves exactly."""
    grid = bg.grid
    log_f = (1 - beta) * np.log(bg.q.values + eps * eps)
    return KEProblem(bg=bg, density=raw_density(grid, log_f), beta=beta,
                     delta=delta, epsilon=eps)


def test_identity_case_zero_iterations(product_bg64, product):
    p = identity_problem(product_bg64, product.beta, product.delta, 0.1)
    sol = newton_solve(p)
    assert sol.newton_iters == 0
    assert sol.residual_sup <= 1e-9


def test_residual_of_manufactured_solution(product_bg64, product):
    grid = product_bg64.grid
    eps = 0.1
    # amplitude capped at 0.05: the density A + (1/2) Lap v* must stay
    # positive, and the cos*cos mode carries Laplacian swing 8 pi^2 amp
    x, y = mesh(grid)
    v_star = ScalarField(
        grid, 0.05 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    log_f = (np.log(product_bg64.area + 0.5 * lap_values(v_star.values))
             - v_star.values
             + (1 - product.beta) * np.log(product_bg64.q.values + eps * eps)
             - np.log(product_bg64.area))
    p = KEProblem(bg=product_bg64, density=raw_density(grid, log_f),
                  beta=product.beta, delta=product.delta, epsilon=eps)
    resid = ke_residual(p, v_star)
    assert np.abs(resid.values).max() < 1e-10


def test_manufactured_solution_recovery(product, product_bg128):
    grid = product_bg128.grid
    eps = 0.1
    # amplitude capped at 0.05: the density A + (1/2) Lap v* must stay
    # positive, and the cos*cos mode carries Laplacian swing 8 pi^2 amp
    x, y = mesh(grid)
    v_star = ScalarField(
        grid, 0.05 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    log_f = (np.log(product_bg128.area + 0.5 * lap_values(v_star.values))
             - v_star.values
             + (1 - product.beta) * np.log(product_bg128.q.values + eps * eps)
             - np.log(product_bg128.area))
    p = KEProblem(bg=product_bg128, density=raw_density(grid, log_f),
                  beta=product.beta, delta=product.delta, epsilon=eps)
    sol = newton_solve(p)
    assert np.abs(sol.v.values - v_star.values).max() <= 1e-7


def test_newton_quadratic_convergence(product_problem64):
    sol = newton_solve(product_problem64)
    hist = [r for r in sol.residual_history if r > 1e-13]
    small = [(a, b) for a, b in zip(hist, hist[1:]) if a <= 1e-2]
    assert small, "no residuals inside the quadratic window"
    for a, b in small:
        assert b <= 10.0 * a * a   # r_{k+1} <= c r_k^2 with modest c


def test_newton_forcing_matches_fixed_cg_tolerance(product_problem64,
                                                   cg_tolerances):
    cg_tolerances(pin=1e-12)
    pinned = newton_solve(product_problem64)
    asked = cg_tolerances()
    sol = newton_solve(product_problem64)
    assert sol.newton_iters == pinned.newton_iters
    assert sol.residual_sup <= 1e-9
    assert np.abs(sol.v.values - pinned.v.values).max() <= 1e-9
    assert min(asked) >= 1e-12
    assert asked == [max(1e-12, 0.1 * 1e-9 / sup)
                     for sup in sol.residual_history[:-1]]


def test_uniqueness_two_initializations(product_problem64):
    grid = product_problem64.bg.grid
    sol_a = newton_solve(product_problem64)
    rng = np.random.default_rng(21)
    c1, c2 = rng.uniform(0.3, 1.0, size=2)
    x, y = mesh(grid)
    bump = c1 * np.cos(2 * np.pi * x) + c2 * np.sin(2 * np.pi * y)
    bump *= 0.1 / np.abs(bump).max()    # low modes keep the density positive
    sol_b = newton_solve(product_problem64,
                         v0=ScalarField(grid, bump))
    assert np.abs(sol_a.v.values - sol_b.v.values).max() <= 1e-7


def test_solution_positivity_and_integral_identity(product_problem64):
    sol = newton_solve(product_problem64)
    density = product_problem64.bg.area + 0.5 * lap_values(sol.v.values)
    assert density.min() > 0
    # integral compatibility: the residual mean vanishes at the solution
    resid = ke_residual(product_problem64, sol.v)
    assert abs(resid.values.mean()) <= 1e-9
    # equivalently, the nonlinear side carries total mass A
    total = sol.density_values().mean()
    assert abs(total - product_problem64.bg.area) <= 1e-8


def test_monotone_dependence_on_area(product_problem64):
    sol = newton_solve(product_problem64)
    bg_bumped = replace(product_problem64.bg, area=product_problem64.bg.area * 1.01)
    sol_b = newton_solve(replace(product_problem64, bg=bg_bumped))
    assert sol_b.v.values.max() > sol.v.values.max()


@pytest.mark.parametrize("n", [16, 64, 512])
def test_preconditioned_cg_matches_complex_formula(n, nyquist_field, full_k2):
    # constant coefficient: the half-spectrum preconditioner is the exact
    # inverse, so CG must land on the complex-FFT solution
    b = nyquist_field(n, seed=n + 1)
    c = 3.0
    x, iters = preconditioned_cg(np.full((n, n), c), -0.5 * _lap_multiplier(n),
                                 b)
    full_symbol = 2.0 * np.pi**2 * full_k2(n) + c
    ref = np.fft.ifft2(np.fft.fft2(b) / full_symbol).real
    assert iters >= 1
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def cone_like_coefficient(n, s=0.003):
    """(r^2 + s^2)^(-1/2) around (1/2, 1/2) with a periodic r: the shape of
    the beta = 1/2 equation coefficient near the cone point, spanning
    about 150x on every grid."""
    x = np.arange(n) / n
    sx = np.sin(np.pi * (x - 0.5)) ** 2
    r2 = (sx[:, None] + sx[None, :]) / np.pi**2
    return (r2 + s * s) ** -0.5


def two_transform_cg(apply_op, b, symbol, rel_tol, max_iter=500):
    """Textbook preconditioned CG that applies the operator by callback
    (one transform pair for A p, one for the preconditioner)."""
    x = np.zeros_like(b)
    r = b.copy()
    z = from_half_spectrum(half_spectrum(r) / symbol)
    p = z.copy()
    rz = float(np.vdot(r, z))
    b_norm = np.linalg.norm(b)
    for it in range(max_iter):
        ap = apply_op(p)
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= rel_tol * b_norm:
            return x, it + 1
        z = from_half_spectrum(half_spectrum(r) / symbol)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iter


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-13])
@pytest.mark.parametrize("n", [16, 64, 512])
def test_preconditioned_cg_variable_coefficient(n, rel_tol, nyquist_field):
    # A p is carried by recurrence, never recomputed; the true residual,
    # recomputed with an explicit Laplacian, shows any drift in it
    c = cone_like_coefficient(n)
    assert c.max() >= 100.0 * c.min()
    op_symbol = -0.5 * _lap_multiplier(n)
    b = nyquist_field(n, seed=n + 2)
    x, iters = preconditioned_cg(c, op_symbol, b, rel_tol=rel_tol)
    true_resid = np.linalg.norm(b - (c * x - 0.5 * lap_values(x)))
    assert true_resid <= 10.0 * rel_tol * np.linalg.norm(b)
    _, ref_iters = two_transform_cg(lambda u: c * u - 0.5 * lap_values(u), b,
                                    op_symbol + c.mean(), rel_tol)
    assert abs(iters - ref_iters) <= 1


def test_preconditioned_cg_zero_rhs():
    args = (cone_like_coefficient(16), -0.5 * _lap_multiplier(16),
            np.zeros((16, 16)))
    x, iters = preconditioned_cg(*args)
    assert iters == 0 and not x.any()
    assert np.array_equal(x, plain_cg(*args)[0])


def test_continuation_schedule_validation(product_problem64):
    with pytest.raises(ConfigurationError):
        continuation_solve(product_problem64, [0.1, 0.05])       # starts low
    with pytest.raises(ConfigurationError):
        continuation_solve(product_problem64, [0.4, 0.35])       # ratio > 0.7
    with pytest.raises(ConfigurationError):
        continuation_solve(product_problem64, [0.4, 0.2, 0.01])  # below grid
    with pytest.raises(ConfigurationError):
        continuation_solve(product_problem64, [])


def test_continuation_single_epsilon(product_problem64):
    sols, report = continuation_solve(product_problem64, [1.0])
    assert sols[-1].residual_sup <= 1e-9
    assert report.cauchy_sups == ()


def test_continuation_cauchy_decreasing(product_problem128):
    sched = [0.4, 0.2, 0.1, 0.05, 0.025]
    sols, report = continuation_solve(product_problem128, sched)
    cauchy = report.cauchy_sups
    assert all(b < a for a, b in zip(cauchy, cauchy[1:]))
    assert sols[-1].residual_sup <= 1e-9


def test_continuation_bounded_at_cone_point(product_problem128):
    sched = [0.4, 0.2, 0.1, 0.05, 0.025]
    sols, _ = continuation_solve(product_problem128, sched)
    grid = product_problem128.bg.grid
    i, j = grid.point_index(product_problem128.bg.model.cone_point)
    for s in sols:
        assert abs(s.v.values[i, j]) <= 10.0


def test_extrapolated_solution_small_residual(product_problem128):
    sol0, report = extrapolated_solution(product_problem128)
    assert sol0.epsilon == 0.0
    # the full-grid zero-eps residual is dominated by the near-cone cells
    # where the coefficient blows up; away from the cone the extrapolant
    # solves the limit equation tightly (see also test_acceptance)
    from coneflow.estimates import sigma_barrier
    barrier = sigma_barrier(product_problem128.bg.grid,
                            [product_problem128.bg.model.cone_point])
    mask = barrier.level_mask(0.5)
    resid = ke_residual(replace(product_problem128, epsilon=0.0), sol0.v)
    assert np.abs(resid.values[mask]).max() < 1e-2


def test_default_schedule_shape():
    sched = default_extrapolation_schedule(128)
    assert sched[0] == 0.4
    assert all(abs(b / a - 0.7) < 1e-12 for a, b in zip(sched, sched[1:]))
    assert sched[-1] >= 2.0 / 128 > sched[-1] * 0.7


def test_holder_exponent_power_law(grid256):
    from coneflow.fibration_model import build_background, product_model
    bg = build_background(replace(product_model(), beta=0.4), grid256)
    field = ScalarField(grid256, bg.q.values**0.4)
    est = holder_exponent_estimate(field, (0.5, 0.5))
    assert abs(est - 0.8) <= 0.05     # q ~ d^2, so q^0.4 ~ d^0.8


def test_holder_exponent_smooth_field(grid128):
    x, _ = mesh(grid128)
    f = ScalarField(grid128, np.sin(2 * np.pi * x))
    est = holder_exponent_estimate(f, (0.3, 0.3))
    assert est == pytest.approx(1.0, abs=1e-9)   # Lipschitz cap


def test_holder_exponent_constant_field(grid128):
    est = holder_exponent_estimate(
        ScalarField(grid128, np.full((128, 128), 2.0)), (0.5, 0.5))
    assert est == 1.0


def test_holder_exponent_solved_stability(product):
    from coneflow.fibration_model import product_model
    vals = {}
    for n in (128, 256):
        sol = newton_solve(build_problem(replace(product_model(), beta=0.4),
                                         n, 0.05))
        vals[n] = holder_exponent_estimate(sol.v, (0.5, 0.5))
        assert 0.0 < vals[n] <= 1.0
    assert abs(vals[256] - vals[128]) <= 0.05


# ---------------------------------------------------------------------------
# bitwise oracles for the in-place hot path: each kernel against the plain
# expressions it replaces, written out with their temporaries
# ---------------------------------------------------------------------------

def plain_lap(values):
    return from_half_spectrum(_lap_multiplier(values.shape[0])
                              * half_spectrum(values))


def plain_cg(coeff, op_symbol, b, rel_tol=1e-12):
    """preconditioned_cg with the preconditioner as a complex division of
    the half spectrum and every vector update through temporaries."""
    x = np.zeros_like(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, 0
    c_mean = float(np.mean(coeff))
    symbol = op_symbol + c_mean
    shift = coeff - c_mean
    r = b.copy()
    z = from_half_spectrum(half_spectrum(r) / symbol)
    p = z.copy()
    ap = r + shift * z
    rz = float(np.vdot(r, z).real)
    for it in range(CG_MAX_ITER):
        alpha = rz / float(np.vdot(p, ap).real)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= rel_tol * b_norm:
            return x, it + 1
        z = from_half_spectrum(half_spectrum(r) / symbol)
        rz_new = float(np.vdot(r, z).real)
        beta = rz_new / rz
        p = z + beta * p
        ap = (r + shift * z) + beta * ap
        rz = rz_new
    return x, CG_MAX_ITER


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-13])
@pytest.mark.parametrize("coefficient", ["constant", "cone"])
@pytest.mark.parametrize("n", [16, 64, 128, 512])
def test_preconditioned_cg_matches_plain_loop_bitwise(n, coefficient, rel_tol,
                                                      nyquist_field):
    c = np.full((n, n), 3.0) if coefficient == "constant" \
        else cone_like_coefficient(n)
    op_symbol = -0.5 * _lap_multiplier(n)
    b = nyquist_field(n, seed=n + 3)
    x, iters = preconditioned_cg(c, op_symbol, b, rel_tol=rel_tol)
    x_ref, iters_ref = plain_cg(c, op_symbol, b, rel_tol=rel_tol)
    assert iters == iters_ref >= 1
    assert np.array_equal(x, x_ref)


def test_kernels_match_plain_formulas_bitwise(product_problem128,
                                              nyquist_field):
    from coneflow.flow_engine import FlowOps
    bg = product_problem128.bg
    x, y = mesh(bg.grid)
    phi = 0.02 * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y) \
        + 1e-7 * nyquist_field(128, seed=5)
    ops = FlowOps(product_problem128)
    assert np.array_equal(lap_values(phi), plain_lap(phi))
    density = bg.area + 0.5 * plain_lap(phi)
    assert np.array_equal(bg.metric_density(phi), density)
    density = density + ops.half_lap_cone
    assert np.array_equal(ops.density_values(phi), density)
    rhs = ops.log_prefactor + np.log(density) - phi - ops.cone
    assert np.array_equal(ops.rhs_values(phi), rhs)
    assert np.array_equal(ops.rhs_values(phi, density), rhs)


def test_flow_steps_match_plain_formulas_bitwise(product_problem128,
                                                   monkeypatch):
    # backward-Euler steps written with the plain density, rhs and
    # residual, through damped_newton with the plain CG loop; the first
    # step's predictor leaves the Kahler cone, the second's does not
    from coneflow import ke_solver
    from coneflow.flow_engine import (STEP_CG_FLOOR, STEP_MAX_NEWTON,
                                      STEP_TOL, FlowOps, flow_step)
    p, dt = product_problem128, 0.05
    ops = FlowOps(p)
    op_symbol = -dt * 0.5 * _lap_multiplier(128)

    def density_of(u):
        return p.bg.area + 0.5 * plain_lap(u) + ops.half_lap_cone

    def rhs(u, density):
        return ops.log_prefactor + np.log(density) - u - ops.cone

    def plain_step(phi):
        def evaluate(u):
            density = density_of(u)
            if density.min() <= 0.0:
                return None
            return u - phi - dt * rhs(u, density), density

        u = phi + dt * rhs(phi, density_of(phi))
        start = evaluate(u)
        predicted = start is not None
        if not predicted:
            u, start = phi, evaluate(phi)
        with monkeypatch.context() as m:
            m.setattr(ke_solver, "preconditioned_cg", plain_cg)
            u, density, _ = ke_solver.damped_newton(
                u, start, evaluate,
                lambda u, density, resid: ((1.0 + dt) * density, op_symbol,
                                           -density * resid),
                STEP_TOL, STEP_MAX_NEWTON, STEP_CG_FLOOR)
        return u, density, predicted

    x, y = mesh(p.bg.grid)
    phi = 0.005 * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y)
    state = ops.state(phi, 0.0, dt)
    used_predictor = []
    for _ in range(2):
        state = flow_step(state, ops)
        phi, density, predicted = plain_step(phi)
        used_predictor.append(predicted)
        assert np.array_equal(state.phi.values, phi)
        assert np.array_equal(state.density, density)
    assert used_predictor == [False, True]


def test_damped_newton_ends_a_stall_only_on_a_roundoff_step(monkeypatch):
    # no trial lowers sup|G|: a full step of at most ROUNDOFF_STEP ulps of
    # sup|x| ends the solve at x, a longer one fails it
    from coneflow import ke_solver
    x, g = np.full((8, 8), 2.0), np.full((8, 8), 1e-11)

    def solve(ulps):
        step = np.full((8, 8), ulps * np.finfo(float).eps * 2.0)
        monkeypatch.setattr(ke_solver, "preconditioned_cg",
                            lambda coeff, op_symbol, b, rel_tol: (step, 1))
        return ke_solver.damped_newton(x, (g, "start"),
                                       lambda u: (g, "trial"),
                                       lambda u, state, g: (None, None, g),
                                       1e-12, 30, 1e-13)

    u, state, history = solve(ke_solver.ROUNDOFF_STEP)
    assert u is x and state == "start" and history == [1e-11]
    with pytest.raises(DivergenceError, match=r"stalled at iteration 0 "
                       r"\(residual 1\.000e-11\)"):
        solve(ke_solver.ROUNDOFF_STEP + 1)


@pytest.mark.slow
def test_preconditioned_cg_keeps_no_work_array(traced_peak_mib,
                                               nyquist_field):
    # the spent z is the updates' scratch: a persistent work array would
    # add 2 MiB at N=512 (19.0 MiB)
    c = cone_like_coefficient(512)
    op_symbol = -0.5 * _lap_multiplier(512)
    b = nyquist_field(512, seed=7)
    assert traced_peak_mib(lambda: preconditioned_cg(c, op_symbol, b)) <= 17.1


@pytest.fixture()
def chi_calls(monkeypatch):
    """The arguments of each chi_values call made through ke_solver's name
    or through the cone_smoothing module."""
    from coneflow import cone_smoothing, ke_solver
    calls = []
    real = ke_solver.chi_values

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ke_solver, "chi_values", counting)
    monkeypatch.setattr(cone_smoothing, "chi_values", counting)
    return calls


def test_problem_build_forms_the_only_cones(product, chi_calls):
    # build_problem forms the problem's cone and one per positivity level;
    # a bare background and F-Lp's backgrounds form none
    build_problem(product, 64, 0.1)
    assert [args[0] for args in chi_calls] == [0.1, *POSITIVITY_EPSILONS]
    chi_calls.clear()
    build_background(product, make_grid(64))
    validate_lp(product)
    assert chi_calls == []


def test_build_problem_rejects_delta_that_breaks_positivity(product):
    with pytest.raises(ModelError, match=r"delta=50.0 breaks positivity .* "
                       r"at eps=0.4 \(min -"):
        build_problem(replace(product, delta=50.0), 64, 0.05)
    # the check belongs to the problem, not to its background
    build_background(replace(product, delta=50.0), make_grid(64))


def test_build_problem_rejects_a_nan_epsilon(product):
    # the positivity levels are fixed epsilons, so only the problem's own
    # cone sees its epsilon: a NaN must not build an all-NaN cone
    with pytest.raises(ConfigurationError, match="finite eps"):
        build_problem(product, 32, float("nan"))


def test_continuation_forms_one_cone_per_rung(product, chi_calls):
    # each rung's problem forms its cone once; the warm start and the
    # solution's phi read it there
    problem = build_problem(product, 64, 0.4)
    chi_calls.clear()
    sols, _ = continuation_solve(problem, [0.4, 0.2, 0.1, 0.05])
    [sol.phi for sol in sols]
    assert [args[0] for args in chi_calls] == [0.4, 0.2, 0.1, 0.05]


def test_solve_and_flow_form_no_cone(product, chi_calls):
    from coneflow.flow_engine import run_flow
    problem = build_problem(product, 32, 0.1)
    chi_calls.clear()
    newton_solve(problem).phi
    run_flow(problem, T=0.5, dt=0.05, **observers(problem))
    assert chi_calls == []


def test_problem_cone_is_its_read_only_cone_field(product_problem64):
    from coneflow.cone_smoothing import chi_values
    p = product_problem64
    q = p.bg.q.values
    assert not p.cone.flags.writeable
    assert np.array_equal(p.cone, p.delta * chi_values(p.epsilon, q, p.beta))
    other = replace(p, epsilon=0.3)
    assert np.array_equal(other.cone, p.delta * chi_values(0.3, q, p.beta))
    assert not np.array_equal(other.cone, p.cone)
    assert other == replace(other)      # cone takes no part in equality
    sol = newton_solve(p)
    assert np.array_equal(sol.phi.values, sol.v.values - p.cone)
