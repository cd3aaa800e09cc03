import json

import numpy as np
import pytest
from dataclasses import replace

from coneflow import cli
from coneflow.errors import ConfigurationError, ModelError
from coneflow.estimates import (TRACE_LAMBDAS, EstimateReport,
                                _min_dominating_constant, cone_angle,
                                fit_trace_constants, multiplicity_exponent,
                                ricci_residual, sigma_barrier, trace_field,
                                verify_c0_convergence, verify_trace_bound)
from coneflow.fibration_model import product_model
from coneflow.flow_engine import fit_decay_slope
from coneflow.ke_solver import KESolution, build_problem, newton_solve
from coneflow.torus_field import ScalarField, make_grid, periodic_distance
from tests.conftest import observers


def constant(grid, c):
    return ScalarField(grid, np.full((grid.n, grid.n), c))


BARRIER_POINTS = [(0.5, 0.5), (0.25, 0.25)]


@pytest.fixture(scope="module")
def barrier128(grid128):
    return sigma_barrier(grid128, BARRIER_POINTS)


def test_sigma_vanishes_at_points(barrier128, grid128):
    for p in BARRIER_POINTS:
        i, j = grid128.point_index(p)
        assert barrier128.sigma.values[i, j] == 0.0
        # exact plateau one cell around the point
        near = periodic_distance(grid128, p) <= grid128.spacing
        assert np.abs(barrier128.sigma.values[near]).max() == 0.0


def test_sigma_saturates_far_away(grid128):
    b = sigma_barrier(grid128, [(0.5, 0.5)])
    far = periodic_distance(grid128, (0.5, 0.5)) >= 0.4
    assert np.abs(b.sigma.values[far] - 1.0).max() < 1e-6


def test_sigma_range_and_positivity(barrier128, grid128):
    v = barrier128.sigma.values
    assert v.min() >= 0.0 and v.max() <= 1.0
    outside = np.ones_like(v, dtype=bool)
    for p in BARRIER_POINTS:
        outside &= periodic_distance(grid128, p) > grid128.spacing
    assert v[outside].min() > 0.0


def test_sigma_bound_constant_stable_under_refinement():
    consts = {}
    for n in (128, 256):
        g = make_grid(n)
        consts[n] = sigma_barrier(g, [(0.5, 0.5)]).bound_constant
    assert consts[256] == pytest.approx(consts[128], rel=0.05)


def test_sigma_rejects_duplicate_points(grid64):
    with pytest.raises(ModelError):
        sigma_barrier(grid64, [(0.5, 0.5), (0.5, 0.5)])


def test_trace_field_basics(grid64):
    one = constant(grid64, 1.0)
    two = constant(grid64, 2.0)
    assert np.all(trace_field(one, one).values == 1.0)
    assert np.all(trace_field(two, one).values == 2.0)
    with pytest.raises(ModelError):
        trace_field(one, constant(grid64, 0.0))


def test_trace_bound_trivial(grid64):
    b = sigma_barrier(grid64, [(0.5, 0.5)])
    rep = verify_trace_bound([constant(grid64, 1.0)], b, "trace-bound")
    assert rep.passed
    assert rep.constants["C"] <= 1.0


def test_trace_bound_exact_exponential(grid64):
    b = sigma_barrier(grid64, [(0.5, 0.5)])
    sig = b.sigma.values
    with np.errstate(over="ignore"):
        trace = np.exp(np.minimum(1.0 / np.maximum(sig, 1e-300), 690.0))
    trace[sig == 0] = 1.0
    rep = verify_trace_bound([ScalarField(grid64, trace)], b, "trace-bound")
    assert rep.passed
    assert rep.constants["lambda"] == 1
    assert rep.constants["C"] <= np.e    # minimal dominating constant near 1


def test_trace_bound_negative_control():
    # e^(1/sigma^2) against lambda capped at 1 must be rejected once the
    # sample set reaches small sigma; synthetic samples pin this down
    # (passed in log form since the trace itself overflows)
    sig = np.logspace(-7, 0, 200)
    fits = {lam: _min_dominating_constant(1.0 / sig**2, sig, lam)
            for lam in TRACE_LAMBDAS}
    assert fits[1] > 1e6
    # the full lambda grid does dominate it (lambda = 2 matches exactly)
    best = min(TRACE_LAMBDAS, key=fits.get)
    assert fits[best] <= 2.0 and best in (2, 4, 8)


def test_fit_trace_requires_positive(grid64):
    with pytest.raises(ModelError):
        fit_trace_constants(np.array([1.0, -1.0]), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# curvature identity and exponents
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved_product_128():
    return newton_solve(build_problem(product_model(), 128, 0.05))


def test_ricci_residual_requires_mask(solved_product_128):
    with pytest.raises(ConfigurationError):
        ricci_residual(solved_product_128, np.zeros((128, 128), dtype=bool))


def test_ricci_residual_negative_control(solved_product_128):
    # a constant-density pseudo-solution violates the identity by A
    p = solved_product_128.problem
    v_flat = np.log(p.bg.area) - np.log(p.coefficient_values())
    fake = KESolution(problem=p,
                      v=ScalarField(p.bg.grid, v_flat),
                      residual_history=(0.0,))
    b = sigma_barrier(p.bg.grid, [p.bg.model.cone_point])
    _, sup = ricci_residual(fake, b.level_mask(0.5))
    assert sup > p.bg.area / 2


def test_ricci_residual_decreases_with_eps(solved_product_128, full_k2):
    # the residual at positive eps carries the smoothing correction, which
    # shrinks like eps^2; in sup norm the measurement is swamped by spectral
    # ringing of the under-resolved smoothing layer, so the trend is read
    # off after mollifying at a fixed physical scale
    from coneflow.ke_solver import continuation_solve
    p = solved_product_128.problem
    gauss = np.exp(-0.5 * (2.0 * np.pi * 0.04)**2 * full_k2(128))
    mask = p.bg.q.values >= 0.5
    sols, _ = continuation_solve(replace(p, epsilon=0.4),
                                 [0.4, 0.2, 0.1, 0.05, 0.025])
    sups = []
    for s in sols:
        f, _ = ricci_residual(s, mask)
        mollified = np.fft.ifft2(gauss * np.fft.fft2(f.values)).real
        sups.append(np.abs(mollified[mask]).max())
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 0.02      # down at the eps^2 scale, above any floor


def synthetic_power_solution(problem, exponent, center):
    """KESolution whose density is the pure power |s - center|^exponent."""
    grid = problem.bg.grid
    d = periodic_distance(grid, center)
    d[d == 0] = grid.spacing / 2
    log_rho = exponent * np.log(d)
    # density_values = coefficient * e^v, so invert for v at eps = 0
    p0 = replace(problem, epsilon=0.0)
    v = log_rho - np.log(p0.coefficient_values())
    return KESolution(problem=p0, v=ScalarField(grid, v),
                      residual_history=(0.0,))


def test_cone_angle_synthetic_power_law(solved_product_128):
    p = solved_product_128.problem
    for beta in (0.3, 0.5, 0.8):
        prob = replace(p, beta=beta)
        sol = synthetic_power_solution(prob, -2 * (1 - beta), (0.5, 0.5))
        slope = cone_angle(sol)
        assert slope == pytest.approx(2 * beta, abs=0.02 * 2 * beta)


def test_multiplicity_exponent_synthetic(solved_product_128):
    p = solved_product_128.problem
    sol = synthetic_power_solution(p, -1.0, (0.25, 0.25))
    est = multiplicity_exponent(sol, (0.25, 0.25))
    assert est == pytest.approx(-1.0, abs=0.02)


def test_cone_angle_rejects_large_eps(solved_product_128):
    # eps = 0.2 lies above 20/N = 0.156 at N = 128
    p = solved_product_128.problem
    sol = replace(solved_product_128, problem=replace(p, epsilon=0.2))
    with pytest.raises(ConfigurationError, match="20/N"):
        cone_angle(sol)
    with pytest.raises(ConfigurationError, match="20/N"):
        multiplicity_exponent(sol, (0.25, 0.25))


# ---------------------------------------------------------------------------
# convergence report and determinism
# ---------------------------------------------------------------------------

class _FakeTraj:
    monitors = {}

    def __init__(self, times, gaps):
        self.times = times
        self.gaps = gaps


def decay_fits(traj):
    """run_flow's decay report for the trajectory's gap series."""
    return {k: fit_decay_slope(traj.times, v) for k, v in traj.gaps.items()}


def test_c0_convergence_trivial_stationary():
    t = [0.05 * k for k in range(1, 41)]
    gaps = {f"sigma>={lvl}": [1e-9] * 40 for lvl in (0.2, 0.4, 0.6)}
    traj = _FakeTraj(t, gaps)
    rep = verify_c0_convergence(traj, decay_fits(traj))
    assert rep.passed


def test_c0_convergence_needs_samples():
    t = [0.1, 0.2]
    gaps = {f"sigma>={lvl}": [1e-9, 1e-9] for lvl in (0.2, 0.4, 0.6)}
    traj = _FakeTraj(t, gaps)
    with pytest.raises(ConfigurationError):
        verify_c0_convergence(traj, decay_fits(traj))


def test_c0_convergence_detects_slow_decay():
    t = [0.1 * k for k in range(1, 201)]
    slow = [0.05 * np.exp(-0.3 * tt) for tt in t]           # slope -0.3
    gaps = {f"sigma>={lvl}": slow for lvl in (0.2, 0.4, 0.6)}
    traj = _FakeTraj(t, gaps)
    rep = verify_c0_convergence(traj, decay_fits(traj))
    assert not rep.passed


def test_c0_shrinking_mask_has_larger_constant():
    # the mask closer to the degenerate set carries a (slightly) larger
    # fitted constant: the barrier degrades toward the marked points
    from coneflow.flow_engine import run_flow
    model = product_model()
    p = build_problem(model, 64, 0.1)
    b = sigma_barrier(p.bg.grid, [model.cone_point], reference_area=p.bg.area)
    masks = {f"sigma>={lvl}": b.level_mask(lvl) for lvl in (0.2, 0.4, 0.6)}
    target = newton_solve(p)
    _, traj, decay = run_flow(p, T=12.0, dt=0.05, **observers(
        p, masks=masks, target_phi=target.phi))
    c02 = decay["sigma>=0.2"]["intercept_constant"]
    c04 = decay["sigma>=0.4"]["intercept_constant"]
    c06 = decay["sigma>=0.6"]["intercept_constant"]
    assert c02 > c06
    assert c02 >= c04 >= c06
    rep = verify_c0_convergence(traj, decay)
    assert rep.passed


def test_estimate_report_passed_follows_max_violation():
    for violation, passed in ((1.0, False), (0.0, True), (-2.5, True)):
        rep = EstimateReport(name="x", constants={}, max_violation=violation)
        assert rep.passed is passed
        assert json.loads(cli._verification_json({"x": rep}))["x"][
            "passed"] is passed


def fake_lp(low_changes, high_changes=(0.5, 0.5)):
    """A validate_lp report with the given relative changes over the grids
    128 -> 256 -> 512."""
    keys = ("128->256", "256->512")
    ones = {n: 1.0 for n in (128, 256, 512)}
    return {"p_star": 2.0, "p_low": 1.9, "p_high": 2.1,
            "integrals_low": ones, "integrals_high": ones,
            "low_changes": dict(zip(keys, low_changes)),
            "high_changes": dict(zip(keys, high_changes))}


PLATEAU = (4.9395721799294634e-05, 5.002373463414145e-05)


@pytest.mark.parametrize("low_changes, passed", [
    ((0.0, 2.220446049250313e-16), True),     # round-off of a smooth F
    ((2.220446049250313e-16, -4.440892098500626e-16), True),
    ((0.0, 1e-13), False),                    # above the floor: must shrink
    (PLATEAU, False),                         # ib_local's plateau
    ((0.06658545493645418, 0.05860122396920353), True),   # m=2 shrinks
])
def test_lp_report_roundoff_floor(monkeypatch, low_changes, passed):
    from coneflow import verify
    from tests.conftest import i1_model
    monkeypatch.setattr(verify, "validate_lp",
                        lambda model: fake_lp(low_changes))
    rep = verify._lp_report(i1_model())
    assert rep.constants["roundoff_floor"] == 4 * np.finfo(float).eps * 18
    assert rep.passed is passed
    if low_changes == PLATEAU:   # the shrink rule's verdict, floor or not
        assert rep.max_violation == PLATEAU[1] - PLATEAU[0]


def test_lp_report_growth_rule_unchanged(monkeypatch):
    # criterion 9's m=2 model: growth is expected above p_star, and a
    # growth below 5% still fails however settled the low side is
    from coneflow import verify
    from tests.conftest import m2_model
    grown = fake_lp((0.0, 0.0), high_changes=(0.1411024991274994,
                                             0.13294667893025647))
    monkeypatch.setattr(verify, "validate_lp", lambda model: grown)
    assert verify._lp_report(m2_model()).passed
    stalled = fake_lp((0.0, 0.0), high_changes=(0.1411, 0.04))
    monkeypatch.setattr(verify, "validate_lp", lambda model: stalled)
    rep = verify._lp_report(m2_model())
    assert not rep.passed
    assert rep.max_violation == pytest.approx(0.01)


@pytest.mark.parametrize("cauchy, violation", [
    ((1.0, 1.05, 0.5, 0.525), 0.0),     # growth of exactly 5% is allowed
    ((1.0, 0.5, 0.25), 0.0),
    ((1.0, 0.5, 0.53), 1.0),            # 6% growth down the ladder
])
def test_holder_report_verdict(cauchy, violation):
    from coneflow import verify
    from coneflow.ke_solver import ContinuationReport
    epsilons = tuple(0.4 * 0.7**k for k in range(len(cauchy) + 1))
    rep = verify._holder_report(ContinuationReport(
        epsilons=epsilons, cauchy_sups=cauchy, holder_exponent=0.37))
    assert rep.name == "prop-2.1-holder"
    assert rep.max_violation == violation
    assert rep.passed is (violation == 0.0)
    assert rep.constants == {"holder_exponent": 0.37,
                             "cauchy_sups": list(cauchy)}
    assert rep.samples == {"epsilons": list(epsilons)}


def test_trace_times_are_the_step_times_of_the_flow():
    from coneflow import verify
    assert verify._trace_times(20.0, 0.05) == [1.0, 5.0, 10.0, 20.0]
    assert verify._trace_times(8.0, 0.2) == [1.0, 5.0]
    assert verify._trace_times(12.5, 2.5) == [5.0, 10.0]
    with pytest.raises(ConfigurationError, match="reaches none"):
        verify._trace_times(9.0, 0.3)


def test_report_json_deterministic(grid64):
    b = sigma_barrier(grid64, [(0.5, 0.5)])
    f = constant(grid64, 1.0)
    r1 = verify_trace_bound([f], b, "trace-bound")
    r2 = verify_trace_bound([f], b, "trace-bound")
    assert cli._verification_json({"trace-bound": r1}) == \
        cli._verification_json({"trace-bound": r2})
