"""One-call verification suite: solve, flow, and check every tracked estimate.

Produces one EstimateReport per tracked statement, keyed by the report
identifiers consumed downstream:

    lemma-3.2, lemma-3.4, eq-3.10, thm-1.1-2, prop-2.1-holder,
    prop-3.7, F-Lp

The keys are wire-format tokens for report consumers; see each builder for
what is actually measured.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import ConfigurationError
from .estimates import (SIGMA_LEVELS, EstimateReport, cone_angle, flow_masks,
                        multiplicity_exponent, ricci_residual, trace_field,
                        verify_c0_convergence, verify_decay_rate,
                        verify_trace_bound)
from .fibration_model import (LP_GRIDS, FibrationModel, _fiber_threshold,
                              validate_lp)
from .flow_engine import _steps_to, run_flow
from .ke_solver import KEProblem, extrapolated_solution, newton_solve
from .torus_field import ScalarField

__all__ = ["run_verification_suite", "target_flow"]

TRACE_TIMES = (1.0, 5.0, 10.0, 20.0)
CONE_SLOPE_RTOL = 0.02
MULTIPLICITY_ATOL = 0.05
# A relative change of two F^p means of n terms each carries a round-off
# of a few ulps times log2(n) (pairwise summation); F-Lp counts a low change
# within LP_ROUNDOFF_ULPS * eps * log2(n) of zero as settled.
LP_ROUNDOFF_ULPS = 4


def _ricci_cap(model: FibrationModel) -> float:
    return 5e-3 if not model.fibers else 2e-2


def target_flow(problem, T: float, dt: float, snapshot_times=()) -> tuple:
    """(barrier, state, trajectory, decay) of the flow toward the problem's
    stationary target, gaps on flow_masks and monitors on the lowest
    sigma level."""
    barrier, masks = flow_masks(problem.bg)
    target = newton_solve(problem)
    return (barrier, *run_flow(
        problem, T, dt, masks=masks, target_phi=target.phi,
        monitor_mask=masks[f"sigma>={SIGMA_LEVELS[0]}"],
        snapshot_times=snapshot_times))


def run_verification_suite(model: FibrationModel, problem: KEProblem,
                           flow_T: float, flow_dt: float) -> dict:
    """Run the full suite on the model's problem (F-Lp rebuilds F from the
    model on its own grids); returns {key: EstimateReport}."""
    snapshot_times = _trace_times(flow_T, flow_dt)
    bg = problem.bg
    barrier, _, traj, decay = target_flow(problem, flow_T, flow_dt,
                                          snapshot_times)

    # extrapolated stationary solution for the curvature identity
    sol0, cont_report = extrapolated_solution(problem)

    reports = {}
    reports["lemma-3.2"] = verify_decay_rate(decay)
    reports["prop-3.7"] = verify_c0_convergence(traj, decay)
    reports["lemma-3.4"], reports["eq-3.10"] = _trace_reports(
        traj, bg, barrier)
    reports["thm-1.1-2"] = _limit_identity_report(sol0, bg, barrier)
    reports["prop-2.1-holder"] = _holder_report(cont_report)
    reports["F-Lp"] = _lp_report(model)
    return reports


def _trace_times(flow_T, flow_dt):
    """The TRACE_TIMES that a flow of horizon flow_T and step flow_dt lands
    on, where the trace bounds are sampled; ConfigurationError if none."""
    times = [t for t in TRACE_TIMES
             if t <= flow_T and _steps_to(t, flow_dt) is not None]
    if not times:
        raise ConfigurationError(
            f"flow: T={flow_T} with dt={flow_dt} reaches none of the trace "
            f"times {list(TRACE_TIMES)} that verify all samples")
    return times


def _trace_reports(traj, bg, barrier):
    grid = bg.grid
    ref = ScalarField(grid, np.full((grid.n, grid.n), bg.area))
    forward, backward = [], []
    for t, state in sorted(traj.snapshots.items()):
        density = ScalarField(grid, state.density)
        forward.append(trace_field(ref, density))   # tr_{omega_psi} omega_t
        backward.append(trace_field(density, ref))  # tr_{omega_t} omega_psi
    r_34 = verify_trace_bound(forward, barrier, name="lemma-3.4")
    r_310 = verify_trace_bound(forward + backward, barrier, name="eq-3.10")
    r_34.samples["times"] = sorted(traj.snapshots)
    r_310.samples["times"] = sorted(traj.snapshots)
    return r_34, r_310


def _limit_identity_report(sol0, bg, barrier) -> EstimateReport:
    mask = barrier.level_mask(0.5)
    _, sup = ricci_residual(sol0, mask)
    cap = _ricci_cap(bg.model)
    beta = bg.model.beta
    slope = cone_angle(sol0)
    violations = [sup / cap - 1.0,
                  abs(slope / (2.0 * beta) - 1.0) / CONE_SLOPE_RTOL - 1.0]
    constants = {"ricci_residual_sup": sup, "ricci_cap": cap,
                 "cone_slope": slope, "cone_slope_target": 2.0 * beta}
    exps = {}
    for f, w in zip(bg.model.fibers, bg.model.multiplicity_weights):
        target = -2.0 * w
        measured = multiplicity_exponent(sol0, f.point)
        exps[str(f.point)] = {"measured": measured, "target": target}
        violations.append(abs(measured - target) / MULTIPLICITY_ATOL - 1.0)
    if exps:
        constants["multiplicity_exponents"] = exps
    worst = float(max(violations))
    return EstimateReport(name="thm-1.1-2", constants=constants,
                          max_violation=worst)


def _holder_report(cont_report) -> EstimateReport:
    """Regularity exponent is reported, not asserted against a target: the
    statement only guarantees some exponent in (0, 1), and
    holder_exponent_estimate clamps it into (0, 1].  Fails when a Cauchy
    sup grows by more than 5% down the ladder."""
    cauchy = list(cont_report.cauchy_sups)
    decreasing = all(b <= a * 1.05 for a, b in zip(cauchy, cauchy[1:]))
    return EstimateReport(
        name="prop-2.1-holder",
        constants={"holder_exponent": cont_report.holder_exponent,
                   "cauchy_sups": cauchy},
        max_violation=0.0 if decreasing else 1.0,
        samples={"epsilons": list(cont_report.epsilons)})


def _lp_report(model) -> EstimateReport:
    """Integrability dichotomy, asserted qualitatively: the below-threshold
    integral must Cauchy-stabilize across refinements while the
    above-threshold one keeps growing (when a genuine singular exponent
    sets the threshold).  A below-threshold change within the round-off
    floor of the finest grid's mean counts as settled; every change above
    the floor must shrink."""
    rep = validate_lp(model)
    terms = LP_GRIDS[-1] ** 2
    floor = LP_ROUNDOFF_ULPS * float(np.finfo(float).eps) * math.log2(terms)
    low_changes = [abs(v) for v in rep["low_changes"].values()]
    violations = []
    for a, b in zip(low_changes, low_changes[1:]):
        violations.append(min(b - a, b - floor))   # shrinks or is round-off
    growth_expected = _fiber_threshold(model) <= 1.0 / (1.0 - model.beta)
    if growth_expected:
        for v in rep["high_changes"].values():
            violations.append(0.05 - v)     # must keep growing by > 5%
    worst = float(max(violations))
    return EstimateReport(
        name="F-Lp",
        constants={"p_star": rep["p_star"], "p_low": rep["p_low"],
                   "p_high": rep["p_high"],
                   "low_changes": rep["low_changes"],
                   "high_changes": rep["high_changes"],
                   "growth_expected": growth_expected,
                   "roundoff_floor": floor},
        max_violation=worst,
        samples={"integrals_low": rep["integrals_low"],
                 "integrals_high": rep["integrals_high"]})
