"""Base-reduced parabolic flow.

The reduced flow evolves the potential phi on the base:

    d phi / dt = log[ (q + eps^2)^(1-beta) (A + (1/2) Lap eta) / (F A) ]
                 - phi - delta chi(eps^2 + q),        eta = phi + delta chi,

whose stationary points are exactly the solutions of the regularized
limiting equation handled by ke_solver.  flow_step advances it by backward
Euler, with the same Newton/CG machinery (shifted by 1/dt).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DivergenceError, PositivityError
from .ke_solver import KEProblem, damped_newton
from .torus_field import ScalarField, lap_values, _lap_multiplier

__all__ = [
    "FlowState",
    "Trajectory",
    "FlowOps",
    "flow_step",
    "run_flow",
    "fit_decay_slope",
]

STEP_TOL = 1e-12
STEP_MAX_NEWTON = 30
STEP_CG_FLOOR = 1e-13
T_MAX = 50.0        # the longest flow horizon a run may ask for
MAX_STEPS = 100_000  # the most steps a flow may take to reach its horizon


@dataclass(frozen=True)
class FlowState:
    """phi at time t with what FlowOps evaluated there: its density and the
    flow right-hand side, both made read-only; FlowOps.state builds one."""
    phi: ScalarField
    t: float
    dt: float
    density: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.density.setflags(write=False)
        self.rhs.setflags(write=False)


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    gaps: dict = field(default_factory=dict)        # mask name -> [sup gap]
    energy: list = field(default_factory=list)      # integral of phi
    min_density: list = field(default_factory=list)
    monitors: dict = field(default_factory=dict)    # name -> [value]
    snapshots: dict = field(default_factory=dict)   # time -> FlowState

    def append(self, t, gaps, energy, min_density, monitors):
        if self.times and t <= self.times[-1]:
            raise ConfigurationError("trajectory times must increase strictly")
        self.times.append(t)
        for k, v in gaps.items():
            self.gaps.setdefault(k, []).append(v)
        self.energy.append(energy)
        self.min_density.append(min_density)
        for k, v in monitors.items():
            self.monitors.setdefault(k, []).append(v)


class FlowOps:
    """Cached per-problem quantities for one epsilon level."""

    def __init__(self, problem: KEProblem):
        self.bg = problem.bg
        self.cone = problem.cone                          # delta chi field
        self.half_lap_cone = 0.5 * lap_values(self.cone)
        self.log_prefactor = -problem.log_density_values(0.0)

    def density_values(self, phi_values) -> np.ndarray:
        density = self.bg.metric_density(phi_values)
        density += self.half_lap_cone
        return density

    def rhs_values(self, phi_values, density=None) -> np.ndarray:
        """Flow right-hand side at phi; density, when given, must be
        density_values(phi_values), which then is not recomputed."""
        if density is None:
            density = self.density_values(phi_values)
        if density.min() <= 0.0:
            raise PositivityError(
                "flow state left the Kahler cone (nonpositive density)")
        # log_prefactor + log(density) - phi - cone, in one array
        rhs = np.log(density)
        rhs += self.log_prefactor
        rhs -= phi_values
        rhs -= self.cone
        return rhs

    def state(self, phi_values, t, dt) -> FlowState:
        """The state at phi_values, with its density and rhs evaluated."""
        density = self.density_values(phi_values)
        return FlowState(ScalarField(self.bg.grid, phi_values), t, dt,
                         density, self.rhs_values(phi_values, density))


def _steps_to(t, dt):
    """The number of dt steps that reach the time t, or None when t is not
    a whole number of them (to 1e-9 relative)."""
    ratio = t / dt
    steps = round(ratio)
    return None if abs(ratio - steps) > 1e-9 * ratio else int(steps)


def _step_count(T, dt, where="flow"):
    """The number of dt steps in the horizon T, for 0 < dt <= T <= T_MAX
    (a NaN fails), T/dt at most MAX_STEPS (a T/dt that overflows fails
    too) and T a whole number of steps; ConfigurationError naming where
    otherwise."""
    if not 0.0 < dt <= T <= T_MAX:
        raise ConfigurationError(f"{where}: need 0 < dt <= T <= {T_MAX:g}")
    if T / dt > MAX_STEPS:
        raise ConfigurationError(
            f"{where}: need 0 < dt <= T <= {T_MAX:g} in at most {MAX_STEPS} "
            f"steps, got T/dt={T / dt:g}")
    steps = _steps_to(T, dt)
    if steps is None:
        raise ConfigurationError(
            f"{where}: T={T} is not a whole number of steps of dt={dt}")
    return steps


def flow_step(state: FlowState, ops: FlowOps) -> FlowState:
    """Advance the state by its dt with one backward-Euler step, for the
    problem ops was built from; returns the new state with its density and
    rhs.

    Solves u - dt * rhs(u) = phi to sup|u - phi - dt rhs(u)| <= STEP_TOL by
    damped Newton (damped_newton, at most STEP_MAX_NEWTON steps) from the
    explicit predictor phi + dt rhs(phi), read from the state, or from phi
    when the predictor leaves the Kahler cone.  The linearization
    (1+dt) I - dt (1/2) Lap / D, multiplied through by the density D, is
    SPD: (1+dt) D w - dt (1/2) Lap w, solved by CG to the relative
    tolerance max(STEP_CG_FLOOR, 0.1 * STEP_TOL / sup|residual|).
    """
    if not state.dt > 0:
        raise ConfigurationError("dt must be positive")
    phi, dt = state.phi.values, state.dt
    op_symbol = -dt * 0.5 * _lap_multiplier(ops.bg.grid.n)

    def residual(u, density, rhs):
        # u - phi - dt rhs(u)
        resid = np.subtract(u, phi)
        resid -= rhs * dt
        return resid, (density, rhs)

    def evaluate(u):
        density = ops.density_values(u)
        if density.min() <= 0.0:
            return None
        return residual(u, density, ops.rhs_values(u, density))

    u = state.rhs * dt      # explicit predictor phi + dt rhs
    u += phi
    start = evaluate(u)
    if start is None:
        u, start = phi, residual(phi, state.density, state.rhs)
    u, evaluated, _ = damped_newton(
        u, start, evaluate,
        lambda u, evaluated, resid: ((1.0 + dt) * evaluated[0], op_symbol,
                                     -evaluated[0] * resid),
        STEP_TOL, STEP_MAX_NEWTON, STEP_CG_FLOOR)
    return FlowState(ScalarField(state.phi.grid, u), state.t + dt, dt,
                     *evaluated)


def run_flow(problem: KEProblem, T: float, dt: float,
             scheme: str = "backward-euler-newton", *, masks: dict,
             target_phi: ScalarField, monitor_mask,
             snapshot_times) -> tuple:
    """Evolve from phi(0) = 0 to time T, a whole number of steps dt with
    0 < dt <= T <= T_MAX, sampling every step.

    masks maps names to boolean arrays; the trajectory records the sup gap
    to target_phi on each.  monitor_mask hosts the boundedness monitors
    sup|psi|, sup|d_t psi| and the trace of the reference density against
    the evolving one.  Each snapshot time must be a step time k dt with
    0 < k <= T/dt; the trajectory keeps the state of that step under the
    requested time.

    scheme exists only because bench/workloads.py passes it; the one value
    it takes is "backward-euler-newton", the scheme flow_step runs.

    Returns (final state, trajectory, decay report).
    """
    if scheme != "backward-euler-newton":
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    n_steps = _step_count(T, dt)
    snapshot_steps = {}
    for t in sorted(snapshot_times):
        k = _steps_to(t, dt)
        if k is None or not 0 < k <= n_steps:
            raise ConfigurationError(
                f"snapshot time {t} is not a step time in (0, T={T}] "
                f"of dt={dt}")
        snapshot_steps.setdefault(k, t)
    ops = FlowOps(problem)
    n = problem.bg.grid.n
    traj = Trajectory()
    state = ops.state(np.zeros((n, n)), 0.0, dt)
    target = target_phi.values
    try:
        for k in range(1, n_steps + 1):
            state = flow_step(state, ops)
            phi, density = state.phi.values, state.density
            diff = np.abs(phi - target)
            gaps = {name: float(diff[mask].max())
                    for name, mask in masks.items()}
            psi = phi + ops.cone
            monitors = {
                "sup_psi": float(np.abs(psi[monitor_mask]).max()),
                "sup_dt_psi": float(np.abs(state.rhs[monitor_mask]).max()),
                "trace_ref": float(
                    (ops.bg.area / density[monitor_mask]).max())}
            traj.append(state.t, gaps, float(phi.mean()),
                        float(density.min()), monitors)
            if k in snapshot_steps:
                traj.snapshots[snapshot_steps[k]] = state
    except DivergenceError as exc:
        raise DivergenceError(
            f"flow aborted at t={state.t:.3f}: {exc}") from exc
    decay = {name: fit_decay_slope(traj.times, series)
             for name, series in traj.gaps.items()}
    return state, traj, decay


DECAY_WINDOW = (1e-6, 1e-1)     # gaps that fit_decay_slope fits


def fit_decay_slope(times, gaps):
    """Least-squares slope of log gap over DECAY_WINDOW; None if
    underresolved."""
    t = np.asarray(times, dtype=float)
    g = np.asarray(gaps, dtype=float)
    sel = (g >= DECAY_WINDOW[0]) & (g <= DECAY_WINDOW[1])
    if sel.sum() < 5:
        return None
    coeffs = np.polyfit(t[sel], np.log(g[sel]), 1)
    return {"slope": float(coeffs[0]),
            "intercept_constant": float(np.exp(coeffs[1])),
            "samples": int(sel.sum())}
