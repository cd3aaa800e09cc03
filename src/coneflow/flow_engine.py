"""Base-reduced parabolic flow and its 4D product-case oracle.

The reduced flow evolves the potential phi on the base:

    d phi / dt = log[ (q + eps^2)^(1-beta) (A + (1/2) Lap eta) / (F A) ]
                 - phi - delta chi(eps^2 + q),        eta = phi + delta chi,

whose stationary points are exactly the solutions of the regularized
limiting equation handled by ke_solver.  flow_step advances it by backward
Euler, with the same Newton/CG machinery (shifted by 1/dt).

The 4D oracle evolves the same flow on a coarse product of a fiber torus
and the base, computing the full 2x2 Hermitian determinant spectrally.
For fiber-constant data its right-hand side agrees with the reduced one
to round-off, which is the reduction's correctness certificate.  Its step
is linearly implicit: the frozen-coefficient linearization
L = (1/2) (e^t / fiber_area) Lap_w + (1/2) Lap_s / q_min - 1, with symbol
-(1/2) (e^t / fiber_area) |2 pi k_w|^2 - (1/2) |2 pi k_s|^2 / q_min - 1,
is inverted exactly in Fourier space, so the fiber modes, which stiffen
like e^t as the fibers shrink, set no step bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, DivergenceError, PositivityError
from .elliptic_periods import ConstantTau
from .ke_solver import KEProblem, build_problem, damped_newton
from .torus_field import (ScalarField, from_half_spectrum, half_spectrum,
                          lap_values, _lap_multiplier)

__all__ = [
    "FlowState",
    "Trajectory",
    "FlowOps",
    "flow_step",
    "run_flow",
    "fit_decay_slope",
    "ProductFlow4D",
]

STEP_TOL = 1e-12
STEP_MAX_NEWTON = 30
STEP_CG_FLOOR = 1e-13
T_MAX = 50.0        # the longest flow horizon a run may ask for


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
    (a NaN fails) and T a whole number of steps; ConfigurationError naming
    where otherwise."""
    if not 0.0 < dt <= T <= T_MAX:
        raise ConfigurationError(f"{where}: need 0 < dt <= T <= {T_MAX:g}")
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
             scheme: str = "backward-euler-newton",
             masks: dict = None, target_phi: ScalarField = None,
             monitor_mask=None, snapshot_times=()) -> tuple:
    """Evolve from phi(0) = 0 to time T, a whole number of steps dt with
    0 < dt <= T <= T_MAX, sampling every step.

    masks maps names to boolean arrays; the trajectory records the sup gap
    to target_phi on each.  monitor_mask, when given, hosts the
    boundedness monitors sup|psi|, sup|d_t psi| and the trace of the
    reference density against the evolving one.  Each snapshot time must
    be a step time k dt with 0 < k <= T/dt; the trajectory keeps the state
    of that step under the requested time.

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
    masks = masks or {}
    traj = Trajectory()
    state = ops.state(np.zeros((n, n)), 0.0, dt)
    target = None if target_phi is None else target_phi.values
    try:
        for k in range(1, n_steps + 1):
            state = flow_step(state, ops)
            phi, density = state.phi.values, state.density
            gaps = {}
            if target is not None:
                diff = np.abs(phi - target)
                for name, mask in masks.items():
                    gaps[name] = float(diff[mask].max())
            monitors = {}
            if monitor_mask is not None:
                psi = phi + ops.cone
                monitors["sup_psi"] = float(np.abs(psi[monitor_mask]).max())
                monitors["sup_dt_psi"] = float(
                    np.abs(state.rhs[monitor_mask]).max())
                monitors["trace_ref"] = float(
                    (ops.bg.area / density[monitor_mask]).max())
            traj.append(state.t, gaps, float(phi.mean()),
                        float(density.min()), monitors)
            if k in snapshot_steps:
                traj.snapshots[snapshot_steps[k]] = state
    except (DivergenceError, PositivityError) as exc:
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


# ---------------------------------------------------------------------------
# coarse 4D product oracle
# ---------------------------------------------------------------------------

class ProductFlow4D:
    """Full product-space flow on fiber nf^2 x base nb^2, linearly implicit.

    Valid for product models only (constant tau, no singular fibers,
    density F identically one).  The fiber carries a flat form of constant
    density fiber_area, which the flow shrinks like e^-t, so the fiber
    Laplacian stiffens like e^t.  run steps linearly implicitly,
    phi <- phi + dt (I - dt L)^-1 rhs(phi), where L's Fourier symbol
    -(1/2) (e^t / fiber_area) |2 pi k_w|^2 - (1/2) |2 pi k_s|^2 / q_min - 1
    takes the stiffness, so a fixed dt stays stable all the same.
    """

    def __init__(self, problem: KEProblem, nf: int = 16, nb: int = 32,
                 fiber_area: float = 2.0):
        model = problem.bg.model
        if model.fibers or not isinstance(model.tau_model, ConstantTau):
            raise ConfigurationError("the 4D oracle supports product models only")
        if np.abs(problem.density.log_density.values).max() > 1e-10:
            raise ConfigurationError("the 4D oracle requires F identically 1")
        self.nf = nf
        self.nb = nb
        self.fiber_area = float(fiber_area)
        self.base_problem = replace(build_problem(model, nb, problem.epsilon),
                                    beta=problem.beta, delta=problem.delta)
        self.base_ops = FlowOps(self.base_problem)
        # the least base density at phi = 0 scales run's implicit base part
        self._q_min = float(self.base_ops.density_values(
            np.zeros((nb, nb))).min())

        kf = np.fft.fftfreq(nf, d=1.0 / nf)
        kb = np.fft.fftfreq(nb, d=1.0 / nb)
        kxw, kyw, kxs, kys = np.meshgrid(kf, kf, kb, kb, indexing="ij")
        tp = 2.0 * np.pi
        lap_w = -tp**2 * (kxw**2 + kyw**2)
        lap_s = -tp**2 * (kxs**2 + kys**2)
        m_re = -(tp * kxw * tp * kxs + tp * kyw * tp * kys)
        m_im = -(tp * kxw * tp * kys - tp * kyw * tp * kxs)
        # two fused multipliers: one inverse transform yields two real fields
        self._mult_lap = lap_w + 1j * lap_s
        self._mult_mixed = m_re + 1j * m_im
        self._base_log_prefactor = self.base_ops.log_prefactor \
            - math.log(self.fiber_area)

    def initial_state(self, fiber_mode_amplitude: float = 0.0):
        phi = np.zeros((self.nf, self.nf, self.nb, self.nb))
        if fiber_mode_amplitude:
            xw = np.arange(self.nf) / self.nf
            phi += fiber_mode_amplitude * np.cos(2.0 * np.pi * xw)[
                :, None, None, None]
        return phi

    def rhs(self, phi, t):
        """t + log_prefactor + log(p q - |m|^2) - phi - cone at time t, with
        p = e^-t fiber_area + (1/2) Lap_w phi the fiber density,
        q = area + (1/2) Lap_s phi + (1/2) Lap cone the base density and m
        half the mixed derivative z2 of phi."""
        hat = np.fft.fftn(phi)
        z1 = np.fft.ifftn(self._mult_lap * hat)
        z2 = np.fft.ifftn(self._mult_mixed * hat)
        ops = self.base_ops
        p = math.exp(-t) * self.fiber_area + 0.5 * z1.real
        q = ops.bg.area + 0.5 * z1.imag + ops.half_lap_cone
        det = p * q - (0.5 * z2.real)**2 - (0.5 * z2.imag)**2
        if p.min() <= 0.0 or det.min() <= 0.0:
            raise PositivityError("4D determinant left the Kahler cone")
        return t + self._base_log_prefactor + np.log(det) - phi - ops.cone

    def fiber_gap(self, phi) -> float:
        """sup |psi - fiber-average psi| (the cone part is fiber-constant)."""
        return float(np.abs(phi - phi.mean(axis=(0, 1))[None, None]).max())

    def run(self, T: float, dt: float, phi=None,
            reduced_reference: bool = False):
        """Linearly implicit Euler to time T, a whole number of steps dt,
        sampling every step; returns (phi, samples dict).

        A step from time t is phi <- phi + dt (I - dt L)^-1 rhs(phi, t), with
        L = (1/2) (e^t / fiber_area) Lap_w + (1/2) Lap_s / q_min - 1 the
        linearized rhs with frozen density coefficients: the fiber density
        e^-t fiber_area of a fiber-constant state, and q_min, the least
        base density at phi = 0, which over-damps the base part.  L is
        diagonal in the Fourier basis with every mode damped, so the fiber
        modes, which stiffen like e^t, set no step bound; a stationary phi
        stays one.

        With reduced_reference=True the reduced flow on the base grid takes
        the same step in lockstep, with L's base part (1/2) Lap / q_min - 1,
        which is L on fiber-constant modes, and the sup difference is
        recorded.
        """
        phi = self.initial_state() if phi is None else np.array(phi, dtype=float)
        phi_red = np.zeros((self.nb, self.nb)) if reduced_reference else None
        n_steps = _step_count(T, dt, "ProductFlow4D.run")
        # I/dt - L is real and even in k, so it acts on half spectra: the
        # 4D one (its last axis halved, as rfftn leaves it; the symbols
        # depend on k^2 only) and the base one
        lap = self._mult_lap[..., :self.nb // 2 + 1]
        base_symbol = (1.0 / dt + 1.0) - (0.5 / self._q_min) * lap.imag
        reduced_symbol = (1.0 / dt + 1.0) - (0.5 / self._q_min) \
            * _lap_multiplier(self.nb)
        samples = {"t": [], "fiber_gap": [], "reduced_diff": []}
        for s in range(n_steps):
            t = s * dt
            hat = np.fft.rfftn(self.rhs(phi, t))
            hat /= base_symbol - (0.5 * math.exp(t) / self.fiber_area) \
                * lap.real
            # in place: phi is this run's own copy
            phi += np.fft.irfftn(hat, phi.shape, axes=range(4))
            samples["t"].append((s + 1) * dt)
            samples["fiber_gap"].append(self.fiber_gap(phi))
            if reduced_reference:
                hat = half_spectrum(self.base_ops.rhs_values(phi_red))
                hat /= reduced_symbol
                phi_red = phi_red + from_half_spectrum(hat)
                samples["reduced_diff"].append(float(
                    np.abs(phi - phi_red[None, None]).max()))
        return phi, samples
