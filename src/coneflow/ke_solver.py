"""Newton solver for the limiting conical equation on the base.

In density form the stationary equation reads

    A + (1/2) Lap v = F e^v (q + eps^2)^(-(1-beta)) A,

for the combined potential v = phi + delta * chi(eps^2 + q).  The zero-order
term e^v makes the linearization strictly negative definite, so no gauge
fixing is needed: damped Newton steps with a conjugate-gradient inner solve
(spectrally preconditioned) converge from v = 0 for every epsilon in the
continuation schedules used here.

Continuation solves a decreasing epsilon ladder with warm starts, transfers
phi between levels (each level's problem carries its cone part), and reports
the Cauchy differences on a compact region.  The zero-epsilon solution is only
ever produced by Richardson extrapolation of the ladder, never solved for
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cone_smoothing import chi_values
from .errors import (ConfigurationError, DivergenceError, ModelError,
                     PositivityError)
from .estimates import QR_MIN
from .fibration_model import (BackgroundGeometry, DensityData, FibrationModel,
                              assemble_density, build_background)
from .torus_field import (ScalarField, circle_samples, from_half_spectrum,
                          half_spectrum, make_grid,
                          _lap_multiplier)

__all__ = [
    "KEProblem",
    "build_problem",
    "KESolution",
    "ContinuationReport",
    "ke_residual",
    "damped_newton",
    "newton_solve",
    "continuation_solve",
    "extrapolated_solution",
    "default_extrapolation_schedule",
    "holder_exponent_estimate",
    "preconditioned_cg",
]


NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 50
NEWTON_CG_FLOOR = 1e-12
CG_MAX_ITER = 500
# A stalled line search ends the solve at x when its full step is
# round-off, sup|w| <= ROUNDOFF_STEP eps sup|x|.  Every stall of the
# product-model flows at N = 256 (T 1, dt 0.05) had sup|w| / (eps sup|x|)
# of 2.9 to 18 at delta 0.1 and of 2.5 to 51 at delta 0.487.
ROUNDOFF_STEP = 64
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class KEProblem:
    bg: BackgroundGeometry
    density: DensityData
    beta: float
    delta: float
    epsilon: float
    # delta chi(eps^2 + q), read-only, formed when the problem is built
    cone: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cone = self.delta * chi_values(self.epsilon, self.bg.q.values,
                                       self.beta)
        cone.setflags(write=False)
        object.__setattr__(self, "cone", cone)

    def coefficient_values(self) -> np.ndarray:
        """M = F (q + eps^2)^(-(1-beta)) A, the nonlinearity's weight."""
        eps = self.epsilon
        return self.density.density_values() \
            * (self.bg.q.values + eps * eps) ** (-(1.0 - self.beta)) \
            * self.bg.area

    def log_density_values(self, v) -> np.ndarray:
        """log rho for rho = F e^v (q + eps^2)^(-(1-beta)) A."""
        return (self.density.log_density.values + v
                - (1.0 - self.beta) * np.log(self.bg.q.values + self.epsilon**2)
                + math.log(self.bg.area))


POSITIVITY_EPSILONS = (0.4, 0.05)   # smoothing levels build_problem checks


def build_problem(model: FibrationModel, grid_n: int,
                  epsilon: float) -> KEProblem:
    """The model's problem at epsilon on the grid_n x grid_n grid: its
    background, its density F, and beta and delta from the model; ModelError
    unless the reference density A + (1/2) Lap cone is positive at each of
    POSITIVITY_EPSILONS."""
    grid = make_grid(grid_n)
    bg = build_background(model, grid)
    problem = KEProblem(bg=bg, density=assemble_density(model, bg, grid),
                        beta=model.beta, delta=model.delta, epsilon=epsilon)
    for eps in POSITIVITY_EPSILONS:
        low = bg.metric_density(replace(problem, epsilon=eps).cone).min()
        if low <= 0.0:
            raise ModelError(
                f"delta={model.delta} breaks positivity of the initial density "
                f"at eps={eps} (min {low:.3e})")
    return problem


@dataclass(frozen=True)
class KESolution:
    problem: KEProblem
    v: ScalarField            # phi + delta chi(eps^2 + q)
    residual_history: tuple     # sup|residual| at each Newton iterate

    @property
    def phi(self) -> ScalarField:
        return ScalarField(self.v.grid, self.v.values - self.problem.cone)

    @property
    def residual_sup(self) -> float:
        return self.residual_history[-1]

    @property
    def newton_iters(self) -> int:
        return len(self.residual_history) - 1

    @property
    def epsilon(self):
        return self.problem.epsilon

    def density_values(self) -> np.ndarray:
        """Limit density rho = F e^v (q + eps^2)^(-(1-beta)) A."""
        return self.problem.coefficient_values() * np.exp(self.v.values)

    def log_density_values(self) -> np.ndarray:
        """log of density_values(), formed in log space."""
        return self.problem.log_density_values(self.v.values)


def ke_residual(problem: KEProblem, v: ScalarField) -> ScalarField:
    """Pointwise residual A + (1/2) Lap v - M e^v."""
    vals = problem.bg.metric_density(v.values) \
        - problem.coefficient_values() * np.exp(v.values)
    return ScalarField(v.grid, vals)


def preconditioned_cg(coeff, op_symbol, b, rel_tol=1e-12):
    """Solve A x = b by preconditioned CG in at most CG_MAX_ITER
    iterations; returns (x, iterations).

    The operator is A u = coeff * u + F^-1[op_symbol * F u]: a positive
    pointwise coefficient plus a Fourier multiplier whose real, even symbol
    lives on the rfft2 half spectrum (shape (N, N//2+1), as built from
    _lap_multiplier), with A symmetric positive definite.  The
    preconditioner is the multiplier shifted by the coefficient's mean,
    P = op_symbol + mean(coeff), so A = P + diag(coeff - mean(coeff)).

    Eisenstat's trick: for z = P^-1 r the product A z equals
    r + (coeff - mean(coeff)) z with no transform, and A p follows by the
    same recurrence as p.  Each iteration therefore costs one transform
    pair, the preconditioner's.

    P^-1 multiplies the half spectrum in place by the real reciprocal
    1 / P, which gives the bits of the complex division by P (whose
    imaginary part is zero).  The vector updates are written in place, in
    the same operations and order as x += alpha p, r -= alpha ap,
    p = z + beta p and ap = (r + shift z) + beta ap; the spent z is their
    scratch, so an iteration allocates only the transforms' arrays.
    """
    x = np.zeros_like(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, 0
    c_mean = float(np.mean(coeff))
    inv_symbol = 1.0 / (op_symbol + c_mean)
    shift = coeff - c_mean

    def precondition(r):
        hat = half_spectrum(r)
        return from_half_spectrum(np.multiply(hat, inv_symbol, out=hat))

    r = b.copy()
    z = precondition(r)
    p = z.copy()
    ap = np.multiply(shift, z)
    ap += r
    rz = float(np.vdot(r, z).real)
    for it in range(CG_MAX_ITER):
        alpha = rz / float(np.vdot(p, ap).real)
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(ap, alpha, out=z)
        if np.linalg.norm(r) <= rel_tol * b_norm:
            return x, it + 1
        z = precondition(r)
        rz_new = float(np.vdot(r, z).real)
        beta = rz_new / rz
        p *= beta
        p += z
        z *= shift
        z += r
        ap *= beta
        ap += z
        rz = rz_new
    return x, CG_MAX_ITER


def damped_newton(x, start, evaluate, linearize, tol, max_iter, cg_floor):
    """Damped Newton for G(x) = 0 from x; returns (x, state, sup history).

    evaluate(x) gives (G(x), state), state being what linearize reuses, or
    None outside the Kahler cone; start is evaluate(x) at the initial x,
    checked by the caller.  linearize(x, state, g) gives the Newton system
    (coeff, op_symbol, b) for preconditioned_cg, solved to the relative
    tolerance max(cg_floor, 0.1 * tol / sup) (Kelley's safeguard).  Steps
    are halved, at most 30 times, until the trial is in the cone and lowers
    sup|G|; the accepted trial's evaluation is the next iterate's.  When
    no trial does, x is returned if the full step is round-off (see
    ROUNDOFF_STEP), else the solve fails.
    """
    (g, state), history = start, []
    while True:
        sup = float(np.abs(g).max())
        history.append(sup)
        if sup <= tol:
            return x, state, history
        if len(history) > max_iter:
            raise DivergenceError(
                f"Newton did not reach tol={tol} in {max_iter} iterations")
        w, _ = preconditioned_cg(*linearize(x, state, g),
                                 rel_tol=max(cg_floor, 0.1 * tol / sup))
        step = 1.0
        for _ in range(30):
            xn = x + step * w
            trial = evaluate(xn)
            if trial is not None and np.abs(trial[0]).max() < sup:
                break
            step *= 0.5
        else:
            if np.abs(w).max() <= ROUNDOFF_STEP * _EPS * np.abs(x).max():
                return x, state, history
            raise DivergenceError(
                f"Newton line search stalled at iteration {len(history) - 1}"
                f" (residual {sup:.3e})")
        x, (g, state) = xn, trial


def newton_solve(problem: KEProblem, v0: ScalarField = None) -> KESolution:
    """Damped Newton (damped_newton) from v0 (default 0) to
    sup|G| <= NEWTON_TOL in at most NEWTON_MAX_ITER iterations.

    Each step solves (-(1/2) Lap + M e^v) w = G by CG to the relative
    tolerance max(NEWTON_CG_FLOOR, 0.1 * NEWTON_TOL / sup|G|); trials must
    keep the metric density A + (1/2) Lap v positive.
    """
    bg = problem.bg
    m_coeff = problem.coefficient_values()
    if np.any(m_coeff <= 0):
        raise PositivityError("equation coefficient must be positive")
    op_symbol = -0.5 * _lap_multiplier(bg.grid.n)

    def evaluate(v):
        density = bg.metric_density(v)
        if density.min() <= 0:
            return None
        m_exp = m_coeff * np.exp(v)
        return density - m_exp, m_exp

    v = np.zeros((bg.grid.n,) * 2) if v0 is None \
        else np.array(v0.values, dtype=float)
    start = evaluate(v)
    if start is None:
        raise PositivityError("initial density is outside the Kahler cone")
    v, _, history = damped_newton(v, start, evaluate,
                                  lambda v, m_exp, g: (m_exp, op_symbol, g),
                                  NEWTON_TOL, NEWTON_MAX_ITER,
                                  NEWTON_CG_FLOOR)
    return KESolution(problem=problem, v=ScalarField(bg.grid, v),
                      residual_history=tuple(history))


@dataclass(frozen=True)
class ContinuationReport:
    epsilons: tuple
    cauchy_sups: tuple          # sup over {q >= QR_MIN} of |v_{j+1} - v_j|
    holder_exponent: float


def _check_schedule(schedule, grid_n):
    schedule = [float(e) for e in schedule]
    if not schedule:
        raise ConfigurationError("epsilon schedule is empty")
    if schedule[0] < 0.25:
        raise ConfigurationError("schedule must start at 0.25 or above")
    for a, b in zip(schedule, schedule[1:]):
        if not (0.0 < b < a):
            raise ConfigurationError("schedule must decrease strictly")
        if b / a > 0.7 + 1e-12:
            raise ConfigurationError(
                f"schedule ratio {b / a:.3f} exceeds 0.7 between {a} and {b}")
    if schedule[-1] < 2.0 / grid_n:
        raise ConfigurationError(
            f"schedule must end at or above the grid scale 2/N = {2.0 / grid_n}")
    return schedule


def continuation_solve(problem: KEProblem, schedule):
    """Warm-started Newton ladder over a decreasing epsilon schedule.

    Returns (the solutions, one per epsilon, report).  The report's Cauchy
    differences are sups over the compact region q >= QR_MIN and are expected
    to decrease down the ladder.  A grid too coarse for the Holder fit's
    radii is rejected before the first rung.
    """
    schedule = _check_schedule(schedule, problem.bg.grid.n)
    _oscillation_radii(problem.bg.grid.n)   # raises before any rung is solved
    region = problem.bg.q.values >= QR_MIN
    sols = []
    for eps in schedule:
        p_eps = replace(problem, epsilon=eps)
        v0 = None
        if sols:
            v0 = ScalarField(problem.bg.grid,
                             sols[-1].phi.values + p_eps.cone)
        try:
            sol = newton_solve(p_eps, v0)
        except DivergenceError as exc:
            raise DivergenceError(
                f"continuation failed at eps={eps}: {exc}") from exc
        sols.append(sol)
    cauchy = tuple(
        float(np.abs(b.v.values - a.v.values)[region].max())
        for a, b in zip(sols, sols[1:]))
    hold = holder_exponent_estimate(sols[-1].v, problem.bg.model.cone_point)
    report = ContinuationReport(
        epsilons=tuple(schedule),
        cauchy_sups=cauchy,
        holder_exponent=hold,
    )
    return sols, report


EXTRAPOLATION_START = 0.4
EXTRAPOLATION_RATIO = 0.7


def default_extrapolation_schedule(grid_n: int):
    """Geometric schedule from EXTRAPOLATION_START down to the grid scale
    2/N in steps of EXTRAPOLATION_RATIO."""
    sched = [EXTRAPOLATION_START]
    while sched[-1] * EXTRAPOLATION_RATIO >= 2.0 / grid_n:
        sched.append(sched[-1] * EXTRAPOLATION_RATIO)
    return sched


def _extrapolation_basis(beta: float, eps: float):
    """Terms of the small-epsilon expansion of the solution family.

    At beta = 1/2 the cone profile contributes eps and eps log eps terms;
    otherwise the leading corrections are eps^(2 beta) and the next powers.
    """
    if abs(beta - 0.5) < 1e-12:
        return (1.0, eps, eps * np.log(eps), eps * eps)
    return (1.0, eps**(2.0 * beta), eps**min(4.0 * beta, 2.0),
            eps**min(2.0 + 2.0 * beta, 4.0))


def extrapolated_solution(problem: KEProblem):
    """Continuation down default_extrapolation_schedule(N) followed by
    pointwise Richardson extrapolation to eps = 0; returns (solution,
    continuation report).

    Fits the last four ladder solutions against the expansion basis and
    returns a KESolution tagged with epsilon = 0 whose density uses the
    unregularized coefficient.  The zero-epsilon equation itself is never
    iterated on.
    """
    sols, report = continuation_solve(
        problem, default_extrapolation_schedule(problem.bg.grid.n))
    tail = sols[-4:]
    basis = np.array([_extrapolation_basis(problem.beta, s.epsilon)
                      for s in tail])
    weights = np.linalg.inv(basis)[0]
    v_star = sum(w * s.v.values for w, s in zip(weights, tail))
    p0 = replace(problem, epsilon=0.0)
    v_field = ScalarField(problem.bg.grid, v_star)
    resid = ke_residual(p0, v_field)
    return KESolution(problem=p0, v=v_field, residual_history=(
        float(np.abs(resid.values).max()),)), report


def _oscillation_radii(n: int):
    """Dyadic radii in [4/N, 0.1] for the oscillation fit, from 0.1 down
    (with 4/N appended on grids that fit only one); a grid with fewer than
    two is too coarse."""
    radii = []
    r = 0.1
    while r >= 4.0 / n:
        radii.append(r)
        r *= 0.5
    if len(radii) < 2 and 4.0 / n < 0.1:
        radii.append(4.0 / n)   # coarse grids: include the window's low end
    if len(radii) < 2:
        raise ConfigurationError(f"grid too coarse for oscillation radii at N={n}")
    return radii


def holder_exponent_estimate(v: ScalarField, center) -> float:
    """Least-squares slope of log oscillation against log radius.

    Oscillation at radius rho is max - min of the circle samples together
    with the center value, over the radii of _oscillation_radii.  The
    result is clamped into (0, 1]; a constant field reports 1 by
    convention.
    """
    radii = _oscillation_radii(v.grid.n)
    center_val = float(v.values[v.grid.point_index(center)])
    oscs, used = [], []
    for rho in radii:
        samples = circle_samples(v, center, rho)
        osc = float(max(samples.max(), center_val) - min(samples.min(), center_val))
        if osc > 1e-14:
            oscs.append(osc)
            used.append(rho)
    if len(used) < 2:
        return 1.0
    slope = float(np.polyfit(np.log(used), np.log(oscs), 1)[0])
    return float(min(max(slope, 1e-6), 1.0))
