"""Verification of the a priori estimates on computed solutions.

Every report here follows the same pattern: the underlying statement
guarantees the existence of constants (C, lambda) or of a measured
exponent; the artifact fits the constants from samples and passes when
they exist below documented caps, or when a measured exponent matches its
predicted value.  Nothing is assumed, everything is fitted or measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ModelError
from .torus_field import (Grid, ScalarField, circle_samples, gradient_values,
                          lap_values, periodic_distance)

__all__ = [
    "BarrierSigma",
    "EstimateReport",
    "sigma_barrier",
    "flow_masks",
    "trace_field",
    "fit_trace_constants",
    "verify_trace_bound",
    "ricci_residual",
    "cone_angle",
    "multiplicity_exponent",
    "verify_decay_rate",
    "verify_c0_convergence",
]


@dataclass(frozen=True)
class EstimateReport:
    name: str
    constants: dict
    max_violation: float
    samples: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.max_violation <= 0.0)


@dataclass(frozen=True)
class BarrierSigma:
    """Degeneration barrier: 0 <= sigma <= 1, exactly zero within one cell
    of each marked point, positive elsewhere, with spectrally measured
    gradient and Laplacian bounds recorded against the reference area."""

    sigma: ScalarField
    bound_constant: float      # max(sup |grad sigma|^2, sup |(1/2) Lap sigma|) / A

    def level_mask(self, threshold: float) -> np.ndarray:
        return self.sigma.values >= threshold


BARRIER_WIDTH = 0.1


def sigma_barrier(grid: Grid, points,
                  reference_area: float = 1.0) -> BarrierSigma:
    """Product of tanh profiles of the squared periodic distance.

    Each factor is tanh(u^3) with u = (d^2 - a^2)_+ / BARRIER_WIDTH^2 and
    a equal to one grid spacing, so the barrier has an exact zero plateau
    one cell wide around each point and is C^2 across the plateau edge
    (the cube kills the first two derivatives).
    """
    pts = [tuple(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ModelError("barrier points must be distinct")
    a2 = grid.spacing**2
    sig = np.ones((grid.n, grid.n))
    for p in pts:
        d2 = periodic_distance(grid, p)**2
        u = np.maximum(d2 - a2, 0.0) / BARRIER_WIDTH**2
        sig = sig * np.tanh(u**3)
    if sig.min() < 0.0 or sig.max() > 1.0 + 1e-12:
        raise ModelError("barrier left the range [0, 1]")
    for p in pts:
        near = periodic_distance(grid, p) <= grid.spacing
        if np.abs(sig[near]).max() > 0.0:
            raise ModelError(f"barrier does not vanish within one cell of {p}")
        if np.any(sig[~near] <= 0.0) and len(pts) == 1:
            raise ModelError("barrier must be positive away from its points")
    gx, gy = gradient_values(sig)
    grad_sq = float((gx * gx + gy * gy).max())
    half_lap = float(np.abs(0.5 * lap_values(sig)).max())
    bound = max(grad_sq, half_lap) / reference_area
    return BarrierSigma(sigma=ScalarField(grid, sig), bound_constant=bound)


# The sets the paper's convergence statements are made on (barrier levels
# away from the divisor and the singular fibers, the compact region) and
# the band the flow's fitted gap decay slopes must lie in on each level.
SIGMA_LEVELS = (0.2, 0.4, 0.6)
QR_MIN = 0.1
DECAY_BAND = (-1.15, -0.85)


def flow_masks(bg):
    """(barrier, masks) for a background: the sigma barrier around the cone
    point and the singular fibers, its level masks "sigma>=<level>" for
    the SIGMA_LEVELS and the compact-region mask "qr>=<QR_MIN>" on which
    flow gaps are measured."""
    points = [bg.model.cone_point] + [f.point for f in bg.model.fibers]
    barrier = sigma_barrier(bg.grid, points, reference_area=bg.area)
    masks = {f"sigma>={level}": barrier.level_mask(level)
             for level in SIGMA_LEVELS}
    masks[f"qr>={QR_MIN}"] = bg.q.values >= QR_MIN
    return barrier, masks


def trace_field(rho_num: ScalarField, rho_den: ScalarField) -> ScalarField:
    """Trace of one metric against another; in complex dimension one this
    is the plain density ratio."""
    den = rho_den.values
    if den.min() <= 0.0:
        raise ModelError("trace denominator must be positive")
    return ScalarField(rho_num.grid, rho_num.values / den)


def _min_dominating_constant(log_trace, sigma_vals, lam):
    """Smallest C with log T <= log C + C / sigma^lam at every sample;
    infinite when no C up to 1e9 dominates."""
    weight = sigma_vals ** (-float(lam))

    def violation(c):
        return float((log_trace - c * weight).max() - math.log(c))

    lo, hi = 1e-6, 1.0
    while violation(hi) > 0.0:
        hi *= 4.0
        if hi > 1e9:
            return math.inf
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if violation(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return hi


TRACE_LAMBDAS = (1, 2, 4, 8)    # the exponents lambda the trace fit tries


def fit_trace_constants(trace_values, sigma_values):
    """Fit (C, lambda) over TRACE_LAMBDAS; returns the smallest dominating
    C and its lambda, ignoring samples with sigma = 0."""
    sig = np.asarray(sigma_values, dtype=float).ravel()
    keep = sig > 0.0
    trace = np.asarray(trace_values, dtype=float).ravel()
    if trace[keep].min() <= 0.0:
        raise ModelError("trace samples must be positive")
    log_t = np.log(trace[keep])
    sig = sig[keep]
    best = (math.inf, None)
    for lam in TRACE_LAMBDAS:
        c = _min_dominating_constant(log_t, sig, lam)
        if c < best[0]:
            best = (c, lam)
    return {"C": best[0], "lambda": best[1], "n_samples": int(keep.sum())}


TRACE_C_CAP = 1e6


def verify_trace_bound(traces, sigma: BarrierSigma, name) -> EstimateReport:
    """Fit one (C, lambda) pair dominating all the trace fields in the list
    traces, their samples pooled; passes when C <= TRACE_C_CAP."""
    pooled_t = np.concatenate([t.values.ravel() for t in traces])
    pooled_s = np.concatenate([sigma.sigma.values.ravel() for _ in traces])
    fit = fit_trace_constants(pooled_t, pooled_s)
    violation = (math.log(fit["C"] / TRACE_C_CAP) if math.isfinite(fit["C"])
                 else math.inf)
    return EstimateReport(
        name=name,
        constants={"C": fit["C"], "lambda": fit["lambda"],
                   "C_cap": TRACE_C_CAP},
        max_violation=float(violation),
        samples={"n": fit["n_samples"], "n_fields": len(traces)},
    )


def ricci_residual(sol, mask) -> tuple:
    """Residual of the limiting curvature identity on a compact mask.

    With rho = F e^v (q + eps^2)^(-(1-beta)) A the identity requires
    -(1/2) Lap log rho + rho - rho_WP to vanish away from the atoms; the
    mask must avoid them (sigma >= 0.5 in the acceptance runs).
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ConfigurationError("ricci_residual needs a nonempty mask")
    rho = sol.density_values()
    resid = (-0.5 * lap_values(sol.log_density_values()) + rho
             - sol.problem.bg.wp.values)
    field_out = ScalarField(sol.v.grid, resid)
    return field_out, float(np.abs(resid[mask]).max())


CIRCLE_ANGLES = 512     # samples per circle in _log_circle_means


def _log_circle_means(log_field: ScalarField, center, radii):
    """Circle means of exp(log field), interpolating in log space; accurate
    for power-law densities where direct interpolation is badly biased."""
    return np.array([np.exp(circle_samples(log_field, center, r,
                                           CIRCLE_ANGLES)).mean()
                     for r in radii])


def _fit_radii(sol, what):
    """The radii a power-law fit samples around a point: nine geometric
    steps from max(0.02, 2.5/N) to 0.2.  The solution's eps must not
    exceed 20/N, or the smoothing would set the profile at these radii."""
    n = sol.problem.bg.grid.n
    if sol.epsilon > 20.0 / n:
        raise ConfigurationError(
            f"{what} needs eps <= 20/N; got eps={sol.epsilon} at N={n}")
    return np.geomspace(max(0.02, 2.5 / n), 0.2, 9)


def cone_angle(sol) -> float:
    """Area-growth exponent of the limit density around the cone point.

    area(R) is accumulated by radial quadrature of interpolated circle
    means, the local slope is 2 pi R^2 m(R) / area(R) (exact for a pure
    power law), and the slope profile is extrapolated to radius zero
    against the cone potential's own correction powers r^(2 beta), since
    the density approaches its limiting power law at that rate.
    Target: 2 beta.
    """
    radii = _fit_radii(sol, "cone angle")
    problem = sol.problem
    n = problem.bg.grid.n
    center = problem.bg.model.cone_point
    beta = problem.beta
    log_rho = ScalarField(sol.v.grid, sol.log_density_values())

    r_inner = 2.0 / n
    r_grid = np.geomspace(r_inner, radii[-1], 600)
    means = _log_circle_means(log_rho, center, r_grid)
    integrand = 2.0 * np.pi * r_grid * means
    inner_disk = 2.0 * np.pi * r_inner**2 * means[0] / (2.0 * beta)
    areas = inner_disk + np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1])
                          * np.diff(r_grid))])
    m_r = _log_circle_means(log_rho, center, radii)
    a_r = np.interp(radii, r_grid, areas)
    slopes = 2.0 * np.pi * radii**2 * m_r / a_r
    cols = [np.ones_like(radii), radii**(2.0 * beta),
            radii**min(4.0 * beta, 2.0)]
    coef, *_ = np.linalg.lstsq(np.vstack(cols).T, slopes, rcond=None)
    return float(coef[0])


def multiplicity_exponent(sol, point) -> float:
    """Radial exponent of the circle-averaged density near a marked fiber.

    Pairwise log-log slopes of the circle means are extrapolated to radius
    zero with a quadratic-in-radius envelope correction.  Target is
    -2 (m-1)/m at a fiber of multiplicity m, and 0 where the density
    carries no power singularity.
    """
    radii = _fit_radii(sol, "multiplicity exponent")
    log_rho = ScalarField(sol.v.grid, sol.log_density_values())
    means = _log_circle_means(log_rho, point, radii)
    slopes = np.diff(np.log(means)) / np.diff(np.log(radii))
    mid = np.sqrt(radii[1:] * radii[:-1])
    cols = np.vstack([np.ones_like(mid), mid, mid * mid]).T
    coef, *_ = np.linalg.lstsq(cols, slopes, rcond=None)
    return float(coef[0])


def verify_decay_rate(decay) -> EstimateReport:
    """The lemma-3.2 report: run_flow's fitted decay slope on each
    'sigma>=L' mask must lie in DECAY_BAND; a mask without a fit fails."""
    lo, hi = DECAY_BAND
    constants = {}
    violations = []
    for level in SIGMA_LEVELS:
        fit = decay.get(f"sigma>={level}")
        if fit is None:
            violations.append(math.inf)
            constants[f"sigma>={level}"] = None
            continue
        slope = fit["slope"]
        constants[f"sigma>={level}"] = {"slope": slope,
                                        "C": fit["intercept_constant"]}
        violations.append(max(lo - slope, slope - hi))
    return EstimateReport(name="lemma-3.2", constants=constants,
                          max_violation=float(max(violations)),
                          samples={"band": list(DECAY_BAND)})


C0_FINAL_GAP_CAP = 1e-3
C0_FINAL_GAP_LEVEL = 0.4


def verify_c0_convergence(trajectory, decay) -> EstimateReport:
    """The prop-3.7 report from run_flow's decay fits of the trajectory's
    gap series 'sigma>=L', one per level L of SIGMA_LEVELS.  Passes when
    every fitted slope is at or below DECAY_BAND[1] (a gap already below
    the fit window must end at or below C0_FINAL_GAP_CAP) and the final gap
    on the C0_FINAL_GAP_LEVEL mask is at or below C0_FINAL_GAP_CAP.  The
    samples add each monitor's maximum and its growth over its t <= 1 max.
    """
    if len(trajectory.times) < 20:
        raise ConfigurationError("need at least 20 trajectory samples")
    constants = {}
    violations = []
    for level in SIGMA_LEVELS:
        key = f"sigma>={level}"
        if key not in trajectory.gaps:
            raise ConfigurationError(f"trajectory lacks the gap series {key!r}")
        final = trajectory.gaps[key][-1]
        fit = decay[key]
        if fit is None:
            constants[key] = {"slope": None, "C": None, "final_gap": final}
            violations.append(final - C0_FINAL_GAP_CAP)
            continue
        constants[key] = {"slope": fit["slope"],
                          "C": fit["intercept_constant"], "final_gap": final}
        violations.append(fit["slope"] - DECAY_BAND[1])
    final_gap = trajectory.gaps[f"sigma>={C0_FINAL_GAP_LEVEL}"][-1]
    violations.append(final_gap - C0_FINAL_GAP_CAP)
    early = np.asarray(trajectory.times) <= 1.0
    growth = {}
    for k, v in trajectory.monitors.items():
        v = np.asarray(v)
        early_max = float(np.abs(v[early]).max())
        growth[k] = float(np.abs(v).max() / max(early_max, 1e-300))
    return EstimateReport(
        name="prop-3.7",
        constants=constants,
        max_violation=float(max(violations)),
        samples={"n_times": len(trajectory.times), "final_gap": final_gap,
                 "monitor_maxima": {k: float(np.max(v)) for k, v
                                    in trajectory.monitors.items()},
                 "monitor_growth_vs_t1": growth},
    )
