"""Synthetic base geometry of a fibered surface with one conical divisor.

A FibrationModel fixes the cone angle fraction beta, the cone potential
amplitude delta, the marked cone point, the singular-fiber list (multiplicity
m_i and local log-monodromy index b_i each) and a tau model.  From it we build:

  * q = |section|^2 under a constant-curvature metric, normalized to max 1,
    via the torus Green potential of the cone point (so log q has the exact
    discrete Poincare-Lelong identity);
  * the moduli density rho_WP = -(1/2) Lap log Im tau with total mass W;
  * the base area A forced by the cohomological constraint
        A = 2 pi (1 - beta) + W + 2 pi sum_i (m_i - 1)/m_i,
    carried by a flat reference metric of constant density A;
  * the generalized density F with log F = sum_i e_i/2 * psi_i + u_F + c_F,
    where e_i = -2(m_i-1)/m_i, u_F solves the curvature constraint and c_F
    normalizes the integral of F to one.

Marked points are snapped to the working grid's lattice: the discrete delta
identities (and every downstream residual check) are exact only for
lattice-aligned atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ModelError
from .elliptic_periods import ConstantTau, TauModel, tau_field
from .torus_field import (Grid, ScalarField, green_values, lap_values,
                          make_grid, pair_distance, solve_poisson_values)

__all__ = [
    "SingularFiber",
    "FibrationModel",
    "BackgroundGeometry",
    "DensityData",
    "required_area",
    "build_background",
    "assemble_density",
    "lp_threshold",
    "validate_lp",
    "product_model",
]


@dataclass(frozen=True)
class SingularFiber:
    point: tuple
    multiplicity: int
    ib_index: int = 0

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ModelError("fiber multiplicity must be >= 1")
        if self.ib_index < 0:
            raise ModelError("I_b index must be >= 0")


@dataclass(frozen=True)
class FibrationModel:
    beta: float
    delta: float
    cone_point: tuple
    fibers: tuple = ()
    tau_model: TauModel = ConstantTau(1j)

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ModelError(f"beta must lie in (0, 1), got {self.beta}")
        if not (0.0 < self.delta < math.inf):
            raise ModelError("delta must be positive and finite")
        pts = [self.cone_point] + [f.point for f in self.fibers]
        if not all(math.isfinite(c) for p in pts for c in p):
            raise ModelError("marked points must be finite")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pair_distance(pts[i], pts[j]) == 0.0:
                    raise ModelError("marked points must be pairwise distinct")

    @property
    def multiplicity_weights(self):
        return tuple((f.multiplicity - 1) / f.multiplicity for f in self.fibers)


@dataclass(frozen=True)
class BackgroundGeometry:
    grid: Grid
    model: FibrationModel          # with points snapped to the grid
    area: float                    # A; also the constant reference density
    wp: ScalarField                # moduli density rho_WP
    wp_mass: float                 # W, the mean of rho_WP

    @cached_property
    def q(self) -> ScalarField:
        """|section|^2, max exactly 1, formed on first read."""
        q = green_values(self.grid, self.model.cone_point)
        q -= q.max()
        np.exp(q, out=q)
        return ScalarField(self.grid, q)

    def metric_density(self, v) -> np.ndarray:
        """A + (1/2) Lap v: the density of the metric with potential v,
        formed in the array lap_values returns."""
        density = lap_values(v)
        density *= 0.5
        density += self.area
        return density


@dataclass(frozen=True)
class DensityData:
    log_density: ScalarField       # full log F on the grid, normalized

    def density_values(self) -> np.ndarray:
        return np.exp(self.log_density.values)


def _snap_model(model: FibrationModel, grid: Grid) -> FibrationModel:
    """The model with its marked points snapped to the lattice; the snapped
    points must be more than 8/N apart."""
    def snap(p):
        i, j = grid.point_index(p)
        return (i / grid.n, j / grid.n)

    given = [model.cone_point] + [f.point for f in model.fibers]
    pts = [snap(p) for p in given]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pair_distance(pts[i], pts[j]) <= 8.0 / grid.n:
                raise ConfigurationError(
                    f"marked points {given[i]} and {given[j]} closer than "
                    f"8/N at N={grid.n}")
    fibers = tuple(replace(f, point=p) for f, p in zip(model.fibers, pts[1:]))
    return replace(model, cone_point=pts[0], fibers=fibers)


def required_area(model: FibrationModel, grid: Grid) -> float:
    """Base area forced by the class constraint: build_background's A."""
    a = build_background(model, grid).area
    assert a > 0.0, "area must be positive for beta < 1 and W >= 0"
    return a


def build_background(model: FibrationModel, grid: Grid,
                     im_tau=None) -> BackgroundGeometry:
    """Construct the background geometry on a grid.

    Marked points snap to the lattice; their separations must exceed 8/N.
    The moduli density rho_WP is formed on the snapped model and, unless
    the tau model is signed, may not dip below -1e-8 on the tau field's
    valid mask; its mean W sets the area the class forces,
    A = 2 pi (1 - beta) + W + 2 pi sum (m_i - 1)/m_i.  im_tau, when
    given, is the snapped model's Im tau on this grid, formed earlier.
    """
    model = _snap_model(model, grid)
    tau = model.tau_model
    im, mask = tau_field(tau, grid, model.fibers, im_tau)
    wp = tau.wp_density(grid, model.fibers, im.values)
    if not tau.signed and np.any(wp[mask] < -1e-8):
        raise ModelError("moduli density dips below -1e-8 on the valid mask")
    wp_mass = float(wp.mean())
    area = 2.0 * np.pi * (1.0 - model.beta) + wp_mass + \
        2.0 * np.pi * sum(model.multiplicity_weights)
    return BackgroundGeometry(grid=grid, model=model, area=area,
                              wp=ScalarField(grid, wp), wp_mass=wp_mass)


def assemble_density(model: FibrationModel, bg: BackgroundGeometry,
                     grid: Grid) -> DensityData:
    """Build F from the curvature constraint.

    log F = sum_i -( (m_i-1)/m_i ) psi_{s_i} + u_F + c_F where u_F solves
    (1/2) Lap u_F = A - 2 pi (1 - beta) - rho_WP - 2 pi sum (m_i-1)/m_i.
    The source is mean-zero exactly because A was defined from the same
    mass bookkeeping; the residual mean is asserted below 1e-9.  bg must
    be the background of this model on this grid.
    """
    if grid != bg.grid or _snap_model(model, grid) != bg.model:
        raise ModelError("background was not built from this model and grid")
    n = grid.n
    log_f = np.zeros((n, n))
    for f, w in zip(bg.model.fibers, bg.model.multiplicity_weights):
        if w != 0.0:
            log_f -= w * green_values(grid, f.point)
    source = (bg.area - 2.0 * np.pi * (1.0 - model.beta)
              - bg.wp.values
              - 2.0 * np.pi * sum(bg.model.multiplicity_weights))
    if abs(source.mean()) > 1e-9:
        raise ModelError(
            f"curvature source has nonzero mean {source.mean():.3e}; "
            "model areas are inconsistent")
    source -= source.mean()
    log_f += solve_poisson_values(source)
    log_f -= math.log(float(np.exp(log_f).mean()))
    return DensityData(log_density=ScalarField(grid, log_f))


def _fiber_threshold(model: FibrationModel) -> float:
    """min_i m_i/(m_i - 1) over the multiple fibers; infinite when every
    m_i = 1."""
    return min((f.multiplicity / (f.multiplicity - 1.0)
                for f in model.fibers if f.multiplicity > 1), default=math.inf)


def lp_threshold(model: FibrationModel) -> float:
    """p_star = _fiber_threshold(model) capped by 1/(1 - beta): the
    integrability threshold of F, a function of the model alone, and
    finite since beta < 1."""
    return min(_fiber_threshold(model), 1.0 / (1.0 - model.beta))


# The refinements validate_lp compares.  Each N divides the last and has
# N^2 a multiple of elliptic_periods._BLOCK, so its Im tau is the finest
# field restricted to its lattice, bit for bit.
LP_GRIDS = (128, 256, 512)


def validate_lp(model: FibrationModel) -> dict:
    """Report integrability of F across the grid refinements LP_GRIDS.

    With p_star = lp_threshold(model), reports int F^p at p = 0.95 p_star
    (expected to settle) and at p = 1.05 p_star (expected to keep growing).
    Report-only: no thresholds are enforced here.

    Im tau is formed once, on the finest grid.  A coarser grid whose
    snapped model equals the finest grid's takes the strided restriction
    of that field; one whose marked points snap elsewhere forms its own.
    """
    p_star = lp_threshold(model)
    p_low = 0.95 * p_star
    p_high = 1.05 * p_star

    grids = [make_grid(n) for n in LP_GRIDS]
    snapped = [_snap_model(model, g) for g in grids]   # coarsest error first
    finest = snapped[-1]
    im = tau_field(finest.tau_model, grids[-1], finest.fibers)[0].values
    fields = {n: np.ascontiguousarray(im[::LP_GRIDS[-1] // n,
                                         ::LP_GRIDS[-1] // n])
              for n, m in zip(LP_GRIDS, snapped) if m == finest}
    del im              # the finest field lives on only in fields

    low, high = {}, {}
    for g in grids:
        bg = build_background(model, g, fields.pop(g.n, None))
        dens = assemble_density(model, bg, g)
        f_vals = dens.density_values()
        del bg, dens        # no grid's fields outlive its own step
        low[g.n] = float((f_vals**p_low).mean())
        high[g.n] = float((f_vals**p_high).mean())
        del f_vals

    pairs = list(zip(LP_GRIDS, LP_GRIDS[1:]))
    return {
        "p_star": p_star,
        "p_low": p_low,
        "p_high": p_high,
        "integrals_low": low,
        "integrals_high": high,
        "low_changes": {f"{a}->{b}": low[b] / low[a] - 1.0 for a, b in pairs},
        "high_changes": {f"{a}->{b}": high[b] / high[a] - 1.0
                         for a, b in pairs},
    }


def product_model() -> FibrationModel:
    """The trivial-moduli reference model: one cone point, no singular fibers."""
    return FibrationModel(beta=0.5, delta=0.1, cone_point=(0.5, 0.5),
                          tau_model=ConstantTau(1j))
