"""Elliptic-curve periods, the modular parameter tau, and tau-fields on the base.

Periods of y^2 = 4x^3 - g2 x - g3 are computed from the arithmetic-geometric
mean with the optimal square-root branch: for roots e1, e2, e3 the half-period
attached to a root e is pi / (2 agm(sqrt(e - e'), sqrt(e - e''))).  Numerical
period integrals are kept in the test suite as the independent oracle.

A TauModel describes how the fiber modulus varies over the base: constant,
a local logarithmic profile around marked points (capped and blended to a
constant), or a Weierstrass family (g2(s), g3(s)) evaluated pointwise.
Each model forms its own Im tau and Weil-Petersson density rho_WP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, NumericalError
from .torus_field import Grid, ScalarField, lap_values, periodic_distance

__all__ = [
    "WeierstrassCurve",
    "TauModel",
    "ConstantTau",
    "LocalLogTau",
    "WeierstrassFamilyTau",
    "discriminant",
    "periods_from_weierstrass",
    "normalize_tau",
    "tau_field",
]

_AGM_MAX_ITER = 64
# Points per block in the batched root and AGM loops: a 512 x 512 field
# then runs in a few block-sized temporaries at a time, and no full-grid
# complex array is formed.  The size is part of the result's bits
# through the roots (the AGM's bits are each point's own):
# 1 << 14 complex values fill numpy's 256 KiB temporary-elision size,
# elision reverses the operands of a complex product, and numpy's FMA
# complex multiply is not bitwise commutative.  1 << 12 would trace less
# at N = 512 but moves 1,835 of its Im tau values there by up to 8 ulps.
# On a grid with N^2 a multiple of _BLOCK every block is full-size, so a
# lattice point's Im tau is the same double on every such grid that holds
# it: fibration_model.validate_lp restricts its finest field to the
# coarser LP_GRIDS on that ground.  At N = 64 (4,096 points, one short
# block) about 50 points per field differ in their last bits.
_BLOCK = 1 << 14


def _blocks(size):
    return [slice(i, min(i + _BLOCK, size)) for i in range(0, size, _BLOCK)]


@dataclass(frozen=True)
class WeierstrassCurve:
    """Curve y^2 = 4x^3 - g2 x - g3; smooth iff g2^3 - 27 g3^2 != 0."""

    g2: complex
    g3: complex


def discriminant(c: WeierstrassCurve) -> complex:
    """g2^3 - 27 g3^2; ModelError when it overflows."""
    g2 = complex(c.g2)
    g3 = complex(c.g3)
    try:
        disc = g2**3 - 27.0 * g3**2
    except OverflowError:       # complex ** raises where * gives inf
        disc = complex(np.inf)
    if not np.isfinite(disc):
        raise ModelError("discriminant overflows")
    return disc


def _agm(a, b):
    """The AGM of the 1-D complex arrays a and b, pointwise: a holds the
    means on return, and b is overwritten.

    Each point steps until its own pair passes |a - b| <= 1e-15 max(|a|,
    |b|, 1e-300) and keeps (a + b) / 2, so a point's bits depend only on
    its own inputs.  At each check the converged points take their means
    and leave the working arrays; the steps run on the live points alone.
    The geometric mean takes the principal square root, flipped in sign
    whenever |a' - b'| > |a' + b'| (the branch that keeps the iteration
    quadratically convergent); the smaller of the two is the next step's
    |a - b|.  Zero inputs are absorbing.
    """
    zero = (a == 0) | (b == 0)
    a[zero] = 0.0
    b[zero] = 0.0
    means = a
    at = np.arange(len(a))      # the live points' places in means
    gap = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    for _ in range(_AGM_MAX_ITER):
        done = gap <= 1e-15 * np.maximum(scale, 1e-300)
        if done.any():
            live = ~done
            means[at[done]] = (a[done] + b[done]) / 2.0
            if not live.any():
                return means
            a, b, at = a[live], b[live], at[live]
        an = (a + b) / 2.0
        bn = np.sqrt(a * b)
        minus = np.abs(an - bn)
        plus = np.abs(an + bn)
        np.negative(bn, out=bn, where=minus > plus)
        a, b = an, bn
        gap = np.minimum(minus, plus)
        scale = np.maximum(np.abs(a), np.abs(b))
    raise NumericalError("AGM did not converge within 64 iterations")


# Cube roots of unity for the three Cardano branches u w^k + v w^-k.
_OMEGA = np.exp(2j * np.pi / 3.0)
# Relative discriminant |g2^3 - 27 g3^2| / max(|g2|^3, 27 |g3|^2) at or
# below which two roots nearly coincide: there Newton's derivative nearly
# vanishes, so those points take the companion-matrix eigenvalues instead.
_NEAR_DOUBLE = 1e-8


def _companion_roots(g2, g3):
    """Roots of 4x^3 - g2 x - g3 as eigenvalues of its companion matrix."""
    m = np.zeros((len(g2), 3, 3), dtype=complex)
    m[:, 1, 0] = 1.0
    m[:, 2, 1] = 1.0
    m[:, 0, 2] = g3 / 4.0
    m[:, 1, 2] = g2 / 4.0
    return np.linalg.eigvals(m)


def _block_roots(a, b, disc):
    """Roots of 4x^3 - a x - b, as the rows of a (3, M) array, for 1-D
    invariant arrays a, b with discriminants disc = a^3 - 27 b^2.

    The cubic is already depressed, x^3 + p x + q with p = -a/4 and
    q = -b/4, so Cardano's formula applies: u^3 = -q/2 + s with
    s = sqrt(q^2/4 + p^3/27) signed to give the larger |u^3| (no
    cancellation), v = -p/(3u), and the roots are u w^k + v w^-k for the
    cube roots of unity w^k.  Two Newton steps on the cubic then polish
    each root to round-off.  Points whose roots nearly coincide (relative
    discriminant at most _NEAR_DOUBLE, which includes every point with
    u = 0) fall back to companion-matrix eigenvalues.  Each point's roots
    are sorted by (Re, Im) descending, so the order is stable under
    positive real rescaling: a stable compare-exchange network on the row
    pairs (0, 1), (1, 2), (0, 1) swaps only where the later root sorts
    strictly first.
    """
    h = b / 8.0                         # -q/2
    sq = np.sqrt(-disc / 1728.0)        # s, then signed: Re(h* s) >= 0
    sq[(h.real * sq.real + h.imag * sq.imag) < 0] *= -1.0
    u = (h + sq) ** (1.0 / 3.0)
    # u = 0 needs h = s = 0, so disc = 0: a near point too
    near = np.abs(disc) <= _NEAR_DOUBLE * np.maximum(
        np.abs(a)**3, 27.0 * np.abs(b)**2)
    u[near] = 1.0       # placeholder; their roots are replaced below
    v = a / (12.0 * u)
    r = np.stack((u + v, u * _OMEGA + v / _OMEGA, u / _OMEGA + v * _OMEGA))
    for _ in range(2):
        r2 = r * r
        r -= (r * (4.0 * r2 - a) - b) / (12.0 * r2 - a)
    if near.any():
        r[:, near] = _companion_roots(a[near], b[near]).T
    for i, j in ((0, 1), (1, 2), (0, 1)):
        x, y = r[i], r[j]
        swap = (y.real > x.real) | ((y.real == x.real) & (y.imag > x.imag))
        r[i, swap], r[j, swap] = y[swap], x[swap]
    return r


def normalize_tau(tau: complex) -> complex:
    """Reduce tau into the standard fundamental domain |Re| <= 1/2, |tau| >= 1,
    with boundary representatives chosen to have Re tau >= 0."""
    tau = complex(tau)
    if tau.imag == 0:
        raise ModelError("tau must have nonzero imaginary part")
    if tau.imag < 0:
        tau = -tau
    for _ in range(256):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1.0 - 1e-15:
            tau = -1.0 / tau
        else:
            break
    else:
        raise NumericalError("fundamental-domain reduction did not terminate")
    if abs(abs(tau) - 1.0) < 1e-12 and tau.real < 0:
        tau = -1.0 / tau
    if abs(tau.real + 0.5) < 1e-12:
        tau = tau + 1.0
    return tau


def _agm_inputs(e):
    """The half-periods' AGM inputs for the root rows e (3, M), as the
    rows of a (4, M) array: sqrt(e1 - e2) and sqrt(e1 - e3) for w1,
    sqrt(e3 - e1) and sqrt(e3 - e2) for w2.  Once each pair of rows has
    run through _agm, w1 and w2 are pi / (2 rows[0]) and pi / (2 rows[2])."""
    e1, e2, e3 = e
    rows = np.empty((4, e.shape[1]), dtype=complex)
    for row, (x, y) in zip(rows, ((e1, e2), (e1, e3), (e3, e1), (e3, e2))):
        np.sqrt(x - y, out=row)
    return rows


def periods_from_weierstrass(c: WeierstrassCurve):
    """Half-period basis (w1, w2) with Im(w2/w1) > 0 and the normalized tau.

    Returns (w1, w2, tau) where tau is w2/w1 reduced to the fundamental
    domain.  The roots come from the closed form of _block_roots on
    one-point arrays (companion-matrix eigenvalues when two roots
    nearly coincide), ordered by (Re, Im) descending.  Real invariants
    with disc < 0 give a real root r, of the sign of g3, and a conjugate
    pair of real part -r/2; these ties are ordered as the exact roots
    sort, not by the round-off in the computed real parts.  Degenerate
    curves (zero discriminant) are rejected.
    """
    disc = discriminant(c)
    if disc == 0:
        raise ModelError("degenerate fiber: discriminant vanishes")
    g2, g3 = complex(c.g2), complex(c.g3)
    a, b = np.array([g2]), np.array([g3])
    e = _block_roots(a, b, a**3 - 27.0 * b**2)
    if g2.imag == g3.imag == 0 and disc.real < 0:
        down, real, up = e[np.argsort(e[:, 0].imag), 0]
        e[:, 0] = ((real, up, down) if g3.real > 0 else
                   (up, down, real) if g3.real < 0 else (up, real, down))
    rows = _agm_inputs(e)
    # Python complex division, which rounds otherwise than numpy's
    w1, w2 = (np.pi / complex(2.0 * _agm(*pair)[0])
              for pair in (rows[:2], rows[2:]))
    if (w2 / w1).imag < 0:
        w2 = -w2
    return w1, w2, normalize_tau(w2 / w1)


# ---------------------------------------------------------------------------
# tau models on the base
# ---------------------------------------------------------------------------

def cap_blend(d, cap):
    """1 - s((d - cap/2) / (cap/2)) for the quintic smoothstep s: a C^2
    cutoff, 1 within cap/2 of a marked point and 0 beyond cap."""
    lo = 0.5 * cap
    u = np.clip((d - lo) / (cap - lo), 0.0, 1.0)
    return 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


class TauModel:
    """Base class of the tau models below.  Each model forms its own
    Im tau, im_tau(grid, fibers), and moduli density rho_WP,
    wp_density(grid, fibers, im_tau), from the fibration's singular fibers
    (objects with point and ib_index).  rho_WP must be nonnegative on the
    tau field's valid mask unless the model is signed."""

    signed = False


@dataclass(frozen=True)
class ConstantTau(TauModel):
    tau: complex = 1j

    def __post_init__(self):
        if complex(self.tau).imag <= 0:
            raise ModelError("constant tau must lie in the upper half-plane")

    def im_tau(self, grid: Grid, fibers):
        return np.full((grid.n, grid.n), complex(self.tau).imag)

    def wp_density(self, grid: Grid, fibers, im_tau):
        return np.zeros((grid.n, grid.n))


@dataclass(frozen=True)
class LocalLogTau(TauModel):
    """Im tau = baseline + sum_i (b_i / 2 pi) * G(d_i) where G equals -log d
    inside half the cap radius, is constant (-log cap) outside the cap, and
    is joined by a C^2 quintic blend in between.  The b_i come from the
    fibration's singular-fiber list."""

    baseline: float = 1.0
    cap_radius: float = 0.25

    def __post_init__(self):
        if self.baseline <= 0:
            raise ModelError("baseline Im tau must be positive")
        if not (0.0 < self.cap_radius <= 0.45):
            raise ModelError("cap radius must lie in (0, 0.45]")

    def profile(self, dists, b):
        """Im tau contribution profile for one marked point of index b at
        distances dists."""
        cap = self.cap_radius
        lo = 0.5 * cap
        d = np.maximum(np.asarray(dists, dtype=float), 1e-300)
        g_log = -np.log(d)
        g_cap = -np.log(cap)
        w = cap_blend(d, cap)
        g = np.where(d <= lo, g_log,
                     np.where(d >= cap, g_cap, g_cap + w * (g_log - g_cap)))
        return (b / (2.0 * np.pi)) * g

    def im_tau(self, grid: Grid, fibers):
        im = np.full((grid.n, grid.n), self.baseline)
        for f in fibers:
            if f.ib_index > 0:
                im = im + self.profile(periodic_distance(grid, f.point),
                                       f.ib_index)
        return im

    def wp_density(self, grid: Grid, fibers, im_tau):
        """The capped profile is not globally the imaginary part of a
        holomorphic family, so rho_WP is the closed-form local density
        (b/2pi)^2 / (2 d^2 Im tau^2), shut off by the profile's C^2 blend:
        nonnegative and supported in the caps."""
        out = np.zeros((grid.n, grid.n))
        for f in fibers:
            if f.ib_index == 0:
                continue
            d = np.maximum(periodic_distance(grid, f.point),
                           0.5 * grid.spacing)
            cutoff = cap_blend(d, self.cap_radius)
            out += (0.5 * (f.ib_index / (2.0 * np.pi))**2
                    / (d * d * im_tau * im_tau)) * cutoff
        return out


def _evaluate_modes(x, y, const, modes):
    out = np.full(x.shape, complex(const), dtype=complex)
    for kx, ky, amp in modes:
        out += complex(amp) * np.exp(2j * np.pi * (kx * x + ky * y))
    return out


@dataclass(frozen=True)
class WeierstrassFamilyTau(TauModel):
    """g2(s), g3(s) as constants plus optional periodic Fourier modes
    [(kx, ky, complex amplitude), ...] on each invariant."""

    g2: complex = 4.0
    g3: complex = 0.0
    g2_modes: tuple = field(default_factory=tuple)
    g3_modes: tuple = field(default_factory=tuple)

    @property
    def signed(self):
        """A varying family on the torus is never holomorphic, so its
        density is genuinely signed and only Im tau > 0 is required."""
        return bool(self.g2_modes or self.g3_modes)

    def im_tau(self, grid: Grid, fibers):
        """Im(w2/w1) of the family at every grid point, one block of _BLOCK
        points at a time: a block's invariants, discriminant checks
        (finite, then nondegenerate), roots, AGM inputs, both AGMs and
        period ratio.  No full-grid complex array is formed."""
        n = grid.n
        axis = grid.axis()
        im = np.empty(n * n)
        for s in _blocks(n * n):
            i, j = np.divmod(np.arange(s.start, s.stop), n)
            x, y = axis[i], axis[j]
            with np.errstate(over="ignore", invalid="ignore"):
                g2 = _evaluate_modes(x, y, self.g2, self.g2_modes)
                g3 = _evaluate_modes(x, y, self.g3, self.g3_modes)
                disc = g2**3 - 27.0 * g3**2
            del i, j, x, y      # not held through the roots' temporaries
            if not np.isfinite(disc).all():
                raise ModelError("Weierstrass family overflows on the grid")
            if np.any(np.abs(disc) < 1e-12):
                raise ModelError("Weierstrass family degenerates on the grid")
            rows = _agm_inputs(_block_roots(g2, g3, disc))
            del g2, g3, disc
            w1 = np.pi / (2.0 * _agm(rows[0], rows[1]))
            w2 = np.pi / (2.0 * _agm(rows[2], rows[3]))
            im[s] = np.abs((w2 / w1).imag)
        return im.reshape(n, n)

    def wp_density(self, grid: Grid, fibers, im_tau):
        """The spectral Laplacian of log Im tau is exact here: the field is
        smooth and periodic."""
        return -0.5 * lap_values(np.log(im_tau))


def tau_field(model: TauModel, grid: Grid, fibers=(), im_tau=None):
    """Sample Im tau on the grid and build the validity mask.

    fibers are the singular fibers (objects with point and ib_index).  The
    mask excludes a two-cell disk around each of their points; Im tau must
    be positive everywhere on the mask.  im_tau, when given, is
    model.im_tau(grid, fibers) formed earlier, and is checked the same way.
    """
    im = model.im_tau(grid, fibers) if im_tau is None else im_tau
    mask = np.ones((grid.n, grid.n), dtype=bool)
    for f in fibers:
        mask &= periodic_distance(grid, f.point) > 2.0 * grid.spacing
    if np.any(im[mask] <= 0):
        raise ModelError("Im tau is not positive on the valid mask")
    return ScalarField(grid, np.asarray(im, dtype=float)), mask
