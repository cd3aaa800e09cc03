"""Periodic scalar fields and spectral calculus on the flat unit torus.

The base domain is the periodic square [0,1)^2 with complex coordinate
s = x + iy and area element dA = dx dy.  A (1,1)-form is represented by
its density against dA, and the dd-bar operator acts on potentials as
u -> (1/2) Lap u with Lap = d^2/dx^2 + d^2/dy^2.  All differentiation is
spectral (FFT), so band-limited identities hold to round-off and the
Poisson inverse is diagonal in Fourier space.  The transforms are
numpy.fft's, taken one axis at a time in scipy.fft's pass order and with
its scaling, so every value equals scipy's rfft2/irfft2/ifft2 (for the
gradient, its 1-D rfft/irfft) bit for bit; they run on one thread.

Point masses are band-limited (Dirichlet-kernel) deltas rather than
single-cell spikes; this keeps the Green-potential identity
(1/2) Lap psi_p = 2 pi (delta_p - 1) exact in the discrete calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Grid",
    "ScalarField",
    "make_grid",
    "periodic_distance",
    "circle_samples",
]


@dataclass(frozen=True)
class Grid:
    """N x N periodic grid over [0,1)^2 with spacing exactly 1/N."""

    n: int
    spacing: float

    def axis(self):
        return np.arange(self.n) / self.n

    def point_index(self, p):
        """Index of the grid point nearest to p (coordinates wrapped)."""
        i = int(round((p[0] % 1.0) * self.n)) % self.n
        j = int(round((p[1] % 1.0) * self.n)) % self.n
        return i, j


@dataclass(frozen=True)
class ScalarField:
    """Immutable real field sampled on a Grid, row-major values[i, j] at
    (x, y) = (i/N, j/N)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.shape != (self.grid.n, self.grid.n):
            raise ConfigurationError(
                f"field shape {v.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("field contains non-finite values")
        v.setflags(write=False)


@lru_cache(maxsize=32)
def _lap_multiplier(n: int):
    """Laplacian symbol on the rfft2 half spectrum, shape (n, n//2+1)."""
    kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    ky = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    m = -4.0 * np.pi**2 * (kx**2 + ky**2)
    m.setflags(write=False)
    return m


def half_spectrum(values: np.ndarray) -> np.ndarray:
    """rfft2 of a real N x N field: its (N, N//2+1) half spectrum, the
    real transform along axis 1 and then the complex one along axis 0."""
    hat = np.fft.rfft(values, axis=1)
    return np.fft.fft(hat, axis=0, out=hat)


def from_half_spectrum(hat: np.ndarray) -> np.ndarray:
    """The real N x N field whose half spectrum is hat; hat is overwritten
    (every caller passes a spectrum of its own).

    The unscaled complex inverse along axis 0 runs in place, then the
    unscaled real inverse along axis 1, then one multiply by 1/N^2: the
    bits of irfft2(hat, s=(N, N)), which numpy's per-axis 1/N would not
    give when N is not a power of two.

    Callers apply only multipliers that are real and even in k between
    half_spectrum and this inverse; for those the result equals the real
    part of the full complex transform pair, Nyquist row and column
    included.  (An odd multiplier would not: see ProductFlow4D in
    tests/oracles.py.)
    """
    n = hat.shape[0]
    np.fft.ifft(hat, axis=0, norm="forward", out=hat)
    out = np.fft.irfft(hat, n=n, axis=1, norm="forward")
    out *= 1.0 / (n * n)
    return out


def _inverse(hat: np.ndarray) -> np.ndarray:
    """ifft2 of a full N x N spectrum, computed in hat: the unscaled axis-0
    pass, 1/N^2, then the unscaled axis-1 pass (scipy's scaling order)."""
    n = hat.shape[0]
    np.fft.ifft(hat, axis=0, norm="forward", out=hat)
    hat *= 1.0 / (n * n)
    return np.fft.ifft(hat, axis=1, norm="forward", out=hat)


def make_grid(n: int) -> Grid:
    """Build an N x N grid; N must be even, at least 16 and small enough
    that numpy can index an N x N complex array."""
    if not isinstance(n, (int, np.integer)):
        raise ConfigurationError(f"grid size must be an integer, got {n!r}")
    n = int(n)
    if n < 16 or n % 2 != 0:
        raise ConfigurationError(
            f"grid size must be even and >= 16 for spectral symmetry, got {n}")
    if n * n * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise ConfigurationError(
            f"grid size {n} is too large: numpy cannot index an N x N "
            "complex array")
    return Grid(n=n, spacing=1.0 / n)


# ---------------------------------------------------------------------------
# spectral operators on value arrays
# ---------------------------------------------------------------------------

def lap_values(values: np.ndarray) -> np.ndarray:
    """Lap of a real N x N field; the half spectrum is multiplied in place
    by the real symbol (the bits of _lap_multiplier(n) * hat)."""
    hat = half_spectrum(values)
    return from_half_spectrum(
        np.multiply(hat, _lap_multiplier(values.shape[0]), out=hat))


def gradient_values(values: np.ndarray):
    """(d/dx, d/dy) of a real N x N field, each through one real transform
    pair along its own axis: irfft(2 pi i k rfft(values))."""
    n = values.shape[0]
    ik = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    gx = np.fft.irfft(ik[:, None] * np.fft.rfft(values, axis=0), n, axis=0)
    gy = np.fft.irfft(ik[None, :] * np.fft.rfft(values, axis=1), n, axis=1)
    return gx, gy


def solve_poisson_values(rhs: np.ndarray) -> np.ndarray:
    """Unique mean-zero u with (1/2) Lap u = rhs - mean(rhs).

    The half spectrum is doubled in place and divided by the cached
    symbol: the bits of hat / (0.5 * symbol), since halving a divisor and
    doubling a dividend are exact short of overflow and subnormals."""
    hat = half_spectrum(rhs)
    hat *= 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(hat, _lap_multiplier(rhs.shape[0]), out=hat)
    hat[0, 0] = 0.0
    return from_half_spectrum(hat)


def _phases(n: int, p):
    """exp(-2 pi i (kx x + ky y)) for p = (x, y) on the full N x N
    spectrum, formed in one complex buffer, and the 1-D wavenumbers k."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    hat = np.empty((n, n), dtype=complex)
    np.add(k[:, None] * (p[0] % 1.0), k[None, :] * (p[1] % 1.0), out=hat)
    hat *= -2j * np.pi
    return np.exp(hat, out=hat), k


def green_values(grid: Grid, p) -> np.ndarray:
    """Mean-zero potential psi_p with (1/2) Lap psi_p = 2 pi (delta_p - 1).

    Solved against the band-limited delta, which makes the identity exact
    in spectral space and gives translation equivariance on lattice-aligned
    shifts of p.  Near p, psi_p(s) - 2 log|s - p| stays bounded under grid
    refinement, so exp(psi_p) behaves like |s - p|^2.
    """
    n = grid.n
    hat, k = _phases(n, p)
    np.negative(hat, out=hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(hat, np.pi * (k[:, None]**2 + k[None, :]**2), out=hat)
    hat[0, 0] = 0.0
    return _inverse(hat).real * n * n


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def periodic_distance(grid: Grid, p) -> np.ndarray:
    """Distance from every grid point to p in the flat torus metric."""
    x = grid.axis()
    dx = np.abs(x - p[0] % 1.0)
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.abs(x - p[1] % 1.0)
    dy = np.minimum(dy, 1.0 - dy)
    return np.hypot(dx[:, None], dy[None, :])


def pair_distance(p, q) -> float:
    dx = abs(p[0] % 1.0 - q[0] % 1.0)
    dx = min(dx, 1.0 - dx)
    dy = abs(p[1] % 1.0 - q[1] % 1.0)
    dy = min(dy, 1.0 - dy)
    return float(np.hypot(dx, dy))


def bilinear_sample(values: np.ndarray, xs, ys):
    """Periodic bilinear interpolation at arbitrary coordinates."""
    n = values.shape[0]
    fx = np.asarray(xs) * n
    fy = np.asarray(ys) * n
    i0 = np.floor(fx).astype(int) % n
    j0 = np.floor(fy).astype(int) % n
    tx = fx - np.floor(fx)
    ty = fy - np.floor(fy)
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    return (values[i0, j0] * (1 - tx) * (1 - ty)
            + values[i1, j0] * tx * (1 - ty)
            + values[i0, j1] * (1 - tx) * ty
            + values[i1, j1] * tx * ty)


@lru_cache(maxsize=32)
def _unit_circle(n_angles: int):
    """cos and sin of n_angles equally spaced angles, as the rows of a
    read-only (2, n_angles) array."""
    th = 2.0 * np.pi * np.arange(n_angles) / n_angles
    cs = np.stack((np.cos(th), np.sin(th)))
    cs.setflags(write=False)
    return cs


def circle_samples(f: ScalarField, center, radius: float, n_angles: int = None):
    """Values of f on the circle of given radius, bilinearly interpolated
    at equally spaced angles (at least 64, scaled with the circumference)."""
    n = f.grid.n
    if n_angles is None:
        n_angles = max(64, 4 * int(np.ceil(0.5 * np.pi * radius * n)))
    cos, sin = _unit_circle(n_angles)
    xs = center[0] + radius * cos
    ys = center[1] + radius * sin
    return bilinear_sample(f.values, xs, ys)
