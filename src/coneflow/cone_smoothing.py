"""Regularization kernel for conical potentials.

chi(eps, x, beta) = beta * int_0^x ((eps^2 + r)^beta - eps^(2 beta)) / r dr.

At eps = 0 this is exactly x^beta; for eps > 0 it is a smooth, monotone,
concave profile squeezed between 0 and x^beta that converges to x^beta
uniformly on [0,1] as eps -> 0.  The integrand has a removable singularity
at r = 0 (limit beta * eps^(2 beta - 2)), handled by a short Taylor head
before adaptive quadrature.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "chi",
    "chi_values",
]


def _check_args(eps, x, beta):
    if eps < 0 or x < 0:
        raise ConfigurationError("chi requires eps >= 0 and x >= 0")
    if not (0.0 < beta < 1.0):
        raise ConfigurationError("beta must lie in (0, 1)")


QUAD_TOL = 1e-12       # absolute and relative tolerance of chi's quadrature


def chi(eps: float, x: float, beta: float) -> float:
    """Kernel value by adaptive quadrature, absolute error <= 1e-10.

    The segment [0, min(x, 1e-3 eps^2)] is integrated by the Taylor
    expansion of ((1+u)^beta - 1)/u, the rest by scipy's adaptive rule.
    """
    _check_args(eps, x, beta)
    if x == 0.0:
        return 0.0
    if eps == 0.0:
        return float(x**beta)
    e2 = eps * eps
    a = min(x, 1e-3 * e2)
    # int_0^a: beta * e2^(beta-1) * [a + (b-1) a^2/(4 e2) + (b-1)(b-2) a^3/(18 e2^2)]
    head = beta * e2**(beta - 1.0) * (
        a
        + (beta - 1.0) * a * a / (4.0 * e2)
        + (beta - 1.0) * (beta - 2.0) * a**3 / (18.0 * e2 * e2))
    tail = 0.0
    if x > a:
        from scipy.integrate import quad    # deferred: slow to import
        tail, _ = quad(lambda r: ((e2 + r)**beta - e2**beta) / r, a, x,
                       epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    return float(beta * (head + tail))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_PANEL_BATCH = 8192     # panels per batch: bounds the (batch, 24) node arrays


def chi_values(eps: float, x, beta: float) -> np.ndarray:
    """Vectorized kernel over an array of arguments.

    Sorts the distinct values and accumulates Gauss-Legendre panels between
    consecutive ones; the integrand is smooth for eps > 0, so 24-point
    panels reach round-off.  Matches the scalar quadrature to ~1e-12.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ConfigurationError("chi requires nonnegative arguments")
    _check_args(eps, float(x.flat[0]) if x.size else 0.0, beta)
    if eps == 0.0:
        return x**beta
    e2 = eps * eps
    xs, inverse = np.unique(x.ravel(), return_inverse=True)
    lo = np.concatenate(([0.0], xs[:-1]))
    panels = np.empty_like(xs)
    for start in range(0, xs.size, _PANEL_BATCH):
        a = lo[start:start + _PANEL_BATCH, None]
        b = xs[start:start + _PANEL_BATCH, None]
        half = 0.5 * (b - a)
        r = 0.5 * (a + b) + half * _GL_NODES
        f = np.empty_like(r)
        small = r < 1e-14 * e2      # removable singularity at r = 0
        f[small] = beta * e2**(beta - 1.0)
        rr = r[~small]
        f[~small] = ((e2 + rr)**beta - e2**beta) / rr
        panels[start:start + _PANEL_BATCH] = half[:, 0] * (f @ _GL_WEIGHTS)
    return (beta * np.cumsum(panels))[inverse].reshape(x.shape)

