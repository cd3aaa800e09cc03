"""Regularization kernel for conical potentials.

chi(eps, x, beta) = beta * int_0^x ((eps^2 + r)^beta - eps^(2 beta)) / r dr.

At eps = 0 this is exactly x^beta; for eps > 0 it is a smooth, monotone,
concave profile squeezed between 0 and x^beta that converges to x^beta
uniformly on [0,1] as eps -> 0.  chi_values evaluates it over an array of
arguments by Gauss-Legendre panels; the integrand's removable singularity
at r = 0 (limit beta * eps^(2 beta - 2)) takes its limit value there.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "chi_values",
]


def _check_args(eps, x, beta):
    """ConfigurationError unless eps and every x (a number or a nonempty
    array) are finite and nonnegative (a NaN is neither) and 0 < beta < 1,
    and unless a positive eps has a fourth power e2 * e2 that is not 0.
    The last rule rejects every eps whose square underflows to 0, where
    the integrand's limit e2^(beta - 1) would divide by zero; the
    quadrature oracle chi in tests/oracles.py, whose Taylor head divides
    by eps^4, checks its arguments here too, so both kernels accept the
    same eps."""
    if not (0.0 <= eps < np.inf and 0.0 <= np.min(x) and np.max(x) < np.inf):
        raise ConfigurationError("chi requires finite eps >= 0 and x >= 0")
    e2 = eps * eps
    if eps > 0.0 and e2 * e2 == 0.0:
        raise ConfigurationError(
            f"chi: eps={eps:g} is too small (eps^4 underflows to 0)")
    if not (0.0 < beta < 1.0):
        raise ConfigurationError("beta must lie in (0, 1)")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_PANEL_BATCH = 8192     # panels per batch: bounds the (batch, 24) node arrays


def _panel_integrals(a, b, e2, beta):
    """24-point Gauss-Legendre integrals of ((e2 + r)^beta - e2^beta) / r
    over the panels [a, b] given as columns (M, 1), formed in two (M, 24)
    arrays."""
    half = 0.5 * (b - a)
    r = half * _GL_NODES
    r += 0.5 * (a + b)
    f = e2 + r
    f **= beta
    f -= e2**beta
    with np.errstate(divide="ignore", invalid="ignore"):
        f /= r
    f[r < 1e-14 * e2] = beta * e2**(beta - 1.0)   # removable at r = 0
    return half[:, 0] * (f @ _GL_WEIGHTS)


def chi_values(eps: float, x, beta: float) -> np.ndarray:
    """Vectorized kernel over an array of arguments.

    Sorts the arguments once and accumulates 24-point Gauss-Legendre
    panels between consecutive distinct values, the first from 0.  A panel
    reaches round-off only while it is short against eps^2 plus its lower
    end, the scale on which the integrand varies, so the result matches
    the scalar quadrature to about 1e-12 only when the sorted arguments
    are that dense.  The q fields of the grid are: against the beta = 1/2
    closed form the error is at most 2e-12 for N = 64 to 512 and eps down
    to 2/N.  Sparse arguments are not: a lone x = 1 is off by 4.5e-3 at
    eps = 0.01 and by 6.6e-5 at eps = 0.05; the quadrature oracle chi in
    tests/oracles.py evaluates those.  Each sort-side array is dropped once
    spent, so the transients stay at a few arrays of x's size.
    """
    x = np.asarray(x, dtype=float)
    _check_args(eps, x if x.size else 0.0, beta)
    if eps == 0.0:
        return x**beta
    e2 = eps * eps
    flat = x.reshape(-1)
    # the distinct values and their order are np.unique's (same quicksort)
    order = np.argsort(flat)
    ordered = np.take(flat, order)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    xs = ordered[first]
    del ordered
    counts = np.diff(np.flatnonzero(first), append=flat.size)
    del first
    # each panel's lower end, overwritten by the panel once integrated
    panels = np.empty_like(xs)
    panels[:1] = 0.0
    panels[1:] = xs[:-1]
    for start in range(0, xs.size, _PANEL_BATCH):
        batch = slice(start, start + _PANEL_BATCH)
        panels[batch] = _panel_integrals(panels[batch, None], xs[batch, None],
                                         e2, beta)
    del xs
    np.cumsum(panels, out=panels)
    panels *= beta
    out = np.empty(x.shape)
    out.reshape(-1)[order] = np.repeat(panels, counts)
    return out
