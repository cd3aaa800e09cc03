from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from coneflow import cone_smoothing
from coneflow.cone_smoothing import chi, chi_values
from coneflow.errors import ConfigurationError
from coneflow.torus_field import green_values, make_grid


def chi_half_closed_form(eps, x):
    """Exact kernel at beta = 1/2 (used as the oracle everywhere)."""
    if eps == 0:
        return np.sqrt(x)
    s = np.sqrt(eps * eps + x)
    return s - eps - eps * np.log((s + eps) / (2 * eps))


def test_chi_eps_zero_closed_form():
    for x, beta in [(0.5, 0.3), (1.0, 0.5), (0.2, 0.8)]:
        assert chi(0.0, x, beta) == pytest.approx(x**beta, abs=1e-14)


def test_chi_at_zero_argument():
    assert chi(1.0, 0.0, 0.5) == 0.0
    assert chi(0.0, 0.0, 0.3) == 0.0


def test_chi_half_oracle_value():
    # (1/2) int_0^1 (sqrt(1+r)-1)/r dr, and its closed form
    oracle, _ = quad(lambda r: (np.sqrt(1 + r) - 1) / r, 0, 1,
                     epsabs=1e-13, epsrel=1e-13)
    oracle *= 0.5
    closed = np.sqrt(2) - 1 - np.log((1 + np.sqrt(2)) / 2)
    assert oracle == pytest.approx(closed, abs=1e-11)
    assert chi(1.0, 1.0, 0.5) == pytest.approx(closed, abs=1e-9)


def test_chi_matches_closed_form_across_args():
    rng = np.random.default_rng(4)
    for _ in range(50):
        eps = rng.uniform(0.01, 1.0)
        x = rng.uniform(0.0, 1.0)
        assert chi(eps, x, 0.5) == pytest.approx(
            chi_half_closed_form(eps, x), abs=1e-10)


def test_chi_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        chi(-0.1, 1.0, 0.5)
    with pytest.raises(ConfigurationError):
        chi(0.1, -1.0, 0.5)
    with pytest.raises(ConfigurationError):
        chi(0.1, 1.0, 1.5)


@pytest.mark.parametrize("eps, x", [(float("nan"), 0.1), (float("inf"), 0.1),
                                    (0.1, float("nan")), (0.1, float("inf"))])
def test_chi_rejects_non_finite_arguments(eps, x):
    with pytest.raises(ConfigurationError, match="finite"):
        chi(eps, x, 0.5)
    with pytest.raises(ConfigurationError, match="finite"):
        chi_values(eps, np.array([0.5, x]), 0.5)


def test_chi_derivative_small_x_limit():
    # near x = 0 only the Taylor head runs; its slope is the integrand's
    # removable-singularity limit beta * (beta eps^(2 beta - 2))
    eps, beta = 0.5, 0.3
    target = beta**2 * (eps**2)**(beta - 1.0)
    assert chi(eps, 1e-8, beta) / 1e-8 == pytest.approx(target, rel=1e-4)


def test_chi_derivative_finite_difference():
    # d chi / dx is the integrand: beta ((eps^2 + x)^beta - eps^(2 beta)) / x
    eps, x, beta = 0.5, 0.7, 0.3
    h = 1e-6
    fd = (chi(eps, x + h, beta) - chi(eps, x - h, beta)) / (2 * h)
    e2 = eps * eps
    assert fd == pytest.approx(beta * ((e2 + x)**beta - e2**beta) / x,
                               abs=1e-6)


def test_chi_values_matches_scalar():
    rng = np.random.default_rng(8)
    xs = rng.uniform(0.0, 1.2, size=40)
    for eps, beta in [(0.3, 0.5), (0.05, 0.3), (1.0, 0.8)]:
        vec = chi_values(eps, xs, beta)
        for xi, vi in zip(xs, vec):
            assert vi == pytest.approx(chi(eps, float(xi), beta), abs=1e-10)


def chi_values_by_unique(eps, x, beta):
    """chi_values as formed with np.unique(..., return_inverse=True): the
    distinct values, their panels, and the cumulative sums gathered back
    through the inverse index."""
    x = np.asarray(x, dtype=float)
    e2 = eps * eps
    xs, inverse = np.unique(x.ravel(), return_inverse=True)
    lo = np.concatenate(([0.0], xs[:-1]))
    panels = np.empty_like(xs)
    batch = cone_smoothing._PANEL_BATCH
    for start in range(0, xs.size, batch):
        a = lo[start:start + batch, None]
        b = xs[start:start + batch, None]
        half = 0.5 * (b - a)
        r = 0.5 * (a + b) + half * cone_smoothing._GL_NODES
        f = np.empty_like(r)
        small = r < 1e-14 * e2
        f[small] = beta * e2**(beta - 1.0)
        rr = r[~small]
        f[~small] = ((e2 + rr)**beta - e2**beta) / rr
        panels[start:start + batch] = \
            half[:, 0] * (f @ cone_smoothing._GL_WEIGHTS)
    return (beta * np.cumsum(panels))[inverse].reshape(x.shape)


def q_field(n, p):
    """q as build_background forms it, for a cone point p."""
    q = green_values(make_grid(n), p)
    q -= q.max()
    return np.exp(q, out=q)


@pytest.mark.parametrize("n", [64, 128, 256,
                               pytest.param(512, marks=pytest.mark.slow)])
def test_chi_values_bits_match_the_unique_formulation(n):
    for p in ((0.5, 0.5), (0.3, 0.7)):
        q = q_field(n, p)
        for eps in (0.4, 0.05, 0.02):
            for beta in (0.5, 0.3):
                assert chi_values(eps, q, beta).tobytes() == \
                    chi_values_by_unique(eps, q, beta).tobytes()


def test_chi_values_accurate_on_a_grid_field():
    # the sorted q of a grid field is dense enough for one panel between
    # neighbours down to eps = 2/N (a lone argument is not: at eps = 0.01
    # chi_values(eps, [1.0], 0.5) is off by 4.5e-3)
    q = q_field(128, (0.5, 0.5))
    for eps in (0.4, 0.1, 0.05, 0.025, 2.0 / 128):
        err = np.abs(chi_values(eps, q, 0.5) - chi_half_closed_form(eps, q))
        assert err.max() <= 1e-11


def test_chi_values_on_repeated_values_and_zeros():
    rng = np.random.default_rng(4)
    for x in (np.array([0.0, -0.0, 0.5, 0.0, 0.5, 1.0, -0.0]),
              np.zeros((3, 5)),
              np.round(rng.uniform(0.0, 1.0, (37, 41)), 2),
              rng.uniform(0.0, 1.0, (6, 10))[:, ::3],
              np.array(0.3), np.array([])):
        for eps, beta in ((0.4, 0.5), (0.05, 0.3)):
            got = chi_values(eps, x, beta)
            assert got.shape == x.shape
            want = chi_values_by_unique(eps, x, beta)
            assert got.tobytes() == want.tobytes()


def test_chi_envelope_and_monotonicity():
    xs = np.linspace(0, 1, 2001)
    for eps in (0.5, 0.1, 0.02):
        v = chi_values(eps, xs, 0.5)
        assert (v >= -1e-15).all()
        assert (v <= xs**0.5 + 1e-12).all()
        assert (np.diff(v) >= -1e-12).all()          # increasing in x
        second = np.diff(v, 2)
        assert (second <= 1e-10).all()               # concave in x


def test_chi_decreasing_in_eps():
    xs = np.linspace(0.0, 1.0, 501)
    prev = chi_values(0.02, xs, 0.5)
    for eps in (0.05, 0.1, 0.2, 0.4):
        cur = chi_values(eps, xs, 0.5)
        assert (cur <= prev + 1e-12).all()
        prev = cur


def test_chi_uniform_convergence_sweep():
    # frozen against the beta = 1/2 closed form: sup_x |x^b - chi| carries a
    # log factor, so the ratio between halved eps levels sits near 1.6
    xs = np.linspace(0, 1, 100001)
    sups = []
    for eps in (0.1, 0.05, 0.025):
        diff = np.sqrt(xs) - chi_half_closed_form(eps, xs)
        sup = diff.max()
        oracle = np.sqrt(1) - chi_half_closed_form(eps, 1.0)
        assert sup == pytest.approx(oracle, abs=1e-8)   # sup attained at x=1
        # measured envelope: sup ~ eps (1 + log(1/(2 eps)))
        envelope = eps * (1.0 + np.log(1.0 / (2.0 * eps)))
        assert 0.95 * envelope < sup < 1.1 * envelope
        sups.append(sup)
    assert 0.265 < sups[0] < 0.267
    assert 0.166 < sups[1] < 0.167
    assert 0.100 < sups[2] < 0.101
    ratios = [a / b for a, b in zip(sups, sups[1:])]
    assert all(1.5 < r < 1.8 for r in ratios)


def test_cone_field_values(product_problem64, product):
    # the problem's cone potential delta * chi(eps^2 + q) at each epsilon
    field = replace(product_problem64, epsilon=0.0).cone
    # at the maximum of q (q = 1) the eps = 0 potential equals delta
    assert field.max() == pytest.approx(product.delta, abs=1e-12)
    bg = product_problem64.bg
    i, j = bg.grid.point_index(product.cone_point)
    # q at the cone point is the grid-regularized zero, ~ exp(psi(p)); the
    # potential there shrinks with it (and with refinement)
    q_at_p = bg.q.values[i, j]
    assert abs(field[i, j]) <= product.delta * q_at_p**product.beta + 1e-12
    assert abs(field[i, j]) < 5e-3
    for eps in (0.1, 0.5):
        f = replace(product_problem64, epsilon=eps).cone
        assert abs(f[i, j]) < 5e-3


def test_cone_field_eps_trend(product_problem64, product):
    q = product_problem64.bg.q.values
    sups = []
    for eps in (0.1, 0.05, 0.025):
        f = replace(product_problem64, epsilon=eps).cone
        sups.append(np.abs(f - product.delta * q**product.beta).max())
    assert sups[0] <= product.delta * 3.0 * 0.1
    assert sups[0] > sups[1] > sups[2]
