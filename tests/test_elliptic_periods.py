import numpy as np
import pytest
from scipy.integrate import quad

from coneflow.elliptic_periods import (ConstantTau, LocalLogTau,
                                       WeierstrassCurve,
                                       WeierstrassFamilyTau, agm, agm_array,
                                       discriminant, local_log_im_tau,
                                       normalize_tau,
                                       periods_from_weierstrass, tau_field)
from coneflow import elliptic_periods
from coneflow.errors import ModelError


def quad_period_oracle(a, b):
    """pi / (2 agm(a, b)) equals the quadrature of 1/sqrt(a^2 cos^2 + b^2 sin^2)."""
    val, _ = quad(lambda t: 1.0 / np.sqrt((a * np.cos(t))**2
                                          + (b * np.sin(t))**2), 0, np.pi / 2)
    return np.pi / (2 * val)


def test_agm_fixed_point():
    assert agm(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_agm_absorbing_zero():
    assert agm(3.7, 0.0) == 0.0
    assert agm(0.0, 2.0) == 0.0


def test_agm_against_quadrature():
    # independent oracle: elliptic-integral identity
    assert agm(1.0, np.sqrt(2.0)) == pytest.approx(
        quad_period_oracle(1.0, np.sqrt(2.0)), abs=1e-10)
    assert abs(agm(1.0, np.sqrt(2.0)) - 1.198140234735592) < 1e-10


def test_agm_symmetry_and_homogeneity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.uniform(0.1, 3.0, size=2)
        k = rng.uniform(0.1, 5.0)
        assert agm(a, b) == pytest.approx(agm(b, a), rel=1e-13)
        assert agm(k * a, k * b) == pytest.approx(k * agm(a, b), rel=1e-13)


def test_agm_array_independent_of_block_size(monkeypatch):
    # the blocks converge after different numbers of steps here; every point
    # must still take the same steps, so the bits do not depend on the blocks
    rng = np.random.default_rng(5)
    a = np.ones(1000, dtype=complex)
    b = np.logspace(-8, 0, 1000) * np.exp(1j * rng.uniform(-1.0, 1.0, 1000))
    whole = agm_array(a, b)
    monkeypatch.setattr(elliptic_periods, "_BLOCK", 64)
    assert agm_array(a, b).tobytes() == whole.tobytes()


def test_discriminant_values():
    assert discriminant(WeierstrassCurve(4, 0)) == 64
    assert discriminant(WeierstrassCurve(0, 4)) == -432
    assert discriminant(WeierstrassCurve(3, 1)) == 0


def test_periods_reject_singular_curve():
    with pytest.raises(ModelError):
        periods_from_weierstrass(WeierstrassCurve(3, 1))


def half_period_integral(g2, g3):
    """Real half-period by quadrature from the largest real root."""
    roots = np.roots([4.0, 0.0, -g2, -g3])
    e1 = roots[np.argmax(roots.real)]
    others = [r for r in roots if abs(r - e1) > 1e-12]

    def f(u):
        prod = (u * u + e1 - others[0]) * (u * u + e1 - others[1])
        return 1.0 / np.sqrt(abs(prod))

    val, _ = quad(f, 0, np.inf, limit=200)
    return val


def test_lemniscatic_curve():
    w1, w2, tau = periods_from_weierstrass(WeierstrassCurve(4.0, 0.0))
    assert tau == pytest.approx(1j, abs=1e-12)
    assert w1.real == pytest.approx(half_period_integral(4.0, 0.0), abs=1e-10)
    assert (w2 / w1).imag > 0


def test_equianharmonic_curve():
    w1, w2, tau = periods_from_weierstrass(WeierstrassCurve(0.0, 4.0))
    assert tau == pytest.approx(np.exp(1j * np.pi / 3), abs=1e-12)
    assert w1.real == pytest.approx(half_period_integral(0.0, 4.0), abs=1e-10)


@pytest.mark.parametrize("lam", [2.0, 1.0 / 3.0])
def test_scaling_law(lam):
    g2, g3 = 3.0 + 1.0j, 1.0 - 0.5j
    w1a, w2a, tau_a = periods_from_weierstrass(WeierstrassCurve(g2, g3))
    w1b, w2b, tau_b = periods_from_weierstrass(
        WeierstrassCurve(g2 * lam**-4, g3 * lam**-6))
    assert abs(w1b - lam * w1a) < 1e-10 * abs(w1b)
    assert abs(w2b - lam * w2a) < 1e-10 * abs(w2b)
    assert abs(tau_a - tau_b) < 1e-10


def j_from_tau(tau):
    """Klein invariant through theta constants; independent of the AGM path."""
    q = np.exp(1j * np.pi * tau)
    n = np.arange(1, 12)
    th2 = 2 * np.sum(q ** ((np.arange(0, 12) + 0.5) ** 2))
    th3 = 1 + 2 * np.sum(q ** (n**2))
    th4 = 1 + 2 * np.sum((-1.0) ** n * q ** (n**2))
    return 32 * (th2**8 + th3**8 + th4**8) ** 3 / (th2 * th3 * th4) ** 8


def test_j_invariant_cross_check():
    # tau from the AGM periods must reproduce j = 1728 g2^3 / disc
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        g2 = complex(rng.normal(), rng.normal()) * 3
        g3 = complex(rng.normal(), rng.normal()) * 3
        disc = g2**3 - 27 * g3**2
        if abs(disc) < 1e-2:
            continue
        _, _, tau = periods_from_weierstrass(WeierstrassCurve(g2, g3))
        j_direct = 1728 * g2**3 / disc
        assert abs(j_from_tau(tau) - j_direct) <= 1e-8 * max(1.0, abs(j_direct))
        checked += 1


def test_normalize_tau_fundamental_domain():
    rng = np.random.default_rng(13)
    for _ in range(50):
        tau = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3.0))
        t = normalize_tau(tau)
        assert t.imag > 0
        assert abs(t.real) <= 0.5 + 1e-12
        assert abs(t) >= 1.0 - 1e-12


def test_tau_field_constant(grid64):
    model = ConstantTau(1j)
    im, mask = tau_field(model, grid64)
    assert np.abs(im.values - 1.0).max() == 0.0
    assert mask.all()


def test_tau_field_local_log_profile():
    # at distance e^{-2 pi} inside the cap, Im tau = baseline + b
    model = LocalLogTau(baseline=1.0, cap_radius=0.25)
    d = np.exp(-2 * np.pi)
    val = 1.0 + local_log_im_tau(model, np.array([d]), b=1)[0]
    assert val == pytest.approx(2.0, abs=1e-12)


def test_tau_field_local_log_on_grid(grid128):
    model = LocalLogTau(baseline=1.0, cap_radius=0.25)
    im, mask = tau_field(model, grid128, [(0.25, 0.25)], [1])
    assert im.values[mask].min() > 0
    # constant at distance >= cap
    far = im.values[0, 0]
    assert far == pytest.approx(1.0 - np.log(0.25) / (2 * np.pi), rel=1e-12)
    assert not mask[32, 32]   # the marked point is excluded


def test_tau_field_weierstrass_constant_cross_check(grid64):
    model = WeierstrassFamilyTau(g2=4.0, g3=0.0)
    im, mask = tau_field(model, grid64)
    _, _, tau = periods_from_weierstrass(WeierstrassCurve(4.0, 0.0))
    assert np.abs(im.values - tau.imag).max() < 1e-10


def test_tau_field_weierstrass_perturbed_positive(grid64):
    model = WeierstrassFamilyTau(g2=4.0, g3=0.0,
                                 g3_modes=((1, 0, 0.2 + 0.0j),))
    im, mask = tau_field(model, grid64)
    assert im.values[mask].min() > 0
    assert im.values.std() > 1e-3   # genuinely varying family


def test_tau_field_weierstrass_independent_of_block_size(grid64, monkeypatch):
    # the batched roots and AGM run block by block; the field must not
    # depend on the block size, down to the last bit
    model = WeierstrassFamilyTau(g2=4.0, g3=0.0,
                                 g2_modes=((1, 0, 0.2 + 0.0j),),
                                 g3_modes=((0, 1, 0.15 + 0.05j),))
    whole = tau_field(model, grid64)[0].values
    monkeypatch.setattr(elliptic_periods, "_BLOCK", 100)
    blocked = tau_field(model, grid64)[0].values
    assert blocked.tobytes() == whole.tobytes()


def test_constant_tau_requires_upper_half_plane():
    with pytest.raises(ModelError):
        ConstantTau(1.0 - 0.5j)
