import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from coneflow.elliptic_periods import (ConstantTau, LocalLogTau,
                                       WeierstrassCurve,
                                       WeierstrassFamilyTau,
                                       discriminant, normalize_tau,
                                       periods_from_weierstrass, tau_field)
from coneflow import elliptic_periods
from coneflow.errors import ModelError, NumericalError
from coneflow.fibration_model import LP_GRIDS, SingularFiber
from coneflow.torus_field import make_grid
from tests.conftest import i1_model, mesh


def agm_array(a, b):
    """Elementwise complex AGM through the package's _agm, on copies of
    a and b."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    return elliptic_periods._agm(a.reshape(-1), b.reshape(-1)).reshape(a.shape)


def cubic_roots(g2, g3):
    """Roots of 4x^3 - g2 x - g3 for arrays of invariants, with shape
    g2.shape + (3,), through the package's _block_roots one block of
    _BLOCK points at a time, as tau_field forms them."""
    g2 = np.asarray(g2, dtype=complex)
    g3 = np.broadcast_to(np.asarray(g3, dtype=complex), g2.shape)
    f2, f3 = g2.reshape(-1), g3.reshape(-1)
    roots = np.empty((f2.size, 3), dtype=complex)
    for s in elliptic_periods._blocks(f2.size):
        a, b = f2[s], f3[s]
        roots[s] = elliptic_periods._block_roots(a, b, a**3 - 27.0 * b**2).T
    return roots.reshape(g2.shape + (3,))


def quad_period_oracle(a, b):
    """pi / (2 agm(a, b)) equals the quadrature of 1/sqrt(a^2 cos^2 + b^2 sin^2)."""
    val, _ = quad(lambda t: 1.0 / np.sqrt((a * np.cos(t))**2
                                          + (b * np.sin(t))**2), 0, np.pi / 2)
    return np.pi / (2 * val)


def test_agm_fixed_point():
    assert agm_array(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_agm_absorbing_zero():
    assert agm_array(3.7, 0.0) == 0.0
    assert agm_array(0.0, 2.0) == 0.0


def test_agm_against_quadrature():
    # independent oracle: elliptic-integral identity
    assert agm_array(1.0, np.sqrt(2.0)) == pytest.approx(
        quad_period_oracle(1.0, np.sqrt(2.0)), abs=1e-10)
    assert abs(agm_array(1.0, np.sqrt(2.0)) - 1.198140234735592) < 1e-10


def test_agm_symmetry_and_homogeneity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.uniform(0.1, 3.0, size=2)
        k = rng.uniform(0.1, 5.0)
        assert agm_array(a, b) == pytest.approx(agm_array(b, a), rel=1e-13)
        assert agm_array(k * a, k * b) == pytest.approx(
            k * agm_array(a, b), rel=1e-13)


def test_agm_array_independent_of_block_size():
    # the points converge after different numbers of steps here; each
    # point must stop at its own count, so the bits of any block of the
    # points are those of the whole array
    rng = np.random.default_rng(5)
    a = np.ones(1000, dtype=complex)
    b = np.logspace(-8, 0, 1000) * np.exp(1j * rng.uniform(-1.0, 1.0, 1000))
    whole = agm_array(a, b)
    blocked = np.concatenate([agm_array(a[i:i + 64], b[i:i + 64])
                              for i in range(0, 1000, 64)])
    assert blocked.tobytes() == whole.tobytes()


def test_discriminant_values():
    assert discriminant(WeierstrassCurve(4, 0)) == 64
    assert discriminant(WeierstrassCurve(0, 4)) == -432
    assert discriminant(WeierstrassCurve(3, 1)) == 0


def test_periods_reject_singular_curve():
    with pytest.raises(ModelError):
        periods_from_weierstrass(WeierstrassCurve(3, 1))


@pytest.mark.parametrize("g2, g3", [(1e200, 1.0), (1.0, 1e154)])
def test_discriminant_rejects_overflow(g2, g3):
    # g2**3 raises OverflowError; 27 g3**2 overflows to inf without one
    curve = WeierstrassCurve(g2, g3)
    with pytest.raises(ModelError, match="^discriminant overflows$"):
        discriminant(curve)
    with pytest.raises(ModelError, match="^discriminant overflows$"):
        periods_from_weierstrass(curve)


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


def np_roots(g2, g3):
    """Independent oracle: numpy's polynomial roots, one curve at a time."""
    return np.array([np.roots([4.0, 0.0, -a, -b])
                     for a, b in zip(np.ravel(g2), np.ravel(g3))])


def half_periods(e):
    """The AGM half-periods w1, w2 for rows of roots e1, e2, e3."""
    e1, e2, e3 = e[:, 0], e[:, 1], e[:, 2]
    return (np.pi / (2.0 * agm_array(np.sqrt(e1 - e2), np.sqrt(e1 - e3))),
            np.pi / (2.0 * agm_array(np.sqrt(e3 - e1), np.sqrt(e3 - e2))))


def period_ratio(e):
    """w2/w1 of the AGM half-periods for rows of roots e1, e2, e3."""
    w1, w2 = half_periods(e)
    return w2 / w1


def relative_discriminant(g2, g3):
    return np.abs(g2**3 - 27.0 * g3**2) / np.maximum(np.abs(g2)**3,
                                                     27.0 * np.abs(g3)**2)


def root_set_error(got, want):
    """Distance between the root sets of each row (order-free), relative
    to the largest root."""
    dist = np.abs(got[:, :, None] - want[:, None, :])
    return (np.maximum(dist.min(axis=2).max(axis=1),
                       dist.min(axis=1).max(axis=1))
            / np.abs(want).max(axis=1))


def sorted_like_routine(e):
    return np.take_along_axis(e, np.lexsort((-e.imag, -e.real), axis=-1),
                              axis=-1)


def assert_roots_match_oracle(g2, g3, root_tol, tau_tol):
    """Closed-form roots against np.roots, both as root sets and through
    normalize_tau(w2/w1)."""
    got = cubic_roots(g2, g3)
    want = sorted_like_routine(np_roots(g2, g3))
    assert (root_set_error(got, want) <= root_tol).all()
    tau_got = [normalize_tau(t) for t in period_ratio(got)]
    tau_want = [normalize_tau(t) for t in period_ratio(want)]
    assert (np.abs(np.subtract(tau_got, tau_want)) <= tau_tol).all()


def test_closed_form_roots_random_invariants():
    rng = np.random.default_rng(11)
    g2 = 3.0 * (rng.normal(size=10**4) + 1j * rng.normal(size=10**4))
    g3 = 3.0 * (rng.normal(size=10**4) + 1j * rng.normal(size=10**4))
    assert_roots_match_oracle(g2, g3, 1e-13, 1e-12)


@pytest.mark.parametrize("axis", ["g2=0", "g3=0"])
def test_closed_form_roots_on_the_axes(axis):
    rng = np.random.default_rng(17)
    z = 3.0 * (rng.normal(size=500) + 1j * rng.normal(size=500))
    z = np.concatenate([z, z.real])     # real invariants too: root-pair ties
    zero = np.zeros_like(z)
    g2, g3 = (zero, z) if axis == "g2=0" else (z, zero)
    assert_roots_match_oracle(g2, g3, 1e-13, 1e-12)


def test_closed_form_small_root_to_its_own_round_off():
    # near the g3 = 0 axis one root is about -g3/g2 (relative correction
    # 4 (g3/g2)^2 / g2); Cardano's u + v cancels there, and the Newton
    # polish must restore it relative to itself, not to the root scale
    rng = np.random.default_rng(23)
    g2 = 4.0 * np.exp(2j * np.pi * rng.uniform(size=1000))
    g3 = 1e-10 * (rng.normal(size=1000) + 1j * rng.normal(size=1000))
    roots = cubic_roots(g2, g3)
    small = roots[np.arange(1000), np.abs(roots).argmin(axis=1)]
    assert (np.abs(small + g3 / g2) <= 1e-14 * np.abs(g3 / g2)).all()


@pytest.mark.parametrize("level", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_closed_form_roots_near_degenerate(level):
    # roots e + d, e - d, -2e with |disc| / max(|g2|^3, 27|g3|^2) = level:
    # 3 |d/e|^2 = level to leading order.  Below level 1e-2 the bounds grow
    # with the problem's own conditioning, which binds np.roots as well: a
    # root pair a relative distance sqrt(level) apart moves by an ulp over
    # sqrt(level), and tau (through log j) by an ulp over level.
    rng = np.random.default_rng(19)
    e = rng.uniform(0.5, 2.0, 200) * np.exp(2j * np.pi * rng.uniform(size=200))
    d = e * np.sqrt(level / 3.0) * np.exp(2j * np.pi * rng.uniform(size=200))
    r1, r2, r3 = e + d, e - d, -2.0 * e
    g2 = -4.0 * (r1 * r2 + r1 * r3 + r2 * r3)
    g3 = 4.0 * r1 * r2 * r3
    assert np.allclose(relative_discriminant(g2, g3), level, rtol=1e-2)
    assert_roots_match_oracle(g2, g3, 1e-13 * np.sqrt(1e-2 / level),
                              1e-12 * (1e-2 / level))


def test_periods_basis_of_real_curves_ignores_round_off():
    # real invariants with disc < 0: a real root r and a conjugate pair of
    # real part -r/2, whose computed real parts tie only up to round-off,
    # which must not decide the basis; it must be the one that the exact
    # roots give.  On the g3 = 0 axis all three real parts tie.
    rng = np.random.default_rng(29)
    g2, g3 = 3.0 * rng.normal(size=(2, 2000))
    g2[:20], g3[:20] = -np.abs(g2[:20]), 0.0
    keep = g2**3 - 27.0 * g3**2 < 0
    assert keep.sum() >= 1000
    for a, b in zip(g2[keep], g3[keep]):
        roots = np.roots([4.0, 0.0, -a, -b])
        real = roots[np.argmin(np.abs(roots.imag))].real
        up = complex(-real / 2.0, roots.imag.max())
        w1_want, w2_want = (w[0] for w in half_periods(sorted_like_routine(
            np.array([[real, up, up.conjugate()]]))))
        if (w2_want / w1_want).imag < 0:
            w2_want = -w2_want
        w1, w2, _ = periods_from_weierstrass(WeierstrassCurve(a, b))
        assert abs(w1 - w1_want) <= 1e-10 * abs(w1_want)
        assert abs(w2 - w2_want) <= 1e-10 * abs(w2_want)


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
    val = 1.0 + model.profile(np.array([d]), b=1)[0]
    assert val == pytest.approx(2.0, abs=1e-12)


def test_tau_field_local_log_on_grid(grid128):
    model = LocalLogTau(baseline=1.0, cap_radius=0.25)
    im, mask = tau_field(model, grid128,
                         [SingularFiber((0.25, 0.25), 1, ib_index=1)])
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


# A smooth family like the benchmark's, far from any degenerate fiber.
SMOOTH_FAMILY = WeierstrassFamilyTau(g2=4.0, g3=0.0,
                                     g2_modes=((1, 0, 0.2 + 0.0j),),
                                     g3_modes=((0, 1, 0.15 + 0.05j),))
# g2 = 3 + 1e-10 + 2e-4 cos(2 pi x), g3 = 1: 4x^3 - 3x - 1 = (x - 1)(2x + 1)^2,
# so the family passes near disc = 0 on the two grid columns where the
# cosine vanishes (relative discriminant 1e-10 there, ~2e-5 next to them).
NEAR_DEGENERATE_FAMILY = WeierstrassFamilyTau(
    g2=3.0 + 1e-10, g3=1.0, g2_modes=((1, 0, 1e-4), (-1, 0, 1e-4)))


def count_eigvals_points(monkeypatch):
    """Count the points sent to the companion-matrix fallback."""
    counted = []
    eigvals = np.linalg.eigvals

    def counting(m):
        counted.append(len(m))
        return eigvals(m)

    monkeypatch.setattr(elliptic_periods.np.linalg, "eigvals", counting)
    return counted


def test_tau_field_smooth_family_takes_the_closed_form(grid64, monkeypatch):
    counted = count_eigvals_points(monkeypatch)
    model = WeierstrassFamilyTau(g2=4.0, g3=0.0, g2_modes=((1, 0, 0.2),),
                                 g3_modes=((0, 1, 0.15),))
    tau_field(model, grid64)
    assert sum(counted) == 0


def test_tau_field_near_degenerate_family_falls_back(grid64, monkeypatch):
    counted = count_eigvals_points(monkeypatch)
    im = tau_field(NEAR_DEGENERATE_FAMILY, grid64)[0].values
    assert sum(counted) == 2 * grid64.n
    # np.roots oracle, with the bounds of the near-degenerate test: both
    # sit at the same conditioning limit.  Where disc < 0 the conjugate
    # pair's order is a round-off tie, which Im tau does not see.
    x, _ = mesh(grid64)
    g2 = (3.0 + 1e-10
          + 1e-4 * (np.exp(2j * np.pi * x) + np.exp(-2j * np.pi * x))).ravel()
    g3 = np.ones_like(g2)
    want = sorted_like_routine(np_roots(g2, g3))
    got = cubic_roots(g2, g3)
    level = relative_discriminant(g2, g3)
    assert level.min() < 1e-8 < level.max()
    assert (root_set_error(got, want)
            <= 1e-13 * np.sqrt(np.maximum(1e-2 / level, 1.0))).all()
    oracle = np.abs(period_ratio(want).imag)
    assert (np.abs(im.reshape(-1) - oracle)
            <= 1e-12 * np.maximum(1e-2 / level, 1.0)).all()


@pytest.mark.parametrize("g2, g3, pair_leads, im_tau",
                         [(1.0, -4.0, True, 0.8432813421),
                          (-3.0, 1.0, False, 0.6196835558)])
def test_tau_field_ignores_conjugate_pair_order(grid64, g2, g3, pair_leads,
                                                im_tau):
    # real invariants with disc < 0: one real root and a conjugate pair of
    # equal real part, so round-off decides the pair's order.  Im tau must
    # be the same for either order.  (It is Im tau in the root basis, not
    # the reduced one: normalize_tau gives Im 0.9116 and 0.9774 here.)
    roots = np.roots([4.0, 0.0, -g2, -g3])
    real = roots[np.argmin(np.abs(roots.imag))]
    up = roots[np.argmax(roots.imag)]
    pairs = [[up, up.conjugate()], [up.conjugate(), up]]
    orders = [p + [real] if pair_leads else [real] + p for p in pairs]
    oracle = np.abs(period_ratio(np.array(orders)).imag)
    assert oracle == pytest.approx([im_tau, im_tau], abs=1e-10)
    im = tau_field(WeierstrassFamilyTau(g2=g2, g3=g3), grid64)[0].values
    assert np.abs(im - oracle[0]).max() <= 1e-13
    assert np.abs(im - oracle[1]).max() <= 1e-13


def test_tau_field_weierstrass_independent_of_block_size(grid64, monkeypatch):
    # the batched roots and AGM run block by block; the field must not
    # depend on the block size, down to the last bit, also where some
    # points of a block take the eigenvalue fallback
    for model in (SMOOTH_FAMILY, NEAR_DEGENERATE_FAMILY):
        whole = tau_field(model, grid64)[0].values
        monkeypatch.setattr(elliptic_periods, "_BLOCK", 100)
        blocked = tau_field(model, grid64)[0].values
        monkeypatch.undo()
        assert blocked.tobytes() == whole.tobytes()


def full_grid_im_tau(model, grid):
    """The formula tau_field streams, on whole-grid arrays: the invariants
    on mesh(grid), every root, both AGMs, then pi / (2 agm)."""
    x, y = mesh(grid)

    def invariant(const, modes):
        out = np.full(x.shape, complex(const))
        for kx, ky, amp in modes:
            out += complex(amp) * np.exp(2j * np.pi * (kx * x + ky * y))
        return out

    e = cubic_roots(invariant(model.g2, model.g2_modes),
                    invariant(model.g3, model.g3_modes))
    e1, e2, e3 = e[..., 0], e[..., 1], e[..., 2]
    w1 = np.pi / (2.0 * agm_array(np.sqrt(e1 - e2), np.sqrt(e1 - e3)))
    w2 = np.pi / (2.0 * agm_array(np.sqrt(e3 - e1), np.sqrt(e3 - e2)))
    return np.abs((w2 / w1).imag)


# The benchmark's family (up to a lattice translate) and one with several
# modes on each invariant.
BENCH_FAMILY = WeierstrassFamilyTau(g2=4.0, g3=0.0, g2_modes=((1, 0, 0.2),),
                                    g3_modes=((0, 1, 0.15),))
MULTI_MODE_FAMILY = WeierstrassFamilyTau(
    g2=4.0, g3=0.5,
    g2_modes=((1, 0, 0.2), (2, 1, 0.1 - 0.05j), (-1, 3, 0.03j)),
    g3_modes=((0, 1, 0.15 + 0.05j), (1, 1, 0.08), (3, -2, 0.02)))


# g3 = 0.999 exp(2 pi i x) over g2 = 3: on a 16 x 16 grid the points'
# first AGM converges after 3 to 5 steps and their second after 4 to 7,
# and a step past a point's own count can move the last bits of its mean
STEP_FAMILY = WeierstrassFamilyTau(g2=3.0, g3=0.0, g3_modes=((1, 0, 0.999),))


@pytest.mark.parametrize("model", [BENCH_FAMILY, MULTI_MODE_FAMILY])
def test_tau_field_streams_the_full_grid_formula(grid256, model):
    im = tau_field(model, grid256)[0].values
    assert np.array_equal(im, full_grid_im_tau(model, grid256))


def test_tau_field_step_family_independent_of_block_size(monkeypatch):
    # the blocks of 32 points converge after different numbers of AGM
    # steps; each point stops at its own count, so the field's bytes are
    # those of one block
    grid = make_grid(16)
    whole = tau_field(STEP_FAMILY, grid)[0].values
    monkeypatch.setattr(elliptic_periods, "_BLOCK", 32)
    assert tau_field(STEP_FAMILY, grid)[0].values.tobytes() == whole.tobytes()


def test_agm_steps_each_point_until_it_converges():
    # STEP_FAMILY's first AGM converges after 4 steps at x = 6/16 and
    # after 5 at x = 8/16, and a fifth step moves the last bits of the
    # first point's mean: the pair's AGM is each point's own only if each
    # point stops at its own count, not at the array's
    x = np.array([6.0, 8.0]) / 16.0
    g2 = elliptic_periods._evaluate_modes(x, 0.0 * x, STEP_FAMILY.g2,
                                          STEP_FAMILY.g2_modes)
    g3 = elliptic_periods._evaluate_modes(x, 0.0 * x, STEP_FAMILY.g3,
                                          STEP_FAMILY.g3_modes)
    a, b, _, _ = elliptic_periods._agm_inputs(
        elliptic_periods._block_roots(g2, g3, g2**3 - 27.0 * g3**2))
    own = [agm_array(a[i], b[i]) for i in range(2)]
    assert agm_array(a, b).tobytes() == np.array(own).tobytes()


def step_family_agm_batch():
    """Both AGM input pairs of STEP_FAMILY on a 16 x 16 grid, which converge
    after 3 to 7 steps, and zero pairs among them, as one batch (a, b)."""
    x, y = mesh(make_grid(16))
    g2 = elliptic_periods._evaluate_modes(x.ravel(), y.ravel(), STEP_FAMILY.g2,
                                          STEP_FAMILY.g2_modes)
    g3 = elliptic_periods._evaluate_modes(x.ravel(), y.ravel(), STEP_FAMILY.g3,
                                          STEP_FAMILY.g3_modes)
    rows = elliptic_periods._agm_inputs(
        elliptic_periods._block_roots(g2, g3, g2**3 - 27.0 * g3**2))
    a = np.concatenate([rows[0], rows[2], [0.0, 2.0, -0.0, 0.0]])
    b = np.concatenate([rows[1], rows[3], [1.5j, 0.0, 0.0, -0.0]])
    return a, b


def test_agm_gives_each_point_its_own_bytes_in_any_batch():
    # the live points leave the working arrays as they converge, so a
    # point's mean must not depend on its place in the batch, on the
    # batch's other points, or on when they converge
    a, b = step_family_agm_batch()
    whole = agm_array(a, b)
    own = np.concatenate([agm_array(a[i:i + 1], b[i:i + 1])
                          for i in range(len(a))])
    assert whole.tobytes() == own.tobytes()
    perm = np.random.default_rng(3).permutation(len(a))
    assert agm_array(a[perm], b[perm]).tobytes() == whole[perm].tobytes()
    half = len(a) // 2 + 1
    split = np.concatenate([agm_array(a[:half], b[:half]),
                            agm_array(a[half:], b[half:])])
    assert split.tobytes() == whole.tobytes()
    assert (whole[-4:] == 0).all()


def test_agm_nan_pair_raises_after_the_step_limit(monkeypatch):
    # a NaN never passes the convergence test: the pair steps 64 times
    # beside a pair that converged at once, then the AGM gives up
    steps = []
    sqrt = np.sqrt

    def counting(x, *args, **kwargs):
        steps.append(len(x))
        return sqrt(x, *args, **kwargs)

    monkeypatch.setattr(elliptic_periods.np, "sqrt", counting)
    with pytest.raises(NumericalError,
                       match="^AGM did not converge within 64 iterations$"):
        agm_array([1.0, np.nan, 2.0], [1.0, 1.0, 0.0])
    assert steps == [1] * elliptic_periods._AGM_MAX_ITER


def block_roots_by_lexsort(a, b, disc):
    """_block_roots on (M, 3) rows of roots, sorted by lexsort: the layout
    the three-row form and its compare-exchange network must match bit
    for bit."""
    h = b / 8.0
    sq = np.sqrt(-disc / 1728.0)
    sq[(h.real * sq.real + h.imag * sq.imag) < 0] *= -1.0
    u = (h + sq) ** (1.0 / 3.0)
    near = np.abs(disc) <= elliptic_periods._NEAR_DOUBLE * np.maximum(
        np.abs(a)**3, 27.0 * np.abs(b)**2)
    u[near] = 1.0
    v = a / (12.0 * u)
    omega = elliptic_periods._OMEGA
    r = np.stack((u + v, u * omega + v / omega, u / omega + v * omega),
                 axis=-1)
    a3, b3 = a[:, None], b[:, None]
    for _ in range(2):
        r2 = r * r
        r -= (r * (4.0 * r2 - a3) - b3) / (12.0 * r2 - a3)
    if near.any():
        r[near] = elliptic_periods._companion_roots(a[near], b[near])
    order = np.lexsort((-r.imag, -r.real), axis=-1)
    return np.take_along_axis(r, order, axis=-1)


def assert_block_roots_match_lexsort(g2, g3):
    g2 = np.ascontiguousarray(g2, dtype=complex)
    g3 = np.ascontiguousarray(g3, dtype=complex)
    disc = g2**3 - 27.0 * g3**2
    got = elliptic_periods._block_roots(g2, g3, disc)
    assert got.shape == (3, len(g2))
    want = block_roots_by_lexsort(g2, g3, disc)
    assert np.ascontiguousarray(got.T).tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [5000, elliptic_periods._BLOCK])
def test_block_roots_match_lexsort_on_random_invariants(size):
    # 5,000 points stay below numpy's temporary-elision size and a full
    # block reaches it (see _BLOCK): the three rows must meet it alike
    rng = np.random.default_rng(size)
    g2 = 3.0 * (rng.normal(size=size) + 1j * rng.normal(size=size))
    g3 = 3.0 * (rng.normal(size=size) + 1j * rng.normal(size=size))
    assert_block_roots_match_lexsort(g2, g3)


def test_block_roots_match_lexsort_on_real_invariants():
    # disc < 0: one real root and a conjugate pair whose real parts tie
    # up to round-off, so the sort's tie rule decides their order
    rng = np.random.default_rng(29)
    g2 = rng.normal(size=2000)
    g3 = 3.0 * rng.normal(size=2000)
    assert (g2**3 - 27.0 * g3**2 < 0).sum() > 1000
    got = elliptic_periods._block_roots(g2 + 0j, g3 + 0j,
                                        g2**3 - 27.0 * g3**2 + 0j)
    assert (got[0].real == got[1].real).any()
    assert (got[1].real == got[2].real).any()
    assert_block_roots_match_lexsort(g2, g3)


def test_block_roots_match_lexsort_on_the_integer_lattice():
    # invariants with signed-zero parts: roots on the axes, real-part ties
    # and roots with Im = -0.0
    vals = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0]
    cs = np.array([complex(x, y) for x in vals for y in vals])
    g2, g3 = np.repeat(cs, len(cs)), np.tile(cs, len(cs))
    keep = np.abs(g2**3 - 27.0 * g3**2) > 0
    g2, g3 = g2[keep], g3[keep]
    got = elliptic_periods._block_roots(g2, g3, g2**3 - 27.0 * g3**2)
    assert ((got.imag == 0) & np.signbit(got.imag)).any()
    assert (got[0].real == got[1].real).any()
    assert_block_roots_match_lexsort(g2, g3)


def test_block_roots_match_lexsort_on_the_near_degenerate_family(grid64):
    x, _ = mesh(grid64)
    g2 = elliptic_periods._evaluate_modes(
        x.ravel(), 0.0 * x.ravel(), NEAR_DEGENERATE_FAMILY.g2,
        NEAR_DEGENERATE_FAMILY.g2_modes)
    g3 = np.full_like(g2, NEAR_DEGENERATE_FAMILY.g3)
    assert (relative_discriminant(g2, g3) <= 1e-8).sum() == 2 * grid64.n
    assert_block_roots_match_lexsort(g2, g3)


def test_block_roots_sort_signed_zero_ties_as_lexsort(monkeypatch):
    # every point here takes the companion fallback, patched to hand back
    # each ordering of roots whose parts tie as +0.0 and -0.0: the network
    # must order exact ties, signed zeros included, as the stable lexsort
    parts = [0.0, -0.0, 1.0]
    roots = [complex(x, y) for x in parts for y in parts]
    triples = np.array([(p, q, r) for p in roots for q in roots
                        for r in roots])
    monkeypatch.setattr(elliptic_periods, "_companion_roots",
                        lambda a, b: triples.copy())
    g2 = np.full(len(triples), 3.0 + 0j)
    g3 = np.full(len(triples), 1.0 + 0j)        # disc = 0: all near
    assert_block_roots_match_lexsort(g2, g3)


def test_tau_field_rejects_a_family_that_overflows(grid64):
    # finite invariants whose discriminant overflows: one ModelError and
    # no numpy warning
    model = WeierstrassFamilyTau(g2=1e200, g3_modes=((1, 0, 1e160),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError,
                           match="^Weierstrass family overflows on the grid$"):
            tau_field(model, grid64)


def test_tau_field_rejects_a_family_degenerate_past_the_first_block(grid256):
    # g2 = 3 + 0.1 cos(2 pi x), g3 = 1 degenerates only at x = 1/4 and 3/4,
    # rows that lie past the first block of points
    model = WeierstrassFamilyTau(g2=3.0, g3=1.0,
                                 g2_modes=((1, 0, 0.05), (-1, 0, 0.05)))
    assert grid256.n * grid256.n // 4 >= elliptic_periods._BLOCK
    with pytest.raises(ModelError,
                       match="^Weierstrass family degenerates on the grid$"):
        tau_field(model, grid256)


def test_cubic_roots_independent_of_block_size(monkeypatch):
    # 5,000 points: every block's temporaries stay below numpy's 256 KiB
    # temporary-elision size at both block sizes (see _BLOCK)
    rng = np.random.default_rng(11)
    g2 = rng.normal(size=5000) + 1j * rng.normal(size=5000)
    g3 = rng.normal(size=5000) + 1j * rng.normal(size=5000)
    whole = cubic_roots(g2, g3)
    monkeypatch.setattr(elliptic_periods, "_BLOCK", 1 << 10)
    assert cubic_roots(g2, g3).tobytes() == whole.tobytes()


def test_lp_grids_hold_only_full_blocks():
    # validate_lp restricts the finest LP grid's Im tau to the others: each
    # must divide it, and fill every block of _BLOCK points
    for n in LP_GRIDS:
        assert LP_GRIDS[-1] % n == 0
        assert n * n >= elliptic_periods._BLOCK
        assert n * n % elliptic_periods._BLOCK == 0


@pytest.mark.slow
@pytest.mark.parametrize("case", ["bench-3001", "bench-3007", "multi-mode",
                                  "near-degenerate", "constant", "i1"])
def test_lp_grid_tau_fields_restrict_the_finest(case, load_bench, tmp_path):
    # every LP grid's Im tau is the finest grid's at the same lattice
    # points, bit for bit, also where points take the eigenvalue fallback
    if case.startswith("bench"):
        from coneflow.cli import load_model
        state = load_bench("workloads").verify_setup(int(case[-4:]),
                                                     str(tmp_path))
        model = load_model(state["model"])
        tau, fibers = model.tau_model, model.fibers
    elif case == "i1":
        tau, fibers = i1_model().tau_model, i1_model().fibers
    else:
        tau, fibers = {"multi-mode": MULTI_MODE_FAMILY,
                       "near-degenerate": NEAR_DEGENERATE_FAMILY,
                       "constant": ConstantTau(0.3 + 1.7j)}[case], ()
    finest = tau_field(tau, make_grid(LP_GRIDS[-1]), fibers)[0].values
    for n in LP_GRIDS[:-1]:
        s = LP_GRIDS[-1] // n
        im = tau_field(tau, make_grid(n), fibers)[0].values
        assert np.array_equal(im, finest[::s, ::s])


@pytest.mark.slow
def test_tau_field_memory_at_512(traced_peak_mib):
    # the 2 MiB result and one block's root temporaries; whole-grid AGM
    # rows would add 16 MiB, the full-grid formula (full_grid_im_tau)
    # needs 32 MiB
    grid = make_grid(512)
    assert traced_peak_mib(lambda: tau_field(BENCH_FAMILY, grid)) <= 10.0


def test_constant_tau_requires_upper_half_plane():
    with pytest.raises(ModelError):
        ConstantTau(1.0 - 0.5j)
