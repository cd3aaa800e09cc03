import numpy as np
import pytest
import scipy.fft as sfft

from coneflow.errors import ConfigurationError
from coneflow.torus_field import (ScalarField, bilinear_sample,
                                  circle_samples, from_half_spectrum,
                                  gradient_values, green_values,
                                  half_spectrum, lap_values, make_grid,
                                  solve_poisson_values, _inverse,
                                  _lap_multiplier, _phases, _unit_circle)
from tests.conftest import mesh


def delta_values(grid, p):
    """Band-limited unit-mass delta at p: every Fourier coefficient is the
    plane-wave phase (real part taken for the asymmetric Nyquist mode)."""
    n = grid.n
    hat, _ = _phases(n, p)
    return _inverse(hat).real * n * n


def test_make_grid_basic():
    g = make_grid(64)
    assert g.spacing == 0.015625
    assert g.n * g.n == 4096
    assert g.spacing * g.n == 1.0


def test_make_grid_minimal():
    assert make_grid(16).n == 16


@pytest.mark.parametrize("bad", [15, 17, 14, 0, -16])
def test_make_grid_rejects(bad):
    with pytest.raises(ConfigurationError):
        make_grid(bad)


def test_make_grid_rejects_a_grid_numpy_cannot_index():
    # 2**31 x 2**31 complex values take 2**66 bytes, beyond np.intp; the
    # check allocates nothing
    with pytest.raises(ConfigurationError, match="too large"):
        make_grid(2**31)


def test_laplacian_of_constant():
    assert np.abs(lap_values(np.full((64, 64), 3.7))).max() < 1e-12


def test_laplacian_fourier_eigenfunction(grid64):
    x, _ = mesh(grid64)
    vals = np.cos(2 * np.pi * x)
    expected = -4 * np.pi**2 * vals
    assert np.abs(lap_values(vals) - expected).max() < 1e-9


def test_laplacian_mean_zero():
    rng = np.random.default_rng(3)
    assert abs(lap_values(rng.normal(size=(64, 64))).mean()) < 1e-12


def test_solve_poisson_zero():
    u = solve_poisson_values(np.zeros((64, 64)))
    assert np.abs(u).max() == 0.0


def test_solve_poisson_fourier_mode(grid64):
    x, _ = mesh(grid64)
    rhs = np.cos(2 * np.pi * x)
    expected = -rhs / (2 * np.pi**2)
    assert np.abs(solve_poisson_values(rhs) - expected).max() < 1e-12


def test_solve_poisson_round_trip():
    rng = np.random.default_rng(11)
    rhs = rng.normal(size=(128, 128))
    rhs -= rhs.mean()
    u = solve_poisson_values(rhs)
    back = 0.5 * lap_values(u)
    assert np.abs(back - rhs).max() < 1e-10
    assert abs(u.mean()) < 1e-13


@pytest.mark.parametrize("n", [16, 18, 48, 64, 96, 128, 256, 512])
def test_solve_poisson_keeps_the_halved_symbol_bits(n, nyquist_field):
    # doubling the spectrum and dividing by the symbol gives the bits of
    # dividing by half the symbol, at scales far from 1 too
    def halved_symbol(rhs):
        hat = half_spectrum(rhs)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(hat, 0.5 * _lap_multiplier(n), out=hat)
        hat[0, 0] = 0.0
        return from_half_spectrum(hat)

    vals = nyquist_field(n, seed=n)
    for scale in (1.0, 1e200, 1e-200, 1e-300):
        rhs = vals * scale
        assert solve_poisson_values(rhs).tobytes() == \
            halved_symbol(rhs).tobytes()


@pytest.mark.parametrize("n", [16, 64, 512])
def test_real_transforms_match_complex_formula(n, nyquist_field, full_k2):
    vals = nyquist_field(n, seed=n)
    vals -= vals.mean()
    k2 = full_k2(n)
    lap = -4.0 * np.pi**2 * k2
    inv_half_lap = np.zeros_like(lap)
    inv_half_lap[k2 > 0] = 1.0 / (0.5 * lap[k2 > 0])

    def complex_formula(mult):
        return np.fft.ifft2(mult * np.fft.fft2(vals)).real

    k = np.fft.fftfreq(n, d=1.0 / n)
    gx, gy = gradient_values(vals)
    for got, mult in ((lap_values(vals), lap),
                      (solve_poisson_values(vals), inv_half_lap),
                      (gx, 2j * np.pi * k[:, None]),
                      (gy, 2j * np.pi * k[None, :])):
        ref = complex_formula(mult)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
def test_in_place_real_multiply_keeps_complex_bits(n):
    # lap_values and the CG preconditioner multiply a half spectrum in place
    # by a real array: numpy must give the bits of m * hat, and for a
    # positive real s those of the complex division hat / s
    rng = np.random.default_rng(n)
    shape = (n, n // 2 + 1)
    spectra = (half_spectrum(rng.normal(size=(n, n))),
               rng.normal(size=shape) + 1j * rng.normal(size=shape))
    lap = _lap_multiplier(n)
    for hat in spectra:
        for s in (0.5 * -lap + 0.37, rng.uniform(1e-3, 1e3, size=shape)):
            quotient = hat / s
            inplace = hat.copy()
            np.multiply(inplace, 1.0 / s, out=inplace)
            assert quotient.tobytes() == inplace.tobytes(), \
                "hat / s is no longer hat * (1 / s) bit for bit"
        for m in (lap, rng.normal(size=shape)):
            product = m * hat
            inplace = hat.copy()
            np.multiply(inplace, m, out=inplace)
            assert product.tobytes() == inplace.tobytes(), \
                "m * hat is no longer the in-place hat * m bit for bit"


@pytest.mark.parametrize("n", [16, 18, 48, 64, 96, 128, 256])
def test_transforms_match_scipy_bitwise(n):
    # numpy.fft passes in scipy.fft's order and with its scaling give
    # scipy's bits; at N = 18, 48 and 96 numpy's own per-axis 1/N would not
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(n, n))
    hat = sfft.rfft2(vals)
    assert np.array_equal(half_spectrum(vals), hat)
    hat *= rng.normal(size=hat.shape)
    expected = sfft.irfft2(hat, s=(n, n))
    assert np.array_equal(from_half_spectrum(hat.copy()), expected)

    g = make_grid(n)
    p = tuple(rng.uniform(size=2))
    phases, k = _phases(n, p)
    assert np.array_equal(delta_values(g, p),
                          sfft.ifft2(phases).real * n * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        green = -phases / (np.pi * (k[:, None]**2 + k[None, :]**2))
    green[0, 0] = 0.0
    assert np.array_equal(green_values(g, p),
                          sfft.ifft2(green).real * n * n)

    ik = 2j * np.pi * sfft.rfftfreq(n, d=1.0 / n)
    gx, gy = gradient_values(vals)
    assert np.array_equal(
        gx, sfft.irfft(ik[:, None] * sfft.rfft(vals, axis=0), n, axis=0))
    assert np.array_equal(
        gy, sfft.irfft(ik[None, :] * sfft.rfft(vals, axis=1), n, axis=1))


@pytest.mark.slow
def test_lap_values_memory_at_128(traced_peak_mib):
    # the spectrum is multiplied in place: one complex half spectrum and
    # the result (a separate product would add 0.13 MiB)
    vals = np.random.default_rng(1).normal(size=(128, 128))
    assert traced_peak_mib(lambda: lap_values(vals)) <= 0.30


def test_green_potential_mean_zero(grid64):
    assert abs(green_values(grid64, (0.3, 0.7)).mean()) < 1e-12


def test_green_potential_discrete_identity(grid128):
    p = (0.5, 0.5)
    resid = (0.5 * lap_values(green_values(grid128, p))
             - 2 * np.pi * (delta_values(grid128, p) - 1.0))
    # identity is exact in spectral space; tolerance covers round-off
    # amplified by the Laplacian multiplier at the delta's N^2 scale
    assert np.abs(resid).max() < 1e-6 * grid128.n**2


def test_green_potential_lattice_shift(grid64):
    base = green_values(grid64, (0.25, 0.5))
    shifted = green_values(grid64, (0.25 + 1 / 64, 0.5))
    assert np.abs(np.roll(base, 1, axis=0) - shifted).max() < 1e-10


def test_green_potential_refinement_drift():
    # circle mean of psi - 2 log d at radius 0.1 settles under refinement
    vals = {}
    for n in (128, 256):
        g = make_grid(n)
        psi = ScalarField(g, green_values(g, (0.5, 0.5)))
        samples = circle_samples(psi, (0.5, 0.5), 0.1, n_angles=256)
        vals[n] = samples.mean() - 2 * np.log(0.1)
    assert abs(vals[256] - vals[128]) < 0.05


def test_green_potential_log_slope(grid256):
    psi = ScalarField(grid256, green_values(grid256, (0.5, 0.5)))
    radii = np.array([0.02, 0.04, 0.06, 0.1])
    means = [circle_samples(psi, (0.5, 0.5), r).mean() for r in radii]
    slope = np.polyfit(np.log(radii), means, 1)[0]
    assert abs(slope - 2.0) < 0.05


@pytest.mark.slow
def test_green_potential_memory_at_512(traced_peak_mib):
    # the spectrum is formed in one complex buffer and transformed in
    # place: 4 MiB plus the 2 MiB result (full N x N kx, ky grids need 16)
    g = make_grid(512)
    assert traced_peak_mib(lambda: green_values(g, (0.5, 0.5))) <= 8.0


def test_self_adjointness(grid128):
    rng = np.random.default_rng(7)
    k = np.fft.fftfreq(128, d=1.0 / 128)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    keep = (np.abs(kx) < 20) & (np.abs(ky) < 20)   # smooth band-limited fields

    def smooth():
        hat = (rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128)))
        hat *= keep
        return np.fft.ifft2(hat).real

    f, g = smooth(), smooth()
    lhs = (lap_values(f) * g).mean()
    rhs = (f * lap_values(g)).mean()
    assert abs(lhs - rhs) < 1e-9


def test_radial_profile_constant(grid64):
    f = ScalarField(grid64, np.full((64, 64), 2.5))
    for r in (0.05, 0.1, 0.2):
        m = circle_samples(f, (0.3, 0.3), r).mean()
        assert m == pytest.approx(2.5, abs=1e-12)


def test_radial_profile_quadratic(grid128):
    c = (0.5, 0.5)
    x, y = mesh(grid128)
    f = ScalarField(grid128, (x - c[0])**2 + (y - c[1])**2)
    for r in (0.05, 0.1, 0.2):
        m = circle_samples(f, c, r).mean()
        assert m == pytest.approx(r * r, abs=5e-4)


def test_circle_samples_keep_the_direct_angles(grid128):
    # the cached unit circle gives the bits of forming the angles, their
    # cos and their sin on every call, and cannot be written through
    x, y = mesh(grid128)
    f = ScalarField(grid128, np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y))
    for c, r, n in [((0.3, 0.7), 0.05, None), ((0.5, 0.5), 0.2, 512),
                    ((0.1, 0.9), 0.31, 100)]:
        n_angles = n or max(64, 4 * int(np.ceil(0.5 * np.pi * r * 128)))
        th = 2.0 * np.pi * np.arange(n_angles) / n_angles
        want = bilinear_sample(f.values, c[0] + r * np.cos(th),
                               c[1] + r * np.sin(th))
        for _ in range(2):
            got = circle_samples(f, c, r, n)
            assert got.tobytes() == want.tobytes()
    assert not _unit_circle(512).flags.writeable


def test_field_rejects_nonfinite(grid64):
    vals = np.zeros((64, 64))
    vals[3, 3] = np.nan
    with pytest.raises(ConfigurationError):
        ScalarField(grid64, vals)


def test_field_values_immutable(grid64):
    f = ScalarField(grid64, np.ones((64, 64)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0

