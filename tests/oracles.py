"""Independent oracles that the tests check the package against.

chi is the regularization kernel by adaptive quadrature,

    chi(eps, x, beta) = beta * int_0^x ((eps^2 + r)^beta - eps^(2 beta)) / r dr,

which checks coneflow.cone_smoothing.chi_values and evaluates the sparse
arguments that its panels do not resolve.  The integrand has a removable
singularity at r = 0 (limit beta * eps^(2 beta - 2)), handled by a short
Taylor head before scipy's adaptive quadrature.

ProductFlow4D evolves the reduced flow of coneflow.flow_engine on a coarse
product of a fiber torus and the base, computing the full 2x2 Hermitian
determinant spectrally.  For fiber-constant data its right-hand side
agrees with the reduced one to round-off, which is the reduction's
correctness certificate (criterion 7).  Its step is linearly implicit: the
frozen-coefficient linearization
L = (1/2) (e^t / fiber_area) Lap_w + (1/2) Lap_s / q_min - 1, with symbol
-(1/2) (e^t / fiber_area) |2 pi k_w|^2 - (1/2) |2 pi k_s|^2 / q_min - 1,
is inverted exactly in Fourier space, so the fiber modes, which stiffen
like e^t as the fibers shrink, set no step bound.  Building and stepping
it loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from coneflow.cone_smoothing import _check_args
from coneflow.elliptic_periods import ConstantTau
from coneflow.errors import ConfigurationError, PositivityError
from coneflow.flow_engine import FlowOps, _step_count
from coneflow.ke_solver import KEProblem, build_problem
from coneflow.torus_field import (from_half_spectrum, half_spectrum,
                                  _lap_multiplier)

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


class ProductFlow4D:
    """Full product-space flow on fiber nf^2 x base nb^2, linearly implicit.

    Valid for product models only (constant tau, no singular fibers,
    density F identically one).  The fiber carries a flat form of constant
    density fiber_area, which the flow shrinks like e^-t, so the fiber
    Laplacian stiffens like e^t.  run steps linearly implicitly,
    phi <- phi + dt (I - dt L)^-1 rhs(phi), where L's Fourier symbol
    -(1/2) (e^t / fiber_area) |2 pi k_w|^2 - (1/2) |2 pi k_s|^2 / q_min - 1
    takes the stiffness, so a fixed dt stays stable all the same.
    """

    def __init__(self, problem: KEProblem, nf: int = 16, nb: int = 32,
                 fiber_area: float = 2.0):
        model = problem.bg.model
        if model.fibers or not isinstance(model.tau_model, ConstantTau):
            raise ConfigurationError("the 4D oracle supports product models only")
        if np.abs(problem.density.log_density.values).max() > 1e-10:
            raise ConfigurationError("the 4D oracle requires F identically 1")
        self.nf = nf
        self.nb = nb
        self.fiber_area = float(fiber_area)
        self.base_problem = replace(build_problem(model, nb, problem.epsilon),
                                    beta=problem.beta, delta=problem.delta)
        self.base_ops = FlowOps(self.base_problem)
        # the least base density at phi = 0 scales run's implicit base part
        self._q_min = float(self.base_ops.density_values(
            np.zeros((nb, nb))).min())

        kf = np.fft.fftfreq(nf, d=1.0 / nf)
        kb = np.fft.fftfreq(nb, d=1.0 / nb)
        kxw, kyw, kxs, kys = np.meshgrid(kf, kf, kb, kb, indexing="ij")
        tp = 2.0 * np.pi
        lap_w = -tp**2 * (kxw**2 + kyw**2)
        lap_s = -tp**2 * (kxs**2 + kys**2)
        m_re = -(tp * kxw * tp * kxs + tp * kyw * tp * kys)
        m_im = -(tp * kxw * tp * kys - tp * kyw * tp * kxs)
        # two fused multipliers: one inverse transform yields two real fields
        self._mult_lap = lap_w + 1j * lap_s
        self._mult_mixed = m_re + 1j * m_im
        self._base_log_prefactor = self.base_ops.log_prefactor \
            - math.log(self.fiber_area)

    def initial_state(self, fiber_mode_amplitude: float = 0.0):
        phi = np.zeros((self.nf, self.nf, self.nb, self.nb))
        if fiber_mode_amplitude:
            xw = np.arange(self.nf) / self.nf
            phi += fiber_mode_amplitude * np.cos(2.0 * np.pi * xw)[
                :, None, None, None]
        return phi

    def rhs(self, phi, t):
        """t + log_prefactor + log(p q - |m|^2) - phi - cone at time t, with
        p = e^-t fiber_area + (1/2) Lap_w phi the fiber density,
        q = area + (1/2) Lap_s phi + (1/2) Lap cone the base density and m
        half the mixed derivative z2 of phi."""
        hat = np.fft.fftn(phi)
        z1 = np.fft.ifftn(self._mult_lap * hat)
        z2 = np.fft.ifftn(self._mult_mixed * hat)
        ops = self.base_ops
        p = math.exp(-t) * self.fiber_area + 0.5 * z1.real
        q = ops.bg.area + 0.5 * z1.imag + ops.half_lap_cone
        det = p * q - (0.5 * z2.real)**2 - (0.5 * z2.imag)**2
        if p.min() <= 0.0 or det.min() <= 0.0:
            raise PositivityError("4D determinant left the Kahler cone")
        return t + self._base_log_prefactor + np.log(det) - phi - ops.cone

    def fiber_gap(self, phi) -> float:
        """sup |psi - fiber-average psi| (the cone part is fiber-constant)."""
        return float(np.abs(phi - phi.mean(axis=(0, 1))[None, None]).max())

    def run(self, T: float, dt: float, phi=None,
            reduced_reference: bool = False):
        """Linearly implicit Euler to time T, a whole number of steps dt,
        sampling every step; returns (phi, samples dict).

        A step from time t is phi <- phi + dt (I - dt L)^-1 rhs(phi, t), with
        L = (1/2) (e^t / fiber_area) Lap_w + (1/2) Lap_s / q_min - 1 the
        linearized rhs with frozen density coefficients: the fiber density
        e^-t fiber_area of a fiber-constant state, and q_min, the least
        base density at phi = 0, which over-damps the base part.  L is
        diagonal in the Fourier basis with every mode damped, so the fiber
        modes, which stiffen like e^t, set no step bound; a stationary phi
        stays one.

        With reduced_reference=True the reduced flow on the base grid takes
        the same step in lockstep, with L's base part (1/2) Lap / q_min - 1,
        which is L on fiber-constant modes, and the sup difference is
        recorded.
        """
        phi = self.initial_state() if phi is None else np.array(phi, dtype=float)
        phi_red = np.zeros((self.nb, self.nb)) if reduced_reference else None
        n_steps = _step_count(T, dt, "ProductFlow4D.run")
        # I/dt - L is real and even in k, so it acts on half spectra: the
        # 4D one (its last axis halved, as rfftn leaves it; the symbols
        # depend on k^2 only) and the base one
        lap = self._mult_lap[..., :self.nb // 2 + 1]
        base_symbol = (1.0 / dt + 1.0) - (0.5 / self._q_min) * lap.imag
        reduced_symbol = (1.0 / dt + 1.0) - (0.5 / self._q_min) \
            * _lap_multiplier(self.nb)
        samples = {"t": [], "fiber_gap": [], "reduced_diff": []}
        for s in range(n_steps):
            t = s * dt
            hat = np.fft.rfftn(self.rhs(phi, t))
            hat /= base_symbol - (0.5 * math.exp(t) / self.fiber_area) \
                * lap.real
            # in place: phi is this run's own copy
            phi += np.fft.irfftn(hat, phi.shape, axes=range(4))
            samples["t"].append((s + 1) * dt)
            samples["fiber_gap"].append(self.fiber_gap(phi))
            if reduced_reference:
                hat = half_spectrum(self.base_ops.rhs_values(phi_red))
                hat /= reduced_symbol
                phi_red = phi_red + from_half_spectrum(hat)
                samples["reduced_diff"].append(float(
                    np.abs(phi - phi_red[None, None]).max()))
        return phi, samples
