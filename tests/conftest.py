import importlib.util
import os
import tracemalloc

import numpy as np
import pytest

from coneflow.fibration_model import (FibrationModel, SingularFiber,
                                      product_model)
from coneflow.elliptic_periods import ConstantTau, LocalLogTau
from coneflow.ke_solver import build_problem
from coneflow.torus_field import ScalarField, make_grid


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64)


@pytest.fixture(scope="session")
def grid128():
    return make_grid(128)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(256)


@pytest.fixture(scope="session")
def product():
    return product_model()


@pytest.fixture(scope="session")
def product_problem64(product):
    return build_problem(product, 64, 0.1)


@pytest.fixture(scope="session")
def product_bg64(product_problem64):
    return product_problem64.bg


@pytest.fixture(scope="session")
def product_density64(product_problem64):
    return product_problem64.density


@pytest.fixture(scope="session")
def product_problem128(product):
    return build_problem(product, 128, 0.05)


@pytest.fixture(scope="session")
def product_bg128(product_problem128):
    return product_problem128.bg


def mesh(grid):
    """The grid's coordinates x, y as N x N arrays, x varying along axis 0."""
    x = grid.axis()
    return np.meshgrid(x, x, indexing="ij")


def observers(problem, **given):
    """run_flow's four required observers, for a test that reads only
    some of them: gaps on the whole torus ("all") to the zero target, so
    they are sup|phi|, monitors on the whole torus and no snapshots; each
    keyword given replaces its default."""
    n = problem.bg.grid.n
    whole = np.ones((n, n), dtype=bool)
    return {"masks": {"all": whole},
            "target_phi": ScalarField(problem.bg.grid, np.zeros((n, n))),
            "monitor_mask": whole, "snapshot_times": (), **given}


def m2_model():
    return FibrationModel(beta=0.5, delta=0.1, cone_point=(0.5, 0.5),
                          fibers=(SingularFiber((0.25, 0.25), 2),),
                          tau_model=ConstantTau(1j))


def i1_model():
    return FibrationModel(beta=0.5, delta=0.1, cone_point=(0.5, 0.5),
                          fibers=(SingularFiber((0.25, 0.25), 1, 1),),
                          tau_model=LocalLogTau(baseline=1.0, cap_radius=0.25))


@pytest.fixture(scope="session")
def m2():
    return m2_model()


@pytest.fixture(scope="session")
def i1():
    return i1_model()


@pytest.fixture(scope="session")
def nyquist_field():
    """nyquist_field(n, seed): a random N x N field plus the Nyquist row,
    column and corner modes, the modes where the real and the complex FFT
    paths could part."""
    def make(n, seed):
        sign = (-1.0) ** np.arange(n)
        return (np.random.default_rng(seed).normal(size=(n, n))
                + sign[:, None] + 2.0 * sign[None, :]
                + 3.0 * np.outer(sign, sign))
    return make


@pytest.fixture(scope="session")
def full_k2():
    """full_k2(n): |k|^2 on the full complex-FFT grid."""
    def make(n):
        k = np.fft.fftfreq(n, d=1.0 / n)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        return kx**2 + ky**2
    return make


@pytest.fixture(scope="session")
def traced_peak_mib():
    """traced_peak_mib(f): the peak of memory traced by tracemalloc while
    f() runs, in MiB, after one warm-up call.  numpy reports its buffers
    to tracemalloc, so the figure is deterministic."""
    def measure(f):
        f()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            f()
            return (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
    return measure


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


@pytest.fixture(scope="session")
def load_bench():
    """load_bench(name): the module bench/<name>.py, loaded as it is."""
    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.fixture()
def cg_tolerances(monkeypatch):
    """cg_tolerances(pin=None) routes ke_solver.preconditioned_cg through a
    wrapper and returns the list it fills with each requested rel_tol.
    With pin set, every solve runs at rel_tol=pin instead: a Newton loop
    with a fixed CG tolerance and no forcing."""
    from coneflow import ke_solver
    real = ke_solver.preconditioned_cg

    def install(pin=None):
        asked = []

        def cg(coeff, op_symbol, b, rel_tol=1e-12):
            asked.append(rel_tol)
            return real(coeff, op_symbol, b,
                        rel_tol=rel_tol if pin is None else pin)

        monkeypatch.setattr(ke_solver, "preconditioned_cg", cg)
        return asked
    return install
