"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared heavy computations (the reference flow run, the extrapolated
solutions) live in session fixtures.  Criterion 9 is asserted exactly as
stated even though the measured trends sit outside its thresholds; see
the README's known-limitations note.
"""

import time

import numpy as np
import pytest
from dataclasses import replace

from coneflow.cone_smoothing import chi_values
from coneflow.estimates import (_min_dominating_constant, cone_angle,
                                multiplicity_exponent, ricci_residual,
                                sigma_barrier)
from coneflow.fibration_model import LP_GRIDS, product_model, validate_lp
from coneflow.ke_solver import (build_problem, extrapolated_solution,
                                newton_solve)
from coneflow.torus_field import ScalarField, lap_values
from coneflow import verify
from coneflow.verify import target_flow

from tests.conftest import i1_model, m2_model, mesh
from tests.oracles import ProductFlow4D, chi


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return passed


@pytest.fixture(scope="session")
def reference_run():
    """Criterion 1 configuration: product model, N=128, eps=0.05, T=20,
    dt=0.05 backward Euler, with snapshots for the trace criteria; the
    flow is verify.target_flow, the one that flow run and verify all run."""
    problem = build_problem(product_model(), 128, 0.05)
    t0 = time.time()
    barrier, state, traj, decay = target_flow(
        problem, 20.0, 0.05, snapshot_times=(1.0, 5.0, 10.0, 20.0))
    runtime = time.time() - t0
    return dict(problem=problem, barrier=barrier, state=state, traj=traj,
                decay=decay, runtime=runtime)


@pytest.fixture(scope="session")
def extrapolated_product_256():
    return extrapolated_solution(build_problem(product_model(), 256, 0.0))[0]


@pytest.fixture(scope="session")
def extrapolated_product_128():
    return extrapolated_solution(build_problem(product_model(), 128, 0.0))[0]


@pytest.fixture(scope="session")
def extrapolated_i1_256():
    return extrapolated_solution(build_problem(i1_model(), 256, 0.0))[0]


@pytest.mark.slow
def test_criterion_01_stationarity(reference_run):
    gap = reference_run["traj"].gaps["qr>=0.1"][-1]
    runtime = reference_run["runtime"]
    ok = gap <= 1e-3 and runtime <= 600.0
    assert report(1, ok,
                  f"flow-vs-elliptic gap {gap:.2e} (cap 1e-3) on q>=0.1 "
                  f"after T=20; runtime {runtime:.0f}s (cap 600s)")


@pytest.mark.slow
def test_criterion_02_decay_rate(reference_run):
    slopes = {}
    ok = True
    for lvl in (0.2, 0.4, 0.6):
        fit = reference_run["decay"][f"sigma>={lvl}"]
        slopes[lvl] = fit["slope"] if fit else None
        ok &= fit is not None and -1.15 <= fit["slope"] <= -0.85
    assert report(2, ok, f"decay slopes per mask {slopes} (band [-1.15,-0.85])")


@pytest.mark.slow
def test_criterion_03_limit_identity(extrapolated_product_256,
                                     extrapolated_product_128,
                                     extrapolated_i1_256):
    sup = {}
    for n, sol in ((256, extrapolated_product_256),
                   (128, extrapolated_product_128)):
        barrier = sigma_barrier(sol.problem.bg.grid,
                                [sol.problem.bg.model.cone_point])
        _, sup[n] = ricci_residual(sol, barrier.level_mask(0.5))
    sol_i1 = extrapolated_i1_256
    b_i1 = sigma_barrier(sol_i1.problem.bg.grid,
                         [(0.5, 0.5), (0.25, 0.25)])
    _, sup_i1 = ricci_residual(sol_i1, b_i1.level_mask(0.5))
    ratio = sup[128] / sup[256]
    ok = sup[256] <= 5e-3 and sup_i1 <= 2e-2 and ratio >= 1.8
    assert report(3, ok,
                  f"residual product N=256 {sup[256]:.2e} (cap 5e-3), "
                  f"one-I1 {sup_i1:.2e} (cap 2e-2), "
                  f"refinement ratio {ratio:.1f} (floor 1.8)")


@pytest.mark.slow
@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
def test_criterion_04_cone_angle(beta, extrapolated_product_256):
    if beta == 0.5:
        sol = extrapolated_product_256
    else:
        sol = extrapolated_solution(
            build_problem(replace(product_model(), beta=beta), 256, 0.0))[0]
    slope = cone_angle(sol)
    rel = abs(slope / (2 * beta) - 1.0)
    ok = rel <= 0.02
    assert report(4, ok,
                  f"beta={beta}: area-growth slope {slope:.4f} vs {2 * beta} "
                  f"(relative error {rel * 100:.2f}%, cap 2%)")


@pytest.mark.slow
def test_criterion_05_multiple_fiber_exponent(extrapolated_i1_256):
    sol = extrapolated_solution(build_problem(m2_model(), 256, 0.0))[0]
    est = multiplicity_exponent(sol, (0.25, 0.25))
    # a plain I_b fiber (m = 1) carries no power singularity: slope ~ 0
    est_m1 = multiplicity_exponent(extrapolated_i1_256, (0.25, 0.25))
    ok = abs(est - (-1.0)) <= 0.05 and abs(est_m1) <= 0.05
    assert report(5, ok, f"m=2 density slope {est:.4f} vs -1.0 (tol 0.05); "
                         f"m=1 slope {est_m1:.4f} vs 0 (tol 0.05)")


def test_criterion_06_smoothing_properties():
    rng = np.random.default_rng(2024)
    violations = 0
    n_samples = 0
    for _ in range(100):
        beta = rng.uniform(0.05, 0.95)
        eps_pair = np.sort(rng.uniform(0.0, 1.0, size=2))
        xs = np.sort(rng.uniform(0.0, 1.0, size=100))
        lo = chi_values(eps_pair[1], xs, beta)   # larger eps
        hi = chi_values(eps_pair[0], xs, beta)   # smaller eps
        n_samples += xs.size
        violations += int((lo < -1e-12).sum())                  # chi >= 0
        violations += int((lo > xs**beta + 1e-10).sum())        # chi <= x^b
        violations += int((xs**beta > 1 + 1e-12).sum())         # x^b <= 1
        violations += int((np.diff(lo) < -1e-10).sum())         # monotone in x
        violations += int((lo > hi + 1e-10).sum())              # decreasing eps
    assert n_samples == 10_000
    # uniform convergence: sup_x |chi - x^b| shrinks monotonically to 0
    xs = np.linspace(0, 1, 2001)
    sups = [np.abs(chi_values(e, xs, 0.5) - xs**0.5).max()
            for e in (0.2, 0.1, 0.05, 0.025, 0.0125)]
    uniform_ok = all(b < a for a, b in zip(sups, sups[1:])) and sups[-1] < 0.06
    # closed-form oracle at beta = 1/2
    worst = 0.0
    for _ in range(200):
        eps = rng.uniform(0.01, 1.0)
        x = rng.uniform(0.0, 1.0)
        s = np.sqrt(eps * eps + x)
        closed = s - eps - eps * np.log((s + eps) / (2 * eps))
        worst = max(worst, abs(chi(eps, x, 0.5) - closed))
    ok = violations == 0 and uniform_ok and worst <= 1e-9
    assert report(6, ok,
                  f"{n_samples} randomized samples, {violations} violations; "
                  f"uniform-convergence sups tail {sups[-1]:.3f}; "
                  f"closed-form mismatch {worst:.1e} (cap 1e-9)")


@pytest.fixture(scope="session")
def oracle_4d():
    problem = build_problem(product_model(), 32, 0.2)
    return ProductFlow4D(problem, nf=16, nb=32, fiber_area=2.0)


@pytest.mark.slow
def test_criterion_07_reduction_oracle(oracle_4d):
    # sharp reduction identity at one step
    phi0 = oracle_4d.initial_state()
    rhs_diff = np.abs(oracle_4d.rhs(phi0, 0.0)
                      - oracle_4d.base_ops.rhs_values(
                          np.zeros((32, 32)))[None, None]).max()
    # fiber-constant trajectory match over [0, 2]
    _, samples = oracle_4d.run(T=2.0, dt=1e-2, reduced_reference=True)
    match = max(samples["reduced_diff"])
    # perturbed fiber mode: per-unit-time decay factor at most e^-1 (50% slack)
    phi_pert = oracle_4d.initial_state(fiber_mode_amplitude=0.01)
    _, pert = oracle_4d.run(T=0.7, dt=1e-2, phi=phi_pert)
    t = np.array(pert["t"])
    gap = np.array(pert["fiber_gap"])
    sel = (gap > 1e-11) & (gap < 5e-3)
    slope = np.polyfit(t[sel], np.log(gap[sel]), 1)[0]
    factor = np.exp(slope)
    ok = (rhs_diff < 1e-12 and match <= 1e-2
          and factor <= np.exp(-1.0) * 1.5)
    assert report(7, ok,
                  f"one-step rhs identity {rhs_diff:.1e}; trajectory match "
                  f"{match:.2e} (cap 1e-2); fiber-mode decay factor "
                  f"{factor:.2e}/unit (cap {np.exp(-1.0) * 1.5:.2f})")


@pytest.mark.slow
def test_criterion_08_trace_bounds(reference_run):
    # eq-3.10 as verify all builds it: both trace directions, pooled
    _, rep = verify._trace_reports(reference_run["traj"],
                                   reference_run["problem"].bg,
                                   reference_run["barrier"])
    # negative control: a synthetic violation must be detected (log T =
    # 1/sigma^2 against lambda = 1, in log form since T itself overflows)
    sig = np.logspace(-7, 0, 200)
    control = _min_dominating_constant(1.0 / sig**2, sig, 1)
    ok = rep.passed and control > 1e6
    assert report(8, ok,
                  f"fitted C={rep.constants['C']:.3g} "
                  f"lambda={rep.constants['lambda']} over t in (1,5,10,20), "
                  f"both directions (caps 1e6, 8); negative control "
                  f"C={control:.2g} exceeds cap as required")


@pytest.mark.slow
def test_criterion_09_lp_membership():
    rep = validate_lp(m2_model())
    stab = abs(rep["low_changes"]["256->512"])
    growth = rep["high_changes"]["256->512"]
    high = rep["integrals_high"]
    full_range = high[LP_GRIDS[-1]] / high[LP_GRIDS[0]] - 1.0
    ok = stab <= 0.05 and growth >= 0.20
    # the qualitative dichotomy holds (settling below p*, divergence above),
    # but both measured rates sit outside the stated thresholds; the deficit
    # decays like h^0.1 and the divergent exponent 2(1.05 - 1) caps the
    # per-doubling growth near 7% asymptotically (29% over 128->512).
    assert report(
        9, ok,
        f"int F^1.9 change 256->512 {stab * 100:.2f}% (cap 5%); "
        f"int F^2.1 growth 256->512 {growth * 100:.2f}% (floor 20%); "
        f"full-range growth {full_range * 100:.1f}%")


def test_criterion_10_solver_quality(product_problem128):
    sol_a = newton_solve(product_problem128)
    grid = product_problem128.bg.grid
    x, y = mesh(grid)
    bump = 0.1 * (0.6 * np.cos(2 * np.pi * x) + 0.8 * np.sin(2 * np.pi * y))
    sol_b = newton_solve(product_problem128,
                         v0=ScalarField(grid, bump))
    two_init = np.abs(sol_a.v.values - sol_b.v.values).max()

    hist = [r for r in sol_b.residual_history if r > 1e-13]
    quad_pairs = [(a, b) for a, b in zip(hist, hist[1:]) if a <= 1e-2]
    quad_ok = bool(quad_pairs) and all(b <= 10 * a * a for a, b in quad_pairs)

    # manufactured solution (amplitude 0.05 keeps the density positive)
    from coneflow.fibration_model import DensityData
    bg = product_problem128.bg
    eps = 0.1
    v_star = ScalarField(
        grid, 0.05 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    log_f = (np.log(bg.area + 0.5 * lap_values(v_star.values))
             - v_star.values
             + 0.5 * np.log(bg.q.values + eps * eps) - np.log(bg.area))
    p_man = replace(product_problem128, epsilon=eps,
                    density=DensityData(ScalarField(grid, log_f)))
    sol_man = newton_solve(p_man)
    man_err = np.abs(sol_man.v.values - v_star.values).max()

    ok = two_init <= 1e-7 and quad_ok and man_err <= 1e-7
    assert report(10, ok,
                  f"two-init agreement {two_init:.1e} (cap 1e-7); quadratic "
                  f"contraction pairs {len(quad_pairs)}; manufactured "
                  f"recovery {man_err:.1e} (cap 1e-7)")


@pytest.mark.slow
def test_criterion_11_boundedness_monitors(reference_run):
    traj = reference_run["traj"]
    times = np.array(traj.times)
    early = times <= 1.0
    ok = True
    growths = {}
    for name, series in traj.monitors.items():
        v = np.abs(np.array(series))
        ok &= bool(np.isfinite(v).all())
        early_max = v[early].max()
        growths[name] = float(v.max() / early_max)
        ok &= v.max() <= 10.0 * early_max
    assert report(11, ok,
                  "monitor max/early-max ratios "
                  + ", ".join(f"{k}={g:.2f}" for k, g in growths.items())
                  + " (cap 10x)")
