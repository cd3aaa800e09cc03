"""The package entry points that the benchmark under bench/ relies on.

bench/tracing.py wraps named functions from outside the package and
bench/workloads.py builds its reference problem by hand, so renaming or
deleting one of those entry points would break the benchmark without
failing any other test.  These tests load the bench modules as they are.
"""

import importlib
import os

import numpy as np
import pytest

from coneflow import cli, ke_solver
from coneflow.elliptic_periods import WeierstrassFamilyTau
from coneflow.fibration_model import product_model


def test_tracer_installs_and_removes_every_layer(load_bench):
    tracing = load_bench("tracing")
    tracer = tracing.Tracer(tracing.LAYER_NAMES)
    originals = (ke_solver.build_background, ke_solver.assemble_density,
                 ke_solver.preconditioned_cg)
    with tracer:
        # build_problem reaches the background and density builders
        # through the ke_solver globals, where the tracer sees them
        ke_solver.build_problem(product_model(), 32, 0.2)
    names = [tracer.name(rec) for rec in tracer.spans]
    assert names.count("fibration_model.build_background") == 1
    assert names.count("fibration_model.assemble_density") == 1
    assert (ke_solver.build_background, ke_solver.assemble_density,
            ke_solver.preconditioned_cg) == originals
    for _, module, attr, _, _ in tracing.LAYERS:
        owner = importlib.import_module("coneflow." + module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), attr


def test_tracer_reads_the_solver_counts(load_bench):
    # the tracer reads its counts from the solvers' return values: Newton
    # iterations from newton_solve, rungs from continuation_solve's report
    # and CG iterations from preconditioned_cg
    tracing = load_bench("tracing")
    problem = ke_solver.build_problem(product_model(), 64, 0.28)
    with tracing.Tracer(tracing.LAYER_NAMES) as tracer:
        sols, _ = ke_solver.continuation_solve(problem, [0.4, 0.28])
    totals = tracer.layer_totals()
    assert totals["ke_solver.continuation_solve"]["rungs"] == 2
    assert totals["ke_solver.newton_solve"]["iters"] == \
        sum(s.newton_iters for s in sols)
    assert totals["ke_solver.preconditioned_cg"]["iters"] > 0


def test_flow_workload_setup_builds_its_problem(load_bench, tmp_path):
    workloads = load_bench("workloads")
    state = workloads.flow_setup(3001, str(tmp_path))
    problem = state["problem"]
    assert problem.bg.grid.n == 128 and problem.epsilon == 0.05
    assert np.abs(problem.density.log_density.values).max() == 0.0
    assert sorted(state["masks"]) == ["qr>=0.1", "sigma>=0.2", "sigma>=0.4",
                                      "sigma>=0.6"]


@pytest.mark.parametrize("seed", [3001, 7])
def test_verify_workload_setup_writes_a_loadable_model(load_bench, tmp_path,
                                                       seed):
    workloads = load_bench("workloads")
    state = workloads.verify_setup(seed, str(tmp_path))
    assert state["main"] is cli.main
    assert state["out"] == os.path.join(str(tmp_path), "out")
    model = cli.load_model(state["model"])
    shift = workloads.translation(seed)
    assert model.cone_point == pytest.approx(
        ((0.5 + shift[0]) % 1.0, (0.5 + shift[1]) % 1.0))
    assert [(f.multiplicity, f.ib_index) for f in model.fibers] == [(1, 0)]
    tau = model.tau_model
    assert isinstance(tau, WeierstrassFamilyTau)
    assert (tau.g2, tau.g3) == (4.0, 0.0)
    assert [m[:2] for m in tau.g2_modes] == [(1, 0)]
    assert [m[:2] for m in tau.g3_modes] == [(0, 1)]
    assert abs(tau.g2_modes[0][2]) == pytest.approx(0.2)
    assert abs(tau.g3_modes[0][2]) == pytest.approx(0.15)
