import numpy as np
import pytest

from coneflow import cli
from coneflow.elliptic_periods import (ConstantTau, LocalLogTau,
                                       WeierstrassFamilyTau, tau_field)
from coneflow.errors import ConfigurationError, ModelError
from coneflow.fibration_model import (LP_GRIDS, FibrationModel, SingularFiber,
                                      _snap_model, assemble_density,
                                      build_background, lp_threshold,
                                      product_model, required_area,
                                      validate_lp)
from coneflow.torus_field import (green_values, lap_values, make_grid,
                                  periodic_distance)
from tests.conftest import i1_model


def test_required_area_product(grid64):
    # no fibers, constant tau: A = 2 pi (1 - beta) = pi at beta = 1/2
    assert required_area(product_model(), grid64) == pytest.approx(np.pi)


def test_required_area_multiple_fiber(grid64, m2):
    assert required_area(m2, grid64) == pytest.approx(2 * np.pi)


def test_required_area_i1_positive_mass(i1):
    g = make_grid(256)
    a = required_area(i1, g)
    bg = build_background(i1, g)
    assert bg.wp_mass > 0
    assert a == pytest.approx(np.pi + bg.wp_mass)


def test_model_validation():
    with pytest.raises(ModelError):
        FibrationModel(beta=1.2, delta=0.1, cone_point=(0.5, 0.5))
    with pytest.raises(ModelError):
        FibrationModel(beta=0.5, delta=-0.1, cone_point=(0.5, 0.5))
    with pytest.raises(ModelError):
        FibrationModel(beta=0.5, delta=0.1, cone_point=(0.25, 0.25),
                       fibers=(SingularFiber((0.25, 0.25), 2),))
    with pytest.raises(ModelError):
        SingularFiber((0.1, 0.1), 0)


def test_build_background_normalization(product_bg64):
    assert product_bg64.q.values.max() == pytest.approx(1.0, abs=0)
    assert product_bg64.q.values.min() > 0


def test_build_background_constant_tau_wp(product_bg64):
    assert np.abs(product_bg64.wp.values).max() == 0.0
    assert product_bg64.wp_mass == 0.0


def test_build_background_rejects_close_points(grid64):
    model = FibrationModel(beta=0.5, delta=0.1, cone_point=(0.5, 0.5),
                           fibers=(SingularFiber((0.5 + 4 / 64, 0.5), 2),))
    with pytest.raises(ConfigurationError, match="closer than 8/N"):
        build_background(model, grid64)


def test_build_background_snaps_points(grid64):
    model = FibrationModel(beta=0.5, delta=0.1, cone_point=(0.50001, 0.49999))
    bg = build_background(model, grid64)
    assert bg.model.cone_point == (0.5, 0.5)


def test_wp_nonnegative_on_mask_builtin_kinds(grid128, i1):
    for model in (product_model(), i1):
        bg = build_background(model, grid128)
        assert bg.wp.values.min() >= -1e-8


def test_wp_constant_weierstrass_kind(grid128):
    wmodel = FibrationModel(beta=0.5, delta=0.1, cone_point=(0.5, 0.5),
                            tau_model=WeierstrassFamilyTau(g2=4.0, g3=0.0))
    bg = build_background(wmodel, grid128)
    assert bg.wp.values.min() >= -1e-8
    assert abs(bg.wp_mass) < 1e-12


def test_wp_varying_weierstrass_family(grid128):
    # a varying family cannot be holomorphic on the torus, so its density is
    # signed; the build still records a spectrally exact mean-zero density
    wmodel = FibrationModel(beta=0.5, delta=0.1, cone_point=(0.5, 0.5),
                            tau_model=WeierstrassFamilyTau(
                                g2=4.0, g3=0.0, g3_modes=((1, 0, 0.15),)))
    bg = build_background(wmodel, grid128)
    assert abs(bg.wp_mass) < 1e-12
    assert bg.wp.values.std() > 0.0


def test_moduli_formulas_match_written_out_expressions(grid64, i1, load_bench,
                                                       tmp_path):
    # each tau model forms rho_WP as the formulas below, bit for bit
    n, h = 64, 1.0 / 64
    path = load_bench("workloads").verify_setup(3001, str(tmp_path))["model"]
    family = cli.load_model(path)
    assert family.tau_model.signed
    assert not (product_model().tau_model.signed or i1.tau_model.signed
                or WeierstrassFamilyTau(g2=4.0, g3=0.0).signed)

    assert np.array_equal(build_background(product_model(), grid64).wp.values,
                          np.zeros((n, n)))

    cap, b = 0.25, 1
    dist = periodic_distance(grid64, (0.25, 0.25))
    d = np.maximum(dist, 1e-300)
    u = np.clip((d - 0.5 * cap) / (cap - 0.5 * cap), 0.0, 1.0)
    w = 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)
    g_log, g_cap = -np.log(d), -np.log(cap)
    g = np.where(d <= 0.5 * cap, g_log,
                 np.where(d >= cap, g_cap, g_cap + w * (g_log - g_cap)))
    im = 1.0 + (b / (2.0 * np.pi)) * g
    d = np.maximum(dist, 0.5 * h)
    u = np.clip((d - 0.5 * cap) / (cap - 0.5 * cap), 0.0, 1.0)
    cutoff = 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)
    expected = (0.5 * (b / (2.0 * np.pi))**2 / (d * d * im * im)) * cutoff
    assert np.array_equal(build_background(i1, grid64).wp.values, expected)

    im = tau_field(family.tau_model, grid64)[0].values
    assert np.array_equal(build_background(family, grid64).wp.values,
                          -0.5 * lap_values(np.log(im)))


def test_area_identity_exact(grid128, i1, m2):
    for model in (product_model(), m2, i1):
        bg = build_background(model, grid128)
        lhs = bg.area
        rhs = (2 * np.pi * (1 - model.beta) + bg.wp_mass
               + 2 * np.pi * sum(bg.model.multiplicity_weights))
        assert abs(lhs - rhs) <= 1e-10


def test_assemble_density_product_is_constant(product, product_bg64, grid64):
    dens = assemble_density(product, product_bg64, grid64)
    assert np.abs(dens.density_values() - 1.0).max() < 1e-12
    assert product.multiplicity_weights == ()


def test_assemble_density_rejects_foreign_background(product_bg64, grid64,
                                                    m2):
    with pytest.raises(ModelError):
        assemble_density(m2, product_bg64, grid64)


def test_assemble_density_normalized(grid64, m2):
    bg = build_background(m2, grid64)
    dens = assemble_density(m2, bg, grid64)
    f_vals = dens.density_values()
    assert abs(f_vals.mean() - 1.0) <= 1e-10
    assert f_vals.min() > 0.0
    (w,) = bg.model.multiplicity_weights
    assert -2.0 * w == -1.0 and bg.model.fibers[0].point == (0.25, 0.25)


def test_assemble_density_m2_bounded_after_singular_split(m2):
    # log F + (1/2) psi_{s1} stays bounded as the grid refines
    sups = []
    for n in (64, 128):
        g = make_grid(n)
        bg = build_background(m2, g)
        dens = assemble_density(m2, bg, g)
        psi = green_values(g, (0.25, 0.25))
        sups.append(np.abs(dens.log_density.values + 0.5 * psi).max())
    assert sups[0] < 1.0 and sups[1] < 1.0
    assert abs(sups[1] - sups[0]) < 0.05


def test_assemble_density_curvature_round_trip(grid128, i1):
    # (1/2) Lap log F must reproduce the prescribed source away from atoms
    for model in (product_model(), i1):
        bg = build_background(model, grid128)
        dens = assemble_density(model, bg, grid128)
        source = (bg.area - 2 * np.pi * (1 - model.beta)
                  - bg.wp.values
                  - 2 * np.pi * sum(bg.model.multiplicity_weights))
        lhs = 0.5 * lap_values(dens.log_density.values)
        # atoms are lattice-aligned: their band-limited deltas vanish at
        # every other grid point, so the check holds off the atom cells
        mask = np.ones((128, 128), dtype=bool)
        for f in bg.model.fibers:
            mask &= periodic_distance(grid128, f.point) > 2 / 128
        assert np.abs((lhs - source)[mask]).max() < 1e-8


def test_validate_lp_product():
    rep = validate_lp(product_model())
    assert rep["p_star"] == pytest.approx(2.0)   # capped by 1/(1-beta)
    for v in rep["integrals_low"].values():
        assert v == pytest.approx(1.0, abs=1e-12)


@pytest.mark.slow
def test_validate_lp_memory_on_the_benchmark_family(load_bench, tmp_path,
                                                    traced_peak_mib):
    # the verify_wp_quick model: each N = 512 stage runs in a few N^2
    # words, with no full-grid AGM rows and no earlier grid's fields
    from coneflow.cli import load_model
    state = load_bench("workloads").verify_setup(3001, str(tmp_path))
    model = load_model(state["model"])
    assert traced_peak_mib(lambda: validate_lp(model)) <= 11.0


def test_validate_lp_forms_no_q(load_bench, tmp_path, monkeypatch):
    # F never reads the cone point's q, and the benchmark model's one
    # fiber has m = 1, so no Green potential is formed at all
    from coneflow import fibration_model
    from coneflow.cli import load_model
    state = load_bench("workloads").verify_setup(3001, str(tmp_path))
    model = load_model(state["model"])
    assert [f.multiplicity for f in model.fibers] == [1]
    calls = []

    def counting(grid, point):
        calls.append(grid.n)
        return green_values(grid, point)

    monkeypatch.setattr(fibration_model, "green_values", counting)
    validate_lp(model)
    assert calls == []


@pytest.mark.parametrize("model", [product_model(), i1_model()])
def test_build_problem_q_keeps_its_formula(model):
    # q is formed on first read, from the snapped cone point
    from coneflow.ke_solver import build_problem
    bg = build_problem(model, 64, 0.1).bg
    q = green_values(bg.grid, bg.model.cone_point)
    q = np.exp(q - q.max())
    assert bg.q.values.tobytes() == q.tobytes()
    assert bg.q is bg.q


def per_grid_validate_lp(model):
    """validate_lp with every grid forming its own Im tau."""
    p_star = lp_threshold(model)
    p_low, p_high = 0.95 * p_star, 1.05 * p_star
    low, high = {}, {}
    for n in LP_GRIDS:
        g = make_grid(n)
        bg = build_background(model, g)
        f_vals = assemble_density(model, bg, g).density_values()
        low[n] = float((f_vals**p_low).mean())
        high[n] = float((f_vals**p_high).mean())
    pairs = list(zip(LP_GRIDS, LP_GRIDS[1:]))
    return {
        "p_star": p_star, "p_low": p_low, "p_high": p_high,
        "integrals_low": low, "integrals_high": high,
        "low_changes": {f"{a}->{b}": low[b] / low[a] - 1.0 for a, b in pairs},
        "high_changes": {f"{a}->{b}": high[b] / high[a] - 1.0
                         for a, b in pairs},
    }


# an I_1 fiber off the 1/128 lattice: its snapped point moves between the
# LP grids, so each grid forms its own field
OFF_LATTICE = FibrationModel(beta=0.5, delta=0.1, cone_point=(0.5, 0.5),
                             fibers=(SingularFiber((0.3, 0.3), 1, 1),),
                             tau_model=LocalLogTau())


@pytest.mark.slow
@pytest.mark.parametrize("case", ["bench", "product", "m2", "i1",
                                  "off-lattice"])
def test_validate_lp_matches_the_per_grid_ladder(case, load_bench, tmp_path,
                                                 m2, i1):
    if case == "bench":
        from coneflow.cli import load_model
        state = load_bench("workloads").verify_setup(3001, str(tmp_path))
        model = load_model(state["model"])
    else:
        model = {"product": product_model(), "m2": m2, "i1": i1,
                 "off-lattice": OFF_LATTICE}[case]
    snapped = [_snap_model(model, make_grid(n)) for n in LP_GRIDS]
    assert (snapped[0] != snapped[-1]) == (case == "off-lattice")
    rep = validate_lp(model)
    ref = per_grid_validate_lp(model)
    assert repr(rep) == repr(ref)
    assert list(rep["integrals_low"]) == list(LP_GRIDS)


def test_validate_lp_reports_the_coarsest_close_points_first():
    # 1/32 apart: more than 8/N at N = 512, not at N = 128
    model = FibrationModel(beta=0.5, delta=0.1, cone_point=(0.5, 0.5),
                           fibers=(SingularFiber((0.5 + 1 / 32, 0.5), 2),))
    build_background(model, make_grid(LP_GRIDS[-1]))
    with pytest.raises(ConfigurationError,
                       match=r"closer than 8/N at N=128$"):
        validate_lp(model)


@pytest.mark.slow
def test_validate_lp_rejects_a_family_degenerate_only_at_512():
    # g2 = 3 + 0.1 cos(2 pi (x - 1/512)), g3 = 1 degenerates on the rows
    # x = 129/512 and 385/512 alone: off the N = 256 lattice
    rot = complex(np.exp(2j * np.pi / 512))
    tau = WeierstrassFamilyTau(g2=3.0, g3=1.0,
                               g2_modes=((1, 0, 0.05 / rot), (-1, 0, 0.05 * rot)))
    model = FibrationModel(beta=0.5, delta=0.1, cone_point=(0.5, 0.5),
                           tau_model=tau)
    for n in LP_GRIDS[:-1]:
        tau_field(tau, make_grid(n))
    for ladder in (validate_lp, per_grid_validate_lp):
        with pytest.raises(ModelError, match="^Weierstrass family "
                           "degenerates on the grid$"):
            ladder(model)


@pytest.mark.slow
def test_validate_lp_m2_trends(m2):
    rep = validate_lp(m2)
    assert rep["p_star"] == pytest.approx(2.0)
    assert rep["p_low"] == pytest.approx(1.9)
    assert rep["p_high"] == pytest.approx(2.1)
    low = rep["integrals_low"]
    high = rep["integrals_high"]
    # below threshold: Cauchy differences shrink with refinement
    assert abs(rep["low_changes"]["256->512"]) < abs(rep["low_changes"]["128->256"])
    # above threshold: keeps growing at every refinement
    assert high[256] > high[128]
    assert high[512] > high[256]
    assert rep["high_changes"]["256->512"] > 0.05


def test_model_json_round_trip(i1):
    d = {"beta": 0.5, "delta": 0.1, "cone_point": [0.5, 0.5],
         "fibers": [{"point": [0.25, 0.25], "m": 1, "b": 1}],
         "tau_model": {"kind": "ib_local", "baseline": 1.0,
                       "cap_radius": 0.25},
         "fiber_area": 1.0, "grid_n": 128}
    assert cli.model_from_json_dict(d) == i1


def test_model_json_defaults_are_the_classes_own():
    # the parser passes only the keys a file holds, so every default is
    # the dataclass's
    d = {"beta": 0.5, "delta": 0.1, "cone_point": [0.5, 0.5]}
    assert cli.model_from_json_dict(d) == FibrationModel(0.5, 0.1, (0.5, 0.5))
    # a fiber without b: m's default 1 is the file format's, b's the class's
    model = cli.model_from_json_dict(dict(d, fibers=[{"point": [0.25, 0.25]}]))
    assert model.fibers == (SingularFiber((0.25, 0.25), 1),)
    for kind, cls in [("constant", ConstantTau), ("ib_local", LocalLogTau),
                      ("weierstrass", WeierstrassFamilyTau)]:
        model = cli.model_from_json_dict(dict(d, tau_model={"kind": kind}))
        assert model.tau_model == cls()


def test_model_json_unknown_key():
    with pytest.raises(ConfigurationError, match="unknown key"):
        cli.model_from_json_dict({"beta": 0.5, "delta": 0.1,
                                  "cone_point": [0.5, 0.5], "betaa": 1})


def test_model_json_range_error_names_key():
    with pytest.raises(ConfigurationError, match="beta"):
        cli.model_from_json_dict({"beta": 1.2, "delta": 0.1,
                                  "cone_point": [0.5, 0.5]})


@pytest.mark.parametrize("overrides, key", [
    ({"beta": "half"}, "model.beta"),
    ({"cone_point": [0.5]}, "model.cone_point"),
    ({"fibers": [{"point": [0.25, "x"]}]}, r"model.fibers\[0\].point"),
    ({"tau_model": {"kind": "weierstrass", "g2_modes": [[1, 0, 0.2]]}},
     "model.tau_model.g2_modes"),
    ({"tau_model": {"kind": "constant", "tau": [0.0, -1.0]}},
     "model.tau_model: constant tau"),
    ({"fiber_area": 0.0}, "model.fiber_area"),
    ({"grid_n": "many"}, "model.grid_n"),
])
def test_model_json_bad_value_names_key_path(overrides, key):
    d = {"beta": 0.5, "delta": 0.1, "cone_point": [0.5, 0.5]}
    d.update(overrides)
    with pytest.raises(ConfigurationError, match=key):
        cli.model_from_json_dict(d)


@pytest.mark.parametrize("field, value", [
    ("beta", np.nan), ("delta", np.nan), ("delta", np.inf),
    ("cone_point", (np.nan, 0.5)), ("cone_point", (0.5, np.inf)),
    ("fibers", (SingularFiber(point=(np.nan, 0.25), multiplicity=2),)),
])
def test_model_rejects_non_finite_numbers(field, value):
    # NaN passes the delta and point range checks, so finiteness is
    # checked on its own
    kwargs = {"beta": 0.5, "delta": 0.1, "cone_point": (0.5, 0.5)}
    kwargs[field] = value
    with pytest.raises(ModelError):
        FibrationModel(**kwargs)
