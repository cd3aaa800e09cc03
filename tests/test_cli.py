import cmath
import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import coneflow
from coneflow import cli, fibration_model, flow_engine, ke_solver
from coneflow.cli import (DEFAULT_EPSILON_SCHEDULE, _build_parser,
                          _config_from_args, main, parse_config_dict)
from coneflow.errors import ConfigurationError
from coneflow.torus_field import ScalarField
from tests.conftest import mesh


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "product.json"
    path.write_text(json.dumps({
        "beta": 0.5, "delta": 0.1, "cone_point": [0.5, 0.5], "fibers": [],
        "tau_model": {"kind": "constant", "tau": [0.0, 1.0]},
        "fiber_area": 1.0, "grid_n": 64}))
    return str(path)


def write_config(tmp_path, model_file, **overrides):
    cfg = {"model": os.path.basename(model_file), "grid_n": 64}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def parse_config(path, *flags, command=("model", "check")):
    """The RunConfig that the CLI builds from --config path and flags."""
    argv = [*command, "--config", str(path), *flags]
    return _config_from_args(_build_parser().parse_args(argv))


def test_parse_config_defaults(tmp_path, model_file):
    cfg = parse_config(write_config(tmp_path, model_file))
    assert cfg.grid_n == 64
    assert cfg.epsilon_schedule == DEFAULT_EPSILON_SCHEDULE
    assert cfg.flow == {"T": 20.0, "dt": 0.05}
    assert cfg.output_dir == "out"


def test_parse_config_unknown_key(tmp_path, model_file):
    path = write_config(tmp_path, model_file, grdi_n=32)
    with pytest.raises(ConfigurationError, match="grdi_n"):
        parse_config(path)


def test_parse_config_nested_unknown_key(tmp_path, model_file):
    path = write_config(tmp_path, model_file, flow={"dtx": 1})
    with pytest.raises(ConfigurationError, match="flow.dtx"):
        parse_config(path)


@pytest.mark.parametrize("overrides, key", [
    ({"grid_n": "abc"}, "config.grid_n"),
    ({"flow": {"T": "x"}}, "config.flow.T"),
])
def test_parse_config_bad_value_names_key_path(tmp_path, model_file,
                                               overrides, key):
    path = write_config(tmp_path, model_file, **overrides)
    with pytest.raises(ConfigurationError, match=key):
        parse_config(path)


def test_parse_config_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="malformed"):
        parse_config(path)


def test_parse_config_round_trip(tmp_path, model_file):
    cfg = parse_config(write_config(tmp_path, model_file,
                                    epsilon_schedule=[0.4, 0.2],
                                    flow={"T": 5.0, "dt": 0.1},
                                    output_dir="artifacts"))
    again = parse_config_dict({
        "model": cfg.model_path, "grid_n": cfg.grid_n,
        "epsilon_schedule": list(cfg.epsilon_schedule), "flow": cfg.flow,
        "output_dir": cfg.output_dir}, base_dir=".")
    assert again == cfg


def test_config_model_relative_to_config_dir(tmp_path, model_file,
                                             monkeypatch):
    path = write_config(tmp_path, model_file)
    monkeypatch.chdir(tmp_path.parent)
    assert os.path.abspath(parse_config(path).model_path) \
        == str(tmp_path / "product.json")


def test_model_flag_relative_to_working_dir(tmp_path, model_file,
                                            monkeypatch):
    path = write_config(tmp_path, model_file)
    other = tmp_path / "models"
    other.mkdir()
    (other / "m.json").write_text(open(model_file).read())
    monkeypatch.chdir(other)
    cfg = parse_config(path, "--model", "m.json")
    assert os.path.abspath(cfg.model_path) == str(other / "m.json")
    assert cfg.grid_n == 64
    # the same name relative to the config's directory does not exist
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigurationError, match="no such file"):
        parse_config(path, "--model", "m.json")


def test_flags_override_config_flow(tmp_path, model_file):
    path = write_config(tmp_path, model_file, grid_n=128,
                        flow={"T": 12.0, "dt": 0.2})
    cfg = parse_config(path, "--T", "6", "--dt", "0.1", "--epsilon", "0.3",
                       command=("flow", "run"))
    assert cfg.grid_n == 128
    assert cfg.flow == {"T": 6.0, "dt": 0.1}
    assert cfg.epsilon_schedule == (0.3,)
    quick = parse_config(path, "--quick", command=("flow", "run"))
    assert quick.grid_n == 64
    assert quick.flow == {"T": 8.0, "dt": 0.2}
    short = write_config(tmp_path, model_file, flow={"T": 3.0})
    assert parse_config(short, "--quick").flow["T"] == 3.0


def test_quick_clamps_to_whole_steps(tmp_path, model_file):
    # 8 is not a whole number of steps of 0.3: --quick keeps 26 of them
    path = write_config(tmp_path, model_file, flow={"T": 9.0, "dt": 0.3})
    quick = parse_config(path, "--quick", command=("flow", "run"))
    assert quick.flow["T"] == pytest.approx(7.8, rel=1e-15)
    assert parse_config(path, "--quick", "--dt", "0.25",
                        command=("flow", "run")).flow["T"] == 8.0
    with pytest.raises(ConfigurationError,
                       match=r"--quick caps T at 8.0, below dt=8.5"):
        parse_config(path, "--quick", "--dt", "8.5", command=("flow", "run"))


def test_model_beta_range_error(tmp_path):
    path = tmp_path / "bad_model.json"
    path.write_text(json.dumps({"beta": 1.2, "delta": 0.1,
                                "cone_point": [0.5, 0.5]}))
    rc = main(["model", "check", "--model", str(path)])
    assert rc == 1


def test_model_check_product(capsys, model_file, tmp_path):
    rc = main(["model", "check", "--model", model_file, "--grid-n", "64",
               "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    area = float([l for l in out.splitlines() if l.startswith("A =")][0]
                 .split("=")[1])
    assert area == pytest.approx(np.pi, abs=1e-12)
    assert "W = 0" in out
    assert "p_star = 2" in out


def test_model_check_builds_background_once(model_file, tmp_path,
                                            monkeypatch, capsys):
    calls = []
    real = fibration_model.build_background

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fibration_model, "build_background", counting)
    monkeypatch.setattr(ke_solver, "build_background", counting)
    assert main(["model", "check", "--model", model_file,
                 "--grid-n", "64"]) == 0
    assert len(calls) == 1
    assert "p_star = 2\n" in capsys.readouterr().out


BAD_MODEL = {"beta": 0.5, "delta": 0.1, "cone_point": [0.5, 0.5]}


BAD_INPUTS = {
    "delta_breaks_positivity": "delta=50.0 breaks positivity",
    "fiber_without_point": "model.fibers[0]: missing required key 'point'",
    "points_snap_together": "closer than 8/N at N=64",
    "periods_non_numeric_cell": "curves.csv:3: could not convert",
    "periods_degenerate_curve": "curves.csv:3: degenerate fiber",
    "periods_non_finite_cell": "curves.csv:3: values must be finite",
    "periods_overflowing_cell": "curves.csv:3: discriminant overflows",
    "weierstrass_overflows": "Weierstrass family overflows on the grid",
    "flag_grid_n_zero": "config.grid_n: grid size must be even and >= 16 "
                        "for spectral symmetry, got 0",
    "flag_dt_above_T": "config.flow: need 0 < dt <= T <= 50",
    "flag_epsilon_zero": "config.epsilon_schedule: value 0.0 out of (0, 1]",
    "flag_epsilon_two": "config.epsilon_schedule: value 2.0 out of (0, 1]",
    "flag_epsilon_underflows":
        "chi: eps=1e-170 is too small (eps^4 underflows to 0)",
    "cone_point_nan": "model.cone_point: must be finite, got nan",
    "delta_overflows": "model.delta: must be finite, got inf",
    "g2_nan": "model.tau_model.g2: must be finite, got nan",
    "fiber_area_infinite": "model.fiber_area: must be finite, got inf",
    "baseline_infinite": "model.tau_model.baseline: must be finite, got inf",
    "m_fractional": "model.fibers[0].m: must be an integer, got 2.7",
    "m_overflows": "model.fibers[0].m: cannot convert float infinity",
    "b_fractional": "model.fibers[0].b: must be an integer, got 1.5",
    "kx_fractional": "model.tau_model.g2_modes: must be an integer, got 1.5",
    "model_grid_n_fractional": "model.grid_n: must be an integer, got 64.5",
    "config_grid_n_fractional": "config.grid_n: must be an integer, got 64.5",
    "delta_boolean": "model.delta: must be a number, got True",
    "m_boolean": "model.fibers[0].m: must be an integer, got True",
    "config_grid_n_boolean": "config.grid_n: must be an integer, got True",
    "delta_string": "model.delta: must be a number, got '0.1'",
    "cone_point_string": "model.cone_point: must be a number, got '0.5'",
    "config_flow_T_string": "config.flow.T: must be a number, got '8'",
    "config_model_null": "config.model: must be a string, got None",
    "config_output_dir_null": "config.output_dir: must be a string, got None",
    "config_output_dir_list":
        "config.output_dir: must be a string, got ['a']",
    "config_masks": "config.masks: unknown key",
    "config_flow_scheme": "config.flow.scheme: unknown key",
    "config_epsilon_schedule_empty":
        "config.epsilon_schedule: must not be empty",
    "config_flow_pairs":
        "config.flow: must be an object, got [['T', 4.0], ['dt', 0.5]]",
    "flag_dt_subnormal": "config.flow: need 0 < dt <= T <= 50 in at most "
                         "100000 steps, got T/dt=inf",
    "flag_dt_subnormal_quick": "config.flow: need 0 < dt <= T <= 50 in at "
                               "most 100000 steps, got T/dt=inf",
    "flag_dt_endless": "config.flow: need 0 < dt <= T <= 50 in at most "
                       "100000 steps, got T/dt=5e+301",
    "flag_grid_n_unindexable": "config.grid_n: grid size 2000000000 is too "
                               "large",
    "model_not_utf8": "model: malformed JSON in ./model.json: 'utf-8' codec "
                      "can't decode byte 0xff",
    "config_not_utf8": "config: malformed JSON in config.json: 'utf-8' "
                       "codec can't decode byte 0xff",
    "periods_not_utf8": "curves.csv: 'utf-8' codec can't decode byte 0xff",
}

# model keys merged into BAD_MODEL for the cases above; json.dumps writes
# nan and inf as NaN and Infinity, which json.load reads back
BAD_MODEL_KEYS = {
    "cone_point_nan": {"cone_point": [float("nan"), 0.5]},
    "delta_overflows": {"delta": 1e300},    # written as 1e400 below
    # finite invariants whose discriminant overflows on the grid
    "weierstrass_overflows": {"tau_model": {
        "kind": "weierstrass", "g2": [1e200, 0.0],
        "g3_modes": [[1, 0, 1e160, 0.0]]}},
    "g2_nan": {"tau_model": {"kind": "weierstrass",
                             "g2": [float("nan"), 0.0]}},
    "fiber_area_infinite": {"fiber_area": float("inf")},
    "baseline_infinite": {
        "fibers": [{"point": [0.25, 0.25], "m": 1, "b": 1}],
        "tau_model": {"kind": "ib_local", "baseline": float("inf")}},
    "m_fractional": {"fibers": [{"point": [0.25, 0.25], "m": 2.7}]},
    "m_overflows": {"fibers": [{"point": [0.25, 0.25], "m": float("inf")}]},
    "b_fractional": {"fibers": [{"point": [0.25, 0.25], "m": 1, "b": 1.5}]},
    "kx_fractional": {"tau_model": {"kind": "weierstrass",
                                    "g2_modes": [[1.5, 0, 0.2, 0.0]]}},
    "model_grid_n_fractional": {"grid_n": 64.5},
    "delta_boolean": {"delta": True},
    "m_boolean": {"fibers": [{"point": [0.25, 0.25], "m": True}]},
    "delta_string": {"delta": "0.1"},
    "cone_point_string": {"cone_point": ["0.5", 0.5]},
}

# config keys merged into BAD_CONFIG for the config_* cases above
BAD_CONFIG = {"model": "model.json", "grid_n": 64}
BAD_CONFIG_KEYS = {
    "config_grid_n_fractional": {"grid_n": 64.5},
    "config_grid_n_boolean": {"grid_n": True},
    "config_flow_T_string": {"flow": {"T": "8"}},
    "config_model_null": {"model": None},
    "config_output_dir_null": {"output_dir": None},
    "config_output_dir_list": {"output_dir": ["a"]},
    # the mask levels and the scheme are constants: even the one value
    # each took is an unknown key
    "config_masks": {"masks": {"qr_min": 0.1,
                               "sigma_levels": [0.2, 0.4, 0.6]}},
    "config_flow_scheme": {"flow": {"scheme": "backward-euler-newton"}},
    "config_epsilon_schedule_empty": {"epsilon_schedule": []},
    # dict() would read a list of pairs as the mapping {"T": 4, "dt": 0.5}
    "config_flow_pairs": {"flow": [["T", 4.0], ["dt", 0.5]]},
}
# the command of a config_* case when it is not model check
BAD_CONFIG_COMMANDS = {"config_flow_pairs": ["flow", "run", "--quick"]}

# flags that the run-config checks must reject, as for the same config keys
BAD_FLAGS = {
    "flag_grid_n_zero": ["model", "check", "--grid-n", "0"],
    "flag_dt_above_T": ["flow", "run", "--T", "0.5", "--dt", "1"],
    "flag_epsilon_zero": ["flow", "run", "--epsilon", "0"],
    "flag_epsilon_two": ["flow", "run", "--epsilon", "2"],
    # eps^2 underflows to 0, which chi_values cannot raise to beta - 1 < 0
    "flag_epsilon_underflows": ["flow", "run", "--quick", "--epsilon",
                                "1e-170"],
    # T/dt overflows to inf, past any step cap
    "flag_dt_subnormal": ["flow", "run", "--grid-n", "64", "--T", "1",
                          "--dt", "5e-324"],
    "flag_dt_subnormal_quick": ["flow", "run", "--quick", "--dt", "5e-324"],
    # T/dt is finite but past the step cap: about 5e301 steps
    "flag_dt_endless": ["flow", "run", "--grid-n", "64", "--T", "50",
                        "--dt", "1e-300"],
    # its N x N complex arrays would hold more bytes than np.intp counts
    "flag_grid_n_unindexable": ["model", "check", "--grid-n", "2000000000"],
}

# the file of each case written as these bytes instead, which no UTF-8
# text starts with
NOT_UTF8 = {"model_not_utf8": "model.json", "config_not_utf8": "config.json",
            "periods_not_utf8": "curves.csv"}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_gives_one_error_line(case, tmp_path):
    model = dict(BAD_MODEL, **BAD_MODEL_KEYS.get(case, {}))
    if case == "delta_breaks_positivity":
        model["delta"] = 50.0
    elif case == "fiber_without_point":
        model["fibers"] = [{"m": 2}]
    elif case == "points_snap_together":
        # 0.501 snaps onto the cone point's lattice site at N=64
        model["fibers"] = [{"point": [0.501, 0.5], "m": 2}]
    # 1e400 overflows to inf as json.load reads it
    (tmp_path / "model.json").write_text(
        json.dumps(model).replace("1e+300", "1e400"))
    (tmp_path / "config.json").write_text(
        json.dumps(dict(BAD_CONFIG, **BAD_CONFIG_KEYS.get(case, {}))))
    cell = {"periods_non_numeric_cell": "abc,1",
            "periods_non_finite_cell": "nan,1",
            "periods_overflowing_cell": "1e200,1"}.get(case, "3,1")
    (tmp_path / "curves.csv").write_text(f"# g2, g3\n4,0\n{cell}\n")
    if case in NOT_UTF8:
        (tmp_path / NOT_UTF8[case]).write_bytes(b"\xff\xfe")
    if case.startswith("periods"):
        args = ["periods", "--input", "curves.csv", "--out", "out"]
    elif case in BAD_FLAGS:
        args = BAD_FLAGS[case] + ["--model", "model.json"]
    elif case.startswith("config_"):
        args = BAD_CONFIG_COMMANDS.get(case, ["model", "check"]) \
            + ["--config", "config.json"]
    else:
        args = ["model", "check", "--model", "model.json", "--grid-n", "64"]
    src = os.path.dirname(os.path.dirname(coneflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "coneflow"] + args,
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert BAD_INPUTS[case] in lines[0]


@pytest.mark.parametrize("argv, message", [
    (["flow", "run", "--bogus", "1"],
     "coneflow: unrecognized arguments: --bogus 1"),
    (["flow", "run", "--T", "abc"],
     "coneflow flow run: argument --T: invalid float value: 'abc'"),
    (["flow", "run", "--scheme", "rk4-explicit"],
     "coneflow: unrecognized arguments: --scheme rk4-explicit"),
    (["bogus"], "coneflow: argument group: invalid choice: 'bogus'"),
])
def test_bad_arguments_give_one_error_line(argv, message, model_file,
                                           capsys):
    assert main(argv + ["--model", model_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


def test_unallocatable_grid_gives_one_error_line(model_file, capsys,
                                                monkeypatch):
    # a grid too large for memory ends like any other bad input; the
    # allocation failure is simulated, so nothing large is allocated
    message = "Unable to allocate 8.00 TiB for an array with shape " \
        "(1048576, 1048576) and data type float64"

    def unallocatable(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_problem", unallocatable)
    assert main(["model", "check", "--model", model_file,
                 "--grid-n", "1048576"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flow", "run", "--help"])
    assert exc.value.code == 0
    assert "--epsilon" in capsys.readouterr().out


def test_solve_ke_writes_artifacts(model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["solve-ke", "--model", model_file, "--grid-n", "64",
               "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == \
        ["ke_report.json", "ke_solution.csv"]
    report = json.loads((out / "ke_report.json").read_text())
    assert report["A"] == pytest.approx(np.pi)
    assert report["residual"] <= 1e-9
    assert report["epsilons"] == list(DEFAULT_EPSILON_SCHEDULE)


def test_solve_ke_deterministic(model_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["solve-ke", "--model", model_file, "--grid-n", "64",
                     "--out", str(out)]) == 0
    for name in ("ke_report.json", "ke_solution.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_ke_too_coarse_for_holder_radii_fails_before_solving(
        model_file, tmp_path, monkeypatch, capsys):
    # N=32 leaves one dyadic radius in [4/N, 0.1]: the Holder fit cannot
    # run, so the solve must stop before its first rung, not after its last
    calls = []
    newton = ke_solver.newton_solve

    def counting(*args, **kwargs):
        calls.append(args)
        return newton(*args, **kwargs)

    monkeypatch.setattr(ke_solver, "newton_solve", counting)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, model_file, grid_n=32, output_dir=str(out),
                       epsilon_schedule=[0.4, 0.28, 0.196, 0.1372, 0.09604,
                                         0.067228])
    assert main(["solve-ke", "--config", cfg]) == 1
    assert calls == []
    assert capsys.readouterr().err.splitlines() == [
        "error: grid too coarse for oscillation radii at N=32"]
    assert not out.exists()


def test_flow_run_artifacts_and_gaps(model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["flow", "run", "--model", model_file, "--grid-n", "64",
               "--T", "6", "--dt", "0.05", "--epsilon", "0.1",
               "--out", str(out)])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["decay_report.json", "final_phi.csv", "final_phi.pgm",
                     "trajectory.csv"]
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == ("t,gap[qr>=0.1],gap[sigma>=0.2],gap[sigma>=0.4],"
                        "gap[sigma>=0.6],energy,min_density")
    assert len(lines) == 1 + 120
    decay = json.loads((out / "decay_report.json").read_text())
    fit = decay["qr>=0.1"]
    assert -1.15 < fit["slope"] < -0.85


@pytest.mark.slow
def test_flow_run_at_256_accepts_roundoff_steps(model_file, tmp_path):
    # at N = 256 some backward-Euler steps stall just above STEP_TOL with a
    # full Newton step of a few ulps of phi; the flow takes them and goes on
    out = tmp_path / "out"
    rc = main(["flow", "run", "--model", model_file, "--grid-n", "256",
               "--T", "1", "--dt", "0.05", "--out", str(out)])
    assert rc == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 20


def test_flow_run_byte_identical_across_reruns(model_file, tmp_path):
    names = ("trajectory.csv", "final_phi.csv", "decay_report.json")
    runs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert main(["flow", "run", "--quick", "--model", model_file,
                     "--out", str(out)]) == 0
        runs.append({name: (out / name).read_bytes() for name in names})
    assert runs[1] == runs[0]


def test_flow_run_quick_byte_identical_across_blas_threads(model_file,
                                                         tmp_path):
    # at N=64 CG's 4,096-point dot products stay on one OpenBLAS thread;
    # at N >= 128 they do not, and the bytes depend on the thread count
    src = os.path.dirname(os.path.dirname(coneflow.__file__))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "coneflow", "flow", "run", "--quick",
             "--model", model_file, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, {p.name: p.read_bytes()
                                   for p in sorted(out.iterdir())}))
    assert len(runs[0][1]) == 4
    assert runs[1] == runs[0]


def test_verify_all_byte_identical_across_reruns(model_file, tmp_path,
                                                 monkeypatch, capsys):
    # lemma-3.2 and prop-3.7 both read run_flow's decay report: each run
    # fits once per flow mask (three barrier levels and the compact region)
    fits = []
    real = flow_engine.fit_decay_slope

    def counting(times, gaps):
        fits.append(gaps)
        return real(times, gaps)

    monkeypatch.setattr(flow_engine, "fit_decay_slope", counting)
    runs = []
    for label in ("a", "b"):
        out = tmp_path / label
        rc = main(["verify", "all", "--quick", "--model", model_file,
                   "--out", str(out)])
        runs.append((rc, capsys.readouterr().out,
                     (out / "verification_report.json").read_bytes()))
    assert runs[1] == runs[0]
    assert len(fits) == 8
    # the product model fails thm-1.1-2 at N = 64: the Ricci-identity
    # residual is about 0.044 against the fiberless cap 5e-3
    report = json.loads(runs[0][2])
    assert runs[0][0] == 2
    assert [k for k, e in report.items() if not e["passed"]] == ["thm-1.1-2"]


@pytest.mark.parametrize("flow, reach", [
    ({"T": 9, "dt": 0.3}, "T=9.0 with dt=0.3"),
    ({"T": 0.5, "dt": 0.01}, "T=0.5 with dt=0.01")])
def test_verify_all_rejects_a_flow_that_misses_the_trace_times(
        model_file, tmp_path, capsys, flow, reach):
    # the trace bounds are sampled at verify.TRACE_TIMES; steps of 0.3 miss
    # 1 and 5, and a flow to T = 0.5 reaches none of them
    out = tmp_path / "out"
    cfg = write_config(tmp_path, model_file, output_dir=str(out), flow=flow)
    assert main(["verify", "all", "--config", cfg]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: flow: {reach} reaches none of the trace times "
        "[1.0, 5.0, 10.0, 20.0] that verify all samples"]
    assert not out.exists()


def translation(seed):
    """The benchmark's lattice shift for a seed (bench/workloads.py)."""
    rng = random.Random(seed)
    return rng.randrange(64) / 64.0, rng.randrange(64) / 64.0


def weierstrass_model(shift):
    """The benchmark's Weierstrass model with every marked point moved by
    shift and the tau modes' phases moved with them."""
    def moved(p):
        return [(p[0] + shift[0]) % 1.0, (p[1] + shift[1]) % 1.0]

    def mode(kx, ky, amp):
        amp *= cmath.exp(-2j * cmath.pi * (kx * shift[0] + ky * shift[1]))
        return [kx, ky, amp.real, amp.imag]

    return {"beta": 0.5, "delta": 0.1, "cone_point": moved((0.5, 0.5)),
            "fibers": [{"point": moved((0.25, 0.25)), "m": 1, "b": 0}],
            "tau_model": {"kind": "weierstrass", "g2": [4.0, 0.0],
                          "g3": [0.0, 0.0], "g2_modes": [mode(1, 0, 0.2)],
                          "g3_modes": [mode(0, 1, 0.15)]},
            "fiber_area": 1.0}


def test_verify_all_verdicts_independent_of_lattice_translation(
        tmp_path, capsys):
    # each seed's model is an exact lattice translate of the same problem,
    # so round-off must not move any verdict or the exit code
    verdicts = []
    for seed in (3001, 3004, 3007):
        path = tmp_path / f"model{seed}.json"
        path.write_text(json.dumps(weierstrass_model(translation(seed))))
        out = tmp_path / f"out{seed}"
        rc = main(["verify", "all", "--quick", "--model", str(path),
                   "--out", str(out)])
        report = json.loads((out / "verification_report.json").read_text())
        verdicts.append((rc, {k: e["passed"] for k, e in report.items()}))
    capsys.readouterr()
    assert verdicts[1:] == verdicts[:1] * 2


@pytest.mark.parametrize("dt", ["0.3", "0.6"])
def test_flow_run_horizon_off_the_step_lattice(model_file, tmp_path, capsys,
                                               dt):
    # T=1 is not a whole number of these steps: the run would stop at
    # t=0.9 or t=1.2, so it must not start
    out = tmp_path / "out"
    rc = main(["flow", "run", "--model", model_file, "--grid-n", "32",
               "--T", "1", "--dt", dt, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: config.flow: T=1.0 is not a whole number of steps of dt={dt}"]
    assert not out.exists()


def test_cli_requires_model_or_config(capsys):
    rc = main(["solve-ke"])
    assert rc == 1
    assert "either --config or --model" in capsys.readouterr().err


def test_periods_subcommand(tmp_path, capsys):
    src = tmp_path / "curves.csv"
    src.write_text("# g2, g3 (real pairs)\n4,0\n0,4\n")
    out = tmp_path / "out"
    rc = main(["periods", "--input", str(src), "--out", str(out)])
    assert rc == 0
    lines = (out / "periods.csv").read_text().splitlines()
    assert len(lines) == 3
    row = [float(v) for v in lines[1].split(",")]
    # (g2, g3) = (4, 0): tau = i, disc = 64
    assert row[8] == pytest.approx(0.0, abs=1e-12)
    assert row[9] == pytest.approx(1.0, abs=1e-12)
    assert row[10] == pytest.approx(64.0)


def test_no_writes_outside_output_dir(model_file, tmp_path, monkeypatch):
    out = tmp_path / "only_here"
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    rc = main(["solve-ke", "--model", model_file, "--grid-n", "64",
               "--out", str(out)])
    assert rc == 0
    assert list(work.iterdir()) == []


def test_artifact_writes_are_atomic(tmp_path, monkeypatch):
    # the second artifact's rename fails: the first is written, the second
    # keeps its old bytes, and no temp file is left behind
    (tmp_path / "b.csv").write_bytes(b"old b\n")
    renames = []
    real_replace = os.replace

    def failing_replace(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError("rename failed")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        cli._write_artifacts(str(tmp_path), {"a.csv": "new a\n",
                                             "b.csv": b"new b\n"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]
    assert (tmp_path / "a.csv").read_bytes() == b"new a\n"
    assert (tmp_path / "b.csv").read_bytes() == b"old b\n"


def test_csv_round_trip(grid64):
    rng = np.random.default_rng(9)
    f = ScalarField(grid64, rng.normal(size=(64, 64)))
    text = cli._field_csv(f)
    assert np.array_equal(np.loadtxt(io.StringIO(text), delimiter=","),
                          f.values)


def test_csv_header(grid64):
    text = cli._field_csv(ScalarField(grid64, np.ones((64, 64))))
    assert text.splitlines()[0] == "# N=64"


def test_pgm_output(grid64):
    x, _ = mesh(grid64)
    f = ScalarField(grid64, np.sin(2 * np.pi * x))
    data = cli._field_pgm(f)
    assert data.startswith(b"P5\n# min=")
    header, rest = data.split(b"255\n", 1)
    assert len(rest) == 64 * 64
    # determinism: a second formatting is byte-identical
    assert cli._field_pgm(f) == data


@pytest.mark.slow
def test_verify_all_quick_product(model_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["verify", "all", "--model", model_file, "--grid-n", "128",
               "--out", str(out)])
    printed = capsys.readouterr().out
    report = json.loads((out / "verification_report.json").read_text())
    assert sorted(report) == ["F-Lp", "eq-3.10", "lemma-3.2", "lemma-3.4",
                              "prop-2.1-holder", "prop-3.7", "thm-1.1-2"]
    for key, entry in report.items():
        assert entry["passed"], (key, entry)
    assert rc == 0
    assert printed.count("pass") == 7
