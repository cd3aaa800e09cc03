"""Command-line interface: configuration, orchestration, reproducible artifacts.

Subcommands
-----------
  model check   print the model's forced area, moduli mass, p*, residual
  solve-ke      continuation solve; writes field CSV and a report JSON
  flow run      evolve the reduced flow; writes trajectory CSV, final field
                CSV/PGM and a decay-report JSON
  verify all    full estimate suite; one report JSON keyed per statement
  periods       batch Weierstrass periods: CSV of (g2, g3) rows in,
                CSV of (w1, w2, tau, discriminant) out

Exit codes: 0 success (all checks pass), 1 solver/configuration error
(bad flags included), 2 verification failure.  All artifacts are written
atomically (temp file plus rename) inside the configured output directory,
with no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

from .errors import ConeflowError, ConfigurationError, ModelError
from .fibration_model import (_integer, _known_keys, _mapping, _read, _real,
                              _string, lp_threshold, model_from_json_dict)
from .flow_engine import _step_count, _steps_to
from .ke_solver import build_problem, continuation_solve
from .torus_field import write_field_csv, write_field_pgm
from .verify import run_verification_suite, target_flow
from . import elliptic_periods as periods_mod

DEFAULT_GRID_N = 128
DEFAULT_EPSILON_SCHEDULE = (0.4, 0.2, 0.1, 0.05)
DEFAULT_FLOW = {"T": 20.0, "dt": 0.05}
QUICK_T = 8.0       # --quick's cap on the flow horizon


@dataclass(frozen=True)
class RunConfig:
    model_path: str
    grid_n: int = DEFAULT_GRID_N
    epsilon_schedule: tuple = DEFAULT_EPSILON_SCHEDULE
    flow: dict = field(default_factory=lambda: dict(DEFAULT_FLOW))
    output_dir: str = "out"


_CONFIG_KEYS = {"model", "grid_n", "epsilon_schedule", "flow", "output_dir"}
_FLOW_KEYS = {"T", "dt"}


def parse_config_dict(d: dict, base_dir=".") -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigurationError("config: expected a JSON object")
    _known_keys(d, _CONFIG_KEYS, "config")
    if "model" not in d:
        raise ConfigurationError("config.model: required (path to a model JSON)")
    model = _read(d, "model", "config", _string)
    model_path = model if os.path.isabs(model) \
        else os.path.join(base_dir, model)
    if not os.path.exists(model_path):
        raise ConfigurationError(f"config.model: no such file {model_path!r}")
    grid_n = _read(d, "grid_n", "config", _integer, DEFAULT_GRID_N)
    if grid_n < 16 or grid_n % 2:
        raise ConfigurationError(f"config.grid_n: must be even and >= 16, got {grid_n}")
    schedule = _read(d, "epsilon_schedule", "config",
                     lambda v: tuple(map(_real, v)),
                     DEFAULT_EPSILON_SCHEDULE)
    if not schedule:
        raise ConfigurationError("config.epsilon_schedule: must not be empty")
    for e in schedule:
        if not (0.0 < e <= 1.0):
            raise ConfigurationError(f"config.epsilon_schedule: value {e} out of (0, 1]")
    flow = {**DEFAULT_FLOW, **_read(d, "flow", "config", _mapping, {})}
    _known_keys(flow, _FLOW_KEYS, "config.flow")
    flow["T"] = _read(flow, "T", "config.flow", _real)
    flow["dt"] = _read(flow, "dt", "config.flow", _real)
    _step_count(flow["T"], flow["dt"], "config.flow")
    return RunConfig(model_path=model_path, grid_n=grid_n,
                     epsilon_schedule=schedule, flow=flow,
                     output_dir=_read(d, "output_dir", "config", _string,
                                      "out"))


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what}: malformed JSON in {path}: {exc}")


def load_model(path):
    return model_from_json_dict(_load_json(path, "model"))


# ---------------------------------------------------------------------------
# atomic artifact writing
# ---------------------------------------------------------------------------

def _atomic_write(path, writer):
    """Write through a temp file in the same directory, then rename."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path, obj):
    def _w(tmp):
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _atomic_write(path, _w)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_model_check(cfg: RunConfig, model, problem) -> int:
    print(f"A = {problem.bg.area:.12g}")
    print(f"W = {problem.bg.wp_mass:.12g}")
    print(f"p_star = {lp_threshold(model):.12g}")
    resid = abs(problem.density.density_values().mean() - 1.0)
    print(f"consistency residual = {resid:.3e}")
    return 0


def _ke_report(report, sols):
    sol = sols[-1]
    return {
        "A": sol.problem.bg.area,
        "W": sol.problem.bg.wp_mass,
        "residual": sol.residual_sup,
        "epsilons": list(report.epsilons),
        "newton_iters": [s.newton_iters for s in sols],
        "cauchy_sups": list(report.cauchy_sups),
        "holder_exponent": report.holder_exponent,
    }


def _cmd_solve_ke(cfg: RunConfig, model, problem) -> int:
    sols, report = continuation_solve(problem, list(cfg.epsilon_schedule))
    sol = sols[-1]
    out = cfg.output_dir
    _atomic_write(os.path.join(out, "ke_solution.csv"),
                  lambda tmp: write_field_csv(sol.v, tmp))
    write_json(os.path.join(out, "ke_report.json"), _ke_report(report, sols))
    print(f"solved at eps={sol.epsilon}: residual {sol.residual_sup:.3e}")
    return 0


def _cmd_flow_run(cfg: RunConfig, model, problem) -> int:
    _, state, traj, decay = target_flow(problem, cfg.flow["T"], cfg.flow["dt"])
    out = cfg.output_dir

    def _write_traj(tmp):
        names = sorted(traj.gaps)
        with open(tmp, "w") as fh:
            fh.write("t," + ",".join(f"gap[{k}]" for k in names)
                     + ",energy,min_density\n")
            for i, t in enumerate(traj.times):
                row = [repr(t)] + [repr(traj.gaps[k][i]) for k in names] \
                    + [repr(traj.energy[i]), repr(traj.min_density[i])]
                fh.write(",".join(row) + "\n")
    _atomic_write(os.path.join(out, "trajectory.csv"), _write_traj)
    _atomic_write(os.path.join(out, "final_phi.csv"),
                  lambda tmp: write_field_csv(state.phi, tmp))
    _atomic_write(os.path.join(out, "final_phi.pgm"),
                  lambda tmp: write_field_pgm(state.phi, tmp))
    write_json(os.path.join(out, "decay_report.json"), dict(decay))
    final_gaps = {k: traj.gaps[k][-1] for k in traj.gaps}
    print(f"flow reached t={state.t:g}; final gaps: " + json.dumps(
        final_gaps, sort_keys=True))
    return 0


def _cmd_verify_all(cfg: RunConfig, model, problem) -> int:
    reports = run_verification_suite(model, problem, cfg.flow["T"],
                                     cfg.flow["dt"])
    payload = {k: r.to_json_dict() for k, r in sorted(reports.items())}
    write_json(os.path.join(cfg.output_dir, "verification_report.json"),
               payload)
    all_pass = True
    for key in sorted(reports):
        status = "pass" if reports[key].passed else "FAIL"
        print(f"{key}: {status} (max violation {reports[key].max_violation:.3e})")
        all_pass &= reports[key].passed
    return 0 if all_pass else 2


def _cmd_periods(input_path, output_dir) -> int:
    rows = []
    with open(input_path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{input_path}:{line_no}"
            try:
                parts = [float(v) for v in line.split(",")]
            except ValueError as exc:
                raise ConfigurationError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, parts)):
                raise ConfigurationError(f"{where}: values must be finite")
            if len(parts) == 2:
                g2, g3 = complex(parts[0]), complex(parts[1])
            elif len(parts) == 4:
                g2 = complex(parts[0], parts[1])
                g3 = complex(parts[2], parts[3])
            else:
                raise ConfigurationError(
                    f"{where}: expected 2 or 4 numbers per row")
            curve = periods_mod.WeierstrassCurve(g2, g3)
            try:
                disc = periods_mod.discriminant(curve)
                w1, w2, tau = periods_mod.periods_from_weierstrass(curve)
            except ModelError as exc:
                raise ConfigurationError(f"{where}: {exc}") from None
            rows.append((g2, g3, w1, w2, tau, disc))

    def _w(tmp):
        with open(tmp, "w") as fh:
            fh.write("# g2_re,g2_im,g3_re,g3_im,w1_re,w1_im,w2_re,w2_im,"
                     "tau_re,tau_im,disc_re,disc_im\n")
            for g2, g3, w1, w2, tau, disc in rows:
                vals = [g2.real, g2.imag, g3.real, g3.imag, w1.real, w1.imag,
                        w2.real, w2.imag, tau.real, tau.imag,
                        disc.real, disc.imag]
                fh.write(",".join(repr(v) for v in vals) + "\n")
    _atomic_write(os.path.join(output_dir, "periods.csv"), _w)
    print(f"wrote periods for {len(rows)} curves")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are ConfigurationErrors, so a
    bad flag ends in exit 1 with one error line like every other bad
    input; subparsers are built from the same class."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser():
    p = _Parser(prog="coneflow",
                description="Conical-flow numerical laboratory")
    sub = p.add_subparsers(dest="group", required=True)

    def add_common(sp, command):
        """The flags every model subcommand takes; the subcommand runs as
        command(cfg, model, problem)."""
        sp.set_defaults(command=command)
        sp.add_argument("--config", help="run-config JSON path")
        sp.add_argument("--model", help="model JSON path")
        sp.add_argument("--grid-n", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--quick", action="store_true",
                        help="smoke-test scale: N=64, T at most 8")

    model_p = sub.add_parser("model", help="model-file operations")
    model_sub = model_p.add_subparsers(dest="action", required=True)
    add_common(model_sub.add_parser("check", help="print forced constants"),
               _cmd_model_check)

    add_common(sub.add_parser("solve-ke", help="continuation solve"),
               _cmd_solve_ke)

    flow_p = sub.add_parser("flow", help="flow operations")
    flow_sub = flow_p.add_subparsers(dest="action", required=True)
    flow_run = flow_sub.add_parser("run", help="evolve the reduced flow")
    add_common(flow_run, _cmd_flow_run)
    flow_run.add_argument("--T", type=float, default=None)
    flow_run.add_argument("--dt", type=float, default=None)
    flow_run.add_argument("--epsilon", type=float, default=None)

    verify_p = sub.add_parser("verify", help="verification suites")
    verify_sub = verify_p.add_subparsers(dest="action", required=True)
    add_common(verify_sub.add_parser("all", help="full estimate suite"),
               _cmd_verify_all)

    per = sub.add_parser("periods", help="batch elliptic periods")
    per.add_argument("--input", required=True, help="CSV of g2, g3 rows")
    per.add_argument("--out", default="out")
    return p


def _quick_horizon(flow) -> float:
    """The flow's T under --quick: at most QUICK_T, and the most whole steps
    of its dt that fit there when T is longer."""
    T = _read(flow, "T", "config.flow", _real, DEFAULT_FLOW["T"])
    dt = _read(flow, "dt", "config.flow", _real, DEFAULT_FLOW["dt"])
    if T <= QUICK_T or dt <= 0.0:
        return T
    if _steps_to(QUICK_T, dt) is not None:
        return QUICK_T
    steps = math.floor(QUICK_T / dt)
    if steps == 0:
        raise ConfigurationError(
            f"config.flow: --quick caps T at {QUICK_T}, below dt={dt}")
    return steps * dt


def _config_from_args(args) -> RunConfig:
    """The run config of the flags over the --config file, checked once by
    parse_config_dict; --model is relative to the working directory."""
    if not (args.config or args.model):
        raise ConfigurationError("either --config or --model is required")
    d = _load_json(args.config, "config") if args.config else {}
    if not isinstance(d, dict):
        raise ConfigurationError("config: expected a JSON object")
    base_dir = os.path.dirname(args.config or "") or "."
    if args.model:
        d["model"], base_dir = args.model, "."
    for key, value in (("grid_n", args.grid_n), ("output_dir", args.out)):
        if value is not None:
            d[key] = value
    if getattr(args, "epsilon", None) is not None:
        d["epsilon_schedule"] = [args.epsilon]
    flow = _read(d, "flow", "config", _mapping, {})
    for key in ("T", "dt"):
        if getattr(args, key, None) is not None:
            flow[key] = getattr(args, key)
    if args.quick:
        d["grid_n"] = 64
        flow["T"] = _quick_horizon(flow)
    d["flow"] = flow
    return parse_config_dict(d, base_dir)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.group == "periods":
            return _cmd_periods(args.input, args.out)
        cfg = _config_from_args(args)
        model = load_model(cfg.model_path)
        problem = build_problem(model, cfg.grid_n, cfg.epsilon_schedule[-1])
        return args.command(cfg, model, problem)
    except (ConeflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
