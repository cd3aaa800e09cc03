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
(bad flags and a grid too large to allocate included), 2 verification
failure.  All artifacts are written atomically (temp file plus rename)
inside the configured output directory, with no timestamps, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .elliptic_periods import (ConstantTau, LocalLogTau, WeierstrassCurve,
                               WeierstrassFamilyTau, discriminant,
                               periods_from_weierstrass)
from .errors import ConeflowError, ConfigurationError, ModelError
from .fibration_model import FibrationModel, SingularFiber, lp_threshold
from .flow_engine import _step_count, _steps_to
from .ke_solver import build_problem, continuation_solve
from .torus_field import make_grid
from .verify import run_verification_suite, target_flow

DEFAULT_GRID_N = 128
DEFAULT_EPSILON_SCHEDULE = (0.4, 0.2, 0.1, 0.05)
DEFAULT_FLOW = {"T": 20.0, "dt": 0.05}
QUICK_T = 8.0       # --quick's cap on the flow horizon


# ---------------------------------------------------------------------------
# input files: model JSON, run-config JSON
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _read(d, key, path, convert, default=_REQUIRED):
    """convert(d[key]), or default when the key is absent; a missing
    required key or a value convert rejects raises a ConfigurationError
    that names the key path."""
    if key not in d:
        if default is _REQUIRED:
            raise ConfigurationError(f"{path}: missing required key {key!r}")
        return default
    try:
        return convert(d[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{path}.{key}: {exc}") from None


def _known_keys(d, known, path):
    """ConfigurationError naming the first key of d not in known."""
    for key in d:
        if key not in known:
            raise ConfigurationError(f"{path}.{key}: unknown key")


def _build(cls, path, **kwargs):
    """cls(**kwargs), the ModelError of its own checks raised as a
    ConfigurationError prefixed with path."""
    try:
        return cls(**kwargs)
    except ModelError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _real(v):
    if isinstance(v, (bool, str)):  # JSON true/false or "0.1": not a number
        raise TypeError(f"must be a number, got {v!r}")
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {v!r}")
    return x


def _integer(v):
    if isinstance(v, bool):
        raise TypeError(f"must be an integer, got {v!r}")
    k = int(v)
    if k != v:
        raise ValueError(f"must be an integer, got {v!r}")
    return k


def _string(v):
    if not isinstance(v, str):
        raise TypeError(f"must be a string, got {v!r}")
    return v


def _mapping(v):
    if not isinstance(v, dict):     # dict(v) would take a list of pairs too
        raise TypeError(f"must be an object, got {v!r}")
    return dict(v)


def _pair(v):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError(f"expected [x, y], got {v!r}")
    return _real(v[0]), _real(v[1])


def _complex(v):
    return complex(*_pair(v))


def _modes(v):
    """[[kx, ky, re, im], ...] as (kx, ky, complex amplitude) tuples."""
    return tuple((_integer(kx), _integer(ky), complex(_real(re), _real(im)))
                 for kx, ky, re, im in v)


# Each tau model kind's class and the converters of its keys besides kind;
# a key the file leaves out takes the class's default.
_TAU_KINDS = {
    "constant": (ConstantTau, {"tau": _complex}),
    "ib_local": (LocalLogTau, {"baseline": _real, "cap_radius": _real}),
    "weierstrass": (WeierstrassFamilyTau, {"g2": _complex, "g3": _complex,
                                           "g2_modes": _modes,
                                           "g3_modes": _modes}),
}


def _tau_from_dict(d, path):
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigurationError(f"{path}: expected an object with a 'kind' key")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _TAU_KINDS:
        raise ConfigurationError(f"{path}.kind: unknown kind {kind!r}")
    cls, converters = _TAU_KINDS[kind]
    _known_keys(d, {"kind", *converters}, path)
    return _build(cls, path, **{key: _read(d, key, path, convert)
                                for key, convert in converters.items()
                                if key in d})


def _fiber_from_dict(d, path):
    if not isinstance(d, dict):
        raise ConfigurationError(f"{path}: expected an object")
    _known_keys(d, {"point", "m", "b"}, path)
    ib_index = {"ib_index": _read(d, "b", path, _integer)} if "b" in d else {}
    return _build(SingularFiber, path, point=_read(d, "point", path, _pair),
                  multiplicity=_read(d, "m", path, _integer, 1), **ib_index)


_MODEL_KEYS = {"beta", "delta", "cone_point", "fibers", "tau_model",
               "fiber_area", "grid_n"}


def model_from_json_dict(d: dict) -> FibrationModel:
    """Parse a model dict into the FibrationModel that checks it; fibers
    and tau_model, when left out, take the class's defaults.  The keys
    fiber_area (positive) and grid_n (an integer) are accepted and
    validated but unused."""
    path = "model"
    if not isinstance(d, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    _known_keys(d, _MODEL_KEYS, path)
    kwargs = {key: _read(d, key, path, convert) for key, convert in
              (("beta", _real), ("delta", _real), ("cone_point", _pair))}
    if "fibers" in d:
        if not isinstance(d["fibers"], list):
            raise ConfigurationError(f"{path}.fibers: expected a list")
        kwargs["fibers"] = tuple(_fiber_from_dict(fd, f"{path}.fibers[{i}]")
                                 for i, fd in enumerate(d["fibers"]))
    if "tau_model" in d:
        kwargs["tau_model"] = _tau_from_dict(d["tau_model"],
                                             f"{path}.tau_model")
    if _read(d, "fiber_area", path, _real, 1.0) <= 0:
        raise ConfigurationError(f"{path}.fiber_area: must be positive")
    _read(d, "grid_n", path, _integer, None)
    return _build(FibrationModel, path, **kwargs)


@dataclass(frozen=True)
class RunConfig:
    model_path: str
    grid_n: int
    epsilon_schedule: tuple
    flow: dict
    output_dir: str


_CONFIG_KEYS = {"model", "grid_n", "epsilon_schedule", "flow", "output_dir"}
_FLOW_KEYS = {"T", "dt"}


def parse_config_dict(d: dict, base_dir=".") -> RunConfig:
    """The RunConfig of a config dict whose flow holds T and dt."""
    _known_keys(d, _CONFIG_KEYS, "config")
    model = _read(d, "model", "config", _string)
    model_path = model if os.path.isabs(model) \
        else os.path.join(base_dir, model)
    if not os.path.exists(model_path):
        raise ConfigurationError(f"config.model: no such file {model_path!r}")
    grid_n = _read(d, "grid_n", "config", lambda v: make_grid(_integer(v)).n,
                   DEFAULT_GRID_N)
    schedule = _read(d, "epsilon_schedule", "config",
                     lambda v: tuple(map(_real, v)),
                     DEFAULT_EPSILON_SCHEDULE)
    if not schedule:
        raise ConfigurationError("config.epsilon_schedule: must not be empty")
    for e in schedule:
        if not (0.0 < e <= 1.0):
            raise ConfigurationError(f"config.epsilon_schedule: value {e} out of (0, 1]")
    flow = _read(d, "flow", "config", _mapping)
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
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{what}: malformed JSON in {path}: {exc}")


def load_model(path):
    return model_from_json_dict(_load_json(path, "model"))


# ---------------------------------------------------------------------------
# output artifacts: each one's bytes, written by one atomic writer
# ---------------------------------------------------------------------------

def _field_csv(f) -> str:
    """A field as text: a "# N=<n>" line, then each row of values in repr
    form, comma-separated."""
    lines = [f"# N={f.grid.n}"]
    lines += [",".join(repr(float(v)) for v in row) for row in f.values]
    return "\n".join(lines) + "\n"


def _field_pgm(f) -> bytes:
    """A field as an 8-bit binary PGM heatmap, scaled from its min to its
    max, which the header's comment records."""
    v = f.values
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        scaled = np.rint((v - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros_like(v, dtype=np.uint8)
    header = f"P5\n# min={lo!r} max={hi!r}\n{f.grid.n} {f.grid.n}\n255\n"
    return header.encode("ascii") + scaled.tobytes()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _verification_json(reports) -> str:
    """verify all's report: each statement's EstimateReport fields and its
    verdict, keyed by the statement."""
    return _json_text({k: {**asdict(r), "passed": r.passed}
                       for k, r in reports.items()})


def _trajectory_csv(traj) -> str:
    """One row per step: t, the sup gap on each mask (sorted by name), the
    energy and the minimum density."""
    names = sorted(traj.gaps)
    lines = ["t," + ",".join(f"gap[{k}]" for k in names)
             + ",energy,min_density"]
    for i, t in enumerate(traj.times):
        row = [t] + [traj.gaps[k][i] for k in names] \
            + [traj.energy[i], traj.min_density[i]]
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _periods_csv(rows) -> str:
    """One row per curve of (g2, g3, w1, w2, tau, disc), each complex
    number as its real and imaginary parts."""
    lines = ["# g2_re,g2_im,g3_re,g3_im,w1_re,w1_im,w2_re,w2_im,"
             "tau_re,tau_im,disc_re,disc_im"]
    lines += [",".join(repr(v) for z in row for v in (z.real, z.imag))
              for row in rows]
    return "\n".join(lines) + "\n"


def _write_artifacts(out_dir, artifacts):
    """Write each {name: text or bytes} artifact into out_dir, in order:
    through a temp file in out_dir, renamed over the name, so a file is
    either its old bytes or all of its new ones."""
    os.makedirs(out_dir or ".", exist_ok=True)
    for name, data in artifacts.items():
        fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=name + ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data.encode() if isinstance(data, str) else data)
            os.replace(tmp, os.path.join(out_dir, name))
        except BaseException:
            os.unlink(tmp)
            raise


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
    _write_artifacts(cfg.output_dir, {
        "ke_solution.csv": _field_csv(sol.v),
        "ke_report.json": _json_text(_ke_report(report, sols))})
    print(f"solved at eps={sol.epsilon}: residual {sol.residual_sup:.3e}")
    return 0


def _cmd_flow_run(cfg: RunConfig, model, problem) -> int:
    _, state, traj, decay = target_flow(problem, cfg.flow["T"], cfg.flow["dt"])
    _write_artifacts(cfg.output_dir, {
        "trajectory.csv": _trajectory_csv(traj),
        "final_phi.csv": _field_csv(state.phi),
        "final_phi.pgm": _field_pgm(state.phi),
        "decay_report.json": _json_text(dict(decay))})
    final_gaps = {k: traj.gaps[k][-1] for k in traj.gaps}
    print(f"flow reached t={state.t:g}; final gaps: " + json.dumps(
        final_gaps, sort_keys=True))
    return 0


def _cmd_verify_all(cfg: RunConfig, model, problem) -> int:
    reports = run_verification_suite(model, problem, cfg.flow["T"],
                                     cfg.flow["dt"])
    _write_artifacts(cfg.output_dir, {
        "verification_report.json": _verification_json(reports)})
    all_pass = True
    for key in sorted(reports):
        status = "pass" if reports[key].passed else "FAIL"
        print(f"{key}: {status} (max violation {reports[key].max_violation:.3e})")
        all_pass &= reports[key].passed
    return 0 if all_pass else 2


def _cmd_periods(input_path, output_dir) -> int:
    try:
        with open(input_path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{input_path}: {exc}") from None
    rows = []
    for line_no, line in enumerate(lines, 1):
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
        curve = WeierstrassCurve(g2, g3)
        try:
            disc = discriminant(curve)
            w1, w2, tau = periods_from_weierstrass(curve)
        except ModelError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
        rows.append((g2, g3, w1, w2, tau, disc))
    _write_artifacts(output_dir, {"periods.csv": _periods_csv(rows)})
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
    of its dt that fit there when T is longer.  A dt that no horizon can
    take leaves T as it is, for the horizon rule to reject."""
    T = _read(flow, "T", "config.flow", _real)
    dt = _read(flow, "dt", "config.flow", _real)
    if T <= QUICK_T or dt <= 0.0 or QUICK_T / dt == math.inf:
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
    flow = {**DEFAULT_FLOW, **_read(d, "flow", "config", _mapping, {})}
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
    except (ConeflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
