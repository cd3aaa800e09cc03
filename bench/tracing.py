"""Spans around the public entry points of the coneflow modules.

The tracer wraps each entry point from outside the package: a plain
function is rebound at every import site (every ``coneflow`` module whose
namespace holds the same function object, which covers ``from .x import f``
as well as ``module.f`` lookups), and a method is rebound on its class.
``remove`` restores the originals, so one process can run an untraced solve
and then a traced one.

Each call records one span ``[layer, start, end, parent, count]`` in memory.
``count`` is the layer's work count for that call (grid points, CG or Newton
iterations, ladder rungs), read from the arguments or the return value.
Self time is a span's duration minus that of its direct children.
"""

import importlib
import sys
from time import perf_counter


def _size(a):
    return int(getattr(a, "size", 1))


def _grid_points(grid):
    return int(grid.n) * int(grid.n)


# (layer name, defining module, attribute, count name, count from (args, result))
LAYERS = (
    ("torus_field.lap_values", "torus_field", "lap_values",
     "points", lambda a, r: _size(a[0])),
    ("torus_field.solve_poisson_values", "torus_field", "solve_poisson_values",
     "points", lambda a, r: _size(a[0])),
    ("torus_field.green_values", "torus_field", "green_values",
     "points", lambda a, r: _grid_points(a[0])),
    ("elliptic_periods.tau_field", "elliptic_periods", "tau_field",
     "points", lambda a, r: _grid_points(a[1])),
    ("cone_smoothing.chi_values", "cone_smoothing", "chi_values",
     "points", lambda a, r: _size(a[1])),
    ("fibration_model.build_background", "fibration_model", "build_background",
     None, None),
    ("fibration_model.assemble_density", "fibration_model", "assemble_density",
     None, None),
    ("fibration_model.required_area", "fibration_model", "required_area",
     None, None),
    ("fibration_model.validate_lp", "fibration_model", "validate_lp",
     None, None),
    ("ke_solver.preconditioned_cg", "ke_solver", "preconditioned_cg",
     "iters", lambda a, r: int(r[1])),
    ("ke_solver.newton_solve", "ke_solver", "newton_solve",
     "iters", lambda a, r: int(r.newton_iters)),
    ("ke_solver.continuation_solve", "ke_solver", "continuation_solve",
     "rungs", lambda a, r: len(r[1].epsilons)),
    ("ke_solver.extrapolated_solution", "ke_solver", "extrapolated_solution",
     None, None),
    ("flow_engine.run_flow", "flow_engine", "run_flow", None, None),
    ("flow_engine.flow_step", "flow_engine", "flow_step", None, None),
    ("flow_engine.FlowOps.rhs_values", "flow_engine", "FlowOps.rhs_values",
     None, None),
    ("estimates.sigma_barrier", "estimates", "sigma_barrier", None, None),
    ("estimates.trace_field", "estimates", "trace_field", None, None),
    ("estimates.fit_trace_constants", "estimates", "fit_trace_constants",
     None, None),
    ("estimates.verify_trace_bound", "estimates", "verify_trace_bound",
     None, None),
    ("estimates.ricci_residual", "estimates", "ricci_residual", None, None),
    ("estimates.cone_angle", "estimates", "cone_angle", None, None),
    ("estimates.multiplicity_exponent", "estimates", "multiplicity_exponent",
     None, None),
    ("estimates.verify_c0_convergence", "estimates", "verify_c0_convergence",
     None, None),
    ("verify.run_verification_suite", "verify", "run_verification_suite",
     None, None),
    ("cli.main", "cli", "main", None, None),
)

LAYER_NAMES = tuple(layer[0] for layer in LAYERS)
COUNT_NAMES = {layer[0]: layer[3] for layer in LAYERS if layer[3]}

# Counts that must repeat exactly between two solves of the same inputs.
DETERMINISTIC = ("ke_solver.newton_solve", "ke_solver.preconditioned_cg",
                 "cone_smoothing.chi_values", "elliptic_periods.tau_field")


class Tracer:
    """Wraps the named layers while installed and records one span per call."""

    def __init__(self, names):
        unknown = set(names) - set(LAYER_NAMES)
        if unknown:
            raise ValueError(f"unknown layers {sorted(unknown)}")
        self.layers = [layer for layer in LAYERS if layer[0] in names]
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, index, fn, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [index, perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if count is not None:
                rec[4] = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for index, (name, module, attr, _, count) in enumerate(self.layers):
            mod = importlib.import_module("coneflow." + module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._restore.append((owner, meth, original))
                setattr(owner, meth, self._wrap(index, original, count))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(index, original, count)
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "coneflow"
                                     or mname.startswith("coneflow.")):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)
        return self

    def remove(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def name(self, rec):
        return self.layers[rec[0]][0]

    def layer_totals(self, first=0):
        """{layer: {"calls", "self_s", <count name>}} over the spans from
        index `first` on."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        totals = {}
        for i, rec in enumerate(self.spans[first:], first):
            name = self.name(rec)
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0})
            t["calls"] += 1
            t["self_s"] += (rec[2] - rec[1]) - child[i]
            t["count"] += rec[4]
        for name, _, _, count_name, _ in self.layers:
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0})
            if count_name:
                t[count_name] = t["count"]
            del t["count"]
        return totals

    def deterministic_counts(self, first=0):
        totals = self.layer_totals(first)
        return {name: [totals[name]["calls"], totals[name][COUNT_NAMES[name]]]
                for name in DETERMINISTIC if name in totals}

    def op_samples(self, enclosing, entry):
        """(start, duration) of the ops of each `enclosing` span: from one
        `entry` call's start to the next, the last one closed by the
        enclosing span's end."""
        out = []
        encl = [r for r in self.spans if self.name(r) == enclosing]
        starts = [r[1] for r in self.spans if self.name(r) == entry]
        for r in encl:
            inner = [t for t in starts if r[1] <= t <= r[2]] + [r[2]]
            out.extend((a, b - a) for a, b in zip(inner, inner[1:]))
        return out

    def line_search_trials(self):
        """(trials, accepted Newton steps) summed over flow_step spans.

        A backward-Euler step with k accepted Newton steps calls rhs_values
        once for the predictor, once per residual (k + 1) and once per
        line-search trial that kept the density positive, and CG k times.
        """
        rhs = {}
        cg = {}
        for rec in self.spans:
            name = self.name(rec)
            if name == "flow_engine.FlowOps.rhs_values":
                rhs[rec[3]] = rhs.get(rec[3], 0) + 1
            elif name == "ke_solver.preconditioned_cg":
                cg[rec[3]] = cg.get(rec[3], 0) + 1
        trials = steps = 0
        for i, rec in enumerate(self.spans):
            if self.name(rec) == "flow_engine.flow_step":
                k = cg.get(i, 0)
                trials += rhs.get(i, 0) - k - 2
                steps += k
        return trials, steps

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, count."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(f'["{self.name(rec)}",{rec[1]!r},{rec[2]!r},'
                         f'{rec[3]},{rec[4]}]\n')


def span_cost(calls=20000):
    """Seconds one traced call adds, timed on a no-op (best of 3)."""
    def noop():
        return None

    wrapped = Tracer([])._wrap(0, noop, None)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (perf_counter() - t1) - (t1 - t0))
    return best / calls
