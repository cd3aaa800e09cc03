"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0  Set-up is timed here and in two fresh child processes; setup_s is
           the median.  The solve is then repeated while another solve of
           the median length still fits in S seconds (at least once), with
           the reference probe running, and the end-to-end metrics are
           printed.  Only the op entry point and the deterministic counters
           are hooked.
--trace 1  One solve with the same light hooks, then one with every layer
           traced.  Prints the per-layer metrics of the traced solve and the
           tracing overhead (traced minus untraced solve_s), and writes the
           spans to bench/results/.

Every run gates its result (see workloads.py) and, whenever it made two
solves, checks that their Newton, CG, chi_values and tau_field counts agree.
The full record (environment, gates, counts, op percentiles) goes to
bench/results/<workload>-seed<N>-trace<T>.json.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from bisect import bisect_left, bisect_right
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
SETUP_CHILDREN = 2

# One process with at most two BLAS threads, unless the caller says otherwise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "2")
sys.path.insert(0, SRC)

from tracing import (COUNT_NAMES, DETERMINISTIC, LAYER_NAMES,  # noqa: E402
                     Tracer, span_cost)
from workloads import OP, WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print {\"setup_s\": ...} and exit")
    return p.parse_args(argv)


def timed_setup(workload, seed, workdir):
    t0 = perf_counter()
    state = workload.setup(seed, workdir)
    return perf_counter() - t0, state


def child_setup_times(args):
    times = []
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=170, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class ReferenceProbe:
    """Times a fixed reference kernel every 50 ms (SIGALRM) while active.

    The kernel is two 128x128 FFT round trips and a short pure-Python loop,
    the two kinds of work the solvers do.  On a VM whose speed swings with
    its neighbours' load, time divided by the kernel's time measured next
    to it (a cost in "ref" units) is steady where seconds are not.  One
    sample is taken on entry, so there is always one.
    """

    INTERVAL_S = 0.05
    WINDOW_S = 0.5

    def __init__(self):
        import numpy as np
        import scipy.fft
        self._fft = scipy.fft
        self._field = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
        self.starts = []
        self.durations = []
        self.end = None

    def _kernel(self, signum=None, frame=None):
        t0 = perf_counter()
        for _ in range(2):
            self._fft.ifft2(self._fft.fft2(self._field)).real
        x = 0.0
        for i in range(1500):
            x += i * 0.5
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._kernel()
        signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.end = perf_counter()

    def _range(self, a, b):
        return bisect_left(self.starts, a), bisect_right(self.starts, b)

    def own_time(self, a, b):
        """Time spent in the kernel itself between a and b."""
        i, j = self._range(a, b)
        return sum(self.durations[i:j])

    def solve_ref(self):
        """The whole active span less the kernel's own time, each stretch
        between two samples divided by the sample before it."""
        ends = self.starts[1:] + [self.end]
        return sum((nxt - t - d) / d
                   for t, d, nxt in zip(self.starts, self.durations, ends))

    def op_ref(self, start, net):
        """An op's time (kernel time already taken out) divided by the mean
        kernel time within WINDOW_S of it."""
        i, j = self._range(start - self.WINDOW_S, start + net + self.WINDOW_S)
        if i == j:
            i, j = max(i - 1, 0), max(i, 1)
        return net / statistics.fmean(self.durations[i:j])


def run_solve(workload, state, tracer, probed=False):
    """One timed solve under an installed tracer; returns its record.

    With `probed`, the reference probe runs during the solve.  Its own time
    is taken out of solve_s and of every op, and the record gains the
    solve and its ops in ref units.
    """
    first = len(tracer.spans)
    gates = []

    def gate(name, ok, detail):
        gates.append({"check": name, "ok": bool(ok), "detail": detail})

    notes = None
    probe = ReferenceProbe() if probed else None
    t0 = perf_counter()
    try:
        if probe:
            with probe:
                notes = workload.solve(state, gate)
        else:
            notes = workload.solve(state, gate)
    except Exception:
        gate("completed", False, traceback.format_exc())
    solve_s = perf_counter() - t0
    ops = tracer.op_samples(*OP)
    record = {"gates": gates, "notes": notes,
              "counts": tracer.deterministic_counts(first)}
    if probe:
        solve_s -= probe.own_time(t0, probe.end)
        ops = [(a, d - probe.own_time(a, a + d)) for a, d in ops]
        record["solve_ref"] = probe.solve_ref()
        record["ops_ref"] = [probe.op_ref(a, d) for a, d in ops]
        record["ref_ms"] = 1e3 * statistics.fmean(probe.durations)
    record["solve_s"] = solve_s
    record["ops_s"] = [d for _, d in ops]
    return record


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are ten or fewer."""
    s = sorted(samples)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def end_to_end(setup_times, solves):
    """Gated metrics, and the raw times behind them for the record.

    The op tail is recorded but not gated: even in ref units it spread
    0.1 to 0.23 (IQR over median) across ten runs, near or above the
    largest bound allowed.
    """
    # a solve that raised may leave no ops; its failed gate already says so
    ops_ref = [x for s in solves for x in s["ops_ref"]] or [0.0]
    ops_ms = [1e3 * t for s in solves for t in s["ops_s"]] or [0.0]
    tail_ref, pct = tail(ops_ref)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_ref": (statistics.median(s["solve_ref"] for s in solves),
                      "ref"),
        "op_ref.p50": (statistics.median(ops_ref), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {
        "setup_samples_s": setup_times,
        "solve_samples_s": [s["solve_s"] for s in solves],
        "solve_samples_ref": [s["solve_ref"] for s in solves],
        "ref_ms": [s["ref_ms"] for s in solves],
        "solve_s": statistics.median(s["solve_s"] for s in solves),
        "op_ms.p50": statistics.median(ops_ms),
        "op_ms.tail": tail(ops_ms)[0],
        "op_ref.tail": tail_ref,
        "op_samples": len(ops_ms),
        "op_tail_percentile": pct,
        "op_ms": ops_ms,
    }
    return metrics, detail


def per_layer(tracer, untraced_s, traced_s):
    metrics = {}
    for name, t in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = (t["calls"], "count")
        metrics[f"{name}.self_s"] = (t["self_s"], "s")
        if name in COUNT_NAMES:
            count = COUNT_NAMES[name]
            metrics[f"{name}.{count}"] = (t[count], "count")
    trials, steps = tracer.line_search_trials()
    metrics["flow_engine.flow_step.ls_trials_per_newton_step"] = (
        trials / steps if steps else 0.0, "ratio")
    metrics["flow_engine.flow_step.newton_steps"] = (steps, "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_est_s"] = (len(tracer.spans) * span_cost(),
                                       "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment():
    import numpy
    import scipy
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = out.stdout.strip() or None
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        d = os.path.join(base, index)
        if os.path.isfile(os.path.join(d, "size")):
            caches[f"L{_read(os.path.join(d, 'level'))} "
                   f"{_read(os.path.join(d, 'type'))}"] = \
                _read(os.path.join(d, "size"))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        **{var: os.environ.get(var) for var in (
            "CONEFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coneflow", "__init__.py")):
        print(f"error: no coneflow package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        setup_s, state = timed_setup(workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        light = sorted(set(DETERMINISTIC) | set(OP))
        start = perf_counter()
        probed = not args.trace
        with Tracer(light) as tracer:
            solves = [run_solve(workload, state, tracer, probed)]
        if args.trace:
            # set-up runs again under the full tracer so its layers show too
            with Tracer(LAYER_NAMES) as tracer:
                _, state = timed_setup(workload, args.seed, workdir)
                solves.append(run_solve(workload, state, tracer))
        else:
            while (perf_counter() - start
                   + statistics.median(s["solve_s"] for s in solves)
                   <= args.seconds):
                with Tracer(light) as tracer:
                    solves.append(run_solve(workload, state, tracer, probed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gates = [g for s in solves for g in s["gates"]]
    if len(solves) > 1:
        same = all(s["counts"] == solves[0]["counts"] for s in solves)
        gates.append({"check": "deterministic_counts", "ok": same,
                      "detail": [s["counts"] for s in solves]})
    if args.trace:
        metrics = per_layer(tracer, solves[0]["solve_s"], solves[1]["solve_s"])
        detail = {}
        tracer.dump(os.path.join(
            RESULTS, f"{args.workload}-seed{args.seed}.spans.jsonl"))
    else:
        metrics, detail = end_to_end([setup_s] + child_setup_times(args),
                                     solves)
    failed = sum(not g["ok"] for g in gates)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
        "fail_ratio": failed / len(gates),
        "gates": gates,
        "counts": solves[0]["counts"],
        "notes": solves[0]["notes"],
    }
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for g in gates:
        shown = "" if g["check"] == "deterministic_counts" else g["detail"]
        print(f"gate {g['check']}: {'ok' if g['ok'] else 'FAIL'} {shown}")
    print(json.dumps({k: result[k] for k in
                      ("fail_ratio", "counts", "notes", *detail) if k != "op_ms"}))
    print(json.dumps({"correct": failed == 0, "attempted": len(gates),
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
