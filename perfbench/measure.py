"""One workload run: set-up, the measured closed loop, failure accounting,
and the end-to-end or per-layer metrics it reports.

Import this module only after ``src/`` of the checkout is on ``sys.path``
and the BLAS/OpenMP thread variables are pinned (``run.py`` does both).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import workloads as wl
from kdiam import _kernels, geometry, graph
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
P90_MIN_CALLS = 100

END_TO_END = {"decide_s": "s", "naive_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# Spans reported as <name>.calls and <name>.self_s in the traced run.
SPANS = (
    "setup", "implicit.driver", "explicit.driver", "naive.driver",
    "implicit.expand_balls", "implicit.simulate_bfs", "order.build",
    "nsds.add_neighbours", "nsds.list_differences",
    "plane.init", "plane.mark", "plane.list_differences",
    "stripes.init", "stripes.mark_line", "stripes.list_differences",
    "explicit.expand_step", "explicit.rebase", "intervals.union_sweep",
    "kernels.eccentricities", "kernels.ball_mask", "kernels.bfs_distances",
    "geometry.intersection_graph_naive",
)
COUNTS = ("nsds.add_count", "nsds.list_count", "nsds.listed_elems",
          "plane.aux_nodes", "stripes.mark_nodes", "stripes.list_nodes",
          "implicit.delta_total", "explicit.interval_total",
          "intervals.union_in", "intervals.union_out")
# ratio -> (numerator, denominator), each a per-layer value or a count.
RATIOS = {
    "stripes.lines_per_mark": ("stripes.mark_line.calls", "plane.mark.calls"),
    "stripes.list_nodes_per_elem": ("stripes.list_nodes",
                                    "stripes.listed_elems"),
    "plane.aux_nodes_per_elem": ("plane.aux_nodes", "plane.listed_elems"),
}

# The host's speed drifts by tens of percent within seconds (other tenants
# share the cores; CPU time equals wall time, so it is not preemption).
# Every timed call is therefore bracketed by a fixed reference task and also
# reported in "reference seconds": wall time scaled by REFERENCE_S over the
# reference task's time around the call.  The task is a plain interpreter
# loop that never calls the library, so a library change moves the scaled
# time exactly as it moves wall time.  Raw wall times stay in the report.
REFERENCE_S = 0.010
REFERENCE_REPS = 2


def reference_task() -> float:
    """Mean wall time of the reference loop over REFERENCE_REPS runs (about
    10 ms each on a quiet 2 GHz Xeon core)."""
    total = 0.0
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        total += time.perf_counter() - t0
    return total / REFERENCE_REPS


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units["order.membership_queries"] = "count"
    units["order.membership.self_s"] = "s"
    units.update((name, "count") for name in COUNTS)
    units.update((name, "ratio") for name in RATIOS)
    units.update({"trace.overhead": "ratio", "trace.wall_s": "s",
                  "trace.self_sum_s": "s", "trace.unattributed_s": "s"})
    return units


def run_workload(workload: wl.Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Set up, measure for ``seconds`` and return the full report; its
    "metrics" are the end-to-end ones, or the per-layer ones if ``trace``."""
    tracer = Tracer() if trace else None
    run = _Run(workload, seed, tracer)
    run.set_up(1 if trace else SETUP_REPS)
    run.measure(seconds)

    calls = run.calls
    fast = [c["fast_ref_s"] for c in calls if "fast_ref_s" in c]
    naive = [c["naive_ref_s"] for c in calls if "naive_ref_s" in c]
    setup = [rep["ref_s"] for rep in run.setup_reps]
    report = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "trace": int(trace), "seconds": seconds,
        "instances_measured": run.instances_measured,
        "full_passes": run.passes, "measured_s": run.measured_s,
        "fast_algorithm": workload.fast_algorithm,
        "reference_s": REFERENCE_S, "env": environment(seed),
        "correct": bool(fast and naive) and not run.failures,
        "attempted": run.attempted, "failed": run.failed,
        "wrong_share": run.failed / max(run.attempted, 1),
        "failures": run.failures[:50],
        "samples": {"decide_s": len(fast), "naive_s": len(naive),
                    "setup_s": len(setup), "peak_rss_mb": 1},
        "calls": calls, "setup_reps": run.setup_reps,
    }
    if tracer is not None:
        report["metrics"], report["absent"] = layer_metrics(
            tracer, calls, run.trace_wall)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{workload.name}-seed{seed}-spans.npz"
        report["spans"] = {"file": str(spans.relative_to(ROOT)),
                           "count": tracer.dump(spans)}
        return report
    values = {"decide_s": _median(fast), "naive_s": _median(naive),
              "setup_s": _median(setup), "peak_rss_mb": peak_rss_mb()}
    report["metrics"] = {name: _metric(values[name], unit)
                         for name, unit in END_TO_END.items()}
    report["raw_wall_medians"] = {
        "decide_s": _median([c["fast_s"] for c in calls if "fast_ref_s" in c]),
        "naive_s": _median([c["naive_s"] for c in calls
                            if "naive_ref_s" in c]),
        "setup_s": _median([rep["wall_s"] for rep in run.setup_reps])}
    if len(fast) >= P90_MIN_CALLS:
        report["decide_s.p90"] = percentile(fast, 90)
    return report


class _Run:
    """State of one workload run: instances, oracle diameters, per-call
    records and failure accounting."""

    def __init__(self, workload: wl.Workload, seed: int, tracer):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.instances: list[wl.Instance] = []
        self.setup_reps: list[dict] = []
        self.calls: list[dict] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.instances_measured = 0
        self.measured_s = 0.0
        self.trace_wall = 0.0
        self._diameters: dict[int, int | None] = {}

    def set_up(self, reps: int) -> None:
        """Import, generate and round-trip the instances ``reps`` times; the
        same seed must give the same instances every time."""
        workdir = OUT / f"roundtrip-{os.getpid()}"

        def build():
            return wl.roundtrip(self.workload.generate(self.seed), workdir)

        for rep in range(reps):
            ref_before = reference_task()
            import_s = child_import_seconds()
            t0 = time.perf_counter()
            if self.tracer is None:
                made = build()
            else:
                with self.tracer.active():
                    made = self.tracer.root("setup", build)
                self.trace_wall += time.perf_counter() - t0
            wall = import_s + time.perf_counter() - t0
            ref_after = reference_task()
            self.setup_reps.append({
                "wall_s": wall, "import_s": import_s,
                "ref_s": wall * 2 * REFERENCE_S / (ref_before + ref_after)})
            if self.instances and \
                    list(map(instance_text, made)) != \
                    list(map(instance_text, self.instances)):
                self.failures.append({"what": "setup", "rep": rep,
                                      "error": "same seed, other instances"})
            self.instances = made

    def measure(self, seconds: float) -> None:
        """Instances in order, every k and both paths of one instance at a
        time, starting the next instance while the time left is at least
        what the last one took (and measuring at least one).  Wraps around
        to a new pass if every instance was measured."""
        clock = time.perf_counter
        started = clock()
        ref_prev = reference_task()
        i = 0
        while True:
            inst_start = clock()
            ref_prev = self._measure_instance(i, ref_prev)
            self.instances_measured += 1
            i = (i + 1) % len(self.instances)
            if i == 0:
                self.passes += 1
            now = clock()
            if now - started + (now - inst_start) > seconds:
                break
        self.measured_s = clock() - started

    def _measure_instance(self, i: int, ref_prev: float) -> float:
        """Every k of instance ``i``, the naive path then the fast path, with
        a reference-task run after each (instance, k) pair.  The short naive
        call is scaled by the reference run just before it, the fast call by
        the mean of the runs around it.  Returns the last reference time."""
        inst = self.instances[i]
        diameter = self._diameter(i, inst)
        ks = () if diameter is None else wl.k_values(diameter)
        for k in ks:
            rec = {"instance": i, "n": inst.n, "k": k, "pass": self.passes}
            for path in ("naive", "fast"):
                self._call(path, inst, k, diameter, rec)
            ref_next = reference_task()
            rec["reference_s"] = (ref_prev, ref_next)
            if "naive_s" in rec:
                rec["naive_ref_s"] = rec["naive_s"] * REFERENCE_S / ref_prev
            if "fast_s" in rec:
                rec["fast_ref_s"] = (rec["fast_s"] * 2 * REFERENCE_S
                                     / (ref_prev + ref_next))
            ref_prev = ref_next
            self.calls.append(rec)
        return ref_prev

    def _diameter(self, i: int, inst: wl.Instance) -> int | None:
        """Oracle diameter, computed once per instance outside the timers."""
        if i not in self._diameters:
            try:
                self._diameters[i] = graph.diameter_naive(inst.oracle_graph())
            except Exception as exc:  # counted, never fatal
                self._diameters[i] = None
                self._fail({"what": "oracle", "instance": inst.label,
                            "error": repr(exc)})
        return self._diameters[i]

    def _fail(self, item: dict) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(item)

    def _call(self, path: str, inst: wl.Instance, k: int, diameter: int,
              rec: dict) -> None:
        """One timed call on ``path`` ("fast" or "naive"), checked against
        the oracle; in a traced run, followed by its traced twin."""
        want = diameter <= k
        rng_seed = (self.seed, rec["instance"], k, rec["pass"])
        where = {"what": path, "instance": inst.label, "k": k,
                 "pass": rec["pass"], "expected": want}
        try:
            t0 = time.perf_counter()
            if path == "fast":
                answer, _ = wl.fast_decide(inst, k, rng_seed)
            else:
                answer = wl.naive_decide(inst, k)
            rec[f"{path}_s"] = time.perf_counter() - t0
        except Exception as exc:  # counted, never fatal
            return self._fail(dict(where, error=repr(exc)))
        if bool(answer) != want:
            return self._fail(dict(where, error=f"answered {answer}"))
        if self.tracer is None:
            self.attempted += 1
            return None
        tracer = self.tracer
        try:
            with tracer.active():
                t0 = time.perf_counter()
                if path == "fast":
                    answer, made = tracer.root(
                        f"{self.workload.fast_algorithm}.driver",
                        wl.fast_decide, inst, k, rng_seed, tracer)
                    tracer.harvest(made)
                else:
                    answer = tracer.root("naive.driver", wl.naive_decide,
                                         inst, k)
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # counted, never fatal
            return self._fail(dict(where, error=f"traced: {exc!r}"))
        self.trace_wall += elapsed
        rec[f"{path}_traced_s"] = elapsed
        if bool(answer) != want:
            return self._fail(dict(where, error=f"traced answered {answer}"))
        self.attempted += 1
        return None


def child_import_seconds() -> float:
    """Wall time of ``import kdiam`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import kdiam; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout.strip())


def instance_text(inst: wl.Instance) -> str:
    if inst.graph is not None:
        return graph.format_edge_list(inst.graph)
    return geometry.format_points(inst.points)


def layer_metrics(tracer: Tracer, calls: list, trace_wall: float):
    """Per-layer metrics of a traced run, and the names marked absent."""
    values = {}
    totals = tracer.span_totals()
    for span in SPANS:
        values[f"{span}.calls"], values[f"{span}.self_s"] = \
            totals.get(span, (0, 0.0))
    values["order.membership_queries"], values["order.membership.self_s"] = \
        totals.get("order.membership", (0, 0.0))
    for name in COUNTS:
        values[name] = tracer.counts.get(name, 0)
    for name, (num, den) in RATIOS.items():
        top = values.get(num, tracer.counts.get(num, 0))
        bottom = values.get(den, tracer.counts.get(den, 0))
        values[name] = top / bottom if bottom else 0.0
    ratios = [c["fast_traced_s"] / c["fast_s"] for c in calls
              if "fast_traced_s" in c]
    self_sum = sum(s for _, s in totals.values())
    values["trace.overhead"] = _median(ratios)
    values["trace.wall_s"] = trace_wall
    values["trace.self_sum_s"] = self_sum
    values["trace.unattributed_s"] = trace_wall - self_sum
    units = per_layer_units()
    absent = sorted(name for name in units
                    if any(name.startswith(a) for a in tracer.absent))
    return {name: _metric(values[name], unit)
            for name, unit in units.items()}, absent


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "kernel_backend": _kernels.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith("_THREADS")},
        "seed": seed,
    }


def print_summary(report: dict) -> None:
    mode = "traced" if report["trace"] else "untraced"
    print(f"== {report['workload']} seed={report['seed']} ({mode}, "
          f"{report['instances_measured']} instances, "
          f"{report['measured_s']:.1f} s measured, fast path "
          f"{report['fast_algorithm']})")
    print(f"   env: {json.dumps(report['env'], sort_keys=True)}")
    metrics = report["metrics"]
    if report["trace"]:
        for name, metric in metrics.items():
            print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
        print(f"   sum of self times {metrics['trace.self_sum_s']['value']:.4f}"
              f" s vs traced wall {metrics['trace.wall_s']['value']:.4f} s")
        if report["absent"]:
            print(f"   absent (hook target missing): "
                  f"{', '.join(report['absent'])}")
    else:
        samples, raw = report["samples"], report["raw_wall_medians"]
        what = {"decide_s": "median of fast-path calls",
                "naive_s": "median of naive calls",
                "setup_s": "median of set-ups",
                "peak_rss_mb": "ru_maxrss of this process"}
        for name, metric in metrics.items():
            wall = f", raw wall {raw[name]:.6g} s" if name in raw else ""
            print(f"   {name:<14} {metric['value']:>12.6g} {metric['unit']:<5}"
                  f" n={samples[name]:<4} {what[name]}{wall}")
        p90 = report.get("decide_s.p90")
        p90_text = "n/a" if p90 is None else f"{p90:.6g}"
        print(f"   {'decide_s.p90':<14} {p90_text:>12} {'s':<5} "
              f"n={samples['decide_s']:<4} nearest-rank, only with >= "
              f"{P90_MIN_CALLS} calls")
        print(f"   times in reference seconds: wall time x {REFERENCE_S} s /"
              f" reference task time around each call")
    print(f"   {'wrong_share':<14} {report['wrong_share']:>12.6g} {'ratio':<5}"
          f" n={report['attempted']:<4} {report['failed']} failed of "
          f"{report['attempted']} calls")
    for item in report["failures"][:5]:
        print(f"   FAILED: {json.dumps(item)}")
