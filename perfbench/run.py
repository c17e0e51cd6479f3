#!/usr/bin/env python3
"""Decide-time benchmark for kdiam.

    python3 perfbench/run.py --workload squares-dense --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py          # every workload, each in its own process

Run from the root of a source checkout: the library is imported from
``src/`` of that checkout, never from an installed copy.  One process runs
one workload as a closed loop, one decide call in flight and no worker
threads (BLAS/OpenMP pools are pinned to one thread).

A run generates its instances from ``--seed`` (set-up, timed several times),
then measures them in order until ``--seconds`` have passed.  Each
(instance, k) pair runs the naive path and the fast path, and both answers
are checked against ``diameter_naive(g) <= k``; a wrong answer or an
exception counts as failed and never stops the run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` follows every
call with a traced twin on the same rng seed and prints per-layer metrics
(calls, self time and the paper's counts) from hooks on the library's
module attributes.  The last line of standard output is one JSON object with
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full report
(environment, per-call samples, failures, absent hooks) and the spans go to
``perfbench/out/``.  The exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "kdiam" / "__init__.py").is_file():
        return fail(f"no library sources at {SRC}; run from a kdiam checkout")
    sys.path.insert(0, str(SRC))
    import kdiam
    if Path(kdiam.__file__).resolve().parent != SRC / "kdiam":
        return fail(f"imported kdiam from {kdiam.__file__}, not from {SRC}")
    import measure
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(WORKLOADS)}")
    report = measure.run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
    measure.OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (measure.OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    measure.print_summary(report)
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


def run_all(args, workloads) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    status, results = 0, {}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps({"workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
