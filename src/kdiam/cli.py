"""Batch driver: instance generation, algorithm runs, cross-verification and
benchmark emission.

Instances are either edge-list graph files or point CSVs (optionally with a
polygon CSV for non-square shapes).  Reports are JSON; benchmarks are CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger("kdiam")

from . import _kernels, explicit, implicit
from . import bench as bench_mod
from . import gen as gen_mod
from .geometry import (axis_square, format_points, format_polygon,
                       intersection_graph_naive, load_points, load_polygon)
from .graph import (DisconnectedGraphError, Graph, diameter_naive,
                    diameter_upto, format_edge_list, is_connected,
                    load_edge_list)
from .nsds import MaskNeighbourSets
from .plane import geometric_nsds


@dataclass
class RunReport:
    instance: str
    algorithm: str
    k: int
    d: int
    seed: int
    answer: bool
    wall_seconds: float
    counters: dict = field(default_factory=dict)


class UsageError(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _load_instance(args):
    """Returns (kind, payload): ('graph', Graph) or ('points', (pts, shape))."""
    path = Path(args.input)
    kind = getattr(args, "kind", None) or _sniff_kind(path)
    if kind == "graph":
        return "graph", load_edge_list(path)
    pts = load_points(path)
    shape = load_polygon(args.polygon) if getattr(args, "polygon", None) \
        else axis_square(1.0)
    return "points", (pts, shape)


def _sniff_kind(path: Path) -> str:
    first = next(iter(path.read_text().splitlines()), "")
    return "points" if "," in first else "graph"


def _check_gen(args) -> None:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.generator == "sparse-graph" and args.m is None:
        raise UsageError("sparse-graph needs --m")
    if args.generator == "polygon-points" \
            and (args.sides < 4 or args.sides % 2):
        raise UsageError(f"--sides must be even and >= 4, got {args.sides}")
    for flag, value in (("--box", args.box), ("--radius", args.radius)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise UsageError(f"{flag} must be finite and > 0, got {value}")


def cmd_gen(args):
    _check_gen(args)
    rng = np.random.default_rng(args.seed)
    out = Path(args.output)
    box = args.box if args.box is not None else gen_mod.default_box(args.n)
    # with an explicit box the density is the caller's choice, so neither
    # point generator retries for connectivity; the default box targets it
    connected = args.box is None
    try:  # an edge count out of range, or no connected draw in the box
        if args.generator == "sparse-graph":
            text = format_edge_list(
                gen_mod.random_connected_graph(args.n, args.m, rng))
        elif args.generator == "unit-squares":
            text = format_points(gen_mod.random_unit_square_points(
                args.n, box, rng, require_connected=connected))
        else:
            shape = gen_mod.random_symmetric_polygon(args.sides // 2, rng,
                                                     radius=args.radius)
            text = format_points(gen_mod.random_points_for_shape(
                args.n, shape, box, rng, require_connected=connected))
    except (ValueError, RuntimeError) as exc:
        raise UsageError(str(exc)) from None
    out.write_text(text)
    if args.generator == "polygon-points":
        poly_out = Path(args.polygon_output or out.with_suffix(".poly.csv"))
        poly_out.write_text(format_polygon(shape))
        print(f"wrote {out} and {poly_out}")
    else:
        print(f"wrote {out}")
    return 0


# Every algorithm needs a finite diameter.  load_edge_list checks an edge
# list; a point instance is checked on what the algorithm builds from it.
def _materialize(kind, payload) -> Graph:
    if kind == "graph":
        return payload
    g = intersection_graph_naive(*payload)
    if not is_connected(g):
        raise DisconnectedGraphError("intersection graph is disconnected")
    return g


def _nsds(kind, payload) -> MaskNeighbourSets:
    if kind == "graph":
        return MaskNeighbourSets.from_graph(payload)
    nsds = geometric_nsds(*payload)
    # a BFS on a fresh structure over the same masks leaves the counters of
    # the returned one at zero
    reached = implicit.simulate_bfs(MaskNeighbourSets(nsds.closed), 0)
    if len(reached) != nsds.n:
        raise DisconnectedGraphError("intersection graph is disconnected")
    return nsds


def _check_k_d(what: str, k: int, k_min: int, d: int) -> None:
    if k < k_min:
        raise UsageError(f"{what} needs k >= {k_min}")
    if d < 2:
        raise UsageError(f"d must be >= 2, got {d}")


def run_algorithm(algorithm, kind, payload, k, d, seed) -> RunReport:
    # naive ignores d but rejects a bad one too, like the other algorithms.
    _check_k_d(f"{algorithm} algorithm", k, 0 if algorithm == "naive" else 1,
               d)
    start = time.perf_counter()
    found, counters = _found_diameter(algorithm, kind, payload, k, d, seed)
    wall = time.perf_counter() - start
    return RunReport("", algorithm, k, d, seed,
                     found is not None and found <= k, wall, counters)


def _format_report(report: RunReport, fmt: str) -> str:
    payload = asdict(report)
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    counters = payload.pop("counters")
    payload.update(counters)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(payload.keys()))
    writer.writeheader()
    writer.writerow(payload)
    return buf.getvalue()


def cmd_diam(args):
    try:
        kind, payload = _load_instance(args)
    except (OSError, ValueError) as exc:  # unreadable, malformed, disconnected
        raise UsageError(f"{args.input}: {exc}") from None
    try:
        report = run_algorithm(args.algo, kind, payload, args.k, args.d,
                               args.seed)
    except DisconnectedGraphError as exc:  # a disconnected point instance
        raise UsageError(f"{args.input}: {exc}") from None
    report.instance = str(args.input)
    log.info("diam %s on %s: %s in %.3fs", args.algo, args.input,
             report.answer, report.wall_seconds)
    text = _format_report(report, args.format)
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return 0


def _found_diameter(algo, kind, payload, k_max, d, seed, g=None):
    """What one run of ``algo`` says about the diameter, and its counters.
    Naive gives the diameter, a fast path the first full radius of one
    sweep to ``k_max`` (None when none is full).  Either way the answer for
    k is ``found <= k``.  Naive and explicit run on ``g``, the instance's
    graph, built here when it is None; implicit builds its own structure.
    """
    rng = np.random.default_rng(seed)
    if algo == "implicit":
        nsds = _nsds(kind, payload)
        found = diameter_upto(implicit.radius_steps(nsds, nsds.n, d, rng),
                              k_max)
        return found, {"n": nsds.n, "add_neighbours": nsds.add_count,
                       "list_differences": nsds.list_count}
    if algo not in ("naive", "explicit"):
        raise UsageError(f"unknown algorithm {algo!r}")
    if g is None:
        g = _materialize(kind, payload)
    if algo == "naive":
        found = diameter_naive(g)
    else:
        found = diameter_upto(explicit.radius_steps(g, d, rng), k_max)
    return found, {"n": g.n, "m": g.m}


def cmd_verify(args):
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.n_max < 3:
        raise UsageError(f"--n-max must be >= 3, got {args.n_max}")
    for algo in args.algos:
        _check_k_d(f"{algo} algorithm", args.k_min,
                   0 if algo == "naive" else 1, args.d)
    if args.k_max < args.k_min:
        raise UsageError(f"--k-max {args.k_max} is below --k-min {args.k_min}")
    rng = np.random.default_rng(args.seed)
    failures = []
    checked = 0
    for trial in range(args.trials):
        seed = int(rng.integers(0, 2 ** 31))
        if args.generator == "sparse-graph":
            n = int(rng.integers(3, args.n_max + 1))
            m_max = min(n * (n - 1) // 2, 3 * n)
            m = int(rng.integers(n - 1, m_max + 1))
            kind, payload = "graph", gen_mod.random_connected_graph(
                n, m, np.random.default_rng(seed))
        else:
            n = int(rng.integers(3, args.n_max + 1))
            pts = gen_mod.random_unit_square_points(
                n, gen_mod.default_box(n), np.random.default_rng(seed))
            kind, payload = "points", (pts, axis_square(1.0))
        # naive and explicit reuse the trial's graph; implicit keeps the
        # points so that it builds its own structure.  Every algorithm is
        # checked against the per-source BFS oracle.
        g = _materialize(kind, payload)
        diam = int(_kernels.eccentricities(*g.csr).max())
        found = {algo: _found_diameter(algo, kind, payload, args.k_max,
                                       args.d, seed, g)[0]
                 for algo in args.algos}
        for k in range(args.k_min, args.k_max + 1):
            want = diam <= k
            for algo in args.algos:
                got = found[algo] is not None and found[algo] <= k
                checked += 1
                if got != want:
                    failures.append({"trial": trial, "seed": seed, "k": k,
                                     "algorithm": algo, "expected": want,
                                     "got": got})
    summary = {"instances": args.trials, "checks": checked,
               "failures": failures}
    print(json.dumps(summary, indent=2))
    if failures:
        return 1
    return 0


def cmd_bench(args):
    _check_k_d("bench", args.k, 1, args.d)
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = [r.as_dict() for r in bench_mod.scaling_rows(
        args.kind, sizes, args.k, args.d, args.seed)]
    if len(sizes) >= 2:
        slope = bench_mod.loglog_slope([r["n"] for r in rows],
                                       [r["diff_sum"] for r in rows])
        print(f"# diff_sum log-log slope: {slope:.3f}", file=sys.stderr)
    out = Path(args.output).open("w", newline="") if args.output else sys.stdout
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    if args.output:
        out.close()
        print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kdiam",
        description="Bounded-VC-dimension k-diameter toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a deterministic instance file")
    g.add_argument("generator",
                   choices=["sparse-graph", "unit-squares", "polygon-points"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, help="edge count (sparse-graph)")
    g.add_argument("--box", type=float, help="bounding box side (geometric)")
    g.add_argument("--sides", type=int, default=6,
                   help="polygon side count (even)")
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", required=True)
    g.add_argument("--polygon-output")
    g.set_defaults(func=cmd_gen)

    d = sub.add_parser("diam", help="decide whether diameter <= k")
    d.add_argument("--algo", choices=["naive", "explicit", "implicit"],
                   required=True)
    d.add_argument("--input", required=True)
    d.add_argument("--kind", choices=["graph", "points"])
    d.add_argument("--polygon", help="polygon CSV for point instances")
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--d", type=int, default=4)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--output")
    d.add_argument("--format", choices=["json", "csv"], default="json")
    d.set_defaults(func=cmd_diam)

    v = sub.add_parser("verify",
                       help="check every algorithm against the oracle")
    v.add_argument("--generator", default="unit-squares",
                   choices=["sparse-graph", "unit-squares"])
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--n-max", type=int, default=40)
    v.add_argument("--k-min", type=int, default=1)
    v.add_argument("--k-max", type=int, default=4)
    v.add_argument("--d", type=int, default=4)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--algos", nargs="+",
                   choices=["naive", "explicit", "implicit"],
                   default=["naive", "explicit", "implicit"])
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="order difference-sum scaling (CSV)")
    b.add_argument("--kind", default="unit-squares",
                   choices=["unit-squares", "sparse-graph"])
    b.add_argument("--sizes", default="200,400,800,1600")
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--d", type=int, default=4)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--output")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("KDIAM_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
