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
from dataclasses import asdict
from pathlib import Path

import numpy as np

log = logging.getLogger("kdiam")

from . import _kernels, explicit, implicit
from . import bench as bench_mod
from . import gen as gen_mod
from .geometry import (axis_square, format_points, format_polygon,
                       intersection_graph_naive, parse_points, parse_polygon)
from .graph import (DisconnectedGraphError, Graph, diameter_naive,
                    diameter_upto, format_edge_list, is_connected,
                    parse_edge_list)
from .nsds import MaskNeighbourSets
from .plane import geometric_nsds


def _load(path, polygon=None):
    """The instance in file ``path``: a connected Graph for an edge list, or
    ``(points, shape)`` for a points CSV (a comma on the first non-blank
    line), ``shape`` being the polygon in file ``polygon`` (the unit square
    when None; an edge list takes none).  Points must be finite here; that
    they are distinct and their intersection graph connected is checked on
    the graph or structure the run builds (:func:`_found_diameter`).  A
    ValueError names the file at fault."""
    shape = _parse(polygon, parse_polygon) if polygon else None
    return _parse(path, _instance, shape)


def _parse(path, parse, *args):
    try:
        return parse(Path(path).read_text(), *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _instance(text: str, shape):
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    if "," not in first:
        if shape is not None:
            raise ValueError("an edge list takes no --polygon")
        g = parse_edge_list(text)
        if not is_connected(g):
            raise DisconnectedGraphError("graph is disconnected")
        return g
    return parse_points(text), shape or axis_square(1.0)


def _check_gen(args) -> None:
    n_min = 3 if args.generator == "apollonian" else 1
    if args.n < n_min:
        raise ValueError(f"--n must be >= {n_min}, got {args.n}")
    if args.generator == "sparse-graph" and args.m is None:
        raise ValueError("sparse-graph needs --m")
    if args.generator == "polygon-points" \
            and (args.sides < 4 or args.sides % 2):
        raise ValueError(f"--sides must be even and >= 4, got {args.sides}")
    for flag, value in (("--box", args.box), ("--radius", args.radius)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and > 0, got {value}")


def cmd_gen(args):
    _check_gen(args)
    # An Apollonian series draws size n from [seed, n]: one seed, a graph
    # per size.
    rng = np.random.default_rng(
        [args.seed, args.n] if args.generator == "apollonian" else args.seed)
    out = Path(args.output)
    box = args.box if args.box is not None else gen_mod.default_box(args.n)
    # with an explicit box the density is the caller's choice, so neither
    # point generator retries for connectivity; the default box targets it
    connected = args.box is None
    if args.generator == "sparse-graph":
        text = format_edge_list(
            gen_mod.random_connected_graph(args.n, args.m, rng))
    elif args.generator == "apollonian":
        text = format_edge_list(gen_mod.random_apollonian(args.n, rng))
    elif args.generator == "unit-squares":
        text = format_points(gen_mod.random_unit_square_points(
            args.n, box, rng, require_connected=connected))
    else:
        shape = gen_mod.random_symmetric_polygon(args.sides // 2, rng,
                                                 radius=args.radius)
        text = format_points(gen_mod.random_points_for_shape(
            args.n, shape, box, rng, require_connected=connected))
    out.write_text(text)
    if args.generator == "polygon-points":
        poly_out = Path(args.polygon_output or out.with_suffix(".poly.csv"))
        try:
            poly_out.write_text(format_polygon(shape))
        except OSError:
            out.unlink()  # a failed run leaves no partial output
            raise
        print(f"wrote {out} and {poly_out}")
    else:
        print(f"wrote {out}")
    return 0


def _check_k_d(what: str, k: int, k_min: int, d: int) -> None:
    if k < k_min:
        raise ValueError(f"{what} needs k >= {k_min}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")


def _csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _write(text: str, output) -> None:
    """``text`` to the file ``output``, or to stdout when it is None."""
    if output:
        Path(output).write_text(text)
    else:
        print(text, end="")


def cmd_diam(args):
    # naive ignores d but rejects a bad one too, like the other algorithms.
    _check_k_d(f"{args.algo} algorithm", args.k,
               0 if args.algo == "naive" else 1, args.d)
    inst = _load(args.input, args.polygon)
    start = time.perf_counter()
    try:
        found, counters = _found_diameter(args.algo, inst, args.k, args.d,
                                          args.seed)
    except ValueError as exc:
        # a point instance is checked as the run builds its graph or
        # structure; the fault is the input file's
        raise ValueError(f"{args.input}: {exc}") from None
    report = {"instance": str(args.input), "algorithm": args.algo,
              "k": args.k, "d": args.d, "seed": args.seed,
              "answer": found is not None and found <= args.k,
              "wall_seconds": time.perf_counter() - start}
    log.info("diam %s on %s: %s in %.3fs", args.algo, args.input,
             report["answer"], report["wall_seconds"])
    text = json.dumps({**report, "counters": counters}, indent=2) + "\n" \
        if args.format == "json" else _csv([{**report, **counters}])
    _write(text, args.output)
    return 0


def _found_diameter(algo, inst, k_max, d, seed):
    """What one run of ``algo`` on ``inst`` (a Graph or ``(points, shape)``)
    says about the diameter, and its counters.  Naive gives the diameter, a
    fast path the first full radius of one sweep to ``k_max`` (None when
    none is full).  Either way the answer for k is ``found <= k``.  Naive
    and explicit build the graph of a point instance, implicit its own
    structure, once; the builder rejects equal points, and a disconnected
    graph raises DisconnectedGraphError.
    """
    rng = np.random.default_rng(seed)
    if algo == "implicit":
        if isinstance(inst, Graph):
            nsds = MaskNeighbourSets.from_graph(inst)
        else:
            nsds = geometric_nsds(*inst)
            # a BFS on the structure; the counters then restart, so that
            # the report counts the sweep alone
            _check_connected(len(implicit.simulate_bfs(nsds, 0)) == nsds.n)
            nsds.add_count = nsds.list_count = 0
        found = diameter_upto(implicit.radius_steps(nsds, nsds.n, d, rng),
                              k_max)
        return found, {"n": nsds.n, "add_neighbours": nsds.add_count,
                       "list_differences": nsds.list_count}
    if isinstance(inst, Graph):
        g = inst
    else:
        g = intersection_graph_naive(*inst)
        _check_connected(is_connected(g))
    if algo == "naive":
        found = diameter_naive(g)
    else:
        found = diameter_upto(explicit.radius_steps(g, d, rng), k_max)
    return found, {"n": g.n, "m": g.m}


def _check_connected(connected: bool) -> None:
    if not connected:
        raise DisconnectedGraphError("intersection graph is disconnected")


def cmd_verify(args):
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.n_max < 3:
        raise ValueError(f"--n-max must be >= 3, got {args.n_max}")
    for algo in args.algos:
        _check_k_d(f"{algo} algorithm", args.k_min,
                   0 if algo == "naive" else 1, args.d)
    if args.k_max < args.k_min:
        raise ValueError(f"--k-max {args.k_max} is below --k-min {args.k_min}")
    rng = np.random.default_rng(args.seed)
    failures = []
    checked = 0
    for trial in range(args.trials):
        seed = int(rng.integers(0, 2 ** 31))
        if args.generator == "sparse-graph":
            n = int(rng.integers(3, args.n_max + 1))
            m_max = min(n * (n - 1) // 2, 3 * n)
            m = int(rng.integers(n - 1, m_max + 1))
            g = inst = gen_mod.random_connected_graph(
                n, m, np.random.default_rng(seed))
        else:
            n = int(rng.integers(3, args.n_max + 1))
            pts = gen_mod.random_unit_square_points(
                n, gen_mod.default_box(n), np.random.default_rng(seed))
            inst = (pts, axis_square(1.0))
            g = intersection_graph_naive(*inst)
        # naive and explicit reuse the trial's graph; implicit keeps the
        # points so that it builds its own structure.  Every algorithm is
        # checked against the per-source BFS oracle.
        diam = int(_kernels.eccentricities(*g.csr).max())
        found = {algo: _found_diameter(algo, inst if algo == "implicit"
                                       else g, args.k_max, args.d, seed)[0]
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
    sizes = args.sizes.split(",")
    if not all(s.strip().isdecimal() and int(s) >= 1 for s in sizes):
        raise ValueError(f"--sizes must be integers >= 1, got {args.sizes}")
    sizes = [int(s) for s in sizes]
    if len(set(sizes)) < len(sizes):
        # a repeated n adds no point to the fitted slope
        raise ValueError(f"--sizes must be distinct, got {args.sizes}")
    rows = [asdict(r) for r in bench_mod.scaling_rows(
        args.kind, sizes, args.k, args.d, args.seed)]
    _write(_csv(rows), args.output)
    if args.output:
        print(f"wrote {args.output}")
    if len(sizes) >= 2:
        ns, sums = zip(*((r["n"], r["diff_sum"]) for r in rows))
        slope = f"{bench_mod.loglog_slope(ns, sums):.3f}" if all(sums) \
            else "undefined (a diff_sum is 0)"
        print(f"# diff_sum log-log slope: {slope}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kdiam",
        description="Bounded-VC-dimension k-diameter toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a deterministic instance file")
    g.add_argument("generator",
                   choices=["sparse-graph", "apollonian", "unit-squares",
                            "polygon-points"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, help="edge count (sparse-graph)")
    g.add_argument("--box", type=float, help="bounding box side (geometric)")
    g.add_argument("--sides", type=int, default=6,
                   help="polygon side count (even)")
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0,
                   help="apollonian draws from [seed, n]")
    g.add_argument("--output", required=True)
    g.add_argument("--polygon-output")
    g.set_defaults(func=cmd_gen)

    d = sub.add_parser("diam", help="decide whether diameter <= k")
    d.add_argument("--algo", choices=["naive", "explicit", "implicit"],
                   required=True)
    d.add_argument("--input", required=True)
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
    """Run one command.  Rejected input, a ValueError (the library's type
    for it) or an OSError, prints one ``error:`` line and exits 2; anything
    else is a fault in the program and keeps its traceback."""
    logging.basicConfig(level=os.environ.get("KDIAM_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        message = f"{exc.filename}: {exc.strerror}" \
            if isinstance(exc, OSError) and exc.filename else exc
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
