"""Workload definitions: seeded instance generation and the calls under test.

Every instance reaches the library only as generated data.  The fast path is
the one ``kdiam diam`` runs: ``k_diameter_implicit`` over ``geometric_nsds``
structures for point instances, ``k_diameter_explicit`` for graphs.  The naive
path is graph materialization (point instances) plus the all-sources oracle.
Library functions are called through their module attributes so that the
traced run's hooks see them.
"""

from __future__ import annotations

import itertools
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import kdiam
from kdiam import gen, geometry, graph, plane

# d (the VC-dimension bound handed to the order construction) per fast path,
# as ``kdiam diam`` defaults for points and ``--d 3`` for sparse graphs.
IMPLICIT_D = 4
EXPLICIT_D = 3


def fixed_hexagon() -> geometry.ConvexPolygon:
    """Regular hexagon, circumradius 0.6, rotated 10 degrees."""
    angles = np.deg2rad(10.0) + np.arange(6) * (np.pi / 3.0)
    return geometry.ConvexPolygon(0.6 * np.c_[np.cos(angles), np.sin(angles)])


@dataclass
class Instance:
    label: str
    n: int
    points: np.ndarray | None = None
    shape: geometry.ConvexPolygon | None = None
    graph: graph.Graph | None = None

    def oracle_graph(self) -> graph.Graph:
        if self.graph is not None:
            return self.graph
        return geometry.intersection_graph_naive(self.points, self.shape)


@dataclass(frozen=True)
class Workload:
    """One set of inputs: ``count`` instances of ``n`` points or vertices,
    generated in set-up and measured in order; each is asked k = D-1 and
    k = D, so every instance gives one False and one True answer.  ``m`` is
    the edge count of graph instances, ``box`` the side of the square that
    points are drawn from."""

    name: str
    kind: str  # "squares", "hexagons" or "graph"
    n: int
    m: int | None
    box: float | None
    count: int
    why: str

    def generate(self, seed: int) -> list[Instance]:
        out = []
        for i in range(self.count):
            rng = np.random.default_rng([seed, i])
            label = f"{self.name}[{i}]"
            if self.kind == "graph":
                g = gen.random_connected_graph(self.n, self.m, rng)
                out.append(Instance(label, self.n, graph=g))
            elif self.kind == "squares":
                pts = gen.random_unit_square_points(self.n, self.box, rng)
                out.append(Instance(label, self.n, pts,
                                    geometry.axis_square(1.0)))
            else:
                shape = fixed_hexagon()
                pts = gen.random_points_for_shape(self.n, shape, self.box, rng)
                out.append(Instance(label, self.n, pts, shape))
        return out

    @property
    def fast_algorithm(self) -> str:
        return "explicit" if self.kind == "graph" else "implicit"


def k_values(diameter: int) -> tuple:
    return tuple(k for k in (diameter - 1, diameter) if k >= 1)


WORKLOADS = {w.name: w for w in (
    Workload(
        "squares-dense", "squares", 150, None, 3.2, 24,
        "Unit squares, n=150, box 3.2, D=4, mean degree ~40: the dense graph"
        " the implicit path never builds; square-mode plane/stripes, lists,"
        " order"),
    Workload(
        "hexagons", "hexagons", 100, None, 2.2, 32,
        "Fixed hexagon, n=100, box 2.2, D=3: same layers through the general"
        " trapezoid branch, ~7 stripe lines per mark; stripe_mark_line"
        " dominates"),
    Workload(
        "sparse-explicit", "graph", 400, 1200, None, 48,
        "Random connected graph n=400 m=1200, D~6: intervals, explicit,"
        " weighted order, ball_mask; bypasses nsds/plane/stripes; largest"
        " naive_s"),
)}


def roundtrip(instances: list[Instance], workdir: Path) -> list[Instance]:
    """Write every instance in the CLI file format, read it back, and check
    the round trip is exact.  Returns the loaded instances."""
    workdir.mkdir(parents=True, exist_ok=True)
    loaded = []
    try:
        for i, inst in enumerate(instances):
            if inst.graph is not None:
                path = workdir / f"{i}.el"
                path.write_text(graph.format_edge_list(inst.graph))
                g = graph.load_edge_list(path)
                if g != inst.graph:
                    raise ValueError(f"{inst.label}: edge list round trip")
                loaded.append(Instance(inst.label, inst.n, graph=g))
            else:
                path = workdir / f"{i}.csv"
                path.write_text(geometry.format_points(inst.points))
                pts = geometry.load_points(path)
                if not np.array_equal(pts, inst.points):
                    raise ValueError(f"{inst.label}: points round trip")
                loaded.append(Instance(inst.label, inst.n, pts, inst.shape))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return loaded


def fast_decide(inst: Instance, k: int, rng_seed, tracer=None):
    """One fast-path decide call.  Returns (answer, structures made).

    Untraced calls keep no reference to the structures, so each radius
    step's versions are freed as the library drops them; traced calls keep
    them until the call returns to read their counters.
    """
    rng = np.random.default_rng(rng_seed)
    if inst.graph is not None:
        return kdiam.k_diameter_explicit(inst.graph, k, EXPLICIT_D, rng), []
    made = []
    base = int(rng.integers(0, 2 ** 31))
    seeds = itertools.count(base)

    def factory():
        nsds = plane.geometric_nsds(inst.points, inst.shape, next(seeds))
        if tracer is not None:
            tracer.hook_instance(nsds)
            made.append(nsds)
        return nsds

    answer = kdiam.k_diameter_implicit(factory, inst.n, k, IMPLICIT_D, rng)
    return answer, made


def naive_decide(inst: Instance, k: int) -> bool:
    """The oracle decide: materialize the graph, then all-sources BFS."""
    return graph.k_diameter_naive(inst.oracle_graph(), k)
