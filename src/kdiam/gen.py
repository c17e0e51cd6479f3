"""Deterministic random instance generators (seed in, same instance out)."""

from __future__ import annotations

import math

import numpy as np

from .geometry import ConvexPolygon, axis_square, intersection_graph_naive
from .graph import Graph, from_edges, is_connected

# Draws a point generator makes before giving up on a connected instance.
MAX_TRIES = 200


def random_connected_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Connected simple graph with exactly m edges: a uniform random labelled
    tree plus extra edges sampled without duplicates."""
    if n < 1:
        raise ValueError("n must be >= 1")
    max_m = n * (n - 1) // 2
    if not (n - 1 <= m <= max_m):
        raise ValueError(f"m must be in [{n - 1}, {max_m}]")
    edges = set()
    if n > 1:
        # Random tree by attaching each vertex to a random earlier one, over
        # a random relabelling so roots aren't biased to low ids.
        perm = rng.permutation(n)
        for i in range(1, n):
            j = int(rng.integers(0, i))
            u, v = int(perm[i]), int(perm[j])
            edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return from_edges(n, sorted(edges))


def random_apollonian(n: int, rng: np.random.Generator) -> Graph:
    """Random Apollonian network on n >= 3 vertices: a triangle, then each
    new vertex joined to the corners of a uniformly random inner face, which
    it splits into three; the ids are a random permutation.  Planar, with
    m = 3n - 6 edges."""
    if n < 3:
        raise ValueError("n must be >= 3")
    faces = [(0, 1, 2)]
    edges = [(0, 1), (0, 2), (1, 2)]
    # At vertex v there are 2v - 5 inner faces.
    picks = (rng.random(n - 3) * np.arange(1, 2 * n - 5, 2)).astype(np.int64)
    for v, i in enumerate(picks.tolist(), start=3):
        a, b, c = faces[i]
        faces[i] = (a, b, v)
        faces += [(a, c, v), (b, c, v)]
        edges += [(a, v), (b, v), (c, v)]
    label = rng.permutation(n).tolist()
    return from_edges(n, [(label[u], label[v]) for u, v in edges])


def random_unit_square_points(n: int, box: float,
                              rng: np.random.Generator,
                              *, require_connected=True) -> np.ndarray:
    """n distinct points in [0, box]^2 whose unit-square intersection graph
    is connected (resampled until it is, unless ``require_connected`` is
    false)."""
    return random_points_for_shape(n, axis_square(1.0), box, rng,
                                   require_connected=require_connected)


def default_box(n: int) -> float:
    """Box size giving a comfortably connected unit-square instance."""
    return max(1.0, math.sqrt(n / 2.0))


def random_symmetric_polygon(half_sides: int, rng: np.random.Generator,
                             radius: float = 1.0) -> ConvexPolygon:
    """Centrally symmetric convex 2g-gon from g random edge directions."""
    if half_sides < 2:
        raise ValueError("need at least 2 half sides")
    while True:
        angles = np.sort(rng.uniform(0.0, math.pi, size=half_sides))
        if np.min(np.diff(angles)) > 1e-2:
            break
    lengths = rng.uniform(0.3, 1.0, size=half_sides) * radius
    half_edges = np.c_[np.cos(angles), np.sin(angles)] * lengths[:, None]
    edges = np.vstack([half_edges, -half_edges])
    verts = np.cumsum(edges, axis=0)
    center = (verts[half_sides - 1] + verts[-1]) / 2.0
    return ConvexPolygon(verts - center)


def random_points_for_shape(n: int, shape: ConvexPolygon, box: float,
                            rng: np.random.Generator,
                            *, require_connected=True) -> np.ndarray:
    """n distinct points in [0, box]^2 whose intersection graph for
    ``shape`` is connected (resampled until it is, unless
    ``require_connected`` is false)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for _ in range(MAX_TRIES):
        pts = rng.uniform(0.0, box, size=(n, 2))
        if len({(x, y) for x, y in pts}) < n:
            continue
        if not require_connected:
            return pts
        if n == 1 or is_connected(intersection_graph_naive(pts, shape)):
            return pts
    raise ValueError(
        f"no connected instance in {MAX_TRIES} tries (n={n}, box={box}); "
        "shrink the box")
