"""Deterministic random instance generators (seed in, same instance out)."""

from __future__ import annotations

import math

import numpy as np

from .geometry import ConvexPolygon, axis_square, intersection_graph_naive
from .graph import Graph, is_connected

# Draws a point generator makes before giving up on a connected instance.
MAX_TRIES = 200


def random_connected_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Connected simple graph with exactly m edges: a uniform random labelled
    tree plus extra edges sampled without duplicates.

    The draws are those of one loop: a permutation, then for i = 1..n-1 one
    ``integers(0, i)``, then pairs of ``integers(0, n)`` until m distinct
    edges are held, skipping a self-loop or an edge already held.  They are
    drawn in bulk, and the generator is left where that loop leaves it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    max_m = n * (n - 1) // 2
    if not (n - 1 <= m <= max_m):
        raise ValueError(f"m must be in [{n - 1}, {max_m}]")
    # Each edge as the key min * n + max.
    keys = np.empty(0, np.int64)
    if n > 1:
        # Random tree by attaching each vertex to a random earlier one, over
        # a random relabelling so roots aren't biased to low ids.
        perm = rng.permutation(n)
        u, v = perm[1:], perm[rng.integers(0, np.arange(1, n))]
        keys = np.minimum(u, v) * n + np.maximum(u, v)
    while len(keys) < m:
        need = m - len(keys)
        # About 5/4 of the pairs that give `need` new edges on average; a
        # batch that falls short is followed by another.
        batch = need * max_m // (max_m - len(keys)) * 5 // 4 + 16
        state = rng.bit_generator.state
        u, v = rng.integers(0, n, size=(batch, 2)).T
        new = np.minimum(u, v) * n + np.maximum(u, v)
        fresh = np.flatnonzero((u != v) & ~np.isin(new, keys))
        # The first draw of each new edge, in draw order.
        take = np.sort(fresh[np.unique(new[fresh], return_index=True)[1]])
        if len(take) >= need:
            # Rewind and draw again only the pairs the loop would have drawn.
            take = take[:need]
            rng.bit_generator.state = state
            rng.integers(0, n, size=(take[-1] + 1, 2))
        keys = np.concatenate((keys, new[take]))
    return Graph(n, np.c_[keys // n, keys % n])


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
    return Graph(n, [(label[u], label[v]) for u, v in edges])


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
