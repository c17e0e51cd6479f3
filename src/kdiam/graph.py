"""Undirected unweighted graphs, BFS, and the brute-force oracles.

Everything downstream is verified against the functions in this module, so
they stay deliberately simple: plain adjacency lists, lazily built CSR
arrays for the single-source BFS kernels, and a diameter oracle that grows
every ball at once as an ``int`` bit mask.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from pathlib import Path

import numpy as np

from . import _kernels


class GraphFormatError(ValueError):
    """Raised on malformed edge-list input."""


class DisconnectedGraphError(ValueError):
    """Raised where connectivity is required (infinite diameter)."""


class Graph:
    """Immutable simple graph on dense vertex ids ``0..n-1``.

    The constructor rejects self-loops, duplicate neighbors and asymmetric
    adjacency.  Connectivity is checked at load time by :func:`load_edge_list`
    rather than here, so that the oracles can still detect and report a
    disconnected graph explicitly.
    """

    def __init__(self, adjacency):
        adj = tuple(tuple(sorted(neigh)) for neigh in adjacency)
        n = len(adj)
        if n == 0:
            raise ValueError("graph must have at least one vertex")
        for v, neigh in enumerate(adj):
            prev = -1
            for u in neigh:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if u == prev:
                    raise ValueError(f"duplicate edge {v}-{u}")
                prev = u
        neighbours = [frozenset(neigh) for neigh in adj]
        for v, neigh in enumerate(adj):
            for u in neigh:
                if v not in neighbours[u]:
                    raise ValueError(f"asymmetric adjacency: {v}-{u}")
        self.n = n
        self.adjacency = adj
        self.m = sum(len(a) for a in adj) // 2
        self._csr = None

    @property
    def csr(self):
        """(indptr, indices) int64 CSR arrays, built lazily."""
        if self._csr is None:
            indptr = np.zeros(self.n + 1, np.int64)
            for v, neigh in enumerate(self.adjacency):
                indptr[v + 1] = indptr[v] + len(neigh)
            indices = np.empty(indptr[-1], np.int64)
            for v, neigh in enumerate(self.adjacency):
                indices[indptr[v]:indptr[v + 1]] = neigh
            self._csr = (indptr, indices)
        return self._csr

    def degrees(self):
        return [len(a) for a in self.adjacency]

    def edges(self):
        for v, neigh in enumerate(self.adjacency):
            for u in neigh:
                if v < u:
                    yield (v, u)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adjacency == other.adjacency

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def from_edges(n: int, edges) -> Graph:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(adj)


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Exact hop distances from ``source``, one per vertex.

    Raises ``DisconnectedGraphError`` if some vertex is unreachable and
    ``ValueError`` for an out-of-range source.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range [0, {g.n})")
    indptr, indices = g.csr
    dist = _kernels.bfs_distances(indptr, indices, source)
    if (dist < 0).any():
        raise DisconnectedGraphError("graph is disconnected: infinite diameter")
    return dist


def is_connected(g: Graph) -> bool:
    indptr, indices = g.csr
    return not (_kernels.bfs_distances(indptr, indices, 0) < 0).any()


def diameter_naive(g: Graph) -> int:
    """Max over all pairs of hop distances (the all-sources oracle).

    Grows every ball one hop per round: bit u of ``balls[v]`` is set iff
    dist(v, u) <= r after round r, and round r + 1 ORs the balls of v's
    closed neighbourhood.  The diameter is the first round at which every
    ball is the whole vertex set; a round that changes no ball proves the
    graph disconnected.  Cost: D·(n + 2m) ORs of n-bit masks, with memory
    for two generations of n masks, about n²/4 bytes.
    """
    full = (1 << g.n) - 1
    closed = [(v, *neigh) for v, neigh in enumerate(g.adjacency)]
    balls = [1 << v for v in range(g.n)]
    radius = 0
    while balls.count(full) < g.n:
        grown = [reduce(or_, map(balls.__getitem__, nv)) for nv in closed]
        if grown == balls:
            raise DisconnectedGraphError(
                "graph is disconnected: infinite diameter")
        balls = grown
        radius += 1
    return radius


def diameter_upto(steps, k_max: int) -> int | None:
    """The first radius r <= ``k_max`` at which every ball is full, that is
    max(diameter, 1), or None; no step beyond it is asked for.  ``steps``
    yields records with ``radius`` (1, 2, ...) and ``full``, as both fast
    drivers' ``radius_steps`` do."""
    for step in steps:
        if step.full:
            return step.radius
        if step.radius >= k_max:
            return None
    return None


def k_diameter_naive(g: Graph, k: int) -> bool:
    """True iff every pair of vertices is within hop distance ``k``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return diameter_naive(g) <= k


def neighborhood(g: Graph, v: int, r: int) -> set[int]:
    """The ball of radius ``r`` around ``v``: all u with dist(v, u) <= r."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if r < 0:
        raise ValueError("radius must be >= 0")
    if r == 0:
        return {v}
    indptr, indices = g.csr
    mask = _kernels.ball_mask(indptr, indices, v, r)
    return set(np.flatnonzero(mask).tolist())


SHATTER_GUARD = 16


def distance_vc_shatter_check(g: Graph, max_subset: int, *,
                              allow_large: bool = False) -> int:
    """Largest subset size shattered by the family of all balls of ``g``.

    Exhaustive: enumerates every ball N^k[v] for k in [0, n) and every
    candidate subset of size <= max_subset.  Refuses graphs with more than
    ``SHATTER_GUARD`` vertices unless ``allow_large`` is set.
    """
    n = g.n
    if n > SHATTER_GUARD and not allow_large:
        raise ValueError(
            f"n={n} exceeds exhaustive-search guard {SHATTER_GUARD}; "
            "pass allow_large=True to override")
    if max_subset < 1:
        raise ValueError("max_subset must be >= 1")

    # Balls as bitmasks.  Radii beyond n-1 add nothing: balls stabilize at V.
    indptr, indices = g.csr
    balls = set()
    for v in range(n):
        dist = _kernels.bfs_distances(indptr, indices, v)
        for k in range(n):
            mask = 0
            for u in range(n):
                if 0 <= dist[u] <= k:
                    mask |= 1 << u
            balls.add(mask)
    balls = list(balls)

    from itertools import combinations

    best = 0
    for size in range(min(max_subset, n), 0, -1):
        target = 1 << size
        for subset in combinations(range(n), size):
            y_mask = 0
            for u in subset:
                y_mask |= 1 << u
            traces = set()
            for b in balls:
                traces.add(b & y_mask)
                if len(traces) == target:
                    break
            if len(traces) == target:
                best = size
                break
        if best:
            break
    return best


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" (0-based).


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError("first line must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError("first line must be 'n m'") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    seen = set()
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {i}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {i}: expected integers") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {i}: vertex out of range")
        if u == v:
            raise GraphFormatError(f"line {i}: self-loop {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"line {i}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    return from_edges(n, edges)


def load_edge_list(path) -> Graph:
    """Parse an edge-list file and require connectivity."""
    g = parse_edge_list(Path(path).read_text())
    if not is_connected(g):
        raise DisconnectedGraphError("graph is disconnected")
    return g


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def save_edge_list(g: Graph, path) -> None:
    Path(path).write_text(format_edge_list(g))
