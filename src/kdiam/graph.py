"""Undirected unweighted graphs, BFS, and the brute-force oracles.

Everything downstream is verified against the functions in this module, so
they stay deliberately simple: plain adjacency lists, lazily built CSR
arrays for the single-source BFS kernels, and one sweep,
:func:`ball_masks`, that grows every ball at once as an ``int`` bit mask
for the diameter oracle and every other all-sources reader.  That mask
format, bit v for vertex v, is every vertex set's format in the package;
:func:`ids_of` reads it back (:func:`id_array` as an array), and
:class:`Mask` is a mask that reads as its ids.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import chain, combinations, islice
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
            np.cumsum(self.degrees(), out=indptr[1:])
            indices = np.fromiter(chain.from_iterable(self.adjacency),
                                  np.int64, count=indptr[-1])
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


def locality_rank(g: Graph) -> tuple:
    """Every vertex once, in Cuthill–McKee order: BFS from a vertex of least
    degree, each vertex's unreached neighbours taken in increasing degree,
    restarting at the least-degree unreached vertex until every component
    is covered.  Ties go to the lesser id.  Neighbours in the graph end up
    close in the order, which the order construction uses to break its
    ties (:func:`kdiam.order.order_from_membership`)."""
    indptr, indices = g.csr
    deg = np.diff(indptr)
    # Each row of the CSR sorted by neighbour degree, stably: rows are
    # sorted by id.
    by_degree = indices[np.lexsort((deg[indices],
                                    np.repeat(np.arange(g.n), deg)))].tolist()
    ptr = indptr.tolist()
    seen = [False] * g.n
    rank = []
    for root in np.argsort(deg, kind="stable").tolist():
        if seen[root]:
            continue
        seen[root] = True
        head = len(rank)
        rank.append(root)
        while head < len(rank):
            u = rank[head]
            for w in by_degree[ptr[u]:ptr[u + 1]]:
                if not seen[w]:
                    seen[w] = True
                    rank.append(w)
            head += 1
    return tuple(rank)


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


def ball_masks(g: Graph):
    """Every vertex's ball as an ``int`` bit mask, one round per radius.

    Round r yields the list whose entry v has bit u set iff dist(v, u) <= r,
    for r = 0, 1, ...; round r + 1 ORs the balls of v's closed
    neighbourhood.  The sweep ends before a round that would change no
    ball, so its last round holds every ball as its connected component.
    Each round costs n + 2m ORs of n-bit masks; the sweep holds two rounds,
    about n²/4 bytes.
    """
    closed = [(v, *neigh) for v, neigh in enumerate(g.adjacency)]
    balls = [1 << v for v in range(g.n)]
    while True:
        yield balls
        grown = [reduce(or_, map(balls.__getitem__, nv)) for nv in closed]
        if grown == balls:
            return
        balls = grown


_BYTE_BITS = tuple(tuple(i for i in range(8) if v >> i & 1)
                   for v in range(256))


def ids_of(mask: int) -> list:
    """Every set bit i of ``mask``, in increasing i: the vertices of a mask
    in :func:`ball_masks`' format.  One step per byte of the mask plus one
    per set bit.  A negative mask has no finite set of bits: ``ValueError``."""
    if not mask:
        return []
    if mask < 0:
        raise ValueError(f"a vertex mask is non-negative, got {mask}")
    out = []
    append = out.append
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                append(base + i)
        base += 8
    return out


def id_array(mask: int, n: int) -> np.ndarray:
    """:func:`ids_of` of a mask over the ids 0..n-1, as an int64 array."""
    bits = np.frombuffer(mask.to_bytes(-(-n // 8), "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(bits, bitorder="little"))


class Mask(int):
    """An ``int`` mask that also reads as the set of its ids: ``len`` is
    its popcount and iteration gives :func:`ids_of`.  Its operators are
    ``int``'s, so they return plain ints."""

    __slots__ = ()
    __len__ = int.bit_count

    def __iter__(self):
        return iter(ids_of(self))


def balls_at(g: Graph, r: int) -> list:
    """Round ``r`` of :func:`ball_masks`, or its last round (the same balls)
    if the sweep stops earlier."""
    return deque(islice(ball_masks(g), r + 1), maxlen=1)[0]


def diameter_naive(g: Graph) -> int:
    """Max over all pairs of hop distances (the all-sources oracle): the
    first round of :func:`ball_masks` whose balls are all the whole vertex
    set.  Cost: D·(n + 2m) ORs of n-bit masks."""
    full = (1 << g.n) - 1
    for radius, balls in enumerate(ball_masks(g)):
        if balls.count(full) == g.n:
            return radius
    raise DisconnectedGraphError("graph is disconnected: infinite diameter")


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

    Exhaustive: enumerates every ball N^k[v], k >= 0 (every round of
    :func:`ball_masks`), and every candidate subset of size <= max_subset.
    Refuses graphs with more than ``SHATTER_GUARD`` vertices unless
    ``allow_large`` is set.
    """
    n = g.n
    if n > SHATTER_GUARD and not allow_large:
        raise ValueError(
            f"n={n} exceeds exhaustive-search guard {SHATTER_GUARD}; "
            "pass allow_large=True to override")
    if max_subset < 1:
        raise ValueError("max_subset must be >= 1")

    # Radii past the sweep's last round add nothing: each ball is then its
    # component.
    balls = set().union(*ball_masks(g))
    for size in range(min(max_subset, n), 0, -1):
        for subset in combinations(range(n), size):
            y_mask = sum(1 << u for u in subset)
            if len({b & y_mask for b in balls}) == 1 << size:
                return size
    return 0


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
