"""Undirected unweighted graphs, BFS, and the brute-force oracles.

Everything downstream is verified against the functions in this module, so
they stay deliberately simple: a graph is its CSR arrays, built once from
its edges and read by the single-source BFS kernels, and one sweep,
:func:`ball_masks`, that grows every ball at once as an ``int`` bit mask
for the diameter oracle and every other all-sources reader.  That mask
format, bit v for vertex v, is every vertex set's format in the package;
:func:`ids_of` reads it back (:func:`id_array` as an array), and
:class:`Mask` is a mask that reads as its ids.
"""

from __future__ import annotations

import re
import warnings
from collections import deque
from functools import reduce
from itertools import islice
from operator import index, or_
from pathlib import Path

import numpy as np

from . import _kernels


class GraphFormatError(ValueError):
    """Raised on malformed edge-list input."""


class DisconnectedGraphError(ValueError):
    """Raised where connectivity is required (infinite diameter)."""


class Graph:
    """Immutable simple graph on dense vertex ids ``0..n-1``, built from its
    edges as (u, v) pairs and held as the int64 CSR arrays
    ``csr = (indptr, indices)``: v's neighbours, in increasing id, are
    ``indices[indptr[v]:indptr[v + 1]]``.

    The constructor rejects an id out of range, a self-loop and an edge
    given twice, in either direction.  Connectivity is checked at load time
    by :func:`load_edge_list` rather than here, so that the oracles can
    still detect and report a disconnected graph explicitly.
    """

    def __init__(self, n: int, edges):
        n = index(n)
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        out = ((e < 0) | (e >= n)).any(axis=1)
        if out.any():
            u, v = e[out.argmax()].tolist()
            raise ValueError(f"edge {u}-{v}: vertex out of range [0, {n})")
        loop = e[:, 0] == e[:, 1]
        if loop.any():
            raise ValueError(f"self-loop at vertex {e[loop.argmax(), 0]}")
        # Both directions of every edge as one key u * n + v: sorted, they
        # are the rows in order, each row by id, and an edge given twice
        # shows as two equal keys.
        keys = np.sort(np.concatenate((e[:, 0] * n + e[:, 1],
                                       e[:, 1] * n + e[:, 0])))
        twice = keys[1:] == keys[:-1]
        if twice.any():
            u, v = divmod(int(keys[1:][twice][0]), n)
            raise ValueError(f"duplicate edge {u}-{v}")
        self.n = n
        self.m = len(e)
        # Row v is the keys from v * n on.
        self.csr = (np.searchsorted(keys, np.arange(n + 1) * n), keys % n)

    def edges(self):
        """Each edge once, as (u, v) with u < v, in increasing (u, v)."""
        indptr, indices = self.csr
        tails = np.repeat(np.arange(self.n), np.diff(indptr))
        keep = tails < indices
        return zip(tails[keep].tolist(), indices[keep].tolist())

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and all(map(np.array_equal, self.csr, other.csr)))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


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


def is_connected(g: Graph) -> bool:
    return not (_kernels.bfs_distances(*g.csr, 0) < 0).any()


def ball_masks(g: Graph):
    """Every vertex's ball as an ``int`` bit mask, one round per radius.

    Round r yields the list whose entry v has bit u set iff dist(v, u) <= r,
    for r = 0, 1, ...; round r + 1 ORs the balls of v's closed
    neighbourhood.  The sweep ends before a round that would change no
    ball, so its last round holds every ball as its connected component.
    Each round costs n + 2m ORs of n-bit masks; the sweep holds two rounds,
    about n²/4 bytes.
    """
    ptr, ids = (a.tolist() for a in g.csr)
    closed = [(v, *ids[ptr[v]:ptr[v + 1]]) for v in range(g.n)]
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
    mask = _kernels.ball_mask(*g.csr, v, r)
    return set(np.flatnonzero(mask).tolist())


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" (0-based).
# Tokens are signed decimal integers split by whitespace; blank lines are
# skipped and take no line number.

# The tokens np.loadtxt reads as int64, bar those past its range.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_edge_list(text: str) -> Graph:
    """The graph an edge list describes; a malformed one raises
    :class:`GraphFormatError` naming its first bad line."""
    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        raise GraphFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2 or not all(map(_INTEGER.fullmatch, head)):
        raise GraphFormatError("first line must be 'n m'")
    n, m = map(int, head)
    if n < 1 or m < 0:
        raise GraphFormatError(
            "first line must be 'n m' with n >= 1 and m >= 0")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    body = lines[1:]
    if body:
        try:
            with warnings.catch_warnings():
                # NumPy releases from 1.23 on may read a float token into
                # an int column, truncated, with only a DeprecationWarning.
                warnings.simplefilter("error", DeprecationWarning)
                e = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
            if e.shape == (m, 2):
                return Graph(n, e)
        except (ValueError, DeprecationWarning):
            pass
    # A check failed, or there are no edges: the first bad line names it.
    seen = set()
    edges = []
    for i, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {i}: expected 'u v'")
        if not all(map(_INTEGER.fullmatch, parts)):
            raise GraphFormatError(f"line {i}: expected integers")
        u, v = map(int, parts)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {i}: vertex out of range")
        if u == v:
            raise GraphFormatError(f"line {i}: self-loop {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"line {i}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    return Graph(n, edges)


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
