"""Single-source BFS over CSR adjacency (frontier-vectorised numpy), the
per-source eccentricities the tests check the diameter oracle against, and
:func:`concat_ranges`, which both sweeps of the explicit path call.

All kernels take CSR arrays (indptr, indices) as produced by
:attr:`kdiam.graph.Graph.csr` and int64 vertex ids.  Distances use -1 for
"unreached".
"""

from __future__ import annotations

import numpy as np

# The one kernel implementation; benchmark environment records name it.
BACKEND = "numpy"


def concat_ranges(starts, stops):
    """Concatenation of range(starts[i], stops[i]) over all i, as int64.

    With CSR ``indptr``, ``concat_ranges(indptr[rows], indptr[rows + 1])``
    indexes the entries of ``rows`` in row order.
    """
    counts = stops - starts
    total = int(counts.sum())
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(total, dtype=np.int64) + shift


# The public kernels call this, not each other, so a wrapper put on one of
# them (as the benchmark's tracer does) sees only outside calls.
def _bfs(indptr, indices, source, radius=None):
    """Hop distances from ``source``; with ``radius``, the search stops
    after that many levels and farther vertices stay -1."""
    n = indptr.shape[0] - 1
    dist = np.full(n, -1, np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size and (radius is None or level < radius):
        neigh = indices[concat_ranges(indptr[frontier], indptr[frontier + 1])]
        neigh = neigh[dist[neigh] < 0]
        if neigh.size == 0:
            break
        frontier = np.unique(neigh)
        level += 1
        dist[frontier] = level
    return dist


def bfs_distances(indptr, indices, source):
    return _bfs(indptr, indices, source)


def eccentricities(indptr, indices):
    """Eccentricity of every vertex, -1 where the graph is disconnected.

    One BFS per source, O(n·(n + m)) numpy-dispatched work.  Kept as the
    independent per-source check that the tests compare
    ``graph.diameter_naive``, which grows all balls at once, against.
    """
    n = indptr.shape[0] - 1
    ecc = np.empty(n, np.int64)
    for s in range(n):
        dist = _bfs(indptr, indices, s)
        ecc[s] = -1 if (dist < 0).any() else int(dist.max())
    return ecc


def ball_mask(indptr, indices, source, radius):
    return _bfs(indptr, indices, source, radius) >= 0

