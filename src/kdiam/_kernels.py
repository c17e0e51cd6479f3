"""Hot BFS kernels over CSR adjacency, with numba and pure-numpy backends.

The numba backend is used when available; set ``KDIAM_NUMBA=0`` to force the
pure-numpy path (``KDIAM_NUMBA=1`` makes a missing numba a hard error).  Both
backends are importable side by side so benchmarks can compare them; the
module-level functions dispatch to the selected one.

All kernels take CSR arrays (indptr, indices) as produced by
:attr:`kdiam.graph.Graph.csr` and int64 vertex ids.  Distances use -1 for
"unreached".
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit as _njit
except ImportError:  # numba is the optional [numba] extra
    _njit = None


# ---------------------------------------------------------------------------
# Pure-numpy backend: frontier-vectorised BFS.


def concat_ranges(starts, stops):
    """Concatenation of range(starts[i], stops[i]) over all i, as int64.

    With CSR ``indptr``, ``concat_ranges(indptr[rows], indptr[rows + 1])``
    indexes the entries of ``rows`` in row order.
    """
    counts = stops - starts
    total = int(counts.sum())
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(total, dtype=np.int64) + shift


def _bfs_distances_numpy(indptr, indices, source, radius=None):
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


class _NumpyBackend:
    name = "numpy"

    @staticmethod
    def bfs_distances(indptr, indices, source):
        return _bfs_distances_numpy(indptr, indices, source)

    @staticmethod
    def eccentricities(indptr, indices):
        n = indptr.shape[0] - 1
        ecc = np.empty(n, np.int64)
        for s in range(n):
            dist = _bfs_distances_numpy(indptr, indices, s)
            ecc[s] = -1 if (dist < 0).any() else int(dist.max())
        return ecc

    @staticmethod
    def ball_mask(indptr, indices, source, radius):
        return _bfs_distances_numpy(indptr, indices, source, radius) >= 0

    @staticmethod
    def order_diff_sum(indptr, indices, order, radius):
        n = indptr.shape[0] - 1
        prev = np.zeros(n, bool)
        total = 0
        for i, v in enumerate(order):
            cur = _bfs_distances_numpy(indptr, indices, int(v), radius) >= 0
            if i > 0:
                total += int(np.count_nonzero(prev != cur))
            prev = cur
        return total


# ---------------------------------------------------------------------------
# Numba backend: plain BFS loops, jitted.  The jitted kernels reference each
# other as module globals, which numba resolves to the compiled versions.

if _njit is not None:

    @_njit(cache=True)
    def _bfs_fill(indptr, indices, source, dist, queue):
        n = dist.shape[0]
        for i in range(n):
            dist[i] = -1
        head = 0
        tail = 0
        dist[source] = 0
        queue[tail] = source
        tail += 1
        while head < tail:
            u = queue[head]
            head += 1
            du = dist[u]
            for j in range(indptr[u], indptr[u + 1]):
                w = indices[j]
                if dist[w] < 0:
                    dist[w] = du + 1
                    queue[tail] = w
                    tail += 1
        return tail

    @_njit(cache=True)
    def _bfs_distances_nb(indptr, indices, source):
        n = indptr.shape[0] - 1
        dist = np.empty(n, np.int64)
        queue = np.empty(n, np.int64)
        _bfs_fill(indptr, indices, source, dist, queue)
        return dist

    @_njit(cache=True)
    def _eccentricities_nb(indptr, indices):
        n = indptr.shape[0] - 1
        ecc = np.empty(n, np.int64)
        dist = np.empty(n, np.int64)
        queue = np.empty(n, np.int64)
        for s in range(n):
            reached = _bfs_fill(indptr, indices, s, dist, queue)
            if reached < n:
                ecc[s] = -1
            else:
                e = 0
                for i in range(n):
                    if dist[i] > e:
                        e = dist[i]
                ecc[s] = e
        return ecc

    @_njit(cache=True)
    def _ball_fill_nb(indptr, indices, source, radius, mark, queue, dist):
        # Expansion stops one level before the cutoff so work stays
        # proportional to the ball.
        n = mark.shape[0]
        for i in range(n):
            mark[i] = 0
            dist[i] = -1
        head = 0
        tail = 0
        dist[source] = 0
        mark[source] = 1
        queue[tail] = source
        tail += 1
        while head < tail:
            u = queue[head]
            head += 1
            du = dist[u]
            if du >= radius:
                continue
            for j in range(indptr[u], indptr[u + 1]):
                w = indices[j]
                if dist[w] < 0:
                    dist[w] = du + 1
                    mark[w] = 1
                    queue[tail] = w
                    tail += 1

    @_njit(cache=True)
    def _order_diff_sum_nb(indptr, indices, order, radius):
        # Sum of |ball(order[i]) xor ball(order[i+1])| over consecutive pairs.
        n = indptr.shape[0] - 1
        prev = np.zeros(n, np.uint8)
        cur = np.zeros(n, np.uint8)
        queue = np.empty(n, np.int64)
        dist = np.empty(n, np.int64)
        total = 0
        for i in range(order.shape[0]):
            _ball_fill_nb(indptr, indices, order[i], radius, cur, queue, dist)
            if i > 0:
                for v in range(n):
                    if prev[v] != cur[v]:
                        total += 1
            prev, cur = cur, prev
        return total

    class _NumbaBackend:
        name = "numba"

        @staticmethod
        def bfs_distances(indptr, indices, source):
            return _bfs_distances_nb(indptr, indices, source)

        @staticmethod
        def eccentricities(indptr, indices):
            return _eccentricities_nb(indptr, indices)

        @staticmethod
        def ball_mask(indptr, indices, source, radius):
            n = indptr.shape[0] - 1
            mark = np.zeros(n, np.uint8)
            _ball_fill_nb(indptr, indices, source, radius,
                          mark, np.empty(n, np.int64), np.empty(n, np.int64))
            return mark.astype(bool)

        @staticmethod
        def order_diff_sum(indptr, indices, order, radius):
            order = np.asarray(order, dtype=np.int64)
            return int(_order_diff_sum_nb(indptr, indices, order, radius))

    numba_backend = _NumbaBackend()
else:
    numba_backend = None

numpy_backend = _NumpyBackend()


def _select_backend():
    env = os.environ.get("KDIAM_NUMBA", "").strip().lower()
    if env in ("0", "off", "false", "no"):
        return numpy_backend
    if numba_backend is None:
        if env in ("1", "on", "true", "yes"):
            raise ImportError("KDIAM_NUMBA=1 set but numba is not installed")
        return numpy_backend
    return numba_backend


_active = _select_backend()
BACKEND = _active.name


def bfs_distances(indptr, indices, source):
    return _active.bfs_distances(indptr, indices, source)


def eccentricities(indptr, indices):
    return _active.eccentricities(indptr, indices)


def ball_mask(indptr, indices, source, radius):
    return _active.ball_mask(indptr, indices, source, radius)


def order_diff_sum(indptr, indices, order, radius):
    return _active.order_diff_sum(indptr, indices, order, radius)
