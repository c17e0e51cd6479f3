"""Randomized low-difference orders on hypergraph edges.

Given a set system whose VC-dimension is bounded by ``d``, a small random
sample splits the edge set into classes that agree on every sampled element.
Wiring the splits into a spanning tree and walking it in preorder yields an
order whose consecutive symmetric differences total at most twice the
tree's (Chazelle–Welzl).  Instantiated with the k-neighborhood hypergraph of
a graph this produces the vertex orders used by both diameter algorithms.

The bound comes from the sample's refinement, not from the labels, but the
tree's ties follow the labels.  So the tree is built on positions in a
locality rank of the hyperedges (:func:`kdiam.graph.locality_rank` for a
graph, :func:`kdiam.plane.hilbert_rank` for points), and each tie goes to
hyperedges near each other in the input.
"""

from __future__ import annotations

import math

import numpy as np


def net_sample(n: int, d: int, rng: np.random.Generator, *,
               weights=None) -> tuple:
    """ceil(n ** (1/d)) distinct ids out of ``0..n-1``, in draw order.

    With ``weights`` (positive integers, one per id), ids are drawn with
    probability proportional to weight, which matches duplicating each id
    weight-many times.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 1:
        raise ValueError("there must be at least one hyperedge")
    p = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if len(w) != n or (w < 1).any():
            raise ValueError("weights must be positive integers, one per element")
        p = w / w.sum()
    size = math.ceil(n ** (1.0 / d))
    return tuple(rng.choice(n, size=size, replace=False, p=p).tolist())


def spanning_tree(membership, n: int, sample) -> list:
    """Spanning tree over ids ``0..n-1`` as a list of ``(u, v)`` edges.

    ``membership(x)`` lists the ids of all hyperedges containing ground
    element ``x``.  Bit i of an id's key is set when its hyperedge contains
    the i-th sampled element, so after i + 1 elements the ids with equal
    keys form the classes that agree on that prefix of the sample.  When
    the i-th element splits a class, one edge joins the least ids of its
    two parts.  Each final class is chained in id order.  Under
    :func:`order_from_membership` the ids are rank positions, so the splits
    are joined at the least ranks and each class is chained in rank order.
    """
    key = [0] * n
    edges = []
    for i, x in enumerate(sample):
        bit = 1 << i
        for e in membership(x):
            key[e] |= bit
        # Least id of each class: later (smaller) ids overwrite earlier ones.
        least = dict(zip(reversed(key), range(n - 1, -1, -1)))
        edges.extend((least[k ^ bit], e) for k, e in least.items()
                     if k & bit and (k ^ bit) in least)
    last = {}
    for e, k in enumerate(key):
        if k in last:
            edges.append((last[k], e))
        last[k] = e
    return edges


def preorder(edges, n: int) -> tuple:
    """Depth-first preorder of a tree on ``0..n-1`` from 0, neighbours in
    increasing id; raises ``ValueError`` unless every vertex is reached."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    out = []
    stack = [0]
    while stack:
        u = stack.pop()
        if seen[u]:
            continue
        seen[u] = True
        out.append(u)
        stack.extend(sorted(adj[u], reverse=True))
    if len(out) < n:
        raise ValueError("not a tree: disconnected")
    return tuple(out)


def order_from_membership(membership, n: int, d: int,
                          rng: np.random.Generator, *, rank,
                          weights=None) -> tuple:
    """Low-difference order over n hyperedges given a membership oracle on a
    ground set of the same ids (the self-dual ball hypergraph case).

    For the radius-k balls of a graph ``g`` the oracle is
    ``lambda x: neighborhood(g, x, k)``: by symmetry of hop distance the balls
    containing x are exactly the ball around x.  With ``weights`` (positive
    integers, one per vertex) the sample is drawn as if every vertex were
    duplicated weight-many times, which keeps the weighted total interval
    count small; :func:`net_sample` rejects bad weights.

    ``rank`` lists the hyperedge ids in locality order; ``range(n)`` gives
    the id-order tree.  The refinement tree and its preorder are built on
    positions in it, hyperedge ``rank[i]`` being position i, and the order
    is mapped back to ids.  The sample is drawn from the ground set, whose
    ids the oracle takes as they are, so the rank changes no draw.
    """
    sample = net_sample(n, d, rng, weights=weights)
    rank = np.asarray(rank, dtype=np.int64)
    if rank.shape != (n,) or not (np.sort(rank) == np.arange(n)).all():
        raise ValueError("rank must be a permutation of the ids 0..n-1")
    pos = np.empty(n, dtype=np.int64)
    pos[rank] = np.arange(n)
    pos = pos.tolist()
    tree = spanning_tree(lambda x: map(pos.__getitem__, membership(x)), n,
                         sample)
    rank = rank.tolist()
    return tuple(rank[i] for i in preorder(tree, n))
