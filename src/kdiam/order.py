"""Randomized low-difference orders on hypergraph edges.

Given a set system whose VC-dimension is bounded by ``d``, a small random
sample splits the edge set into classes that agree on every sampled element.
The depth-first preorder of the tree those splits induce has consecutive
symmetric differences totalling at most twice the tree's (Chazelle–Welzl).
Instantiated with the k-neighborhood hypergraph of a graph this produces the
vertex orders used by both diameter algorithms.

The bound comes from the sample's refinement, not from the labels, but the
tree's ties follow the labels.  So every tie goes to the hyperedge first in a
locality rank (:func:`kdiam.graph.locality_rank` for a graph,
:func:`kdiam.plane.hilbert_rank` for points), that is, to hyperedges near
each other in the input.
"""

from __future__ import annotations

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
        if (len(w) != n or not np.isfinite(w).all() or (w < 1).any()
                or (w % 1).any()):
            raise ValueError("weights must be positive integers, one per element")
        p = w / w.sum()
    # The least size with size ** d >= n, settled in integers: the float
    # root alone lands above 5 for 3125 ** 0.2.
    size = round(n ** (1.0 / d))
    size += size ** d < n
    return tuple(rng.choice(n, size=size, replace=False, p=p).tolist())


def order_from_membership(membership, n: int, d: int,
                          rng: np.random.Generator, *, rank,
                          weights=None) -> tuple:
    """Low-difference order over n hyperedges given a membership oracle on a
    ground set of the same ids (the self-dual ball hypergraph case).

    ``membership(x)`` returns the ids of all hyperedges containing ground
    element ``x`` (for balls of a graph, by symmetry of hop distance, the
    ball around x) as an int array, or as a list or other iterable of ints;
    repeats are allowed, and an id outside ``0..n-1`` is a ``ValueError``.
    It is called once per sampled element, in draw order.  With ``weights``
    (positive integers, one per vertex) the sample is drawn as if every
    vertex were duplicated weight-many times, which keeps the weighted total
    interval count small; :func:`net_sample` rejects bad weights.

    ``rank`` lists the hyperedge ids in locality order; ``range(n)`` gives
    the id order.  The order is the preorder of the refinement tree whose
    splits join the first ids in rank of their two parts and whose final
    classes are chained in rank order, children visited in rank order.  The
    sample is drawn from the ground set, whose ids the oracle takes as they
    are, so the rank changes no draw.
    """
    sample = net_sample(n, d, rng, weights=weights)
    rank = np.asarray(rank, dtype=np.int64)
    if rank.shape != (n,) or not (np.sort(rank) == np.arange(n)).all():
        raise ValueError("rank must be a permutation of the ids 0..n-1")
    # Bit i of an id's key is set when its hyperedge contains sample[i]:
    # bit i % 63 of its word i // 63, so that no word reaches the sign bit.
    words = np.zeros((-(-len(sample) // 63), n), dtype=np.int64)
    for i, x in enumerate(sample):
        ids = membership(x)
        ids = (np.asarray(ids, dtype=np.int64) if isinstance(ids, np.ndarray)
               else np.fromiter(ids, np.int64))
        # Read as unsigned, a negative id lies above every id in range.
        if len(ids) and ids.view(np.uint64).max() >= n:
            raise ValueError(f"membership({x}) lists an id outside 0..{n - 1}")
        word = words[i // 63]
        word[ids] |= 1 << i % 63
    key = words[-1].tolist()
    for word in words[-2::-1]:
        key = [k << 63 | w for k, w in zip(key, word.tolist())]
    # Each block is a class in rank order, its first id m the tree node that
    # heads it.  m's children head the parts that split off at each later
    # sample element, and the rest of m's final class (the ids whose keys
    # equal m's, grouped under 0) hangs below m as a chain.  Groups are made
    # in the rank order of their first ids, the order the preorder visits
    # them in.
    out = []
    stack = [(rank.tolist(), False)]
    while stack:
        block, chain = stack.pop()
        if chain:
            out.extend(block)
            continue
        m = block[0]
        out.append(m)
        km = key[m]
        groups = {}
        for e in block[1:]:
            x = key[e] ^ km
            groups.setdefault(x & -x, []).append(e)
        stack.extend((part, not low) for low, part in reversed(groups.items()))
    return tuple(out)
