"""Randomized low-difference orders on hypergraph edges.

Given a set system whose VC-dimension is bounded by ``d``, a small random
sample splits the edge set into groups that agree on every sampled element;
wiring the splits into a spanning tree and walking it yields an order whose
consecutive symmetric differences are small in total.  Instantiated with the
k-neighborhood hypergraph of a graph this produces the vertex orders used by
both diameter algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NetSchedule:
    """Sampling plan: the sampled ground elements, drawn without
    replacement, in order."""

    sample: tuple


def net_schedule(ground_size: int, num_edges: int, d: int,
                 rng: np.random.Generator, *, weights=None) -> NetSchedule:
    """Draw the sample schedule for a set system with ``num_edges`` edges.

    The sample size is ceil(num_edges ** (1/d)), capped at the ground size
    (degenerate small instances sample everything in random order).  With
    ``weights``, elements are drawn with probability proportional to weight,
    which matches multiplying each ground element by its weight.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if num_edges < 1:
        raise ValueError("there must be at least one hyperedge")
    if ground_size < 1:
        raise ValueError("ground set must be nonempty")
    s = min(math.ceil(num_edges ** (1.0 / d)), ground_size)
    if weights is None:
        sample = rng.choice(ground_size, size=s, replace=False)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if len(w) != ground_size or (w < 1).any():
            raise ValueError("weights must be positive integers, one per element")
        sample = rng.choice(ground_size, size=s, replace=False, p=w / w.sum())
    return NetSchedule(tuple(int(x) for x in sample))


@dataclass(frozen=True)
class TreeEdge:
    u: int
    v: int
    primary: bool


@dataclass
class ComponentPartition:
    """Partition of hyperedge ids into groups indistinguishable by the
    elements sampled so far, plus the tree edges accumulated."""

    component_of: list
    members: dict
    edges: list = field(default_factory=list)

    @classmethod
    def whole(cls, num_edges: int) -> "ComponentPartition":
        return cls([0] * num_edges, {0: list(range(num_edges))})

    def split(self, hit: set) -> None:
        """Split every component by membership in ``hit``; each real split
        adds one primary tree edge between the two parts."""
        by_comp: dict[int, list[int]] = {}
        for e in hit:
            by_comp.setdefault(self.component_of[e], []).append(e)
        next_id = len(self.members)
        for c, hit_c in sorted(by_comp.items()):
            if len(hit_c) == len(self.members[c]):
                continue
            hit_set = set(hit_c)
            stay = [e for e in self.members[c] if e not in hit_set]
            hit_c.sort()
            self.members[c] = stay
            self.members[next_id] = hit_c
            for e in hit_c:
                self.component_of[e] = next_id
            self.edges.append(TreeEdge(stay[0], hit_c[0], primary=True))
            next_id += 1

    def chain_remaining(self) -> None:
        """Chain the members of each surviving component in id order with
        secondary edges, completing the spanning tree."""
        for c in sorted(self.members, key=lambda c: min(self.members[c])):
            members = sorted(self.members[c])
            for a, b in zip(members, members[1:]):
                self.edges.append(TreeEdge(a, b, primary=False))


def build_spanning_tree(membership, num_edges: int, d: int,
                        rng: np.random.Generator, *, ground_size: int,
                        weights=None,
                        schedule: NetSchedule | None = None) -> list[TreeEdge]:
    """Spanning tree over hyperedge ids 0..num_edges-1.

    ``membership(x)`` lists the ids of all hyperedges containing ground
    element ``x`` and must be consistent across calls.  Pass a prebuilt
    ``schedule`` to fix the sample (tests); otherwise one is drawn.
    """
    if schedule is None:
        schedule = net_schedule(ground_size, num_edges, d, rng,
                                weights=weights)
    partition = ComponentPartition.whole(num_edges)
    for x in schedule.sample:
        hit = {e for e in membership(x) if 0 <= e < num_edges}
        partition.split(hit)
    partition.chain_remaining()
    return partition.edges


@dataclass(frozen=True)
class EdgeOrder:
    """A permutation of hyperedge (or vertex) ids."""

    perm: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("order is not a permutation")

    def __len__(self):
        return len(self.perm)

    def __iter__(self):
        return iter(self.perm)

    def position_of(self) -> dict:
        return {v: i for i, v in enumerate(self.perm)}


def euler_tour(edges: list[TreeEdge], num_nodes: int, root: int = 0) -> list[int]:
    """Closed walk of the tree visiting every edge twice (iterative DFS)."""
    if num_nodes < 1:
        raise ValueError("tree must have at least one node")
    if len(edges) != num_nodes - 1:
        raise ValueError("not a tree: wrong edge count")
    adj = [[] for _ in range(num_nodes)]
    for e in edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    for neigh in adj:
        neigh.sort()
    tour = [root]
    seen = [False] * num_nodes
    seen[root] = True
    stack = [(root, iter(adj[root]))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for child in it:
            if not seen[child]:
                seen[child] = True
                tour.append(child)
                stack.append((child, iter(adj[child])))
                advanced = True
                break
        if not advanced:
            stack.pop()
            if stack:
                tour.append(stack[-1][0])
    if not all(seen):
        raise ValueError("not a tree: disconnected")
    return tour


def euler_order(edges: list[TreeEdge], num_nodes: int, root: int = 0) -> EdgeOrder:
    """Tour pruned to first visits: a permutation of the tree nodes."""
    tour = euler_tour(edges, num_nodes, root)
    seen = set()
    perm = []
    for node in tour:
        if node not in seen:
            seen.add(node)
            perm.append(node)
    return EdgeOrder(tuple(perm))


def order_from_membership(membership, n: int, d: int,
                          rng: np.random.Generator, *,
                          weights=None) -> EdgeOrder:
    """Low-difference order over n hyperedges given a membership oracle on a
    ground set of the same ids (the self-dual ball hypergraph case).

    For the radius-k balls of a graph ``g`` the oracle is
    ``lambda x: neighborhood(g, x, k)``: by symmetry of hop distance the balls
    containing x are exactly the ball around x.  With ``weights`` (positive
    integers, one per vertex) the sample is drawn as if every vertex were
    duplicated weight-many times, which keeps the weighted total interval
    count small; :func:`net_schedule` rejects bad weights.
    """
    edges = build_spanning_tree(membership, n, d, rng, ground_size=n,
                                weights=weights)
    return euler_order(edges, n, root=0)


def total_difference(order: EdgeOrder, set_of) -> int:
    """Exact sum of |set_of(v_i) symdiff set_of(v_i+1)| along the order."""
    perm = list(order)
    total = 0
    for a, b in zip(perm, perm[1:]):
        total += len(set_of(a) ^ set_of(b))
    return total
