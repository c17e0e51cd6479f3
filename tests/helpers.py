"""Shared independent oracles for the test suite, and the analysis code
only the tests run: the distance VC-dimension check, the gauge norm and
the expansion's call counter.

The oracles are deliberately written from scratch (brute force where
possible) so they cannot share a bug with the library paths they check.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


# -- graphs -----------------------------------------------------------------


def adjacency(g):
    """Per vertex of ``g``, its neighbours in increasing id, read off the
    graph's CSR arrays."""
    indptr, indices = g.csr
    return [tuple(indices[indptr[v]:indptr[v + 1]].tolist())
            for v in range(g.n)]


def bfs_dict(adj, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def all_pairs_dist(adj):
    return [bfs_dict(adj, s) for s in range(len(adj))]


def ball(adj, v, r):
    return {u for u, d in bfs_dict(adj, v).items() if d <= r}


def distance_vc_shatter_check(g, max_subset: int) -> int:
    """Largest subset size shattered by the family of all balls of ``g``.

    Exhaustive: enumerates every ball N^k[v], k >= 0 (every round of
    ``kdiam.graph.ball_masks``), and every candidate subset of size <=
    max_subset, so it is for small graphs only.
    """
    from itertools import combinations

    from kdiam.graph import ball_masks

    if max_subset < 1:
        raise ValueError("max_subset must be >= 1")
    n = g.n
    # Radii past the sweep's last round add nothing: each ball is then its
    # component.
    balls = set().union(*ball_masks(g))
    for size in range(min(max_subset, n), 0, -1):
        for subset in combinations(range(n), size):
            y_mask = sum(1 << u for u in subset)
            if len({b & y_mask for b in balls}) == 1 << size:
                return size
    return 0


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def dfs_preorder(edges, n, root=0):
    """Recursive depth-first preorder from ``root``, neighbours in
    increasing id."""
    adj = {x: set() for x in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = []

    def visit(u):
        out.append(u)
        for v in sorted(adj[u]):
            if v not in out:
                visit(v)

    visit(root)
    return out


def spanning_tree(membership, n, sample):
    """Chazelle–Welzl refinement tree over ids ``0..n-1`` as a list of
    ``(u, v)`` edges; :func:`kdiam.order.order_from_membership` is its
    preorder on rank positions.

    ``membership(x)`` lists the ids of all hyperedges containing ground
    element ``x``.  Bit i of an id's key is set when its hyperedge contains
    the i-th sampled element, so after i + 1 elements the ids with equal
    keys form the classes that agree on that prefix of the sample.  When
    the i-th element splits a class, one edge joins the least ids of its
    two parts.  Each final class is chained in id order.
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


def total_difference(order, set_of):
    """Exact sum of |set_of(v_i) symdiff set_of(v_i+1)| along the order."""
    return sum(len(set_of(a) ^ set_of(b)) for a, b in zip(order, order[1:]))


def random_connected_graph_reference(n, m, rng):
    """``kdiam.gen.random_connected_graph`` as one draw per step: a
    permutation, then for i = 1..n-1 one ``integers(0, i)``, then pairs
    until m distinct edges are held.  The bulk draws must give the same
    graph and leave ``rng`` in the same state."""
    from kdiam.graph import Graph

    edges = set()
    if n > 1:
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
    return Graph(n, sorted(edges))


def parse_edge_list_reference(text):
    """``kdiam.graph.parse_edge_list`` one line at a time, each token read
    by ``int``: the same graph, or the same error and message, bar the
    differences the differential test pins."""
    from kdiam.graph import Graph, GraphFormatError

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
    return Graph(n, edges)


# -- interval sets ----------------------------------------------------------
# One interval set as a tuple of (a, b) pairs, and its conversions to and
# from positions and ``kdiam.intervals.IntervalSets``.

IntervalSet = tuple  # of (a, b) int pairs


def canonicalize(positions) -> IntervalSet:
    """Minimal disjoint non-adjacent interval cover of a position set."""
    pos = sorted(set(positions))
    if not pos:
        return ()
    out = []
    start = prev = pos[0]
    for p in pos[1:]:
        if p == prev + 1:
            prev = p
        else:
            out.append((start, prev))
            start = prev = p
    out.append((start, prev))
    return tuple(out)


def positions(rep: IntervalSet):
    """Iterate the covered positions in increasing order."""
    for a, b in rep:
        yield from range(a, b + 1)


def from_reps(reps):
    """``IntervalSets`` holding the tuple interval sets ``reps``, in order."""
    import numpy as np

    from kdiam.intervals import IntervalSets, offsets_of

    reps = list(reps)
    pairs = np.array([p for rep in reps for p in rep],
                     dtype=np.int64).reshape(-1, 2)
    return IntervalSets(offsets_of([len(rep) for rep in reps]),
                        pairs[:, 0].copy(), pairs[:, 1].copy())


def rep_at(sets, v) -> IntervalSet:
    """Set ``v`` of an ``IntervalSets`` (negative ``v`` counts from the end)
    as a tuple of pairs."""
    v = range(len(sets))[v]
    lo, hi = sets.offsets[v], sets.offsets[v + 1]
    return tuple(zip(sets.starts[lo:hi].tolist(), sets.ends[lo:hi].tolist()))


def encoding_is_valid(g, enc) -> bool:
    """Every representation of a ``kdiam.explicit.BallEncoding`` canonical
    and decoding to the exact ball."""
    from kdiam.graph import balls_at, ids_of

    balls = balls_at(g, enc.radius)
    return enc.reps.is_canonical(g.n) and all(
        set(enc.decode(v).tolist()) == set(ids_of(balls[v]))
        for v in range(g.n))


# The per-set loop versions the explicit path used before it worked on CSR
# arrays; they are the reference the array versions are checked against.


def union_sweep(reps):
    """Canonical union of several interval sets by an endpoint sweep."""
    events = []
    for rep in reps:
        for a, b in rep:
            events.append((a, 1))
            events.append((b + 1, -1))
    events.sort()
    out = []
    depth = 0
    start = 0
    i = 0
    m = len(events)
    while i < m:
        pos = events[i][0]
        delta = 0
        while i < m and events[i][0] == pos:
            delta += events[i][1]
            i += 1
        if depth == 0 and depth + delta > 0:
            start = pos
        elif depth > 0 and depth + delta == 0:
            out.append((start, pos - 1))
        depth += delta
    return tuple(out)


def difference_positions(rep_a, rep_b):
    """Positions covered by ``rep_a`` but not by ``rep_b`` (merge walk)."""
    out = []
    jb = 0
    nb = len(rep_b)
    for a, b in rep_a:
        p = a
        while p <= b:
            while jb < nb and rep_b[jb][1] < p:
                jb += 1
            if jb == nb or rep_b[jb][0] > b:
                out.extend(range(p, b + 1))
                break
            ba, bb = rep_b[jb]
            if ba > p:
                out.extend(range(p, min(ba - 1, b) + 1))
            p = bb + 1
    return out


def rebase(reps_old, order_old, order_new):
    """Per-vertex interval tuples re-expressed under ``order_new``."""
    n = len(order_old)
    old_vertex = list(order_old)
    lefts = [[] for _ in range(n)]
    rights = [[] for _ in range(n)]
    for i, v in enumerate(order_new, start=1):
        prev = reps_old[order_new[i - 2]] if i > 1 else ()
        nxt = reps_old[order_new[i]] if i < n else ()
        for p in difference_positions(reps_old[v], prev):
            lefts[old_vertex[p - 1]].append(i)
        for p in difference_positions(reps_old[v], nxt):
            rights[old_vertex[p - 1]].append(i)
    reps_new = []
    for x in range(n):
        ls, rs = sorted(lefts[x]), sorted(rights[x])
        if len(ls) != len(rs):
            raise AssertionError("endpoint extraction lost an interval")
        reps_new.append(tuple(zip(ls, rs)))
    return tuple(reps_new)


def expand_step(g, order, reps, radius, d, rng, rank):
    """(order, reps) of the (radius + 1)-balls: per-vertex sweep unions,
    a fresh degree-weighted order with its ties broken by ``rank``, then
    the loop rebase."""
    import kdiam.order
    from kdiam.graph import neighborhood

    adj = adjacency(g)
    unions = tuple(union_sweep([reps[v]] + [reps[x] for x in adj[v]])
                   for v in range(g.n))
    degrees = [max(len(neigh), 1) for neigh in adj]
    new_order = tuple(kdiam.order.order_from_membership(
        lambda x: neighborhood(g, x, radius + 1), g.n, d, rng,
        weights=degrees, rank=rank))
    return new_order, rebase(unions, order, new_order)


# -- geometry ---------------------------------------------------------------


def convex_hull(points):
    """Monotone chain; returns CCW hull vertices without collinear points."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 1e-12:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def point_in_polygon(p, verts):
    """Crossing-number point-in-polygon (boundary behavior unspecified)."""
    x, y = p
    inside = False
    s = len(verts)
    for i in range(s):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % s]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
            if x < xi:
                inside = not inside
    return inside


def points_in_polygon(pts, verts):
    """:func:`point_in_polygon` for every row of an (m, 2) array at once,
    with the same float operations per point (so the same answer on the
    boundary too).  Returns a boolean array."""
    import numpy as np

    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    s = len(verts)
    for i in range(s):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % s]
        crosses = (y1 > y) != (y2 > y)
        # a horizontal side divides by zero, but never crosses
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
        inside ^= crosses & (x < xi)
    return inside


def norm_value(f, x) -> float:
    """Gauge of a symmetric ``kdiam.geometry.ConvexPolygon``: the least
    r >= 0 with x in r*f, from its side normals.

    Positively homogeneous; requires the origin strictly inside, which makes
    every side offset positive.
    """
    import numpy as np

    from kdiam.geometry import TOL

    sides = f.side_normals()
    if any(off <= TOL for _, off in sides):
        raise ValueError("origin must be strictly interior to the shape")
    x = np.asarray(x, dtype=np.float64)
    return max(0.0, max(float(nrm @ x) / off for nrm, off in sides))


def gauge_by_bisection(verts, p, hi=1e6, iters=100):
    """min r with p in r*polygon, via bisection over crossing-number
    containment; independent of the normal-form gauge."""
    px, py = p
    if abs(px) < 1e-300 and abs(py) < 1e-300:
        return 0.0
    lo, hi_ = 0.0, hi
    for _ in range(iters):
        mid = (lo + hi_) / 2
        if mid == 0 or not point_in_polygon((px / mid, py / mid), verts):
            lo = mid
        else:
            hi_ = mid
    return hi_


def polygons_intersect(verts_a, verts_b, tol=1e-9):
    """Separating-axis test for two convex polygons (closed: touching
    counts as intersecting)."""
    for verts in (verts_a, verts_b):
        s = len(verts)
        for i in range(s):
            ex = verts[(i + 1) % s][0] - verts[i][0]
            ey = verts[(i + 1) % s][1] - verts[i][1]
            nx, ny = ey, -ex
            pa = [nx * x + ny * y for x, y in verts_a]
            pb = [nx * x + ny * y for x, y in verts_b]
            if min(pb) > max(pa) + tol or min(pa) > max(pb) + tol:
                return False
    return True


def geometric_graph_sat(points, verts):
    """Adjacency by direct pairwise shape-intersection (SAT), as sets."""
    n = len(points)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            va = [(x + points[i][0], y + points[i][1]) for x, y in verts]
            vb = [(x + points[j][0], y + points[j][1]) for x, y in verts]
            if polygons_intersect(va, vb):
                edges.add((i, j))
    return edges


# -- implicit driver --------------------------------------------------------


@dataclass
class ExpandCost:
    """Operation counter for the expansion recursion: every call contributes
    its delta count plus the total size of its deltas."""

    operations: int = 0
    calls: int = 0

    @staticmethod
    def bound(a: int, b: int, t: int) -> int:
        """Closed-form budget the recursion must stay within over t deltas,
        where a is the first delta's size and b the total size of the
        rest."""
        ceil_log = (t - 1).bit_length() if t > 1 else 0
        return a + 3 * b * (ceil_log + 1) + 2 * t


@contextmanager
def counted_expansion():
    """Count the production recursion while the block runs: yields an
    :class:`ExpandCost` that every call of ``kdiam.implicit._expand_rec``
    adds to.  The recursion looks its own name up at call time, so the
    counting wrapper put in its place sees the inner calls too."""
    import kdiam.implicit

    cost = ExpandCost()
    rec = kdiam.implicit._expand_rec

    def counted(base, deltas, nsds):
        cost.calls += 1
        cost.operations += len(deltas) + sum(d.bit_count() for d in deltas)
        return rec(base, deltas, nsds)

    kdiam.implicit._expand_rec = counted
    try:
        yield cost
    finally:
        kdiam.implicit._expand_rec = rec


def expand_balls_reference(deltas, nsds, cost=None):
    """The expansion recursion on Python sets: the version
    ``kdiam.implicit.expand_balls`` replaced with int masks, and must match
    add for add, handle for handle and count for count."""
    from functools import reduce

    def rec(base, deltas):
        t = len(deltas)
        if cost is not None:
            cost.calls += 1
            cost.operations += t + sum(len(d) for d in deltas)
        common = set().union(*deltas[1:]) if t > 1 else set()
        shared = base
        for v in sorted(deltas[0] - common):
            shared = nsds.add_neighbours(shared, v)
        if t == 1:
            return [shared]
        m = t // 2 + 1
        d1 = deltas[0] & common
        dm = reduce(set.symmetric_difference, deltas[1:m], d1)
        return (rec(shared, [d1] + deltas[1:m - 1])
                + rec(shared, [dm] + deltas[m:]))

    deltas = [set(d) for d in deltas]
    if not deltas:
        raise ValueError("need at least one delta set")
    return rec(nsds.empty, deltas)


def as_masks(deltas):
    """Collections of vertex ids as the ``Mask`` deltas that
    ``kdiam.implicit.expand_balls`` takes."""
    from functools import reduce
    from operator import or_

    from kdiam.graph import Mask

    return [Mask(reduce(or_, (1 << v for v in d), 0)) for d in deltas]


def expansion_inputs(rng, trials):
    """(graph, deltas) pairs: a random connected graph on 3..39 vertices
    and 1..39 random delta masks over its vertices."""
    from kdiam.gen import random_connected_graph

    for _ in range(trials):
        n = int(rng.integers(3, 40))
        m_hi = min(n * (n - 1) // 2, 3 * n)
        g = random_connected_graph(n, int(rng.integers(n - 1, m_hi + 1)), rng)
        t = int(rng.integers(1, 40))
        yield g, as_masks([set(int(x) for x in
                               rng.choice(n, size=rng.integers(0, n + 1),
                                          replace=False))
                           for _ in range(t)])


def radius_steps_reference(nsds_factory, n, d, rng):
    """The implicit sweep with order membership by BFS simulated through
    the structure, a fresh structure per radius and the set recursion.
    Yields (r, order, deltas) for r = 1, 2, ...: the order drawn from the
    radius-r balls and those balls delta-encoded along it.  The first order
    is the structure's rank, which breaks the ties of every order drawn.
    What ``kdiam.implicit.radius_steps``, which reads membership from the
    ball handles, must reproduce order for order and delta for delta."""
    from itertools import count

    from kdiam.implicit import simulate_bfs
    from kdiam.order import order_from_membership

    rank = nsds_factory().rank
    order = list(rank)
    deltas = [{order[0]}] + [{order[i - 1], order[i]} for i in range(1, n)]
    for r in count(1):
        nsds = nsds_factory()
        handles = expand_balls_reference(deltas, nsds)
        new_order = list(order_from_membership(
            lambda x: simulate_bfs(nsds, x, r).keys(), n, d, rng, rank=rank))
        old_pos = {v: i for i, v in enumerate(order)}
        mapped = [handles[old_pos[v]] for v in new_order]
        deltas = [set(nsds.list_differences(nsds.empty, mapped[0]))]
        deltas.extend(set(nsds.list_differences(mapped[i - 1], mapped[i]))
                      for i in range(1, n))
        order = new_order
        yield r, order, deltas
