"""Shared independent oracles for the test suite.

Everything here is deliberately written from scratch (brute force where
possible) so it cannot share a bug with the library paths it checks.
"""

from __future__ import annotations


# -- graphs -----------------------------------------------------------------


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


# -- interval sets ----------------------------------------------------------
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


def expand_step(g, order, reps, radius, d, rng):
    """(order, reps) of the (radius + 1)-balls: per-vertex sweep unions,
    a fresh degree-weighted order, then the loop rebase."""
    import kdiam.order
    from kdiam.graph import neighborhood

    unions = tuple(union_sweep([reps[v]] + [reps[x] for x in g.adjacency[v]])
                   for v in range(g.n))
    degrees = [max(deg, 1) for deg in g.degrees()]
    new_order = tuple(kdiam.order.order_from_membership(
        lambda x: neighborhood(g, x, radius + 1), g.n, d, rng,
        weights=degrees))
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


def shoelace(verts):
    s = len(verts)
    acc = 0.0
    for i in range(s):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % s]
        acc += x1 * y2 - x2 * y1
    return acc / 2.0


# -- stripe ground truth ----------------------------------------------------


class StripeModel:
    """Replays stripe updates naively: per point, the bottom boundary value
    is the max of all bottom lines covering its x (plus the below-band
    sentinel), the top value the min of top lines (plus the band ceiling)."""

    def __init__(self, static):
        self.static = static
        self.bot_updates = []
        self.top_updates = []

    def apply(self, xlo, xhi, side, j, c):
        from kdiam.stripes import BOT

        if side == BOT:
            self.bot_updates.append((xlo, xhi, j, c))
        else:
            self.top_updates.append((xlo, xhi, j, c))

    def line_value(self, j, c, x):
        ux, uy = self.static.dirs[j]
        return (c - ux * x) / uy

    def boundaries_at(self, i):
        """(B, T) boundary values at stored point i (x-sorted index)."""
        x = self.static.xs[i]
        b = self.static.y0 - 1.0
        for xlo, xhi, j, c in self.bot_updates:
            if xlo <= x <= xhi:
                b = max(b, self.line_value(j, c, x))
        t = self.static.y1
        for xlo, xhi, j, c in self.top_updates:
            if xlo <= x <= xhi:
                t = min(t, self.line_value(j, c, x))
        return b, t

    def covered(self, i):
        b, t = self.boundaries_at(i)
        y = self.static.pts[i][1]
        return y <= b or y >= t

    def marked_ids(self):
        return {self.static.ids[i] for i in range(self.static.size)
                if self.covered(i)}


def audit_stripe_version(version, model, tol=1e-9):
    """Walk a version checking the node rules against the replayed model:
    non-outdated boundaries and their masks exact (bit ``i - a`` for the
    point at stripe position i), lazy boundaries single lines."""
    static = version.static
    bvals = [model.boundaries_at(i) for i in range(static.size)]

    def expect_boundary(pos, side):
        samples = [(static.xs[i], bvals[i][side])
                   for i in range(static.a[pos], static.b[pos] + 1)]
        lo, hi = [], []
        for ux, uy in static.dirs:
            dots = [ux * x + uy * y for x, y in samples]
            lo.append(min(dots))
            hi.append(max(dots))
        return lo, hi

    def expect_mask(pos, side):
        a = static.a[pos]
        want = 0
        for i in range(a, static.b[pos] + 1):
            y = static.pts[i][1]
            if (y <= bvals[i][0]) if side == 0 else (y >= bvals[i][1]):
                want |= 1 << (i - a)
        return want

    problems = []

    def walk(node, bot_out, top_out):
        for side, name, out in ((0, "bot", bot_out), (1, "top", top_out)):
            if out:
                continue
            boundary = node.bot if side == 0 else node.top
            lo, hi = expect_boundary(node.pos, side)
            for i in range(len(static.dirs)):
                if abs(boundary.lo[i] - lo[i]) > tol or \
                        abs(boundary.hi[i] - hi[i]) > tol:
                    problems.append((f"{name} extremes", node.pos, i))
                    break
            mask = node.bot_mask if side == 0 else node.top_mask
            if mask != expect_mask(node.pos, side):
                problems.append((f"{name} mask", node.pos))
            # A lazy line under a lazy ancestor on the same side is replaced
            # by the ancestor's line before anything reads it.
            lazy = node.bot_lazy if side == 0 else node.top_lazy
            if lazy and boundary.line is None:
                problems.append((f"{name} lazy but not simple", node.pos))
        if node.left is not None:
            walk(node.left, bot_out or node.bot_lazy,
                 top_out or node.top_lazy)
            walk(node.right, bot_out or node.bot_lazy,
                 top_out or node.top_lazy)

    walk(version.root, False, False)
    return problems


# -- implicit driver --------------------------------------------------------


def k_diameter_implicit_reference(nsds_factory, n, k, d, rng, *,
                                  inspect=None):
    """The implicit driver with order membership by BFS simulated through
    the structure and a fresh structure per radius: what
    ``k_diameter_implicit``, which reads membership from the ball handles,
    must reproduce order for order and delta for delta at every radius
    below k, and answer for answer."""
    from kdiam.implicit import expand_balls, simulate_bfs
    from kdiam.order import order_from_membership

    order = list(range(n))
    deltas = [{order[0]}] + [{order[i - 1], order[i]} for i in range(1, n)]
    for r in range(1, k + 1):
        nsds = nsds_factory()
        handles = expand_balls(deltas, nsds)
        new_order = list(order_from_membership(
            lambda x: simulate_bfs(nsds, x, r).keys(), n, d, rng))
        old_pos = {v: i for i, v in enumerate(order)}
        mapped = [handles[old_pos[v]] for v in new_order]
        deltas = [set(nsds.list_differences(nsds.empty, mapped[0]))]
        deltas.extend(set(nsds.list_differences(mapped[i - 1], mapped[i]))
                      for i in range(1, n))
        order = new_order
        if inspect is not None:
            inspect(r, nsds, order, deltas)
    return deltas[0] == set(range(n)) and all(not x for x in deltas[1:])
