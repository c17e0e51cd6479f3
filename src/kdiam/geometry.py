"""Convex-polygon machinery for the geometric intersection graphs.

Shapes are strictly convex CCW polygons (degenerate 1- and 2-vertex shapes
are allowed where harmless, e.g. as Minkowski summands).  All predicates use
the module-wide absolute tolerance ``TOL``.

Adjacency is defined once, by :func:`adjacency_sides`: for a shape ``f``,
u ~ v iff u - v lies in the closed polygon ``2 * symmetrize(f)`` with every
side pushed outward by ``TOL`` along its unit normal.  Copies of ``f`` that
touch exactly are adjacent, and so are copies whose gap is at most ``TOL``
along some side normal; copies further apart are not.  The oracle
(:func:`intersection_graph_naive`) tests those side inequalities; the
geometric neighbour-set structure marks the polygon they bound
(:func:`adjacency_shape`) in its normalized frame, where the rounding of the
normalizing map (about 1e-16 relative) cannot undo a margin of ``TOL``.
Only pairs whose gap lies within that rounding of ``TOL`` itself may be
judged differently by the two.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, from_edges

TOL = 1e-9

Point = tuple  # (x, y) floats


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class ConvexPolygon:
    """Strictly convex polygon, vertices in counter-clockwise order."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 1:
            raise ValueError("vertices must be an (s, 2) array")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        s = v.shape[0]
        if s >= 3:
            for i in range(s):
                turn = _cross(v[i], v[(i + 1) % s], v[(i + 2) % s])
                if turn <= TOL:
                    raise ValueError(
                        "vertices must be strictly convex and CCW "
                        f"(turn {turn:.3g} at vertex {(i + 1) % s})")
        elif s == 2 and np.allclose(v[0], v[1], atol=TOL):
            raise ValueError("degenerate segment")
        self.vertices = v
        self.s = s

    def __repr__(self):
        return f"ConvexPolygon({self.vertices.tolist()})"

    def edge_vectors(self) -> np.ndarray:
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    def side_normals(self):
        """Outward unit normal and offset per side: the polygon is exactly
        the set of points p with normal . p <= offset for all sides."""
        out = []
        for i, e in enumerate(self.edge_vectors()):
            nrm = np.array([e[1], -e[0]])
            length = math.hypot(*nrm)
            if length <= TOL:
                raise ValueError("zero-length edge")
            nrm = nrm / length
            out.append((nrm, float(nrm @ self.vertices[i])))
        return out

    def area(self) -> float:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        return float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]) / 2.0)

    def is_symmetric(self, tol: float = 1e-7) -> bool:
        """Central symmetry about the origin (vertex i pairs with vertex
        i + s/2 negated, after cyclic alignment)."""
        if self.s % 2 != 0:
            return False
        v = self.vertices
        half = self.s // 2
        target = -v[0]
        dists = np.hypot(v[:, 0] - target[0], v[:, 1] - target[1])
        j = int(np.argmin(dists))
        rolled = np.roll(v, -((j - half) % self.s), axis=0)
        return bool(np.allclose(rolled[half:], -rolled[:half], atol=tol))

    def scaled(self, factor: float) -> "ConvexPolygon":
        # Negative factors are point reflections, which keep CCW order.
        if factor == 0:
            raise ValueError("zero scale")
        return ConvexPolygon(self.vertices * factor)

    def negated(self) -> "ConvexPolygon":
        return ConvexPolygon(-self.vertices)


def _start_at_bottom(poly: ConvexPolygon) -> np.ndarray:
    v = poly.vertices
    keys = list(zip(v[:, 1], v[:, 0]))
    j = min(range(len(keys)), key=keys.__getitem__)
    return np.roll(v, -j, axis=0)


def _edge_angle(e) -> float:
    a = math.atan2(e[1], e[0])
    if a < -TOL:
        a += 2 * math.pi
    return a


def minkowski_sum(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Pointwise sum of two convex shapes via the edge merge by angle.

    Starting both chains at their bottom-most vertices, edge directions are
    visited in increasing angle; parallel edges combine, so the output has at
    most s_p + s_q vertices.
    """
    vp = _start_at_bottom(p)
    vq = _start_at_bottom(q)
    ep = list(np.diff(np.vstack([vp, vp[:1]]), axis=0)) if len(vp) > 1 else []
    eq = list(np.diff(np.vstack([vq, vq[:1]]), axis=0)) if len(vq) > 1 else []
    if not ep and not eq:
        return ConvexPolygon(vp + vq)
    merged = []
    i = j = 0
    while i < len(ep) or j < len(eq):
        if j == len(eq):
            take = ep[i]; i += 1
        elif i == len(ep):
            take = eq[j]; j += 1
        else:
            ai, aj = _edge_angle(ep[i]), _edge_angle(eq[j])
            if abs(ai - aj) <= 1e-12:
                take = ep[i] + eq[j]; i += 1; j += 1
            elif ai < aj:
                take = ep[i]; i += 1
            else:
                take = eq[j]; j += 1
        if merged and abs(_edge_angle(merged[-1]) - _edge_angle(take)) <= 1e-12:
            merged[-1] = merged[-1] + take
        else:
            merged.append(take)
    verts = [vp[0] + vq[0]]
    for e in merged[:-1]:
        verts.append(verts[-1] + e)
    return ConvexPolygon(np.array(verts))


def symmetrize(f: ConvexPolygon) -> ConvexPolygon:
    """Centrally symmetric shape defining the same intersection graph:
    half the sum of the shape and its point reflection."""
    if f.s == 1:
        return ConvexPolygon([[0.0, 0.0]])
    return minkowski_sum(f.scaled(0.5), f.negated().scaled(0.5))


def norm_value(f: ConvexPolygon, x) -> float:
    """Gauge of a symmetric shape: the least r >= 0 with x in r*f.

    Positively homogeneous; requires the origin strictly inside, which makes
    every side offset positive.
    """
    sides = f.side_normals()
    if any(off <= TOL for _, off in sides):
        raise ValueError("origin must be strictly interior to the shape")
    x = np.asarray(x, dtype=np.float64)
    return max(0.0, max(float(nrm @ x) / off for nrm, off in sides))


def shape_metric(f: ConvexPolygon, a, b) -> float:
    """Distance induced by the gauge (a true metric for symmetric shapes)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return norm_value(f, a - b)


def check_distinct(points) -> None:
    """Raise ``ValueError("duplicate points i and j")`` if two rows of the
    (n, 2) array ``points`` are equal, for the smallest such j and i the
    first row equal to it.  -0.0 equals 0.0."""
    pts = np.asarray(points, dtype=np.float64)
    _, first, inverse = np.unique(pts, axis=0, return_index=True,
                                  return_inverse=True)
    first_equal = first[inverse.reshape(-1)]
    repeats = np.flatnonzero(first_equal != np.arange(len(pts)))
    if repeats.size:
        j = int(repeats[0])
        raise ValueError(f"duplicate points {int(first_equal[j])} and {j}")


def adjacency_sides(f: ConvexPolygon) -> list:
    """(unit normal, offset) per side of the adjacency shape for copies of
    ``f``: u ~ v iff normal . (u - v) <= offset for every side.  The sides
    of twice the symmetrized shape, each pushed out by ``TOL`` (see the
    module docstring)."""
    h = f if f.is_symmetric() else symmetrize(f)
    return [(nrm, 2.0 * off + TOL) for nrm, off in h.side_normals()]


def adjacency_shape(f: ConvexPolygon) -> ConvexPolygon:
    """The polygon bounded by :func:`adjacency_sides`: vertex i is where
    side i - 1 meets side i."""
    sides = adjacency_sides(f)
    verts = []
    for (n0, o0), (n1, o1) in zip(sides[-1:] + sides[:-1], sides):
        det = n0[0] * n1[1] - n0[1] * n1[0]
        verts.append(((o0 * n1[1] - o1 * n0[1]) / det,
                      (n0[0] * o1 - n1[0] * o0) / det))
    return ConvexPolygon(verts)


def intersection_graph_naive(points, f: ConvexPolygon) -> Graph:
    """Materialized intersection graph for shape ``f`` centered at each
    point: u ~ v iff translated copies of f overlap (boundary touching
    counts), equivalently u - v meets every :func:`adjacency_sides`
    inequality.

    This is the oracle graph the geometric algorithms are checked against.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    check_distinct(pts)
    adj = np.ones((n, n), dtype=bool)
    for nrm, off in adjacency_sides(f):
        dots = pts @ nrm
        gap = dots[:, None] - dots[None, :]
        adj &= gap <= off
    np.fill_diagonal(adj, False)
    edges = [(i, j) for i, j in zip(*np.nonzero(np.triu(adj)))]
    return from_edges(n, [(int(i), int(j)) for i, j in edges])


@dataclass(frozen=True)
class AffineMap:
    """Invertible linear map plus translation, applied as A @ p + t."""

    matrix: tuple
    translation: tuple = (0.0, 0.0)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if abs(np.linalg.det(m)) <= TOL:
            raise ValueError("affine map must be invertible")

    @property
    def _m(self):
        return np.asarray(self.matrix, dtype=np.float64)

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self._m.T + np.asarray(self.translation)

    def apply_polygon(self, poly: ConvexPolygon) -> ConvexPolygon:
        verts = self.apply(poly.vertices)
        if np.linalg.det(self._m) < 0:
            verts = verts[::-1]
        return ConvexPolygon(verts)


def normalize_polygon(f: ConvexPolygon) -> tuple[ConvexPolygon, AffineMap]:
    """Put a symmetric polygon into the stripe-friendly frame.

    Scales a longest side to length 1, rotates it vertical, then shears and
    compresses so that side and its mirror become the vertical sides of the
    centered unit square.  The result has height at most s, contains the
    unit square, and the returned map sends input points into the new frame.

    Exact side normals matter: stripes always carry up (0, 1) and down
    (0, -1), and share a direction only between equal normals.  Among
    longest sides the one needing the least rotation is picked, so an
    axis-aligned square maps by a multiple of the identity and keeps its
    normals exact.  Any parallelogram's image is the unit square up to
    rounding; within 2e-15 of it, the square itself is returned.
    """
    if not f.is_symmetric():
        raise ValueError("polygon must be centrally symmetric")
    edges = f.edge_vectors()
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    longest = float(lengths.max())
    candidates = [i for i in range(f.s) if lengths[i] >= longest - 1e-12]

    def rotation_for(i):
        # Angle rotating edge i to point straight up.
        return math.remainder(math.pi / 2 - math.atan2(edges[i][1], edges[i][0]),
                              2 * math.pi)

    best = min(candidates, key=lambda i: (abs(rotation_for(i)), i))
    phi = rotation_for(best)
    c, s_ = math.cos(phi), math.sin(phi)
    rot_scale = np.array([[c, -s_], [s_, c]]) / longest

    verts = f.vertices @ rot_scale.T
    edge = verts[(best + 1) % f.s] - verts[best]
    assert abs(edge[0]) < 1e-9 and edge[1] > 0
    a = float(verts[best][0])
    if a < 0:
        # Chosen side sits on the left; its mirror is the right one.
        a = -a
        mid_y = -float((verts[best][1] + verts[(best + 1) % f.s][1]) / 2.0)
    else:
        mid_y = float((verts[best][1] + verts[(best + 1) % f.s][1]) / 2.0)
    if a <= TOL:
        raise ValueError("degenerate polygon: zero width")
    shear = np.array([[1.0 / (2.0 * a), 0.0], [-mid_y / a, 1.0]])
    matrix = shear @ rot_scale
    amap = AffineMap(tuple(map(tuple, matrix)))
    out = amap.apply_polygon(f)
    if f.s == 4 and np.abs(np.abs(out.vertices) - 0.5).max() <= 2e-15:
        out = ConvexPolygon(np.copysign(0.5, out.vertices))
    return out, amap


@dataclass(frozen=True)
class Trapezoid:
    """One vertical slab of a polygon: x range, top and bottom side values
    at both ends, and the indices of the polygon sides they lie on."""

    x0: float
    x1: float
    top0: float
    top1: float
    bot0: float
    bot1: float
    top_side: int
    bot_side: int

    def area(self) -> float:
        return (self.x1 - self.x0) * (
            (self.top0 - self.bot0) + (self.top1 - self.bot1)) / 2.0


def _chains(poly: ConvexPolygon):
    """Split the boundary into lower and upper chains from the leftmost to
    the rightmost vertex.  Each chain is a list of (va, vb, side) segments
    going left to right, where ``side`` indexes the polygon edge the segment
    lies on."""
    v = poly.vertices
    s = poly.s
    keys = list(zip(v[:, 0], v[:, 1]))
    left = min(range(s), key=keys.__getitem__)
    right = max(range(s), key=keys.__getitem__)
    lower = []  # walks with the CCW orientation; segment (i, i+1) is edge i
    i = left
    while i != right:
        lower.append((i, (i + 1) % s, i))
        i = (i + 1) % s
    upper = []  # walks against the orientation; segment (i+1, i) is edge i
    i = right
    while i != left:
        upper.append(((i + 1) % s, i, i))
        i = (i + 1) % s
    upper.reverse()
    return lower, upper


def trapezoid_decompose(poly: ConvexPolygon) -> list[Trapezoid]:
    """Cut the polygon with a vertical line through every vertex.

    The union of the cells is the polygon, and each cell's non-vertical
    sides lie on single polygon sides.
    """
    v = poly.vertices
    lower, upper = _chains(poly)
    cuts = sorted(set(round(float(x), 12) for x in v[:, 0]))
    if len(cuts) < 2:
        raise ValueError("polygon has zero width")

    def side_covering(chain, x):
        for va, vb, side in chain:
            if v[va][0] - 1e-12 <= x <= v[vb][0] + 1e-12 and v[vb][0] > v[va][0]:
                return side
        raise ValueError(f"x={x} outside chain span")

    out = []
    for x0, x1 in zip(cuts, cuts[1:]):
        mid = (x0 + x1) / 2.0
        sb = side_covering(lower, mid)
        st = side_covering(upper, mid)
        out.append(Trapezoid(
            x0, x1,
            _line_at(v, st, poly.s, x0), _line_at(v, st, poly.s, x1),
            _line_at(v, sb, poly.s, x0), _line_at(v, sb, poly.s, x1),
            top_side=st, bot_side=sb))
    return out


def _line_at(v, side, s, x):
    a, b = v[side], v[(side + 1) % s]
    if abs(b[0] - a[0]) <= 1e-15:
        return float(min(a[1], b[1]))
    t = (x - a[0]) / (b[0] - a[0])
    return float(a[1] + t * (b[1] - a[1]))


def axis_square(side: float = 1.0, center=(0.0, 0.0)) -> ConvexPolygon:
    h = side / 2.0
    cx, cy = center
    return ConvexPolygon([[cx - h, cy - h], [cx + h, cy - h],
                          [cx + h, cy + h], [cx - h, cy + h]])


# ---------------------------------------------------------------------------
# File formats.  Points: CSV lines "x,y".  Polygon: first line the side
# count, then CCW vertex lines "x,y".


def parse_points(text: str) -> np.ndarray:
    rows = []
    for i, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"line {i}: expected 'x,y'")
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            raise ValueError(f"line {i}: coordinates must be numbers") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"line {i}: coordinates must be finite")
        rows.append((x, y))
    if not rows:
        raise ValueError("no points")
    return np.array(rows, dtype=np.float64)


def format_points(points) -> str:
    return "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in np.asarray(points))


def load_points(path) -> np.ndarray:
    return parse_points(Path(path).read_text())


def parse_polygon(text: str) -> ConvexPolygon:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty polygon file")
    try:
        s = int(lines[0])
    except ValueError as exc:
        raise ValueError("first line must be the side count") from exc
    if len(lines) - 1 != s:
        raise ValueError(f"expected {s} vertex lines, found {len(lines) - 1}")
    verts = [tuple(float(t) for t in ln.split(",")) for ln in lines[1:]]
    return ConvexPolygon(verts)


def format_polygon(poly: ConvexPolygon) -> str:
    out = [str(poly.s)]
    out.extend(f"{float(x)!r},{float(y)!r}" for x, y in poly.vertices)
    return "\n".join(out) + "\n"


def load_polygon(path) -> ConvexPolygon:
    return parse_polygon(Path(path).read_text())
