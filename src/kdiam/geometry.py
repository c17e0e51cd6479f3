"""Convex-polygon machinery for the geometric intersection graphs.

Shapes are strictly convex CCW polygons (degenerate 1- and 2-vertex shapes
are allowed where harmless, e.g. as Minkowski summands).  All predicates use
the module-wide absolute tolerance ``TOL``.

Adjacency is defined once, by :func:`adjacency_slabs`: for a shape ``f``,
u ~ v iff u - v lies in the closed polygon ``2 * symmetrize(f)`` with every
side pushed outward by ``TOL`` along its unit normal.  Copies of ``f`` that
touch exactly are adjacent, and so are copies whose gap is at most ``TOL``
along some side normal; copies further apart are not.  That polygon is
centrally symmetric, so it is the intersection of one slab
``|normal . x| <= half-width`` per pair of opposite sides.  The oracle
(:func:`intersection_graph_naive`) and the geometric neighbour-set structure
(:mod:`kdiam.plane`) both compare ``|normal . u - normal . v|`` with the
half-width, on the same projections ``points @ normal``, so they judge every
pair alike, touching pairs included.
"""

from __future__ import annotations

import csv
import io
import math
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

    def slabs(self) -> list:
        """(outward unit normal, offset) of the first side of each pair of
        opposite sides of a centrally symmetric polygon: the polygon is
        exactly the set of points p with ``|normal . p| <= offset`` for every
        pair."""
        if self.s < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if not self.is_symmetric():
            raise ValueError("polygon must be centrally symmetric")
        return self.side_normals()[:self.s // 2]

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


def adjacency_slabs(f: ConvexPolygon) -> list:
    """(unit normal, half-width) per pair of opposite sides of the
    adjacency shape for copies of ``f``: u ~ v iff
    ``|normal . u - normal . v| <= half-width`` for every pair.  The sides of
    twice the symmetrized shape, each pushed out by ``TOL`` (see the module
    docstring).  A shape that :meth:`ConvexPolygon.is_symmetric` accepts
    may still be asymmetric within its tolerance, so it is symmetrized too:
    the opposite sides of ``symmetrize(f)`` are exact negations."""
    return [(nrm, 2.0 * w + TOL) for nrm, w in symmetrize(f).slabs()]


def intersection_graph_naive(points, f: ConvexPolygon) -> Graph:
    """Materialized intersection graph for shape ``f`` centered at each
    point: u ~ v iff translated copies of f overlap (boundary touching
    counts), equivalently u and v meet every :func:`adjacency_slabs`
    inequality, each evaluated on the projections ``points @ normal``.

    This is the oracle graph the geometric algorithms are checked against.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    check_distinct(pts)
    adj = np.ones((n, n), dtype=bool)
    for nrm, w in adjacency_slabs(f):
        dots = pts @ nrm
        adj &= np.abs(dots[:, None] - dots[None, :]) <= w
    np.fill_diagonal(adj, False)
    edges = [(i, j) for i, j in zip(*np.nonzero(np.triu(adj)))]
    return from_edges(n, [(int(i), int(j)) for i, j in edges])


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
