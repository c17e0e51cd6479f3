"""Convex-polygon machinery for the geometric intersection graphs.

Shapes are strictly convex CCW polygons.  All predicates use the module-wide
absolute tolerance ``TOL``.

Every convex polygon is the intersection of one slab
``lo <= normal . x <= hi`` per class of parallel sides
(:meth:`ConvexPolygon.slabs`), lo and hi being the least and greatest
projection of a vertex on the normal.  Adjacency is defined once, by
:func:`adjacency_slabs`: copies of ``f`` at u and v meet iff u - v lies in
``f - f``, whose slab along each such normal is ``[lo - hi, hi - lo]``;
pushing every side out by ``TOL`` makes copies that touch exactly adjacent,
and so are copies whose gap is at most ``TOL`` along some side normal;
copies further apart are not.  The oracle (:func:`intersection_graph_naive`)
and the geometric neighbour-set structure (:mod:`kdiam.plane`) both compare
``normal . u - normal . v`` with the slab's bounds, on the same projections
``points @ normal``, so they judge every pair alike, touching pairs
included.
"""

from __future__ import annotations

import csv
import io
import math
from functools import cached_property
from pathlib import Path

import numpy as np

from .graph import Graph

TOL = 1e-9


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class ConvexPolygon:
    """Strictly convex polygon, vertices in counter-clockwise order."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be an (s, 2) array")
        if v.shape[0] < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        s = v.shape[0]
        for i in range(s):
            turn = _cross(v[i], v[(i + 1) % s], v[(i + 2) % s])
            if turn <= TOL:
                raise ValueError(
                    "vertices must be strictly convex and CCW "
                    f"(turn {turn:.3g} at vertex {(i + 1) % s})")
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

    def slabs(self) -> tuple:
        """(outward unit normal, lo, hi) per class of parallel sides, the
        normal being the first such side's and lo/hi the least and greatest
        of ``vertices @ normal``: the polygon is exactly the set of points p
        with ``lo <= normal . p <= hi`` for every class.  Worked out once
        per polygon."""
        return self._slabs

    @cached_property
    def _slabs(self) -> tuple:
        out = []
        for nrm, _ in self.side_normals():
            if all(abs(nrm[0] * m[1] - nrm[1] * m[0]) > 1e-12
                   for m, _, _ in out):
                proj = self.vertices @ nrm
                out.append((nrm, float(proj.min()), float(proj.max())))
        return tuple(out)

    @cached_property
    def _adjacency_slabs(self) -> tuple:
        """:func:`adjacency_slabs`, worked out once per polygon."""
        return tuple((nrm, lo - hi - TOL, hi - lo + TOL)
                     for nrm, lo, hi in self._slabs)


def check_distinct(points) -> None:
    """Raise ``ValueError`` unless ``points`` is a nonempty (n, 2) array, if
    a row holds a nan or an infinity ("point i is not finite", i the first
    such row) or if two rows are equal ("duplicate points i and j", j the
    smallest repeat and i the first row equal to it).  -0.0 equals 0.0."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, 2) array")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"point {int(np.argmin(finite))} is not finite")
    # A stable sort puts equal rows next to each other, in index order, so
    # the rows equal to the one before them are the repeats.
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    rows = pts[order]
    repeat = (rows[1:, 0] == rows[:-1, 0]) & (rows[1:, 1] == rows[:-1, 1])
    if repeat.any():
        j = int(order[1:][repeat].min())
        i = int(np.flatnonzero((pts == pts[j]).all(axis=1))[0])
        raise ValueError(f"duplicate points {i} and {j}")


def adjacency_slabs(f: ConvexPolygon) -> tuple:
    """(unit normal, lo, hi) per class of parallel sides of ``f``: u ~ v iff
    ``lo <= normal . u - normal . v <= hi`` for every class.  The slabs of
    ``f - f``, each side pushed out by ``TOL`` (see the module docstring);
    ``lo == -hi`` exactly.  Worked out once per shape, so deciding many
    instances of one shape does not redo it."""
    return f._adjacency_slabs


def intersection_graph_naive(points, f: ConvexPolygon) -> Graph:
    """Materialized intersection graph for shape ``f`` centered at each
    point: u ~ v iff translated copies of f overlap (boundary touching
    counts), equivalently u and v meet every :func:`adjacency_slabs`
    inequality, each evaluated on the projections ``points @ normal``.

    This is the oracle graph the geometric algorithms are checked against.
    """
    pts = np.asarray(points, dtype=np.float64)
    check_distinct(pts)
    n = len(pts)
    adj = np.ones((n, n), dtype=bool)
    for nrm, lo, hi in adjacency_slabs(f):
        dots = pts @ nrm
        diff = dots[:, None] - dots[None, :]
        adj &= (lo <= diff) & (diff <= hi)
    return Graph(n, np.argwhere(np.triu(adj, 1)))


def axis_square(side: float = 1.0) -> ConvexPolygon:
    h = side / 2.0
    return ConvexPolygon([[-h, -h], [h, -h], [h, h], [-h, h]])


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
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines:
        raise ValueError("empty polygon file")
    try:
        s = int(lines[0][1])
    except ValueError as exc:
        raise ValueError("first line must be the side count") from exc
    if len(lines) - 1 != s:
        raise ValueError(f"expected {s} vertex lines, found {len(lines) - 1}")
    verts = []
    for i, ln in lines[1:]:
        try:
            x, y = map(float, ln.split(","))
        except ValueError:
            raise ValueError(f"line {i}: expected 'x,y'") from None
        verts.append((x, y))
    return ConvexPolygon(verts)


def format_polygon(poly: ConvexPolygon) -> str:
    out = [str(poly.s)]
    out.extend(f"{float(x)!r},{float(y)!r}" for x, y in poly.vertices)
    return "\n".join(out) + "\n"


def load_polygon(path) -> ConvexPolygon:
    return parse_polygon(Path(path).read_text())
