import math

import numpy as np
import pytest

from kdiam.gen import random_symmetric_polygon
from kdiam.geometry import (TOL, ConvexPolygon, adjacency_slabs, axis_square,
                            check_distinct, format_points, format_polygon,
                            intersection_graph_naive, parse_points,
                            parse_polygon)
from kdiam.plane import geometric_nsds

from helpers import (convex_hull, gauge_by_bisection, geometric_graph_sat,
                     norm_value, point_in_polygon, points_in_polygon)


def difference_body(f: ConvexPolygon) -> ConvexPolygon:
    """f - f, as the convex hull of every vertex difference a - b."""
    return ConvexPolygon(convex_hull([a - b for a in f.vertices
                                      for b in f.vertices]))


def random_convex(rng, sides=5, radius=1.0):
    while True:
        angles = np.sort(rng.uniform(0, 2 * math.pi, size=sides))
        if np.min(np.diff(angles)) < 0.15:
            continue
        pts = np.c_[np.cos(angles), np.sin(angles)] * radius
        try:
            return ConvexPolygon(pts)
        except ValueError:
            continue


class TestConvexPolygon:
    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            ConvexPolygon([[0, 0], [0, 1], [1, 0]])

    def test_rejects_collinear(self):
        with pytest.raises(ValueError):
            ConvexPolygon([[0, 0], [1, 0], [2, 0], [0, 1]])

    def test_needs_three_vertices(self):
        for vertices in ([[0, 0]], [[-1, 0], [1, 0]]):
            with pytest.raises(ValueError, match="at least 3 vertices"):
                ConvexPolygon(vertices)


class TestNormValue:
    def test_origin(self):
        assert norm_value(axis_square(2.0), (0.0, 0.0)) == 0.0

    def test_boundary_point(self):
        # square of half-extent 1: (1, 0) sits on the boundary
        assert norm_value(axis_square(2.0), (1.0, 0.0)) == pytest.approx(1.0)

    def test_homogeneous(self):
        rng = np.random.default_rng(2)
        f = random_symmetric_polygon(3, rng)
        for _ in range(30):
            x = rng.normal(size=2)
            lam = float(rng.uniform(-3, 3))
            assert norm_value(f, lam * x) == pytest.approx(
                abs(lam) * norm_value(f, x), abs=1e-9)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_symmetric_polygon(5, rng)
            verts = [tuple(v) for v in f.vertices]
            for _ in range(20):
                x = rng.normal(scale=2.0, size=2)
                got = norm_value(f, x)
                ref = gauge_by_bisection(verts, x)
                assert got == pytest.approx(ref, abs=1e-7)

    def test_requires_interior_origin(self):
        off = ConvexPolygon([[1, 1], [2, 1], [2, 2], [1, 2]])
        with pytest.raises(ValueError):
            norm_value(off, (0.5, 0.5))

    def test_triangle_inequality_and_segment_additivity(self):
        rng = np.random.default_rng(4)
        f = random_symmetric_polygon(3, rng)
        for _ in range(500):
            a, b, c = rng.normal(scale=3.0, size=(3, 2))
            assert norm_value(f, a - c) <= norm_value(f, a - b) + \
                norm_value(f, b - c) + 1e-9
            t = float(rng.uniform(0, 1))
            mid = a + t * (c - a)
            assert norm_value(f, a - c) == pytest.approx(
                norm_value(f, a - mid) + norm_value(f, mid - c), abs=1e-9)


class TestIntersectionGraph:
    def test_far_points_no_edge(self):
        g = intersection_graph_naive([(0, 0), (3, 0)], axis_square(1.0))
        assert list(g.edges()) == []

    def test_near_points_edge(self):
        g = intersection_graph_naive([(0, 0), (0.9, 0)], axis_square(1.0))
        assert list(g.edges()) == [(0, 1)]

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            intersection_graph_naive([(0, 0), (0.0, 0.0)], axis_square(1.0))

    def test_touching_within_tol_adjacent_beyond_not(self):
        square = axis_square(1.0)
        for gap, edge in ((0.0, True), (0.5 * TOL, True), (3 * TOL, False)):
            g = intersection_graph_naive([(0, 0), (1.0 + gap, 0.3)], square)
            assert (list(g.edges()) == [(0, 1)]) is edge, gap

    def test_non_finite_rejected_by_both_builders(self):
        # a nan or an infinity in either column, with no duplicate to find
        for value in (math.nan, math.inf, -math.inf):
            for column in (0, 1):
                pts = np.array([(0.0, 0.0), (0.5, 0.0), (0.3, 0.2),
                                (1.0, 0.1)])
                pts[2, column] = value
                for build in (intersection_graph_naive, geometric_nsds):
                    with pytest.raises(ValueError) as exc:
                        build(pts, axis_square(1.0))
                    assert str(exc.value) == "point 2 is not finite"

    @pytest.mark.parametrize("points", [[], [1.0, 2.0, 3.0], np.zeros((2, 3)),
                                        np.zeros((0, 2))],
                             ids=["empty", "1-d", "2x3", "0x2"])
    def test_shape_checked_by_both_builders(self, points):
        # one message from the oracle and the structure, before any
        # duplicate or finiteness check
        for build in (intersection_graph_naive, geometric_nsds):
            with pytest.raises(ValueError) as exc:
                build(points, axis_square(1.0))
            assert str(exc.value) == "points must be a nonempty (n, 2) array"

    def test_duplicate_check_shared(self):
        # a repeat far from its first occurrence among many points, and a
        # signed zero, give one message from the oracle and the structure;
        # of two repeated points the one repeated first is named
        pts = np.random.default_rng(6).uniform(0, 20, size=(500, 2))
        pts[480] = pts[7]
        signed = np.array([(3.0, 2.0), (-0.0, 1.0), (5.0, 5.0), (0.0, 1.0),
                           (3.0, 2.0)])
        for points, message in ((pts, "duplicate points 7 and 480"),
                                (signed, "duplicate points 1 and 3")):
            for build in (intersection_graph_naive,
                          lambda p, f: geometric_nsds(p, f)):
                with pytest.raises(ValueError) as exc:
                    build(points, axis_square(1.0))
                assert str(exc.value) == message

    @staticmethod
    def check_distinct_by_unique(pts):
        """The message ``check_distinct`` raises, or None, by ``np.unique``
        over the rows (the check's former implementation); no rows at all
        are no instance."""
        if len(pts) == 0:
            return "points must be a nonempty (n, 2) array"
        _, first, inverse = np.unique(pts, axis=0, return_index=True,
                                      return_inverse=True)
        first_equal = first[inverse.reshape(-1)]
        repeats = np.flatnonzero(first_equal != np.arange(len(pts)))
        if repeats.size:
            j = int(repeats[0])
            return f"duplicate points {int(first_equal[j])} and {j}"
        return None

    def test_duplicate_check_matches_unique(self):
        # Coordinates from a few small values of either sign, so rows often
        # repeat, -0.0 meets 0.0, and rows share one coordinate; then
        # distinct rows with planted copies of earlier ones.
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(0, 30))
            pts = rng.integers(-2, 3, size=(n, 2)) * 0.5
            pts *= rng.choice([1.0, -1.0], size=(n, 2))
            cases = [pts]
            if n >= 2:
                planted = rng.uniform(-1, 1, size=(n, 2))
                for _ in range(int(rng.integers(1, 3))):
                    i, j = rng.choice(n, size=2, replace=False)
                    planted[j] = planted[i]
                cases.append(planted)
            for case in cases:
                want = self.check_distinct_by_unique(case)
                try:
                    check_distinct(case)
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == want

    def test_matches_sat_oracle_squares(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 5, size=(50, 2))
        g = intersection_graph_naive(pts, axis_square(1.0))
        verts = [tuple(v) for v in axis_square(1.0).vertices]
        assert set(g.edges()) == geometric_graph_sat(pts, verts)

    def test_symmetrization_isomorphism_pentagons(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = random_convex(rng, sides=5)
            pts = rng.uniform(0, 4, size=(25, 2))
            direct = geometric_graph_sat(pts, [tuple(v) for v in f.vertices])
            via_gauge = set(intersection_graph_naive(pts, f).edges())
            assert direct == via_gauge


class TestAdjacencyShape:
    def test_sides_are_twice_the_symmetrized_shape_plus_tol(self):
        # One slab per class of parallel sides of f - f (twice the
        # symmetrized shape): its normal up to sign, its bounds the offsets
        # of its two sides pushed out by TOL, one the other's negation.
        rng = np.random.default_rng(9)
        # A square with one corner 4e-6 off has a tilted top side: its
        # adjacency shape is a hexagon.
        near_square = ConvexPolygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5],
                                     [-0.5, 0.5 + 4e-6]])
        assert len(adjacency_slabs(near_square)) == 3
        for sides in (3, 4, 5, 6, near_square):
            f = near_square if sides is near_square \
                else random_convex(rng, sides=sides)
            want = difference_body(f).side_normals()
            got = adjacency_slabs(f)
            assert 2 * len(got) == len(want)
            for nrm, lo, hi in got:
                assert lo == -hi
                for sign, bound in ((1.0, hi), (-1.0, -lo)):
                    (off,) = [o for n, o in want
                              if np.allclose(n, sign * nrm, atol=1e-9)]
                    assert bound == pytest.approx(off + TOL, abs=1e-12)

    def test_shape_is_bounded_by_the_sides(self):
        # The intersection of the slabs is the polygon bounded by every
        # side of f - f pushed out by TOL: on random offsets and on each
        # pushed-out vertex, nudged in and out.
        rng = np.random.default_rng(10)
        for sides in (3, 4, 5, 6):
            f = random_convex(rng, sides=sides)
            h = difference_body(f)
            pushed = [(nrm, off + TOL) for nrm, off in h.side_normals()]
            slabs = adjacency_slabs(f)
            probes = list(rng.uniform(-4, 4, size=(400, 2)))
            for v in h.vertices:
                probes += [v * (1 - 1e-6), v * (1 + 1e-6)]
            inside_count = 0
            for x in probes:
                in_slabs = all(lo <= nrm @ x <= hi for nrm, lo, hi in slabs)
                in_sides = all(nrm @ x <= off for nrm, off in pushed)
                assert in_slabs == in_sides
                inside_count += in_slabs
            assert 0 < inside_count < len(probes)


UNIT_SQUARE = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]


def slab_frame(poly):
    """The vertices of ``poly`` in the frame of its slabs: coordinate j is
    ``normal_j . v / (hi_j - lo_j)``."""
    return np.array([[nrm @ v / (hi - lo) for nrm, lo, hi in poly.slabs()]
                     for v in poly.vertices])


class TestNormalize:
    """A polygon's slabs are the frame the plane structure works in: one
    (outward unit normal, lo, hi) per class of parallel sides, the polygon
    being exactly where ``lo <= normal . p <= hi`` for each."""

    def test_square_identity(self):
        slabs = axis_square(1.0).slabs()
        assert [(nrm.tolist(), lo, hi) for nrm, lo, hi in slabs] == \
            [([0.0, -1.0], -0.5, 0.5), ([1.0, 0.0], -0.5, 0.5)]
        assert slab_frame(axis_square(1.0)).tolist() == \
            [[0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]]

    def test_rotated_square(self):
        phi = 0.3
        c, s = math.cos(phi), math.sin(phi)
        sq = ConvexPolygon(axis_square(1.0).vertices @ np.array(
            [[c, s], [-s, c]]))
        slabs = sq.slabs()
        assert len(slabs) == 2
        for (nrm, lo, hi), want in zip(slabs, ([s, -c], [c, s])):
            assert np.allclose(nrm, want, atol=1e-15)
            assert lo == pytest.approx(-0.5, abs=1e-15)
            assert hi == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("vertices", [
        [[-0.5, -0.3], [0.6, -0.3], [0.5, 0.3], [-0.6, 0.3]],
        [[-0.3, -0.8], [0.3, -0.6], [0.3, 0.8], [-0.3, 0.6]],
        [[0.0, -1.0], [2.0, 0.5], [0.0, 1.0], [-2.0, -0.5]]])
    def test_parallelogram_is_exactly_the_unit_square(self, vertices):
        # Two slabs, and in their frame the vertices are the corners of the
        # unit square up to rounding.
        f = ConvexPolygon(vertices)
        assert len(f.slabs()) == 2
        frame = slab_frame(f)
        assert np.allclose(np.abs(frame), 0.5, rtol=0, atol=1e-15)
        assert sorted(np.copysign(0.5, frame).tolist()) == \
            sorted(UNIT_SQUARE)

    def test_postconditions_random_polygons(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            f = random_symmetric_polygon(int(rng.integers(2, 6)), rng)
            slabs = f.slabs()
            assert len(slabs) == f.s // 2
            for nrm, lo, hi in slabs:
                assert math.hypot(*nrm) == pytest.approx(1.0, abs=1e-15)
                assert hi > 0
                assert lo == pytest.approx(-hi, abs=1e-12)
            # every vertex lies on the boundary of exactly two slabs and
            # inside all of them
            for v in f.vertices:
                slack = [min(hi - nrm @ v, nrm @ v - lo)
                         for nrm, lo, hi in slabs]
                assert min(slack) >= -1e-12
                assert sum(sl <= 1e-12 for sl in slack) == 2
            # the polygon is the intersection of its slabs
            for x in rng.uniform(-2, 2, size=(200, 2)):
                assert all(lo <= nrm @ x <= hi for nrm, lo, hi in slabs) == \
                    (norm_value(f, x) <= 1.0)
        # Any convex polygon, centrally symmetric or not: every vertex lies
        # inside every slab and on the boundary of at least two, and the
        # polygon is the intersection of its slabs.
        rng = np.random.default_rng(8)
        for _ in range(15):
            f = random_convex(rng, sides=int(rng.integers(3, 8)))
            slabs = f.slabs()
            for v in f.vertices:
                slack = [min(hi - nrm @ v, nrm @ v - lo)
                         for nrm, lo, hi in slabs]
                assert min(slack) >= -1e-12
                assert sum(sl <= 1e-12 for sl in slack) >= 2
            verts = [tuple(v) for v in f.vertices]
            for x in rng.uniform(-1.2, 1.2, size=(200, 2)):
                assert all(lo <= nrm @ x <= hi for nrm, lo, hi in slabs) == \
                    point_in_polygon(x, verts)


class TestPointInPolygonHelpers:
    def test_vectorised_helper_agrees_on_boundary_points(self):
        # The criterion 3 shapes: the unit square and the radius-1.3
        # hexagon.  Points on every side and corner, then random points,
        # each also shifted by a mark centre as criterion 3 shifts them.
        rng = np.random.default_rng(12)
        hexagon = random_symmetric_polygon(3, np.random.default_rng(99),
                                           radius=1.3)
        for shape in (axis_square(1.0), hexagon):
            verts = [tuple(v) for v in shape.vertices]
            corners = np.array(verts)
            t = np.linspace(0.0, 1.0, 11)[:, None]
            sides = [a + t * (b - a)
                     for a, b in zip(corners, np.roll(corners, -1, axis=0))]
            pts = np.vstack(sides + [rng.uniform(-2, 2, size=(200, 2))])
            centres = [(0.0, 0.0)] + [tuple(c) for c in
                                      rng.uniform(-1, 5, size=(20, 2))]
            for c in centres:
                shifted = (pts + c) - c
                want = [point_in_polygon(p, verts) for p in shifted]
                assert points_in_polygon(shifted, verts).tolist() == want


class TestFileFormats:
    def test_points_roundtrip(self):
        pts = np.array([[0.125, -3.5], [2.0, 7.25]])
        again = parse_points(format_points(pts))
        assert np.array_equal(pts, again)

    def test_polygon_roundtrip(self):
        f = axis_square(1.0)
        again = parse_polygon(format_polygon(f))
        assert np.array_equal(f.vertices, again.vertices)

    def test_polygon_bad_header(self):
        with pytest.raises(ValueError):
            parse_polygon("x\n1,2\n")
        with pytest.raises(ValueError):
            parse_polygon("3\n0,0\n1,0\n")
        with pytest.raises(ValueError, match="line 3: expected 'x,y'"):
            parse_polygon("3\n0,0\n1,0,5\n0,1\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_points_reject_non_finite(self, bad):
        with pytest.raises(ValueError, match="line 2: coordinates must be finite"):
            parse_points(f"0,0\n1,{bad}\n")

    def test_points_reject_non_numbers(self):
        with pytest.raises(ValueError, match="line 1: coordinates must be numbers"):
            parse_points("a,0\n")
