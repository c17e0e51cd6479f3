import math

import numpy as np
import pytest

from kdiam.gen import random_symmetric_polygon
from kdiam.geometry import (TOL, AffineMap, ConvexPolygon, adjacency_shape,
                            adjacency_sides, axis_square, format_points,
                            format_polygon, intersection_graph_naive,
                            minkowski_sum, norm_value, normalize_polygon,
                            parse_points, parse_polygon, shape_metric,
                            symmetrize, trapezoid_decompose)
from kdiam.plane import geometric_nsds

from helpers import (convex_hull, gauge_by_bisection, geometric_graph_sat,
                     shoelace)


def hull_equal(poly: ConvexPolygon, points, tol=1e-9):
    want = convex_hull(points)
    got = [tuple(v) for v in poly.vertices]
    if len(want) != len(got):
        return False
    for shift in range(len(got)):
        rolled = got[shift:] + got[:shift]
        if all(abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol
               for a, b in zip(rolled, want)):
            return True
    return False


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

    def test_symmetry_predicate(self):
        assert axis_square(1.0).is_symmetric()
        assert not ConvexPolygon([[0, 0], [1, 0], [0, 1]]).is_symmetric()


class TestMinkowskiSum:
    def test_identity_element(self):
        sq = axis_square(1.0)
        out = minkowski_sum(sq, ConvexPolygon([[0.0, 0.0]]))
        assert np.allclose(out.vertices, sq.vertices)

    def test_doubling(self):
        sq = axis_square(1.0)
        out = minkowski_sum(sq, sq)
        assert hull_equal(out, [(2 * x, 2 * y) for x, y in sq.vertices])

    def test_triangle_with_negation_is_hexagon(self):
        tri = ConvexPolygon([[0, 0], [1, 0], [0, 1]])
        out = minkowski_sum(tri, tri.negated())
        sums = [(a[0] + b[0], a[1] + b[1])
                for a in tri.vertices for b in tri.negated().vertices]
        assert out.s == 6
        assert hull_equal(out, sums)

    def test_random_pairs_match_hull_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_convex(rng, sides=int(rng.integers(3, 7)))
            q = random_convex(rng, sides=int(rng.integers(3, 7)))
            out = minkowski_sum(p, q)
            sums = [(a[0] + b[0], a[1] + b[1])
                    for a in p.vertices for b in q.vertices]
            assert out.s <= p.s + q.s
            assert hull_equal(out, sums, tol=1e-8)


class TestSymmetrize:
    def test_fixed_point_on_symmetric(self):
        sq = axis_square(2.0)
        out = symmetrize(sq)
        assert hull_equal(out, [tuple(v) for v in sq.vertices])

    def test_triangle_becomes_hexagon(self):
        tri = ConvexPolygon([[0, 0], [1, 0], [0, 1]])
        out = symmetrize(tri)
        assert out.s == 6
        assert out.is_symmetric()

    def test_random_pentagons_point_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            out = symmetrize(random_convex(rng, sides=5))
            assert out.is_symmetric()


class TestNormValue:
    def test_origin(self):
        assert norm_value(axis_square(2.0), (0.0, 0.0)) == 0.0

    def test_boundary_point(self):
        # square of half-extent 1: (1, 0) sits on the boundary
        assert norm_value(axis_square(2.0), (1.0, 0.0)) == pytest.approx(1.0)

    def test_homogeneous(self):
        rng = np.random.default_rng(2)
        f = symmetrize(random_convex(rng, sides=6))
        for _ in range(30):
            x = rng.normal(size=2)
            lam = float(rng.uniform(-3, 3))
            assert norm_value(f, lam * x) == pytest.approx(
                abs(lam) * norm_value(f, x), abs=1e-9)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = symmetrize(random_convex(rng, sides=5))
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
        f = symmetrize(random_convex(rng, sides=6))
        for _ in range(500):
            a, b, c = rng.normal(scale=3.0, size=(3, 2))
            assert shape_metric(f, a, c) <= shape_metric(f, a, b) + \
                shape_metric(f, b, c) + 1e-9
            t = float(rng.uniform(0, 1))
            mid = a + t * (c - a)
            assert shape_metric(f, a, c) == pytest.approx(
                shape_metric(f, a, mid) + shape_metric(f, mid, c), abs=1e-9)


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
        rng = np.random.default_rng(9)
        for sides in (3, 4, 5, 6):
            f = random_convex(rng, sides=sides)
            want = symmetrize(f).scaled(2.0).side_normals()
            got = adjacency_sides(f)
            assert len(got) == len(want)
            for (n0, o0), (n1, o1) in zip(want, got):
                assert np.allclose(n0, n1, atol=1e-9)
                assert o1 == pytest.approx(o0 + TOL, abs=1e-12)

    def test_shape_is_bounded_by_the_sides(self):
        rng = np.random.default_rng(10)
        for sides in (3, 4, 5, 6):
            f = random_convex(rng, sides=sides)
            shape = adjacency_shape(f)
            for (n0, o0), (n1, o1) in zip(adjacency_sides(f),
                                          shape.side_normals()):
                assert np.allclose(n0, n1, atol=1e-12)
                assert o1 == pytest.approx(o0, abs=1e-12)


UNIT_SQUARE = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]


class TestNormalize:
    def test_square_identity(self):
        out, amap = normalize_polygon(axis_square(1.0))
        assert out.vertices.tolist() == UNIT_SQUARE
        assert np.asarray(amap.matrix).tolist() == np.eye(2).tolist()

    def test_rotated_square(self):
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        rot = AffineMap(((c, -s), (s, c)))
        sq = rot.apply_polygon(axis_square(1.0))
        out, _ = normalize_polygon(sq)
        assert sorted(out.vertices.tolist()) == sorted(UNIT_SQUARE)

    @pytest.mark.parametrize("vertices", [
        [[-0.5, -0.3], [0.6, -0.3], [0.5, 0.3], [-0.6, 0.3]],
        [[-0.3, -0.8], [0.3, -0.6], [0.3, 0.8], [-0.3, 0.6]],
        [[0.0, -1.0], [2.0, 0.5], [0.0, 1.0], [-2.0, -0.5]]])
    def test_parallelogram_is_exactly_the_unit_square(self, vertices):
        # Its image is the unit square up to the map's rounding; the
        # returned shape is that square exactly, in the image's vertex order.
        f = ConvexPolygon(vertices)
        out, amap = normalize_polygon(f)
        assert sorted(out.vertices.tolist()) == sorted(UNIT_SQUARE)
        assert np.allclose(amap.apply(f.vertices), out.vertices,
                           rtol=0, atol=1e-15)

    def test_postconditions_random_polygons(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            f = random_symmetric_polygon(int(rng.integers(2, 6)), rng)
            out, amap = normalize_polygon(f)
            ev = out.edge_vectors()
            verticals = [i for i in range(out.s)
                         if abs(ev[i][0]) < 1e-9 and
                         abs(abs(ev[i][1]) - 1.0) < 1e-9]
            assert len(verticals) == 2
            xs = out.vertices[:, 0]
            assert np.max(np.abs(xs)) == pytest.approx(0.5, abs=1e-9)
            height = out.vertices[:, 1].max() - out.vertices[:, 1].min()
            assert height <= out.s + 1e-9
            for corner in [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)]:
                assert norm_value(out, corner) <= 1 + 1e-9
            # map preserves the polygon: image of f equals the output
            assert np.allclose(amap.apply(f.vertices), out.vertices)

    def test_requires_symmetric(self):
        with pytest.raises(ValueError):
            normalize_polygon(ConvexPolygon([[0, 0], [1, 0], [0, 1]]))


class TestTrapezoids:
    def test_square_single(self):
        traps = trapezoid_decompose(axis_square(1.0))
        assert len(traps) == 1
        t = traps[0]
        assert (t.x0, t.x1) == (-0.5, 0.5)

    def test_hexagon_three_x_values(self):
        hx = ConvexPolygon([[0.6, -0.7], [0.6, 0.7], [0.0, 1.0],
                            [-0.6, 0.7], [-0.6, -0.7], [0.0, -1.0]])
        assert len(trapezoid_decompose(hx)) == 2

    def test_area_matches_shoelace(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            f = random_symmetric_polygon(int(rng.integers(2, 6)), rng)
            out, _ = normalize_polygon(f)
            traps = trapezoid_decompose(out)
            want = shoelace([tuple(v) for v in out.vertices])
            assert sum(t.area() for t in traps) == pytest.approx(want, abs=1e-9)


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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_points_reject_non_finite(self, bad):
        with pytest.raises(ValueError, match="line 2: coordinates must be finite"):
            parse_points(f"0,0\n1,{bad}\n")

    def test_points_reject_non_numbers(self):
        with pytest.raises(ValueError, match="line 1: coordinates must be numbers"):
            parse_points("a,0\n")
