import math
from pathlib import Path

import numpy as np
import pytest

from kdiam.gen import random_symmetric_polygon, random_unit_square_points
from kdiam.geometry import (TOL, ConvexPolygon, adjacency_slabs,
                            axis_square, intersection_graph_naive,
                            load_polygon)
from kdiam.graph import ids_of
from kdiam.plane import PlaneStructure, geometric_nsds, hilbert_rank

from helpers import adjacency, point_in_polygon

DATA = Path(__file__).parent / "data"

SKEW_HEX = ConvexPolygon([[1.2, 0.0], [0.5, 0.9], [-0.6, 0.8],
                          [-1.2, 0.0], [-0.5, -0.9], [0.6, -0.8]])
# Shapes that are not centrally symmetric: the structure marks their own
# slabs, and the oracle and geometric_nsds use the slabs of f - f.
TRIANGLE = ConvexPolygon([[-0.7, -0.4], [0.9, -0.2], [0.1, 0.8]])
PENTAGON = ConvexPolygon([[-0.5, -0.6], [0.6, -0.5], [0.9, 0.3],
                          [0.0, 0.9], [-0.8, 0.2]])


def marking_structure(points, shape):
    """The structure for marks of ``shape`` (None: the unit square)."""
    return PlaneStructure(points, (shape or axis_square(1.0)).slabs())


def naive_cover(points, shape_vertices, center):
    return {i for i, p in enumerate(points)
            if point_in_polygon((p[0] - center[0], p[1] - center[1]),
                                shape_vertices)}


class TestInit:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            marking_structure([(1.0, 1.0), (1.0, 1.0)], None)


class TestMarkAndDiff:
    def test_mark_far_away_noop(self):
        pts = [(0.0, 0.0), (1.0, 0.5)]
        structure = marking_structure(pts, None)
        assert structure.mark(0, [(50.0, 50.0)]) == 0

    def test_mark_near_point(self):
        structure = marking_structure([(0.0, 0.0), (5.0, 5.0)], None)
        assert structure.mark(0, [(0.4, 0.0)]) == 0b1

    def test_same_version_diff_empty(self):
        structure = marking_structure([(0.0, 0.0)], None)
        assert structure.list_differences(1, 1) == []
        assert structure.aux_nodes == 1

    def test_two_stripes_one_mark(self):
        # one lookup per slab: the square covers both points only where
        # both slabs do
        pts = [(0.0, 0.9), (0.0, 1.1)]
        structure = marking_structure(pts, axis_square(2.0))
        mask = structure.mark(0, [(0.0, 1.0)])
        assert mask == 0b11
        assert structure.list_differences(0, mask) == [0, 1]

    @pytest.mark.parametrize("shape,label", [
        (None, "square"),
        (SKEW_HEX, "hexagon"),
        (TRIANGLE, "triangle"),
        (PENTAGON, "pentagon"),
    ])
    def test_random_sequences_match_naive(self, shape, label):
        # a fixed seed per case, so that a failure replays
        rng = np.random.default_rng({"square": 71, "hexagon": 72,
                                     "triangle": 73, "pentagon": 74}[label])
        pts = rng.uniform(0, 10, size=(120, 2))
        structure = marking_structure(pts, shape)
        shape_verts = [tuple(vv) for vv in
                       (shape or axis_square(1.0)).vertices]
        masks = [0]
        naive = [set()]
        for _ in range(250):
            c = (float(rng.uniform(-1, 11)), float(rng.uniform(-1, 11)))
            masks.append(structure.mark(masks[-1], [c]))
            naive.append(naive[-1] | naive_cover(pts, shape_verts, c))
            assert set(ids_of(masks[-1])) == naive[-1]
        for _ in range(300):
            i = int(rng.integers(0, len(masks)))
            j = int(rng.integers(0, len(masks)))
            got = structure.list_differences(masks[i], masks[j])
            assert len(got) == len(set(got))
            assert set(got) == naive[i] ^ naive[j]


class TestMarkPlans:
    """Marking keeps no state but the masks: a center marked on two masks,
    or twice, must give the same sets as marking on a fresh structure."""

    def test_same_center_on_two_versions(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 6, size=(80, 2))
        structure = marking_structure(pts, SKEW_HEX)
        c, other = tuple(pts[5]), tuple(pts[40])
        m1 = structure.mark(0, [other])
        a = structure.mark(0, [c])
        b = structure.mark(m1, [c])
        fresh = marking_structure(pts, SKEW_HEX)
        assert a == fresh.mark(0, [c])
        fresh = marking_structure(pts, SKEW_HEX)
        assert b == fresh.mark(fresh.mark(0, [other]), [c])

    def test_ndarray_center_matches_tuple(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 6, size=(60, 2))
        structure = marking_structure(pts, SKEW_HEX)
        by_tuple = structure.mark(0, [(float(pts[7][0]), float(pts[7][1]))])
        by_array = structure.mark(0, [pts[7]])
        want = marking_structure(pts, SKEW_HEX).mark(0, [pts[7]])
        assert by_tuple == by_array == want
        assert structure.list_differences(by_tuple, by_array) == []

    def test_non_vertex_center(self):
        rng = np.random.default_rng(25)
        pts = rng.uniform(0, 6, size=(60, 2))
        structure = marking_structure(pts, SKEW_HEX)
        verts = [tuple(vv) for vv in SKEW_HEX.vertices]
        # centers sharing one coordinate cover different sets
        for c in [(2.345, 3.21), (2.345, 1.5), (4.0, 1.5), (2.345, 3.21)]:
            assert not any(tuple(p) == c for p in pts)
            m1 = structure.mark(0, [c])
            m2 = structure.mark(m1, [c])
            assert set(ids_of(m1)) == naive_cover(pts, verts, c)
            assert m2 == m1

    def test_repeated_centers_random_polygon(self):
        # centers come from a small pool, so most are marked again, on
        # masks branching off earlier ones
        rng = np.random.default_rng(27)
        shape = random_symmetric_polygon(4, rng, radius=1.5)
        pts = rng.uniform(0, 8, size=(100, 2))
        structure = marking_structure(pts, shape)
        verts = [tuple(vv) for vv in shape.vertices]
        pool = [tuple(pts[i]) for i in range(0, 100, 9)]
        pool += [(float(x), float(y))
                 for x, y in rng.uniform(-1, 9, size=(6, 2))]
        masks, naive = [0], [set()]
        for _ in range(200):
            base = int(rng.integers(0, len(masks)))
            c = pool[int(rng.integers(0, len(pool)))]
            masks.append(structure.mark(masks[base], [c]))
            naive.append(naive[base] | naive_cover(pts, verts, c))
            assert set(ids_of(masks[-1])) == naive[-1]
        for _ in range(100):
            i = int(rng.integers(0, len(masks)))
            j = int(rng.integers(0, len(masks)))
            assert set(structure.list_differences(masks[i], masks[j])) \
                == naive[i] ^ naive[j]


class TestBatchedMark:
    """``mark(mask, centers)`` ORs the covers of all centers into one mask;
    it must give the set of the same centers marked one by one."""

    @pytest.mark.parametrize("shape,label", [
        (None, "square"),
        (SKEW_HEX, "hexagon"),
        (TRIANGLE, "triangle"),
        (PENTAGON, "pentagon"),
    ])
    def test_batches_match_one_by_one(self, shape, label):
        rng = np.random.default_rng(50 if label == "square" else 51)
        pts = rng.uniform(0, 8, size=(90, 2))
        structure = marking_structure(pts, shape)
        pool = [tuple(pts[i]) for i in range(0, 90, 7)]
        # centers far outside the point cloud cover no point
        pool += [(float(x), float(y))
                 for x, y in rng.uniform(-1, 9, size=(8, 2))]
        pool += [(-40.0, 3.0), (4.0, 60.0)]
        batched = single = 0
        for _ in range(40):
            centers = [pool[int(i)] for i in
                       rng.integers(0, len(pool),
                                    size=int(rng.integers(0, 10)))]
            if centers and rng.random() < 0.3:
                centers.append(centers[0])  # a repeated center
            before = batched
            batched = structure.mark(batched, centers)
            for c in centers:
                single = structure.mark(single, (c,))
            assert batched == single
            if not centers:
                assert batched == before

    def test_centers_touching_no_band_return_the_version(self):
        structure = marking_structure([(0.0, 0.0), (1.0, 0.5)], SKEW_HEX)
        assert structure.mark(0b10, []) == 0b10
        assert structure.mark(0b10, [(50.0, 50.0), (-30.0, 0.0)]) == 0b10


def benchmark_hexagon():
    """Regular hexagon, circumradius 0.6, rotated 10 degrees."""
    angles = np.deg2rad(10.0) + np.arange(6) * (np.pi / 3.0)
    return ConvexPolygon(0.6 * np.c_[np.cos(angles), np.sin(angles)])


class TestDirections:
    """One stripe per class of parallel sides: its normal is the first
    side's outward normal, and a parallel side, whose normal is its
    negation (the "down" to its "up"), is the same slab's other bound and
    adds no stripe.  Each stripe holds every point's projection on its
    normal, sorted."""

    @staticmethod
    def check_slabs(structure, shape):
        """Each slab's normal is a side normal of ``shape`` whose opposite
        side's normal is its negation, and each pair of opposite sides has
        one slab.  Returns the matching side offsets."""
        half = shape.s // 2
        assert len(structure.stripes) == len(structure.slabs) == half
        sides = shape.side_normals()
        offsets, pairs = [], set()
        for j, (nrm, _, _) in enumerate(structure.slabs):
            (i,) = [i for i, (side, _) in enumerate(sides)
                    if np.allclose(side, nrm, rtol=0, atol=1e-15)]
            opposite = sides[(i + half) % shape.s][0]
            assert np.allclose(opposite, -nrm, rtol=0, atol=1e-15)
            pairs.add(i % half)
            offsets.append(sides[i][1])
            assert structure.stripes[j].keys.tolist() == \
                sorted(structure.keys[j].tolist())
        assert len(pairs) == half
        return offsets

    @pytest.mark.parametrize("label", ["benchmark-hexagon", "random"])
    def test_only_trapezoid_side_normals(self, label):
        rng = np.random.default_rng(29)
        shape = benchmark_hexagon() if label == "benchmark-hexagon" \
            else random_symmetric_polygon(4, rng)
        pts = rng.uniform(0, 4, size=(40, 2))
        structure = PlaneStructure(pts, adjacency_slabs(shape))
        offsets = self.check_slabs(structure, shape)
        for (_, lo, hi), off in zip(structure.slabs, offsets):
            assert lo == -hi
            assert hi == pytest.approx(2.0 * off + TOL, rel=0, abs=1e-15)

    @pytest.mark.parametrize("label", ["unit-square", "rectangle",
                                       "sheared", "rotated-square"])
    def test_parallelograms_use_up_and_down_only(self, label):
        shape = {
            "unit-square": axis_square(1.0),
            "rectangle": ConvexPolygon([[-0.5, -0.2], [0.5, -0.2],
                                        [0.5, 0.2], [-0.5, 0.2]]),
            "sheared": ConvexPolygon([[-0.5, -0.3], [0.6, -0.3],
                                      [0.5, 0.3], [-0.6, 0.3]]),
            "rotated-square": load_polygon(
                DATA / "rotated_square_lattice.poly.csv"),
        }[label]
        pts = [(0.0, 0.0), (0.3, 0.2)]
        for slabs in (shape.slabs(), adjacency_slabs(shape)):
            self.check_slabs(PlaneStructure(pts, slabs), shape)

    def test_octagon_shares_up_and_down(self):
        # Its top and bottom sides are horizontal: one stripe along up
        # (0, 1) serves both, and the other six sides add three.
        octagon = ConvexPolygon([[1.0, -0.5], [1.0, 0.5], [0.5, 1.0],
                                 [-0.5, 1.0], [-1.0, 0.5], [-1.0, -0.5],
                                 [-0.5, -1.0], [0.5, -1.0]])
        structure = PlaneStructure([(0.0, 0.0), (0.3, 0.2)],
                                   octagon.slabs())
        self.check_slabs(structure, octagon)
        normals = [nrm.tolist() for nrm, _, _ in structure.slabs]
        assert sum(abs(nx) == 0.0 for nx, _ in normals) == 1
        assert [0.0, 1.0] in normals


def square_branch_cover(points, center, h):
    """The covered mask of the retired unit-square branch, on the original
    coordinates: the points with ``|x - cx| <= h`` and ``|y - cy| <= h``."""
    cx, cy = (float(v) for v in center)
    return sum(1 << i for i, (x, y) in enumerate(points.tolist())
               if abs(x - cx) <= h and abs(y - cy) <= h)


class TestUnitSquarePlans:
    """The slab path covers on unit squares exactly what the square branch
    covered, per center."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_plan_equals_square_branch(self, seed):
        rng = np.random.default_rng(seed)
        pts = random_unit_square_points(150, 3.2, rng)
        structure = PlaneStructure(pts, adjacency_slabs(axis_square(1.0)))
        assert len(structure.stripes) == 2
        for center in pts:
            assert structure.cover(center) == \
                square_branch_cover(pts, center, 1.0 + TOL)


class TestVersionMask:
    def test_mask_has_bit_i_for_point_i(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 8, size=(60, 2))
        structure = marking_structure(pts, None)
        verts = [tuple(vv) for vv in axis_square(1.0).vertices]
        mask = 0
        marked = set()
        for _ in range(120):
            c = (float(rng.uniform(0, 8)), float(rng.uniform(0, 8)))
            mask = structure.mark(mask, [c])
            marked |= naive_cover(pts, verts, c)
            assert mask == sum(1 << i for i in marked)


class TestGeometricNSDS:
    def test_single_add_is_closed_neighborhood(self):
        rng = np.random.default_rng(9)
        pts = random_unit_square_points(40, 4.0, rng)
        g = intersection_graph_naive(pts, axis_square(1.0))
        nsds = geometric_nsds(pts, axis_square(1.0))
        adj = adjacency(g)
        for v in range(0, 40, 7):
            h = nsds.add_neighbours(nsds.empty, v)
            got = set(nsds.list_differences(nsds.empty, h))
            assert got == set(adj[v]) | {v}

    def test_one_shape_builds_equal_structures(self):
        # The slabs are worked out once per shape: a second structure of
        # the same shape gets the same slabs, equal to a fresh polygon's,
        # and the same closed neighbourhoods.
        shape = benchmark_hexagon()
        pts = np.random.default_rng(4).uniform(0, 2.2, size=(60, 2))
        first = geometric_nsds(pts, shape)
        slabs = adjacency_slabs(shape)
        second = geometric_nsds(pts, shape)
        assert adjacency_slabs(shape) is slabs
        assert shape.slabs() is shape.slabs()
        fresh = adjacency_slabs(ConvexPolygon(shape.vertices))
        assert [(nrm.tolist(), lo, hi) for nrm, lo, hi in slabs] == \
            [(nrm.tolist(), lo, hi) for nrm, lo, hi in fresh]
        assert first.closed == second.closed
        assert first.closed == geometric_nsds(pts, ConvexPolygon(
            shape.vertices)).closed

    def test_far_apart_points_self_only(self):
        pts = [(0.0, 0.0), (40.0, 40.0)]
        nsds = geometric_nsds(pts, axis_square(1.0))
        h = nsds.add_neighbours(nsds.empty, 0)
        assert nsds.list_differences(nsds.empty, h) == [0]

    def test_self_inclusion_always(self):
        rng = np.random.default_rng(12)
        shape = random_symmetric_polygon(3, rng)
        pts = rng.uniform(0, 6, size=(30, 2))
        nsds = geometric_nsds(pts, shape)
        for v in range(30):
            h = nsds.add_neighbours(nsds.empty, v)
            assert v in set(nsds.list_differences(nsds.empty, h))

    @pytest.mark.parametrize("shape",
                             [axis_square(1.0), SKEW_HEX, TRIANGLE, PENTAGON])
    def test_contract_equivalence_with_naive(self, shape):
        # 50 random operation sequences per shape, each checked against
        # Python sets replayed over the materialized graph
        for seq in range(50):
            rng = np.random.default_rng(1000 + seq)
            n = int(rng.integers(5, 40))
            pts = rng.uniform(0, 6, size=(n, 2))
            g = intersection_graph_naive(pts, shape)
            closed = [set(neigh) | {v} for v, neigh in enumerate(adjacency(g))]
            geo = geometric_nsds(pts, shape)
            geo_handles = [geo.empty]
            replay = [set()]
            for _ in range(25):
                base = int(rng.integers(0, len(geo_handles)))
                v = int(rng.integers(0, g.n))
                geo_handles.append(geo.add_neighbours(geo_handles[base], v))
                replay.append(replay[base] | closed[v])
            for _ in range(40):
                i = int(rng.integers(0, len(geo_handles)))
                j = int(rng.integers(0, len(geo_handles)))
                got = sorted(geo.list_differences(geo_handles[i],
                                                  geo_handles[j]))
                assert got == sorted(replay[i] ^ replay[j]), (seq, i, j)

    @pytest.mark.parametrize("offset", [0.0, 3.0, 1e3, 1e6, 1e9])
    @pytest.mark.parametrize("label", ["square", "hexagon", "triangle",
                                       "pentagon"])
    def test_tol_edge_rows_match_the_oracle(self, label, offset):
        # 8 points in a row along a slab normal of the adjacency shape,
        # spaced the slab's hi (1 + TOL for the unit square) give or take
        # 0-6 ulps, start at (offset, offset): every neighbouring pair lies
        # on the adjacency boundary or a few roundings from it, and closed[v]
        # must be the oracle's row bit for bit.
        shape = {"square": axis_square(1.0), "hexagon": benchmark_hexagon(),
                 "triangle": TRIANGLE, "pentagon": PENTAGON}[label]
        nrm, _, w = adjacency_slabs(shape)[0]
        for ulps in range(-6, 7):
            step = w
            for _ in range(abs(ulps)):
                step = math.nextafter(step, math.copysign(math.inf, ulps))
            pts = offset + np.arange(8.0)[:, None] * step * nrm
            g = intersection_graph_naive(pts, shape)
            nsds = geometric_nsds(pts, shape)
            adj = adjacency(g)
            for v in range(8):
                assert nsds.closed[v] == \
                    sum(1 << u for u in (v, *adj[v])), (ulps, v)

    @pytest.mark.parametrize("label", ["touching-squares", "offset-1e9",
                                       "one-point"])
    def test_lattices_match_the_oracle(self, label):
        # A touching lattice puts many points on one projection and every
        # neighbour exactly on the adjacency boundary; at 1e9 the spacing
        # 0.1 is inexact, so the gaps differ by roundings.  Each closed[v]
        # must be the oracle's row bit for bit.
        side, origin, m = {"touching-squares": (1.0, 0.0, 12),
                           "offset-1e9": (0.1, 1e9, 12),
                           "one-point": (1.0, 5.0, 1)}[label]
        pts = np.array([(origin + side * a, origin + side * b)
                        for a in range(m) for b in range(m)])
        for shape in (axis_square(side), benchmark_hexagon()):
            g = intersection_graph_naive(pts, shape)
            nsds = geometric_nsds(pts, shape)
            assert nsds.closed == [sum(1 << u for u in (v, *neigh))
                                   for v, neigh in enumerate(adjacency(g))]


class TestHilbertRank:
    @pytest.mark.parametrize("points", [
        [[0.5, -2.0]],
        [[x, 1.0] for x in (3.0, -1.0, 0.5, 2.0, 7.5)],
        [[x, 2.0 * x] for x in np.linspace(0.0, 1.0, 9)],
        (np.random.default_rng(3).uniform(0, 2, (40, 2)) + 1e9).tolist(),
    ], ids=["one", "collinear-x", "diagonal", "offset-1e9"])
    def test_is_a_permutation(self, points):
        rank = hilbert_rank(points)
        assert sorted(rank) == list(range(len(points)))
        assert all(type(v) is int for v in rank)

    def test_lattice_walk_takes_unit_steps(self):
        # 16 points: a 4 x 4 grid of cells, one lattice point per cell, and
        # the curve moves between edge-adjacent cells.  The ids are shuffled
        # so the walk cannot follow them.
        cells = np.array([(x, y) for x in range(4) for y in range(4)], float)
        pts = cells[np.random.default_rng(5).permutation(16)]
        walk = pts[list(hilbert_rank(pts))]
        steps = np.abs(np.diff(walk, axis=0)).sum(axis=1)
        assert (steps == 1).all()
        assert tuple(walk[0]) == (0.0, 0.0)

    def test_geometric_nsds_stores_it(self):
        pts = np.random.default_rng(6).uniform(0, 3, (25, 2))
        assert geometric_nsds(pts, axis_square(1.0)).rank == hilbert_rank(pts)
