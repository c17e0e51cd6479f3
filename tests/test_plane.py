import math
from pathlib import Path

import numpy as np
import pytest

from kdiam.gen import random_symmetric_polygon, random_unit_square_points
from kdiam.geometry import (ConvexPolygon, adjacency_shape, axis_square,
                            intersection_graph_naive, load_polygon)
from kdiam.nsds import NaiveNeighbourSets
from kdiam.plane import (PlaneStructure, geometric_nsds, plane_init,
                         plane_list_differences, plane_mark)
from kdiam.stripes import BOT, DOWN, TOP, UP

from helpers import point_in_polygon

DATA = Path(__file__).parent / "data"

SKEW_HEX = ConvexPolygon([[1.2, 0.0], [0.5, 0.9], [-0.6, 0.8],
                          [-1.2, 0.0], [-0.5, -0.9], [0.6, -0.8]])


def naive_cover(points, shape_vertices, center):
    return {i for i, p in enumerate(points)
            if point_in_polygon((p[0] - center[0], p[1] - center[1]),
                                shape_vertices)}


class TestInit:
    def test_single_band(self):
        pts = [(0.0, 0.1), (1.0, 0.9), (2.0, 0.5)]
        structure, v = plane_init(pts, None)
        assert len(structure.bands) == 1

    def test_two_bands(self):
        structure, _ = plane_init([(0.0, 0.2), (0.0, 7.3)], None)
        assert len(structure.bands) == 2

    def test_band_assignment_matches_floor(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-30, 30, size=(1000, 2))
        structure, _ = plane_init(pts, None)
        # the unit-square marking shape is scaled by 1/2 into the stripe frame
        want = {}
        for i, p in enumerate(structure.tpoints):
            want.setdefault(math.floor(p[1]), set()).add(i)
        got = {band: set(static.ids)
               for band, static in structure._stripe_static.items()}
        assert got == want

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            plane_init([(1.0, 1.0), (1.0, 1.0)], None)


class TestMarkAndDiff:
    def test_mark_far_away_noop(self):
        pts = [(0.0, 0.0), (1.0, 0.5)]
        structure, v = plane_init(pts, None)
        v2 = plane_mark(v, (50.0, 50.0))
        assert structure.decode(v2) == set()

    def test_mark_near_point(self):
        structure, v = plane_init([(0.0, 0.0), (5.0, 5.0)], None)
        v2 = plane_mark(v, (0.4, 0.0))
        assert structure.decode(v2) == {0}

    def test_same_version_diff_empty(self):
        structure, v = plane_init([(0.0, 0.0)], None)
        assert plane_list_differences(v, v) == []

    def test_cross_structure_rejected(self):
        _, v1 = plane_init([(0.0, 0.0)], None)
        _, v2 = plane_init([(0.0, 0.0)], None)
        with pytest.raises(ValueError):
            plane_list_differences(v1, v2)

    def test_two_stripes_one_mark(self):
        # square spanning two bands covers one point in each
        pts = [(0.0, 0.9), (0.0, 1.1)]
        structure, v = plane_init(pts, axis_square(2.0))
        v2 = plane_mark(v, (0.0, 1.0))
        assert structure.decode(v2) == {0, 1}
        assert sorted(plane_list_differences(v, v2)) == [0, 1]

    @pytest.mark.parametrize("shape,label", [
        (None, "square"),
        (SKEW_HEX, "hexagon"),
    ])
    def test_random_sequences_match_naive(self, shape, label):
        rng = np.random.default_rng(hash(label) % 2 ** 31)
        pts = rng.uniform(0, 10, size=(120, 2))
        structure, v = plane_init(pts, shape)
        shape_verts = [tuple(vv) for vv in
                       (shape or axis_square(1.0)).vertices]
        versions = [v]
        naive = [set()]
        for _ in range(250):
            c = (float(rng.uniform(-1, 11)), float(rng.uniform(-1, 11)))
            versions.append(plane_mark(versions[-1], c))
            naive.append(naive[-1] | naive_cover(pts, shape_verts, c))
            assert structure.decode(versions[-1]) == naive[-1]
        for _ in range(300):
            i = int(rng.integers(0, len(versions)))
            j = int(rng.integers(0, len(versions)))
            got = plane_list_differences(versions[i], versions[j])
            assert len(got) == len(set(got))
            assert set(got) == naive[i] ^ naive[j]


class TestMarkPlans:
    """A mark is compiled once per center; reusing the compiled plan must
    give the same sets as marking on a fresh structure."""

    def test_same_center_on_two_versions(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 6, size=(80, 2))
        structure, v0 = plane_init(pts, SKEW_HEX)
        c, other = tuple(pts[5]), tuple(pts[40])
        v1 = plane_mark(v0, other)
        a = plane_mark(v0, c)
        b = plane_mark(v1, c)
        assert len(structure._plans) == 2
        fresh, f0 = plane_init(pts, SKEW_HEX)
        assert structure.decode(a) == fresh.decode(plane_mark(f0, c))
        fresh, f0 = plane_init(pts, SKEW_HEX)
        assert structure.decode(b) == fresh.decode(
            plane_mark(plane_mark(f0, other), c))

    def test_ndarray_center_matches_tuple(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 6, size=(60, 2))
        structure, v0 = plane_init(pts, SKEW_HEX)
        by_tuple = plane_mark(v0, (float(pts[7][0]), float(pts[7][1])))
        by_array = plane_mark(v0, pts[7])
        assert len(structure._plans) == 1
        fresh, f0 = plane_init(pts, SKEW_HEX)
        want = fresh.decode(plane_mark(f0, pts[7]))
        assert structure.decode(by_tuple) == want
        assert structure.decode(by_array) == want
        assert plane_list_differences(by_tuple, by_array) == []

    def test_non_vertex_center(self):
        rng = np.random.default_rng(25)
        pts = rng.uniform(0, 6, size=(60, 2))
        structure, v0 = plane_init(pts, SKEW_HEX)
        verts = [tuple(vv) for vv in SKEW_HEX.vertices]
        # centers sharing one coordinate must not share a plan
        for c in [(2.345, 3.21), (2.345, 1.5), (4.0, 1.5), (2.345, 3.21)]:
            assert not any(tuple(p) == c for p in pts)
            v1 = plane_mark(v0, c)
            v2 = plane_mark(v1, c)
            assert structure.decode(v1) == naive_cover(pts, verts, c)
            assert structure.decode(v2) == structure.decode(v1)
        assert len(structure._plans) == 3

    def test_repeated_centers_random_polygon(self):
        # centers come from a small pool, so most marks reuse a plan, on
        # versions branching off earlier ones
        rng = np.random.default_rng(27)
        shape = random_symmetric_polygon(4, rng, radius=1.5)
        pts = rng.uniform(0, 8, size=(100, 2))
        structure, v0 = plane_init(pts, shape)
        verts = [tuple(vv) for vv in shape.vertices]
        pool = [tuple(pts[i]) for i in range(0, 100, 9)]
        pool += [(float(x), float(y))
                 for x, y in rng.uniform(-1, 9, size=(6, 2))]
        versions, naive = [v0], [set()]
        for _ in range(200):
            base = int(rng.integers(0, len(versions)))
            c = pool[int(rng.integers(0, len(pool)))]
            versions.append(plane_mark(versions[base], c))
            naive.append(naive[base] | naive_cover(pts, verts, c))
            assert structure.decode(versions[-1]) == naive[-1]
        assert len(structure._plans) <= len(pool)
        for _ in range(100):
            i = int(rng.integers(0, len(versions)))
            j = int(rng.integers(0, len(versions)))
            assert set(plane_list_differences(versions[i], versions[j])) \
                == naive[i] ^ naive[j]


class TestBatchedMark:
    """``mark(v, centers)`` groups the parts of all centers by band; it must
    give the set of the same centers marked one by one."""

    @pytest.mark.parametrize("shape,label", [
        (None, "square"),
        (SKEW_HEX, "hexagon"),
    ])
    def test_batches_match_one_by_one(self, shape, label):
        rng = np.random.default_rng(50 if label == "square" else 51)
        pts = rng.uniform(0, 8, size=(90, 2))
        structure, v0 = plane_init(pts, shape)
        pool = [tuple(pts[i]) for i in range(0, 90, 7)]
        # centers far outside the point cloud touch no band
        pool += [(float(x), float(y))
                 for x, y in rng.uniform(-1, 9, size=(8, 2))]
        pool += [(-40.0, 3.0), (4.0, 60.0)]
        batched = single = v0
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
            assert structure.decode(batched) == structure.decode(single)
            assert batched.mask == single.mask
            if not centers:
                assert batched is before

    def test_centers_touching_no_band_return_the_version(self):
        structure, v0 = plane_init([(0.0, 0.0), (1.0, 0.5)], SKEW_HEX)
        assert structure.mark(v0, []) is v0
        assert structure.mark(v0, [(50.0, 50.0), (-30.0, 0.0)]) is v0


def benchmark_hexagon():
    """Regular hexagon, circumradius 0.6, rotated 10 degrees."""
    angles = np.deg2rad(10.0) + np.arange(6) * (np.pi / 3.0)
    return ConvexPolygon(0.6 * np.c_[np.cos(angles), np.sin(angles)])


class TestDirections:
    """Stripes carry up and down at indices 0 and 1, then each distinct
    normal of the sides a trapezoid's top or bottom lies on; vertical sides'
    normals are left out, and a normal equal to one already there is not
    added again."""

    @staticmethod
    def expected_dirs(structure):
        shape = structure.shape
        want = [(0.0, 1.0), (0.0, -1.0)]
        for (nrm, _), edge in zip(shape.side_normals(), shape.edge_vectors()):
            d = (float(nrm[0]), float(nrm[1]))
            if abs(edge[0]) > 1e-9 and d not in want:
                want.append(d)
        return want

    @pytest.mark.parametrize("label", ["benchmark-hexagon", "random"])
    def test_only_trapezoid_side_normals(self, label):
        rng = np.random.default_rng(29)
        shape = benchmark_hexagon() if label == "benchmark-hexagon" \
            else random_symmetric_polygon(4, rng)
        pts = rng.uniform(0, 4, size=(40, 2))
        structure = geometric_nsds(pts, shape)._plane
        assert structure.dirs == self.expected_dirs(structure)
        assert len(structure.dirs) == structure.shape.s
        used = {t.top_side for t in structure.trapezoids} \
            | {t.bot_side for t in structure.trapezoids}
        assert len(used) == structure.shape.s - 2
        for static in structure._stripe_static.values():
            assert static.dirs == tuple(structure.dirs)

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
        for f in (shape, adjacency_shape(shape)):
            structure = PlaneStructure([(0.0, 0.0), (0.3, 0.2)], f)
            assert structure.dirs == [(0.0, 1.0), (0.0, -1.0)]

    def test_octagon_shares_up_and_down(self):
        # Its top and bottom sides are horizontal, so their normals are up
        # and down themselves; the four diagonal sides add one each.
        octagon = ConvexPolygon([[1.0, -0.5], [1.0, 0.5], [0.5, 1.0],
                                 [-0.5, 1.0], [-1.0, 0.5], [-1.0, -0.5],
                                 [-0.5, -1.0], [0.5, -1.0]])
        structure = PlaneStructure([(0.0, 0.0), (0.3, 0.2)], octagon)
        assert structure.dirs[:2] == [(0.0, 1.0), (0.0, -1.0)]
        assert len(set(structure.dirs)) == len(structure.dirs) == 6
        assert structure.dirs == self.expected_dirs(structure)


def square_branch_plan(structure, center):
    """The compiled mark the retired unit-square branch built: one part per
    band the square reaches, raising the bottom boundary along up where the
    square reaches the band floor and lowering the top one along down
    otherwise."""
    tcx, tcy = (float(v) for v in structure.transform.apply([center])[0])
    plan = []
    for band in range(math.floor(tcy - 0.5), math.floor(tcy + 0.5) + 1):
        y0 = float(band)
        if band not in structure.band_index or tcy + 0.5 < y0 \
                or tcy - 0.5 >= y0 + 1.0:
            continue
        if tcy <= y0 + 0.5:
            part = (tcx - 0.5, tcx + 0.5, BOT, UP, tcy + 0.5)
        else:
            part = (tcx - 0.5, tcx + 0.5, TOP, DOWN, -(tcy - 0.5))
        plan.append((structure._stripe_static[band], structure.band_index[band],
                     (part,)))
    return tuple(plan)


class TestUnitSquarePlans:
    """The trapezoid path does the same work on unit squares as the square
    branch it replaced: the same parts, in the same order, per center."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_plan_equals_square_branch(self, seed):
        rng = np.random.default_rng(seed)
        pts = random_unit_square_points(150, 3.2, rng)
        structure = geometric_nsds(pts, None)._plane
        assert structure.dirs == [(0.0, 1.0), (0.0, -1.0)]
        for center in pts:
            assert structure._plan(center) == \
                square_branch_plan(structure, center)


def concatenated_masks(structure, version):
    """(the stripe root masks laid side by side in band order, the same
    layout's bits for the decoded set)."""
    roots = bits = 0
    offset = 0
    marked = structure.decode(version)
    for band, root in zip(structure.bands, version.roots):
        static = structure._stripe_static[band]
        roots |= root.mask << offset
        bits |= sum(1 << (offset + i)
                    for i, pid in enumerate(static.ids) if pid in marked)
        offset += static.size
    return roots, bits


class TestVersionMask:
    def test_mask_is_concatenated_stripe_masks(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 8, size=(60, 2))
        structure, v = plane_init(pts, None)
        versions = [v]
        for _ in range(120):
            c = (float(rng.uniform(0, 8)), float(rng.uniform(0, 8)))
            versions.append(plane_mark(versions[-1], c))
        for version in versions:
            assert len(version.roots) == len(structure.bands)
            assert (version.mask, version.mask) == \
                concatenated_masks(structure, version)


class TestGeometricNSDS:
    def test_single_add_is_closed_neighborhood(self):
        rng = np.random.default_rng(9)
        pts = random_unit_square_points(40, 4.0, rng)
        g = intersection_graph_naive(pts, axis_square(1.0))
        nsds = geometric_nsds(pts, None)
        for v in range(0, 40, 7):
            h = nsds.add_neighbours(nsds.empty, v)
            got = set(nsds.list_differences(nsds.empty, h))
            assert got == set(g.adjacency[v]) | {v}

    def test_far_apart_points_self_only(self):
        pts = [(0.0, 0.0), (40.0, 40.0)]
        nsds = geometric_nsds(pts, None)
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

    @pytest.mark.parametrize("shape", [None, SKEW_HEX])
    def test_contract_equivalence_with_naive(self, shape):
        # 50 random operation sequences per shape, each checked against the
        # reference structure over the materialized graph
        for seq in range(50):
            rng = np.random.default_rng(1000 + seq)
            n = int(rng.integers(5, 40))
            pts = rng.uniform(0, 6, size=(n, 2))
            g = intersection_graph_naive(pts, shape or axis_square(1.0))
            geo = geometric_nsds(pts, shape)
            ref = NaiveNeighbourSets(g)
            geo_handles = [geo.empty]
            ref_handles = [ref.empty]
            for _ in range(25):
                base = int(rng.integers(0, len(geo_handles)))
                v = int(rng.integers(0, g.n))
                geo_handles.append(geo.add_neighbours(geo_handles[base], v))
                ref_handles.append(ref.add_neighbours(ref_handles[base], v))
            for _ in range(40):
                i = int(rng.integers(0, len(geo_handles)))
                j = int(rng.integers(0, len(geo_handles)))
                got = sorted(geo.list_differences(geo_handles[i],
                                                  geo_handles[j]))
                want = sorted(ref.list_differences(ref_handles[i],
                                                   ref_handles[j]))
                assert got == want, (seq, i, j)


class TestOutputSensitivity:
    def test_list_differences_touches_little(self):
        rng = np.random.default_rng(17)
        n = 4096
        pts = np.c_[rng.uniform(0, n / 16, size=n), rng.uniform(0, 24, size=n)]
        structure, v0 = plane_init(pts, None)
        v1 = plane_mark(v0, tuple(pts[123]))
        covered = structure.decode(v1)
        # reset counters, then measure one output-sensitive query
        for static in structure._stripe_static.values():
            static.list_nodes = 0
        structure.aux_nodes = 0
        got = plane_list_differences(v0, v1)
        assert set(got) == covered
        visits = structure.aux_nodes + sum(
            s.list_nodes for s in structure._stripe_static.values())
        budget = 16 * (len(got) + 1) * (math.log2(n) + 2)
        assert visits <= budget, (visits, budget)

    def test_mark_touches_logarithmically(self):
        rng = np.random.default_rng(19)
        n = 4096
        pts = np.c_[rng.uniform(0, n / 16, size=n), rng.uniform(0, 24, size=n)]
        structure, v = plane_init(pts, None)
        base = sum(s.mark_nodes for s in structure._stripe_static.values())
        marks = 200
        for _ in range(marks):
            c = (float(rng.uniform(0, n / 16)), float(rng.uniform(0, 24)))
            v = plane_mark(v, c)
        visits = sum(s.mark_nodes
                     for s in structure._stripe_static.values()) - base
        assert visits / marks <= 16 * math.log2(n)
