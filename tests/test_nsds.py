import numpy as np
import pytest

from kdiam.gen import random_connected_graph, random_unit_square_points
from kdiam.graph import diameter_naive, from_edges
from kdiam.geometry import axis_square, intersection_graph_naive
from kdiam.implicit import k_diameter_implicit
from kdiam.nsds import MaskNeighbourSets
from kdiam.plane import geometric_nsds
from kdiam.stripes import Stripe


def star_graph(leaves):
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestHandles:
    def test_empty_is_handle_zero(self):
        nsds = MaskNeighbourSets.from_graph(star_graph(3))
        assert nsds.empty == 0
        assert nsds.list_differences(nsds.empty, nsds.empty) == []

    def test_add_center_of_star(self):
        nsds = MaskNeighbourSets.from_graph(star_graph(3))
        h = nsds.add_neighbours(nsds.empty, 0)
        assert nsds.list_differences(nsds.empty, h) == [0, 1, 2, 3]

    def test_idempotent_adds(self):
        g = random_connected_graph(8, 10, np.random.default_rng(0))
        nsds = MaskNeighbourSets.from_graph(g)
        h1 = nsds.add_neighbours(nsds.empty, 3)
        h2 = nsds.add_neighbours(h1, 3)
        assert set(nsds.list_differences(nsds.empty, h1)) == \
            set(nsds.list_differences(nsds.empty, h2))
        assert nsds.list_differences(h1, h2) == []

    def test_out_of_range_vertex_rejected(self):
        # A plain closed[v] lookup would wrap v = -1 around silently.
        for nsds in (MaskNeighbourSets.from_graph(star_graph(2)),
                     geometric_nsds([(0.0, 0.0), (3.0, 3.0)],
                                    axis_square(1.0))):
            for v in (99, -1):
                with pytest.raises(ValueError):
                    nsds.add_neighbours(nsds.empty, v)
            assert nsds.add_count == 0


class TestAgainstReplay:
    def test_random_sequences_match_naive_replay(self):
        rng = np.random.default_rng(1)
        for trial in range(15):
            n = int(rng.integers(3, 20))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 2 * n) + 1))
            g = random_connected_graph(n, m, rng)
            nsds = MaskNeighbourSets.from_graph(g)
            closed = [set(g.adjacency[v]) | {v} for v in range(n)]
            replay = [set()]
            handles = [nsds.empty]
            for _ in range(40):
                base = int(rng.integers(0, len(handles)))
                v = int(rng.integers(0, n))
                handles.append(nsds.add_neighbours(handles[base], v))
                replay.append(replay[base] | closed[v])
            for _ in range(60):
                i = int(rng.integers(0, len(handles)))
                j = int(rng.integers(0, len(handles)))
                got = nsds.list_differences(handles[i], handles[j])
                assert sorted(got) == sorted(replay[i] ^ replay[j])
                assert set(nsds.list_differences(handles[j], handles[i])) \
                    == set(got)

    def test_persistence_old_handles_stable(self):
        g = random_connected_graph(10, 15, np.random.default_rng(2))
        nsds = MaskNeighbourSets.from_graph(g)
        h1 = nsds.add_neighbours(nsds.empty, 0)
        snapshot = set(nsds.list_differences(nsds.empty, h1))
        for v in range(g.n):
            nsds.add_neighbours(h1, v)
        assert set(nsds.list_differences(nsds.empty, h1)) == snapshot

    def test_triangle_property(self):
        g = random_connected_graph(12, 20, np.random.default_rng(3))
        nsds = MaskNeighbourSets.from_graph(g)
        rng = np.random.default_rng(4)
        handles = [nsds.empty]
        for _ in range(20):
            base = int(rng.integers(0, len(handles)))
            handles.append(nsds.add_neighbours(handles[base],
                                               int(rng.integers(0, g.n))))
        for _ in range(40):
            a, b, c = (handles[int(rng.integers(0, len(handles)))]
                       for _ in range(3))
            ab = len(nsds.list_differences(a, b))
            bc = len(nsds.list_differences(b, c))
            ac = len(nsds.list_differences(a, c))
            assert ac <= ab + bc


class TestClosedMasks:
    """The geometric structure keeps one closed-neighbourhood mask per
    vertex.  Reading handles in any order must give the sets replayed with
    Python sets over the same intersection graph."""

    def test_random_trees_read_in_random_order(self):
        rng = np.random.default_rng(60)
        pts = rng.uniform(0, 5, size=(40, 2))
        g = intersection_graph_naive(pts, axis_square(1.0))
        closed = [set(g.adjacency[v]) | {v} for v in range(g.n)]
        geo = geometric_nsds(pts, axis_square(1.0))
        replay, hg = [set()], [geo.empty]
        for _ in range(120):
            base = int(rng.integers(0, len(hg)))
            v = int(rng.integers(0, 40))
            replay.append(replay[base] | closed[v])
            hg.append(geo.add_neighbours(hg[base], v))
        assert geo.add_count == 120
        for i in rng.permutation(len(hg)):
            j = int(rng.integers(0, len(hg)))
            assert set(geo.list_differences(hg[i], hg[j])) \
                == replay[i] ^ replay[j]

    def test_one_decide_computes_at_most_n_covers(self, monkeypatch):
        # A full decide call at k = 3 builds one structure, and the covered
        # mask of each vertex is computed at most once in it: one lookup
        # per vertex in each of the unit square's two stripes.
        rng = np.random.default_rng(66)
        pts = random_unit_square_points(60, 3.0, rng)
        g = intersection_graph_naive(pts, axis_square(1.0))
        computed = []
        covers = Stripe.covers

        def counting(self, cs, lo, hi):
            computed.extend((c, lo, hi) for c in cs)
            return covers(self, cs, lo, hi)

        monkeypatch.setattr(Stripe, "covers", counting)
        made = []

        def factory():
            made.append(geometric_nsds(pts, axis_square(1.0)))
            return made[-1]

        got = k_diameter_implicit(factory, 60, 3, 4,
                                  np.random.default_rng(0))
        assert got == (diameter_naive(g) <= 3)
        assert len(made) == 1
        assert len(computed) <= 2 * 60
        assert made[0].add_count > 60

    def test_handles_are_checked(self):
        pts = [(0.0, 0.0), (3.0, 3.0)]
        nsds = geometric_nsds(pts, axis_square(1.0))
        h = nsds.add_neighbours(nsds.empty, 1)
        with pytest.raises(ValueError):
            nsds.add_neighbours(h, 2)
        assert nsds.add_count == 1
        assert nsds.list_differences(nsds.empty, h) == [1]
