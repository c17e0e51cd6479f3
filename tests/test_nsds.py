import numpy as np
import pytest

from kdiam.gen import random_connected_graph
from kdiam.graph import from_edges
from kdiam.geometry import axis_square, intersection_graph_naive
from kdiam.nsds import NaiveNeighbourSets, SetHandle
from kdiam.plane import geometric_nsds


def star_graph(leaves):
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestHandles:
    def test_empty_is_handle_zero(self):
        nsds = NaiveNeighbourSets(star_graph(3))
        assert nsds.empty.index == 0
        assert nsds.set_of(nsds.empty) == frozenset()

    def test_add_center_of_star(self):
        nsds = NaiveNeighbourSets(star_graph(3))
        h = nsds.add_neighbours(nsds.empty, 0)
        assert nsds.set_of(h) == frozenset({0, 1, 2, 3})

    def test_idempotent_adds(self):
        g = random_connected_graph(8, 10, np.random.default_rng(0))
        nsds = NaiveNeighbourSets(g)
        h1 = nsds.add_neighbours(nsds.empty, 3)
        h2 = nsds.add_neighbours(h1, 3)
        assert nsds.set_of(h1) == nsds.set_of(h2)
        assert nsds.list_differences(h1, h2) == []

    def test_foreign_and_stale_handles_rejected(self):
        g = star_graph(2)
        a, b = NaiveNeighbourSets(g), NaiveNeighbourSets(g)
        with pytest.raises(ValueError):
            a.list_differences(a.empty, b.empty)
        with pytest.raises(ValueError):
            a.list_differences(a.empty, SetHandle(a.empty.owner_id, 5))
        with pytest.raises(ValueError):
            a.add_neighbours(a.empty, 99)


class TestClear:
    """After clear() a structure must behave as a fresh one over the same
    graph, reject every earlier handle, and keep counting."""

    @staticmethod
    def structures():
        rng = np.random.default_rng(70)
        pts = rng.uniform(0, 4, size=(30, 2))
        g = intersection_graph_naive(pts, axis_square(1.0))
        yield (lambda: NaiveNeighbourSets(g)), g.n
        yield (lambda: geometric_nsds(pts, None)), g.n

    @staticmethod
    def build(nsds, ops):
        handles = [nsds.empty]
        for base, v in ops:
            handles.append(nsds.add_neighbours(handles[base], v))
        return handles

    def test_clear_acts_as_fresh(self):
        rng = np.random.default_rng(72)
        for make, n in self.structures():
            ops = [(int(rng.integers(0, i + 1)), int(rng.integers(0, n)))
                   for i in range(40)]
            nsds = make()
            old = self.build(nsds, ops)
            nsds.list_differences(old[3], old[-1])
            adds, lists = nsds.add_count, nsds.list_count
            nsds.clear()
            assert (nsds.add_count, nsds.list_count) == (adds, lists)
            for h in (old[0], old[-1]):
                with pytest.raises(ValueError):
                    nsds.list_differences(h, nsds.empty)
                with pytest.raises(ValueError):
                    nsds.add_neighbours(h, 0)
            assert (nsds.add_count, nsds.list_count) == (adds, lists)
            fresh = make()
            got = self.build(nsds, ops)
            want = self.build(fresh, ops)
            assert nsds.add_count == adds + len(ops)
            for i in rng.permutation(len(ops) + 1):
                j = int(rng.integers(0, len(ops) + 1))
                assert sorted(nsds.list_differences(got[i], got[j])) == \
                    sorted(fresh.list_differences(want[i], want[j]))
                assert sorted(nsds.list_differences(nsds.empty, got[i])) == \
                    sorted(fresh.list_differences(fresh.empty, want[i]))
            assert nsds.list_count == lists + 2 * (len(ops) + 1)


class TestAgainstReplay:
    def test_random_sequences_match_naive_replay(self):
        rng = np.random.default_rng(1)
        for trial in range(15):
            n = int(rng.integers(3, 20))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 2 * n) + 1))
            g = random_connected_graph(n, m, rng)
            nsds = NaiveNeighbourSets(g)
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
        nsds = NaiveNeighbourSets(g)
        h1 = nsds.add_neighbours(nsds.empty, 0)
        snapshot = set(nsds.set_of(h1))
        for v in range(g.n):
            nsds.add_neighbours(h1, v)
        assert set(nsds.set_of(h1)) == snapshot

    def test_triangle_property(self):
        g = random_connected_graph(12, 20, np.random.default_rng(3))
        nsds = NaiveNeighbourSets(g)
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


class TestDeferredMarks:
    """The geometric structure defers each AddNeighbours until its handle is
    read; a chain of pending handles is marked in one multi-center mark, cut
    at handles extended more than once.  Reading in any order must give the
    sets of the naive structure over the same intersection graph."""

    @staticmethod
    def counting(nsds, monkeypatch):
        marked = []
        plane = nsds._plane
        mark = plane.mark

        def spy(version, centers):
            marked.append(len(centers))
            return mark(version, centers)

        monkeypatch.setattr(plane, "mark", spy)
        return marked

    def test_random_trees_read_in_random_order(self):
        rng = np.random.default_rng(60)
        pts = rng.uniform(0, 5, size=(40, 2))
        g = intersection_graph_naive(pts, axis_square(1.0))
        naive = NaiveNeighbourSets(g)
        geo = geometric_nsds(pts, None)
        hn, hg = [naive.empty], [geo.empty]
        for _ in range(120):
            base = int(rng.integers(0, len(hn)))
            v = int(rng.integers(0, 40))
            hn.append(naive.add_neighbours(hn[base], v))
            hg.append(geo.add_neighbours(hg[base], v))
            assert geo.add_count == naive.add_count
        for i in rng.permutation(len(hn)):
            j = int(rng.integers(0, len(hn)))
            assert set(geo.list_differences(hg[i], hg[j])) \
                == naive.set_of(hn[i]) ^ naive.set_of(hn[j])

    def test_chain_is_one_mark(self, monkeypatch):
        rng = np.random.default_rng(62)
        pts = rng.uniform(0, 4, size=(30, 2))
        g = intersection_graph_naive(pts, axis_square(1.0))
        nsds = geometric_nsds(pts, None)
        marked = self.counting(nsds, monkeypatch)
        vs = [3, 17, 3, 29]
        h = nsds.empty
        for v in vs:
            h = nsds.add_neighbours(h, v)
        assert marked == [] and nsds.add_count == 4
        want = set(vs).union(*(g.adjacency[v] for v in vs))
        assert set(nsds.list_differences(nsds.empty, h)) == want
        assert marked == [4]
        # read again: already materialized
        assert set(nsds.list_differences(h, nsds.empty)) == want
        assert marked == [4]

    def test_fork_is_marked_once(self, monkeypatch):
        pts = np.random.default_rng(64).uniform(0, 4, size=(30, 2))
        nsds = geometric_nsds(pts, None)
        marked = self.counting(nsds, monkeypatch)
        fork = nsds.empty
        for v in (1, 2, 3):
            fork = nsds.add_neighbours(fork, v)
        left = nsds.add_neighbours(nsds.add_neighbours(fork, 4), 5)
        right = nsds.add_neighbours(nsds.add_neighbours(fork, 6), 7)
        nsds.list_differences(left, right)
        assert marked == [3, 2, 2]
        nsds.list_differences(fork, nsds.empty)
        assert marked == [3, 2, 2]

    def test_pending_handles_are_checked(self):
        pts = [(0.0, 0.0), (3.0, 3.0)]
        nsds = geometric_nsds(pts, None)
        h = nsds.add_neighbours(nsds.empty, 1)
        with pytest.raises(ValueError):
            nsds.add_neighbours(h, 2)
        with pytest.raises(ValueError):
            nsds.list_differences(h, SetHandle(h.owner_id, 5))
        assert nsds.add_count == 1
        assert nsds.list_differences(nsds.empty, h) == [1]
