from types import SimpleNamespace

import numpy as np
import pytest

from kdiam import _kernels, explicit, implicit
from kdiam.graph import (DisconnectedGraphError, Graph, GraphFormatError,
                         bfs_distances, diameter_naive, diameter_upto,
                         distance_vc_shatter_check, from_edges, is_connected,
                         k_diameter_naive, load_edge_list, neighborhood,
                         parse_edge_list, save_edge_list)
from kdiam.gen import (default_box, random_connected_graph,
                       random_unit_square_points)
from kdiam.geometry import axis_square, intersection_graph_naive
from kdiam.nsds import MaskNeighbourSets
from kdiam.plane import geometric_nsds

from helpers import all_pairs_dist, ball


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph([[0]])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph([[1, 1], [0, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph([[1], []])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph([])


class TestBfs:
    def test_path(self):
        assert bfs_distances(path_graph(3), 0).tolist() == [0, 1, 2]

    def test_triangle_middle(self):
        assert bfs_distances(complete_graph(3), 1).tolist() == [1, 0, 1]

    def test_five_cycle(self):
        assert bfs_distances(cycle_graph(5), 0).tolist() == [0, 1, 2, 2, 1]

    def test_out_of_range_source(self):
        with pytest.raises(ValueError):
            bfs_distances(path_graph(3), 3)

    def test_matches_oracle_and_lipschitz(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 3 * n) + 1))
            g = random_connected_graph(n, m, rng)
            ref = all_pairs_dist(g.adjacency)
            for s in range(g.n):
                dist = bfs_distances(g, s)
                assert dist.tolist() == [ref[s][u] for u in range(g.n)]
                assert dist[s] == 0
                for u, v in g.edges():
                    assert abs(int(dist[u]) - int(dist[v])) <= 1

    def test_disconnected_raises(self):
        g = Graph([[1], [0], [3], [2]])
        with pytest.raises(DisconnectedGraphError):
            bfs_distances(g, 0)


class TestDiameter:
    def test_triangle(self):
        assert diameter_naive(complete_graph(3)) == 1

    def test_star(self):
        assert diameter_naive(star_graph(4)) == 2

    def test_nine_cycle(self):
        g = cycle_graph(9)
        ref = all_pairs_dist(g.adjacency)
        expect = max(max(d.values()) for d in ref)
        assert expect == 4
        assert diameter_naive(g) == 4

    def test_single_vertex(self):
        assert diameter_naive(Graph([[]])) == 0

    def test_single_edge(self):
        assert diameter_naive(path_graph(2)) == 1

    def test_disconnected_infinite(self):
        for adjacency in ([[1], [0], [3], [2]],     # two components
                          [[1], [0, 2], [1], []],   # an isolated vertex
                          [[], []]):                # two vertices, no edge
            with pytest.raises(DisconnectedGraphError, match="infinite"):
                diameter_naive(Graph(adjacency))


def eccentricity_diameter(g):
    """The per-source oracle: one numpy BFS from every vertex."""
    return int(_kernels.eccentricities(*g.csr).max())


class TestDiameterAgainstPerSourceBfs:
    @pytest.mark.parametrize("family,n", [
        (path_graph, 1), (path_graph, 2), (path_graph, 7),
        (cycle_graph, 3), (cycle_graph, 8), (cycle_graph, 11),
        (star_graph, 1), (star_graph, 5),
        (complete_graph, 2), (complete_graph, 6),
    ], ids=lambda p: getattr(p, "__name__", p))
    def test_named_families(self, family, n):
        g = family(n)
        assert diameter_naive(g) == eccentricity_diameter(g)

    def test_random_connected_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 61))
            m = int(rng.integers(n - 1, min(3 * n, n * (n - 1) // 2) + 1))
            g = random_connected_graph(n, m, rng)
            assert diameter_naive(g) == eccentricity_diameter(g)

    def test_unit_square_graphs(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            pts = random_unit_square_points(n, default_box(n), rng)
            g = intersection_graph_naive(pts, axis_square(1.0))
            assert diameter_naive(g) == eccentricity_diameter(g)


class TestKDiameter:
    def test_triangle_k1(self):
        assert k_diameter_naive(complete_graph(3), 1) is True

    def test_five_cycle_k1(self):
        assert k_diameter_naive(cycle_graph(5), 1) is False

    def test_nine_cycle_k4(self):
        assert k_diameter_naive(cycle_graph(9), 4) is True

    def test_negative_k(self):
        with pytest.raises(ValueError):
            k_diameter_naive(complete_graph(3), -1)

    def test_equivalent_to_full_balls(self):
        # diameter <= k iff every radius-k ball is the whole vertex set
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            g = random_connected_graph(n, n + 2, rng)
            for k in range(1, 5):
                full = all(len(neighborhood(g, v, k)) == g.n
                           for v in range(g.n))
                assert k_diameter_naive(g, k) == full


class TestDiameterUpto:
    @staticmethod
    def steps(diameter, asked):
        r = 0
        while True:
            r += 1
            asked.append(r)
            yield SimpleNamespace(radius=r, full=r >= diameter)

    @pytest.mark.parametrize("diameter,k_max,want", [
        (0, 3, 1), (1, 3, 1), (3, 3, 3), (2, 5, 2), (4, 3, None),
        (9, 1, None)])
    def test_first_full_radius_and_nothing_beyond(self, diameter, k_max,
                                                  want):
        asked = []
        assert diameter_upto(self.steps(diameter, asked), k_max) == want
        assert asked == list(range(1, min(max(diameter, 1), k_max) + 1))

    @staticmethod
    def instances():
        rng = np.random.default_rng(40)
        for _ in range(8):
            n = int(rng.integers(1, 30))
            m_hi = min(n * (n - 1) // 2, 2 * n)
            g = random_connected_graph(n, int(rng.integers(n - 1, m_hi + 1)),
                                       rng)
            yield g, lambda g=g: MaskNeighbourSets.from_graph(g)
        for _ in range(4):
            n = int(rng.integers(5, 40))
            pts = random_unit_square_points(n, default_box(n), rng)
            yield (intersection_graph_naive(pts, axis_square(1.0)),
                   lambda pts=pts: geometric_nsds(pts, None))

    @pytest.mark.parametrize("path", ["explicit", "implicit"])
    def test_one_sweep_equals_per_k_answers_and_naive(self, path):
        k_max = 6
        for g, make in self.instances():
            diam = diameter_naive(g)
            if path == "explicit":
                steps = explicit.radius_steps(g, 3, np.random.default_rng(1))
            else:
                steps = implicit.radius_steps(make(), g.n, 3,
                                              np.random.default_rng(1))
            found = diameter_upto(steps, k_max)
            assert found == (max(diam, 1) if diam <= k_max else None)
            for k in range(1, k_max + 1):
                rng = np.random.default_rng(k)
                if path == "explicit":
                    answer = explicit.k_diameter_explicit(g, k, 3, rng)
                else:
                    answer = implicit.k_diameter_implicit(make, g.n, k, 3,
                                                          rng)
                assert answer == (found is not None and found <= k) \
                    == (diam <= k)


class TestNeighborhood:
    def test_radius_zero(self):
        assert neighborhood(path_graph(3), 0, 0) == {0}

    def test_path_center(self):
        assert neighborhood(path_graph(3), 1, 1) == {0, 1, 2}

    def test_five_cycle_radius2(self):
        assert neighborhood(cycle_graph(5), 0, 2) == {0, 1, 2, 3, 4}

    def test_connectedness_full_ball(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            g = random_connected_graph(n, n - 1, rng)
            for v in range(g.n):
                assert neighborhood(g, v, g.n - 1) == set(range(g.n))

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(18, 30, rng)
        for v in range(g.n):
            for r in range(0, 5):
                assert neighborhood(g, v, r) == ball(g.adjacency, v, r)


class TestShatterCheck:
    def test_single_edge(self):
        assert distance_vc_shatter_check(from_edges(2, [(0, 1)]), 2) == 1

    def test_triangle(self):
        got = distance_vc_shatter_check(complete_graph(3), 3)
        assert 1 <= got < 3

    def test_guard(self):
        g = random_connected_graph(17, 20, np.random.default_rng(0))
        with pytest.raises(ValueError, match="guard"):
            distance_vc_shatter_check(g, 3)
        assert distance_vc_shatter_check(g, 1, allow_large=True) == 1

    def test_unit_square_instances_at_most_4(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            n = int(rng.integers(4, 13))
            pts = random_unit_square_points(n, max(1.5, n / 4), rng)
            g = intersection_graph_naive(pts, axis_square(1.0))
            assert distance_vc_shatter_check(g, 5) <= 4


class TestEdgeListFormat:
    def test_roundtrip(self, tmp_path):
        g = random_connected_graph(12, 20, np.random.default_rng(5))
        path = tmp_path / "g.el"
        save_edge_list(g, path)
        assert load_edge_list(path) == g

    def test_strict_errors(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("")
        with pytest.raises(GraphFormatError, match="'n m'"):
            parse_edge_list("3\n0 1\n")
        with pytest.raises(GraphFormatError, match="edge lines"):
            parse_edge_list("3 2\n0 1\n")
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_edge_list("3 1\n1 1\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_edge_list("3 2\n0 1\n1 0\n")
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_edge_list("3 1\n0 3\n")

    def test_load_rejects_disconnected(self, tmp_path):
        path = tmp_path / "d.el"
        path.write_text("4 2\n0 1\n2 3\n")
        with pytest.raises(DisconnectedGraphError):
            load_edge_list(path)

    def test_is_connected(self):
        assert is_connected(path_graph(4))
        assert not is_connected(Graph([[1], [0], [3], [2]]))
