from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from kdiam import _kernels, explicit, implicit
from kdiam.graph import (DisconnectedGraphError, Graph, GraphFormatError,
                         Mask, ball_masks, balls_at, diameter_naive,
                         diameter_upto, from_edges, id_array,
                         ids_of, is_connected, k_diameter_naive,
                         load_edge_list, format_edge_list, locality_rank,
                         neighborhood, parse_edge_list)
from kdiam.gen import (default_box, random_apollonian, random_connected_graph,
                       random_unit_square_points)
from kdiam.geometry import axis_square, intersection_graph_naive
from kdiam.nsds import MaskNeighbourSets
from kdiam.plane import geometric_nsds

from helpers import all_pairs_dist, ball, distance_vc_shatter_check


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


class TestCsr:
    def test_rows_are_the_adjacency(self):
        # vertex 3 is isolated, so its row is empty
        graphs = [Graph([[1, 2], [0], [0], []]), Graph([[]]),
                  random_connected_graph(30, 70, np.random.default_rng(2))]
        for g in graphs:
            indptr, indices = g.csr
            assert indptr.dtype == indices.dtype == np.int64
            assert indptr.tolist() == [0, *np.cumsum(g.degrees()).tolist()]
            assert [indices[indptr[v]:indptr[v + 1]].tolist()
                    for v in range(g.n)] == [list(a) for a in g.adjacency]


class TestBallMasks:
    def test_rounds_are_the_balls(self):
        rng = np.random.default_rng(8)
        graphs = [Graph([[1], [0, 2], [1], [4], [3], []]), Graph([[]])]
        for n in rng.integers(2, 25, size=10).tolist():
            graphs.append(random_connected_graph(
                n, min(n + 5, n * (n - 1) // 2), rng))
        for g in graphs:
            ref = all_pairs_dist(g.adjacency)
            rounds = list(ball_masks(g))
            # the last round is the first whose successor changes nothing
            last = max(max(d.values()) for d in ref)
            assert len(rounds) == last + 1
            for r, balls in enumerate(rounds):
                assert balls == [sum(1 << u for u, d in ref[v].items()
                                     if d <= r) for v in range(g.n)]
            for r in range(last + 3):
                assert balls_at(g, r) == rounds[min(r, last)]


class TestIdsOfAndMask:
    def test_ids_of_lists_set_bits_in_increasing_order(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            ids = sorted(set(rng.integers(0, 300, size=20).tolist()))
            assert ids_of(sum(1 << v for v in ids)) == ids
        assert ids_of(0) == []

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 300])
    def test_id_array_is_ids_of_as_int64(self, n):
        rng = np.random.default_rng(n)
        masks = [0, (1 << n) - 1, 1 << n - 1]
        masks += [sum(1 << v for v in set(rng.integers(0, n, 20).tolist()))
                  for _ in range(20)]
        for mask in masks:
            got = id_array(mask, n)
            assert got.dtype == np.int64
            assert got.tolist() == ids_of(mask)

    @pytest.mark.parametrize("mask", [-1, -2, -(1 << 70)])
    def test_ids_of_rejects_negative_masks(self, mask):
        with pytest.raises(ValueError, match="non-negative"):
            ids_of(mask)

    def test_mask_reads_as_its_ids(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            value = int(rng.integers(0, 1 << 62)) << int(rng.integers(0, 200))
            mask = Mask(value)
            assert mask == value
            assert len(mask) == value.bit_count()
            ids = list(mask)
            assert ids == ids_of(value)
            assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_empty_mask(self):
        assert len(Mask(0)) == 0
        assert list(Mask(0)) == [] and set(Mask(0)) == set()
        assert not Mask(0)

    def test_operators_return_plain_ints(self):
        a, b = Mask(0b1100), Mask(0b1010)
        for got, want in ((a & b, 0b1000), (a ^ b, 0b0110),
                          (a | b, 0b1110), (a ^ 0b1, 0b1101)):
            assert type(got) is int and got == want


class TestLocalityRank:
    def test_one_vertex(self):
        assert locality_rank(from_edges(1, [])) == (0,)

    def test_relabelled_path_from_its_lesser_end(self):
        # Cuthill-McKee starts at a least-degree vertex (the ends of a path,
        # the lesser id first) and walks the path.
        perm = [3, 6, 0, 5, 1, 4, 2]
        g = from_edges(7, [(perm[i], perm[i + 1]) for i in range(6)])
        assert locality_rank(g) == tuple(reversed(perm))

    def test_neighbours_in_increasing_degree(self):
        # 0 is the one leaf; its neighbour 1 has neighbours 2 (degree 3)
        # and 3 (degree 2), so 3 comes first.
        g = from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4)])
        assert locality_rank(g) == (0, 1, 3, 2, 4, 5)

    def test_disconnected_graph_covers_every_component(self):
        g = from_edges(9, [(0, 1), (2, 3), (3, 4), (6, 7), (7, 8), (8, 6)])
        rank = locality_rank(g)
        assert sorted(rank) == list(range(9))
        # the isolated vertex 5 has the least degree and comes first
        assert rank[0] == 5

    def test_is_a_permutation_of_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 2 * n) + 1))
            g = random_connected_graph(n, m, rng)
            rank = locality_rank(g)
            assert sorted(rank) == list(range(n))
            assert all(type(v) is int for v in rank)


class TestBfs:
    def test_path(self):
        dist = _kernels.bfs_distances(*path_graph(3).csr, 0)
        assert dist.tolist() == [0, 1, 2]

    def test_triangle_middle(self):
        dist = _kernels.bfs_distances(*complete_graph(3).csr, 1)
        assert dist.tolist() == [1, 0, 1]

    def test_five_cycle(self):
        dist = _kernels.bfs_distances(*cycle_graph(5).csr, 0)
        assert dist.tolist() == [0, 1, 2, 2, 1]

    def test_matches_oracle_and_lipschitz(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 3 * n) + 1))
            g = random_connected_graph(n, m, rng)
            ref = all_pairs_dist(g.adjacency)
            for s in range(g.n):
                dist = _kernels.bfs_distances(*g.csr, s)
                assert dist.tolist() == [ref[s][u] for u in range(g.n)]
                assert dist[s] == 0
                for u, v in g.edges():
                    assert abs(int(dist[u]) - int(dist[v])) <= 1


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


class TestRandomApollonian:
    @pytest.mark.parametrize("n", [3, 4, 5, 17, 400])
    def test_simple_connected_with_3n_minus_6_edges(self, n):
        g = random_apollonian(n, np.random.default_rng([7, n]))
        edges = list(g.edges())
        assert g.n == n and g.m == len(edges) == 3 * n - 6
        assert len({(min(e), max(e)) for e in edges}) == g.m
        assert all(u != v for u, v in edges)
        assert is_connected(g)

    def test_same_seed_same_graph(self):
        draw = [random_apollonian(300, np.random.default_rng([7, 300]))
                for _ in range(2)]
        other = random_apollonian(300, np.random.default_rng([8, 300]))
        assert draw[0].adjacency == draw[1].adjacency
        assert other.adjacency != draw[0].adjacency

    @pytest.mark.parametrize("n", [4, 60, 400])
    def test_peels_to_a_triangle(self, n):
        # An Apollonian network is a planar 3-tree: removing a vertex of
        # degree 3 whose neighbours form a triangle, while one is left,
        # ends at a triangle.
        g = random_apollonian(n, np.random.default_rng([7, n]))
        adj = [set(a) for a in g.adjacency]
        left = set(range(n))

        def peelable(v):
            if len(adj[v]) != 3:
                return False
            a, b, c = adj[v]
            return b in adj[a] and c in adj[a] and c in adj[b]

        queue = [v for v in left if peelable(v)]
        while len(left) > 3 and queue:
            v = queue.pop()
            if v not in left or not peelable(v):
                continue
            left.remove(v)
            for u in adj[v]:
                adj[u].remove(v)
                queue.append(u)
            adj[v] = set()
        assert len(left) == 3
        assert all(adj[u] == left - {u} for u in left)

    def test_no_triangle_has_three_common_neighbours(self):
        # Three of them would span a K3,3 with the triangle, which no
        # planar graph contains; a draw that split one face twice would.
        g = random_apollonian(400, np.random.default_rng([7, 400]))
        adj = [set(a) for a in g.adjacency]
        for a, b in g.edges():
            for c in adj[a] & adj[b]:
                assert len(adj[a] & adj[b] & adj[c]) <= 2

    def test_needs_a_triangle(self):
        with pytest.raises(ValueError, match="n must be >= 3"):
            random_apollonian(2, np.random.default_rng(0))


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
                   lambda pts=pts: geometric_nsds(pts, axis_square(1.0)))

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

    def test_disconnected_graph_matches_brute_force(self):
        # a path, a triangle, an edge and an isolated vertex
        g = from_edges(10, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4),
                            (7, 8)])
        family = {frozenset(neighborhood(g, v, r))
                  for v in range(g.n) for r in range(g.n)}

        def shattered(subset):
            return len({frozenset(subset) & b for b in family}) \
                == 2 ** len(subset)

        for max_subset in (1, 2, 3, 4):
            expect = max(size for size in range(max_subset + 1)
                         if any(shattered(s) for s in
                                combinations(range(g.n), size)))
            assert distance_vc_shatter_check(g, max_subset) == expect

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
        path.write_text(format_edge_list(g))
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
