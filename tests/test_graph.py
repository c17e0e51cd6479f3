import hashlib
import warnings
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from kdiam import _kernels, explicit, implicit
from kdiam.graph import (DisconnectedGraphError, Graph, GraphFormatError,
                         Mask, ball_masks, balls_at, diameter_naive,
                         diameter_upto, id_array,
                         ids_of, is_connected, k_diameter_naive,
                         load_edge_list, format_edge_list, locality_rank,
                         neighborhood, parse_edge_list)
from kdiam.gen import (default_box, random_apollonian, random_connected_graph,
                       random_unit_square_points)
from kdiam.geometry import axis_square, intersection_graph_naive
from kdiam.nsds import MaskNeighbourSets
from kdiam.plane import geometric_nsds

from helpers import (adjacency, all_pairs_dist, ball, distance_vc_shatter_check,
                     parse_edge_list_reference,
                     random_connected_graph_reference)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, [(0, 0)])

    def test_rejects_duplicate(self):
        for edges in ([(0, 1), (0, 1)], [(0, 1), (1, 0)]):
            with pytest.raises(ValueError, match="duplicate"):
                Graph(2, edges)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    @pytest.mark.parametrize("edge", [(3, 0), (0, 3), (5, 1), (1, 5),
                                      (-1, 0), (0, -1), (-4, -2)])
    def test_rejects_an_id_out_of_range(self, edge):
        # ids >= n and < 0, in either column: a ValueError, not an
        # IndexError, and never a wrapped negative index
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 1), edge])


class TestCsr:
    def test_rows_are_the_adjacency(self):
        # vertex 3 is isolated, so its row is empty
        sparse = random_connected_graph(30, 70, np.random.default_rng(2))
        for n, edges in [(4, [(2, 0), (0, 1)]), (1, []),
                         (sparse.n, list(sparse.edges())[::-1])]:
            g = Graph(n, edges)
            rows = [sorted({u for e in edges if v in e for u in e} - {v})
                    for v in range(n)]
            indptr, indices = g.csr
            assert indptr.dtype == indices.dtype == np.int64
            assert indptr.tolist() == [0, *np.cumsum([len(r) for r in rows])
                                       .tolist()]
            assert [indices[indptr[v]:indptr[v + 1]].tolist()
                    for v in range(g.n)] == rows
            assert g.m == len(edges)


class TestBallMasks:
    def test_rounds_are_the_balls(self):
        rng = np.random.default_rng(8)
        graphs = [Graph(6, [(0, 1), (1, 2), (3, 4)]), Graph(1, [])]
        for n in rng.integers(2, 25, size=10).tolist():
            graphs.append(random_connected_graph(
                n, min(n + 5, n * (n - 1) // 2), rng))
        for g in graphs:
            ref = all_pairs_dist(adjacency(g))
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
        assert locality_rank(Graph(1, [])) == (0,)

    def test_relabelled_path_from_its_lesser_end(self):
        # Cuthill-McKee starts at a least-degree vertex (the ends of a path,
        # the lesser id first) and walks the path.
        perm = [3, 6, 0, 5, 1, 4, 2]
        g = Graph(7, [(perm[i], perm[i + 1]) for i in range(6)])
        assert locality_rank(g) == tuple(reversed(perm))

    def test_neighbours_in_increasing_degree(self):
        # 0 is the one leaf; its neighbour 1 has neighbours 2 (degree 3)
        # and 3 (degree 2), so 3 comes first.
        g = Graph(6, [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4)])
        assert locality_rank(g) == (0, 1, 3, 2, 4, 5)

    def test_disconnected_graph_covers_every_component(self):
        g = Graph(9, [(0, 1), (2, 3), (3, 4), (6, 7), (7, 8), (8, 6)])
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
            ref = all_pairs_dist(adjacency(g))
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
        ref = all_pairs_dist(adjacency(g))
        expect = max(max(d.values()) for d in ref)
        assert expect == 4
        assert diameter_naive(g) == 4

    def test_single_vertex(self):
        assert diameter_naive(Graph(1, [])) == 0

    def test_single_edge(self):
        assert diameter_naive(path_graph(2)) == 1

    def test_disconnected_infinite(self):
        for n, edges in ((4, [(0, 1), (2, 3)]),    # two components
                         (4, [(0, 1), (1, 2)]),    # an isolated vertex
                         (2, [])):                 # two vertices, no edge
            with pytest.raises(DisconnectedGraphError, match="infinite"):
                diameter_naive(Graph(n, edges))


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


class TestRandomConnectedGraph:
    @pytest.mark.parametrize("n,m", [
        (1, 0), (2, 1), (9, 8), (60, 59), (5, 10), (12, 66), (30, 435),
        (400, 1200), (1600, 4800)])
    def test_bulk_draws_are_the_loop_draws(self, n, m):
        # The same graph, and the generator left where the one-draw-per-step
        # loop leaves it, which every caller drawing on after it relies on.
        for seed in range(4):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert (random_connected_graph(n, m, rng)
                    == random_connected_graph_reference(n, m, ref))
            assert rng.integers(0, 2**40) == ref.integers(0, 2**40)


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
        assert adjacency(draw[0]) == adjacency(draw[1])
        assert adjacency(other) != adjacency(draw[0])

    @pytest.mark.parametrize("n", [4, 60, 400])
    def test_peels_to_a_triangle(self, n):
        # An Apollonian network is a planar 3-tree: removing a vertex of
        # degree 3 whose neighbours form a triangle, while one is left,
        # ends at a triangle.
        g = random_apollonian(n, np.random.default_rng([7, n]))
        adj = [set(a) for a in adjacency(g)]
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
        adj = [set(a) for a in adjacency(g)]
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
                assert neighborhood(g, v, r) == ball(adjacency(g), v, r)


class TestShatterCheck:
    def test_single_edge(self):
        assert distance_vc_shatter_check(Graph(2, [(0, 1)]), 2) == 1

    def test_triangle(self):
        got = distance_vc_shatter_check(complete_graph(3), 3)
        assert 1 <= got < 3

    def test_disconnected_graph_matches_brute_force(self):
        # a path, a triangle, an edge and an isolated vertex
        g = Graph(10, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4),
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


PINNED_GRAPHS = {
    "sparse": (lambda: random_connected_graph(
        1600, 4800, np.random.default_rng(5)),
        "06adf2e3c090abd049a07e44bf44dfa0fdd0cbaf6c100f53238e65deb6d485c5"),
    "apollonian": (lambda: random_apollonian(
        1600, np.random.default_rng([7, 1600])),
        "d5e69d2dbb020d762bfb11854d6f466ff508e3b98afffdf85fd302d435a1d947"),
    "squares-600": (lambda: intersection_graph_naive(
        random_unit_square_points(600, 3.2, np.random.default_rng([5, 600])),
        axis_square(1.0)),
        "37192097ff43740a9d5b52c8b957e5436053b8903318dcd4dc49177ba8e42d95"),
}


def graph_digest(g):
    """sha256 of the graph's edge-list text, then its CSR arrays as
    little-endian int64."""
    h = hashlib.sha256(format_edge_list(g).encode())
    for a in g.csr:
        h.update(np.ascontiguousarray(a, "<i8").tobytes())
    return h.hexdigest()


class TestGraphPins:
    # Digests recorded when a graph still kept adjacency tuples beside its
    # CSR arrays: the generators and the oracle build the same graphs,
    # text and arrays, so every order and answer read off them is the same.
    @pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
    def test_graph_is_pinned(self, name):
        make, digest = PINNED_GRAPHS[name]
        assert graph_digest(make()) == digest

    @pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
    def test_load_round_trip_is_pinned(self, name, tmp_path):
        make, digest = PINNED_GRAPHS[name]
        g = make()
        path = tmp_path / "g.el"
        path.write_text(format_edge_list(g))
        loaded = load_edge_list(path)
        assert loaded == g
        assert graph_digest(loaded) == digest


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
        # Two rows of three ids hold three pairs' worth of ids.
        with pytest.raises(GraphFormatError, match="^line 2: expected 'u v'$"):
            parse_edge_list("4 2\n0 1 2\n1 2 3\n")
        for text in ("3 -1\n", "0 0\n"):
            with pytest.raises(GraphFormatError,
                               match="with n >= 1 and m >= 0"):
                parse_edge_list(text)

    def test_load_rejects_disconnected(self, tmp_path):
        path = tmp_path / "d.el"
        path.write_text("4 2\n0 1\n2 3\n")
        with pytest.raises(DisconnectedGraphError):
            load_edge_list(path)

    def test_is_connected(self):
        assert is_connected(path_graph(4))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))


def _edge_list_corpus(rng, count):
    """Edge-list texts, mostly malformed: wrong token and line counts, signs,
    tabs and other Unicode whitespace, CRLF and lone CR line ends, blank
    lines, floats, hex, ids past int64, ids out of range, self-loops and
    edges given twice either way.
    Every header the reference reads has n >= 1 and m >= 0, and every token
    is ASCII with no ``_``: the pinned differences are tested on their own."""
    junk = ["1.0", "1e3", ".5", "0x1", "0X1F", "a", "#", "-", "+", "+-1",
            "1-2", "2**63", "nan", str(2**63), str(2**63 + 1), str(2**64),
            str(10**20), str(-2**63), str(-2**63 - 1), str(2**63 - 1)]

    def pick(*options):
        return options[int(rng.integers(len(options)))]

    def token(n, noise):
        r = rng.random() / noise
        if r > 1:
            k = int(rng.integers(0, n))
            return pick("", "", "", "+", "0", "00") + str(k) if k \
                else pick("0", "+0", "-0", "00")
        if r > 0.6:
            return str(int(rng.integers(n, n + 4)))
        if r > 0.4:
            return str(-int(rng.integers(1, 4)))
        return pick(*junk)

    def gap():
        if rng.random() < 0.02:
            # Whitespace that str.split and str.splitlines also read as such.
            return pick("\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
                        "\u2028", "\u3000")
        return pick(" ", " ", "\t", "  ", " \t ")

    for _ in range(count):
        n = int(rng.integers(1, 12))
        # Most texts are clean or nearly so, to reach the later checks.
        noise = pick(0.005, 0.02, 0.1, 0.3)
        edges = []
        for _ in range(int(rng.integers(0, 12))):
            r = rng.random()
            if edges and r < 0.08:
                edges.append(edges[int(rng.integers(len(edges)))][::pick(1, -1)])
            elif r > noise / 4:
                edges.append([token(n, noise), token(n, noise)])
            else:
                edges.append([token(n, noise) for _ in range(pick(1, 3))])
        m = max(0, len(edges) + pick(*[0] * 12, 1, -1, 2))
        head = [pick("", "+", "0") + str(n), pick("", "+") + str(m)]
        r = rng.random()
        if r < 0.02:
            head = [str(n)]
        elif r < 0.04:
            head = [str(n), str(m), "0"]
        elif r < 0.06:
            head = [str(n), pick("1.0", "0x2", "x", str(2**63), str(2**64))]
        elif r < 0.07 and m == 0:
            head = [str(n), "-0"]
        lines = [gap().join(head)]
        for e in edges:
            lines.append(pick("", "", " ", "\t") + gap().join(e)
                         + pick("", "", "", " ", "\t"))
            if rng.random() < 0.1:
                lines.append(pick("", " ", "\t", " \t"))
        if rng.random() < 0.1:
            lines.insert(0, pick("", " "))
        end = pick("\n", "\n", "\r\n", "\r")
        yield end.join(lines) + pick(end, end, "")


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


class TestEdgeListAgainstReference:
    def test_same_graph_or_same_error(self):
        # The reader scans by line only where a check fails: on a corpus
        # reaching every check, every text reads as the one-line-at-a-time
        # reference reads it.
        texts = list(_edge_list_corpus(np.random.default_rng(34), 6000))
        outcomes = [_outcome(parse_edge_list_reference, t) for t in texts]
        for text, want in zip(texts, outcomes):
            assert _outcome(parse_edge_list, text) == want, text
        # The corpus reaches the success path and every error message.
        messages = {o[1].partition(": ")[2] or o[1] for o in outcomes
                    if isinstance(o, tuple)}
        assert sum(isinstance(o, Graph) for o in outcomes) > 500
        for what in ("expected 'u v'", "expected integers",
                     "vertex out of range", "self-loop", "duplicate edge",
                     "edge lines", "first line must be 'n m'"):
            assert any(what in msg for msg in messages), what

    @pytest.mark.parametrize("text,edge", [
        ("12 1\n0 1_0\n", (0, 10)), ("3 1\n0 \u0661\n", (0, 1)),
        ("3 1\n\uff12 0\n", (2, 0))])
    def test_tokens_only_int_reads_are_not_integers(self, text, edge):
        # int() reads underscores and non-ASCII digits; the grammar is
        # signed ASCII decimal, as np.loadtxt reads it.
        assert list(parse_edge_list_reference(text).edges()) == [
            tuple(sorted(edge))]
        with pytest.raises(GraphFormatError,
                           match="^line 2: expected integers$"):
            parse_edge_list(text)

    @pytest.mark.parametrize("text,n", [("1_2 0\n", 12), ("\u0663 0\n", 3)])
    def test_header_tokens_only_int_reads_are_not_integers(self, text, n):
        assert parse_edge_list_reference(text).n == n
        with pytest.raises(GraphFormatError,
                           match="^first line must be 'n m'$"):
            parse_edge_list(text)

    @pytest.mark.parametrize("text,was", [
        ("3 -1\n", "expected -1 edge lines, found 0"),
        ("0 0\n", "graph must have at least one vertex"),
        ("-2 1\n0 1\n", "line 2: vertex out of range")])
    def test_header_bounds(self, text, was):
        assert _outcome(parse_edge_list_reference, text)[1] == was
        with pytest.raises(GraphFormatError,
                           match="with n >= 1 and m >= 0"):
            parse_edge_list(text)

    def test_a_float_read_with_a_deprecation_warning_is_not_an_integer(
            self, monkeypatch):
        # NumPy releases from 1.23 on may read "1.0" into an int column as
        # 1 and only warn; such a read does not count.
        loadtxt = np.loadtxt

        def lenient(body, **kw):
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning)
            return loadtxt([ln.replace(".0", "") for ln in body], **kw)

        monkeypatch.setattr(np, "loadtxt", lenient)
        with pytest.raises(GraphFormatError,
                           match="^line 2: expected integers$"):
            parse_edge_list("3 1\n0 1.0\n")
