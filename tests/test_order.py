import hashlib

import numpy as np
import pytest

from kdiam import explicit, implicit
from kdiam.gen import random_connected_graph, random_unit_square_points
from kdiam.geometry import axis_square, intersection_graph_naive
from kdiam.graph import Graph, locality_rank, neighborhood
from kdiam.order import net_sample, order_from_membership
from kdiam.plane import geometric_nsds

from helpers import (UnionFind, adjacency, dfs_preorder, spanning_tree,
                     total_difference)


def ball_order(g, k, d, rng, weights=None):
    """Low-difference order of the radius-k balls of ``g``, ties broken by
    id (the identity rank)."""
    return order_from_membership(lambda x: neighborhood(g, x, k), g.n, d, rng,
                                 rank=range(g.n), weights=weights)


def hyperedge_membership(edges):
    """Membership oracle from an explicit list of hyperedge sets."""
    def membership(x):
        return [i for i, e in enumerate(edges) if x in e]
    return membership


class TestNetSchedule:
    def test_sizes_and_prefixes(self):
        rng = np.random.default_rng(0)
        sample = net_sample(81, 4, rng)
        assert len(sample) == 3  # ceil(81 ** 0.25)
        assert len(set(sample)) == 3
        assert all(0 <= x < 81 for x in sample)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_size_at_perfect_powers(self, d):
        # ceil(3125 ** 0.2) is 6 in floats
        rng = np.random.default_rng(d)
        for b in range(1, 13):
            assert len(net_sample(b ** d, d, rng)) == b
            assert len(net_sample(b ** d + 1, d, rng)) == b + 1

    def test_weighted_rejects_bad_weights(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            net_sample(3, 2, rng, weights=[1, 0, 1])
        with pytest.raises(ValueError):
            net_sample(3, 2, rng, weights=[1, 1])

    @pytest.mark.parametrize("weights", [[1.5, 1, 1, 1], [1, 1, 2.25, 1],
                                         [1, float("nan"), 1, 1],
                                         [1, 1, 1, float("inf")]])
    def test_weights_must_be_integers(self, weights):
        with pytest.raises(ValueError, match="positive integers"):
            net_sample(4, 2, np.random.default_rng(2), weights=weights)

    def test_rejects_small_d_and_no_ids(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            net_sample(9, 1, rng)
        with pytest.raises(ValueError):
            net_sample(0, 2, rng)


class TestBuildSpanningTree:
    def test_single_hyperedge(self):
        assert spanning_tree(hyperedge_membership([{0}]), 1, (0,)) == []

    def test_forced_split(self):
        # two disjoint singleton hyperedges; sampling either element splits
        edges = spanning_tree(hyperedge_membership([{0}, {1}]), 2, (1,))
        assert [set(e) for e in edges] == [{0, 1}]

    def test_singletons_form_tree(self):
        rng = np.random.default_rng(3)
        hyper = [{i} for i in range(8)]
        edges = spanning_tree(hyperedge_membership(hyper), 8,
                              net_sample(8, 2, rng))
        assert len(edges) == 7
        uf = UnionFind(8)
        for u, v in edges:
            assert uf.union(u, v), "edge closed a cycle"

    def test_always_spanning_tree_any_seed(self):
        g = random_connected_graph(15, 25, np.random.default_rng(4))
        hyper = [neighborhood(g, v, 2) for v in range(g.n)]
        for seed in range(12):
            sample = net_sample(g.n, 3, np.random.default_rng(seed))
            edges = spanning_tree(hyperedge_membership(hyper), g.n, sample)
            assert len(edges) == g.n - 1
            uf = UnionFind(g.n)
            for u, v in edges:
                assert uf.union(u, v)

    def test_secondary_edges_agree_on_sample(self):
        """A spanning tree crosses each of the p classes of ids that agree
        on the sample at least p - 1 times; this one crosses exactly that
        often, so every chaining edge joins ids that agree on the sample."""
        g = random_connected_graph(20, 30, np.random.default_rng(5))
        for seed in range(10):
            hyper = [neighborhood(g, v, 1 + seed % 3) for v in range(g.n)]
            drawn = net_sample(g.n, 2, np.random.default_rng(seed))
            edges = spanning_tree(hyperedge_membership(hyper), g.n, drawn)
            sample = set(drawn)
            patterns = {frozenset(h & sample) for h in hyper}
            crossing = sum(hyper[u] & sample != hyper[v] & sample
                           for u, v in edges)
            assert crossing == len(patterns) - 1

    def test_zero_hyperedges(self):
        with pytest.raises(ValueError):
            order_from_membership(hyperedge_membership([]), 0, 2,
                                  np.random.default_rng(0), rank=())


class TestEulerOrder:
    """The preorder is the tree's Euler tour pruned to first visits."""

    def test_pruning_never_increases_difference(self):
        """The Euler tour crosses every tree edge twice, so the order costs
        at most twice the tree's total difference."""
        g = random_connected_graph(14, 22, np.random.default_rng(7))
        for seed in range(10):
            hyper = [neighborhood(g, v, 1 + seed % 3) for v in range(g.n)]
            sample = net_sample(g.n, 2, np.random.default_rng(seed))
            edges = spanning_tree(hyperedge_membership(hyper), g.n, sample)
            tree_sum = sum(len(hyper[u] ^ hyper[v]) for u, v in edges)
            order = dfs_preorder(edges, g.n)
            assert total_difference(order, hyper.__getitem__) <= 2 * tree_sum

    def test_order_is_the_reference_tree_preorder(self):
        """On the same draw the order is the preorder of the reference
        tree built on rank positions, mapped back to ids."""
        rng = np.random.default_rng(13)
        for case in range(160):
            n = 1 if case < 4 else int(rng.integers(2, 301))
            # Random memberships with repeated ids, some of them empty.
            cap = int(rng.integers(1, n + 1))
            table = [rng.integers(0, n, size=rng.integers(0, cap + 1))
                     .tolist() if rng.random() < 0.9 else []
                     for _ in range(n)]
            d = 2 + case % 4
            rank = (rng.permutation(n) if case // 4 % 2
                    else np.arange(n)).tolist()
            weights = (rng.integers(1, 6, size=n).tolist() if case // 8 % 2
                       else None)
            got = order_from_membership(
                table.__getitem__, n, d, np.random.default_rng(case),
                rank=rank, weights=weights)
            sample = net_sample(n, d, np.random.default_rng(case),
                                weights=weights)
            pos = {v: i for i, v in enumerate(rank)}
            edges = spanning_tree(lambda x: [pos[e] for e in table[x]], n,
                                  sample)
            assert got == tuple(rank[i] for i in dfs_preorder(edges, n))


class TestVertexOrders:
    def test_k3_any_permutation_zero_difference(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        order = ball_order(g, 1, 2, np.random.default_rng(0))
        assert sorted(order) == [0, 1, 2]
        assert total_difference(order, lambda v: neighborhood(g, v, 1)) == 0

    def test_p4_not_worse_than_identity(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        base = total_difference((0, 1, 2, 3), lambda v: neighborhood(g, v, 1))
        for seed in range(10):
            order = ball_order(g, 1, 2, np.random.default_rng(seed))
            got = total_difference(order, lambda v: neighborhood(g, v, 1))
            assert got <= base

    def test_star_bound(self):
        g = Graph(6, [(0, i) for i in range(1, 6)])
        balls = [neighborhood(g, v, 1) for v in range(6)]
        worst = max(len(a ^ b) for a in balls for b in balls)
        order = ball_order(g, 1, 2, np.random.default_rng(1))
        got = total_difference(order, lambda v: balls[v])
        assert got <= 2 * worst * 5

    def test_weighted_uniform_reduces_to_unweighted(self):
        g = random_connected_graph(12, 18, np.random.default_rng(9))
        o1 = ball_order(g, 1, 2, np.random.default_rng(42), [1] * g.n)
        assert sorted(o1) == list(range(g.n))

    def test_k3_weighted_interval_cost(self):
        from helpers import canonicalize

        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        weights = [5, 1, 1]
        order = ball_order(g, 1, 2, np.random.default_rng(3), weights)
        pos = {v: i for i, v in enumerate(order)}
        cost = 0
        for v in range(3):
            rep = canonicalize({pos[u] + 1 for u in neighborhood(g, v, 1)})
            cost += weights[v] * len(rep)
        assert cost == sum(weights)

    def test_p4_weighted_by_degree_average(self):
        from helpers import canonicalize

        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        weights = [max(1, len(a)) for a in adjacency(g)]

        def cost_under(order):
            pos = {v: i + 1 for i, v in enumerate(order)}
            total = 0
            for v in range(4):
                rep = canonicalize({pos[u] for u in neighborhood(g, v, 1)})
                total += weights[v] * len(rep)
            return total

        base = cost_under([0, 1, 2, 3])
        costs = [cost_under(ball_order(g, 1, 2, np.random.default_rng(s),
                                       weights))
                 for s in range(20)]
        assert sum(costs) / len(costs) <= base

    def test_weight_validation(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            ball_order(g, 1, 2, np.random.default_rng(0), [1, 0])


class TestRankedOrders:
    # The orders these cases gave before the order construction took a
    # rank; the identity rank must give them unchanged.
    PINNED = [
        (0, 1, 2, 7, 8, 12, 3, 9, 11, 14, 4, 5, 13, 6, 10),
        (0, 1, 2, 12, 3, 7, 8, 9, 4, 5, 11, 13, 14, 6, 10),
        (0, 1, 2, 3, 7, 10, 12, 6, 9, 4, 8, 14, 5, 11, 13),
        (0, 1, 2, 4, 6, 8, 3, 9, 18, 5, 14, 7, 19, 11, 12, 15, 16, 10, 13,
         17),
        (0, 1, 3, 16, 5, 9, 7, 11, 12, 19, 10, 13, 17, 14, 2, 4, 8, 15, 6,
         18),
        (0, 1, 4, 5, 6, 7, 8, 9, 13, 15, 17, 18, 19, 2, 10, 3, 14, 16, 11,
         12),
        (0, 1, 4, 5, 7, 9, 2, 6, 10, 8, 3, 11),
    ]

    def test_identity_rank_keeps_the_unranked_orders(self):
        # The graphs of TestBuildSpanningTree and
        # test_weighted_uniform_reduces_to_unweighted, on fixed seeds.
        rng = np.random.default_rng
        g = random_connected_graph(15, 25, rng(4))
        got = [ball_order(g, 2, 3, rng(seed)) for seed in range(3)]
        g = random_connected_graph(20, 30, rng(5))
        got += [ball_order(g, 1 + seed % 3, 2, rng(seed)) for seed in range(3)]
        g = random_connected_graph(12, 18, rng(9))
        got.append(ball_order(g, 1, 2, rng(42),
                              [max(1, len(a)) for a in adjacency(g)]))
        assert got == self.PINNED

    def test_tree_is_built_on_rank_positions(self):
        # Ranked, the order is the identity-rank order of the hypergraph
        # whose hyperedge rank[i] is renamed i, mapped back through rank.
        g = random_connected_graph(18, 30, np.random.default_rng(6))
        rank = locality_rank(g)
        pos = {v: i for i, v in enumerate(rank)}
        for seed in range(5):
            got = order_from_membership(
                lambda x: neighborhood(g, x, 2), g.n, 2,
                np.random.default_rng(seed), rank=rank)
            renamed = order_from_membership(
                lambda x: [pos[e] for e in neighborhood(g, x, 2)], g.n, 2,
                np.random.default_rng(seed), rank=range(g.n))
            assert got == tuple(rank[i] for i in renamed)

    # sha256 of the repr of the list of every order a sweep draws up to its
    # first full radius, recorded while the orders came from an explicit
    # spanning tree and its preorder.
    SWEEPS = {
        "explicit-d2": "57ffd3cdb672d4f15b452aa5d9a934d7"
                       "c4b7715b1f254a19eadc9e6374983d6c",
        "explicit-d3": "b476d3285fa36c458cd64c5a526d9298"
                       "98f5d8ab5717f398f38c17050af28d3a",
        "implicit-d2": "8c85baa2bdf18501ce59735d20d20fb7"
                       "7ea4edabd0f18ac7459bed6c367b1ec2",
        "implicit-d4": "80add4267e55902ae0b2780c68ac825f"
                       "f6d1960a7700e2de17d6fef92c595dec",
    }

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_sweep_orders_at_scale(self, sweep):
        # 1,000 vertices at d = 2 give 32 sample levels; 600 dense squares
        # (box 3.2) have diameter 4.
        rng = np.random.default_rng
        path, d = sweep.split("-d")
        if path == "explicit":
            g = random_connected_graph(1000, 3000, rng(3))
            steps = explicit.radius_steps(g, int(d), rng(0))
        else:
            nsds = geometric_nsds(random_unit_square_points(600, 3.2, rng(5)),
                                  axis_square(1.0))
            steps = implicit.radius_steps(nsds, 600, int(d), rng(0))
        orders = []
        for step in steps:
            orders.append(tuple(step.start.order if path == "explicit"
                                else step.order))
            if step.full:
                break
        digest = hashlib.sha256(repr(orders).encode()).hexdigest()
        assert digest == self.SWEEPS[sweep]

    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_membership_ids_must_be_in_range(self, bad):
        # -1 would index the last key and 3 would be past it; every sampled
        # element of 0..2 reaches the bad id, as a list or as an array.
        for kind in (list, np.array):
            with pytest.raises(ValueError, match="outside 0..2"):
                order_from_membership(lambda x: kind([0, bad, 1]), 3, 2,
                                      np.random.default_rng(0), rank=range(3))

    def test_empty_memberships(self):
        # No sampled element is in any hyperedge: one class, in rank order.
        for empty in ([], np.zeros(0, dtype=np.int64), set()):
            order = order_from_membership(lambda x: empty, 5, 2,
                                          np.random.default_rng(0),
                                          rank=[3, 1, 4, 0, 2])
            assert order == (3, 1, 4, 0, 2)

    @staticmethod
    def random_membership(n, as_array):
        """Repeatable random hyperedge ids per ground element: none for
        every fifth element, else up to n / 16 ids, a third of them
        repeated."""
        def membership(x):
            if x % 5 == 0:
                ids = np.zeros(0, dtype=np.int64)
            else:
                rng = np.random.default_rng([n, x])
                ids = rng.integers(0, n, size=int(rng.integers(1, n // 16)))
                ids = np.concatenate((ids, ids[:len(ids) // 3]))
            return ids if as_array else ids.tolist()
        return membership

    # sha256 of the repr of the order, recorded while the keys were Python
    # ints built one membership element at a time.  At d = 2, n = 3,969 =
    # 63**2 draws 63 sample elements, one int64 word of keys; 3,970 draws
    # 64, two words; 16,200 draws 128, three.  Dropping the elements past
    # the first 63 changes the last two digests.
    WORD_PINS = {
        3969: "261733eb10e734761771783ca00d387e"
              "ea8828b144c4e56dbf1cce9db5ef64af",
        3970: "ee6af0b5553d82fa9e3ece3742c4d875"
              "2ce873eeb7181314ab9226c417877095",
        16200: "9139fbbcf48558ac74e2850c9f4a3932"
               "b40dad4cafc4d48b13389ca8a6d913d8",
    }

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    @pytest.mark.parametrize("n", WORD_PINS)
    def test_orders_across_key_words(self, n, as_array):
        rank = np.random.default_rng(1).permutation(n).tolist()
        order = order_from_membership(self.random_membership(n, as_array), n,
                                      2, np.random.default_rng(0), rank=rank)
        digest = hashlib.sha256(repr(order).encode()).hexdigest()
        assert digest == self.WORD_PINS[n]

    @pytest.mark.parametrize("rank", [[0, 1], [0, 1, 1], [0, 1, 3]],
                             ids=["short", "repeat", "out-of-range"])
    def test_rank_must_be_a_permutation(self, rank):
        with pytest.raises(ValueError, match="permutation"):
            order_from_membership(hyperedge_membership([{0}, {1}, {2}]), 3,
                                  2, np.random.default_rng(0), rank=rank)


def test_subquadratic_trend_small():
    # quick sanity version of the acceptance slope check
    sums = {}
    for n in (64, 256):
        rng = np.random.default_rng(100 + n)
        pts = random_unit_square_points(n, max(1.5, (n / 2) ** 0.5), rng)
        g = intersection_graph_naive(pts, axis_square(1.0))
        order = ball_order(g, 2, 4, rng)
        sums[n] = total_difference(order, lambda v: neighborhood(g, v, 2))
    slope = np.log(sums[256] / sums[64]) / np.log(256 / 64)
    assert slope < 2.0
