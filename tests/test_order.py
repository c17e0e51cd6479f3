import numpy as np
import pytest

from kdiam.gen import random_connected_graph, random_unit_square_points
from kdiam.geometry import axis_square, intersection_graph_naive
from kdiam.graph import from_edges, neighborhood
from kdiam.order import (EdgeOrder, TreeEdge, build_spanning_tree, euler_order,
                         euler_tour, net_schedule, order_from_membership,
                         total_difference)

from helpers import UnionFind, ball


def ball_order(g, k, d, rng, weights=None):
    """Low-difference order of the radius-k balls of ``g``."""
    return order_from_membership(lambda x: neighborhood(g, x, k), g.n, d, rng,
                                 weights=weights)


def hyperedge_membership(edges):
    """Membership oracle from an explicit list of hyperedge sets."""
    def membership(x):
        return [i for i, e in enumerate(edges) if x in e]
    return membership


class TestNetSchedule:
    def test_sizes_and_prefixes(self):
        rng = np.random.default_rng(0)
        sched = net_schedule(100, 81, 4, rng)
        assert len(sched.sample) == 3  # ceil(81 ** 0.25)
        assert len(set(sched.sample)) == 3

    def test_degenerate_samples_everything(self):
        rng = np.random.default_rng(1)
        sched = net_schedule(3, 100, 2, rng)
        assert sorted(sched.sample) == [0, 1, 2]

    def test_weighted_rejects_bad_weights(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            net_schedule(3, 9, 2, rng, weights=[1, 0, 1])


class TestBuildSpanningTree:
    def test_single_hyperedge(self):
        rng = np.random.default_rng(0)
        edges = build_spanning_tree(hyperedge_membership([{0}]), 1, 2, rng,
                                    ground_size=1)
        assert edges == []

    def test_forced_split(self):
        # two disjoint singleton hyperedges; sampling either element splits
        rng = np.random.default_rng(0)
        edges = build_spanning_tree(hyperedge_membership([{0}, {1}]), 2, 2,
                                    rng, ground_size=2)
        assert len(edges) == 1
        assert {edges[0].u, edges[0].v} == {0, 1}

    def test_singletons_form_tree(self):
        rng = np.random.default_rng(3)
        hyper = [{i} for i in range(8)]
        edges = build_spanning_tree(hyperedge_membership(hyper), 8, 2, rng,
                                    ground_size=8)
        assert len(edges) == 7
        uf = UnionFind(8)
        for e in edges:
            assert uf.union(e.u, e.v), "edge closed a cycle"

    def test_always_spanning_tree_any_seed(self):
        g = random_connected_graph(15, 25, np.random.default_rng(4))
        hyper = [neighborhood(g, v, 2) for v in range(g.n)]
        for seed in range(12):
            rng = np.random.default_rng(seed)
            edges = build_spanning_tree(hyperedge_membership(hyper), g.n, 3,
                                        rng, ground_size=g.n)
            assert len(edges) == g.n - 1
            uf = UnionFind(g.n)
            for e in edges:
                assert uf.union(e.u, e.v)

    def test_secondary_edges_agree_on_sample(self):
        g = random_connected_graph(20, 30, np.random.default_rng(5))
        hyper = [neighborhood(g, v, 1) for v in range(g.n)]
        rng = np.random.default_rng(6)
        sched = net_schedule(g.n, g.n, 2, rng)
        edges = build_spanning_tree(hyperedge_membership(hyper), g.n, 2, rng,
                                    schedule=sched, ground_size=g.n)
        sample = set(sched.sample)
        for e in edges:
            if not e.primary:
                assert hyper[e.u] & sample == hyper[e.v] & sample

    def test_zero_hyperedges(self):
        with pytest.raises(ValueError):
            build_spanning_tree(hyperedge_membership([]), 0, 2,
                                np.random.default_rng(0), ground_size=1)


class TestEulerOrder:
    def test_single_node(self):
        assert list(euler_order([], 1, root=0)) == [0]

    def test_path_tree(self):
        edges = [TreeEdge(0, 1, True), TreeEdge(1, 2, True)]
        assert list(euler_order(edges, 3, root=0)) == [0, 1, 2]

    def test_star_first_visit(self):
        edges = [TreeEdge(0, i, True) for i in range(1, 5)]
        order = euler_order(edges, 5, root=0)
        assert order.perm[0] == 0
        assert sorted(order.perm) == [0, 1, 2, 3, 4]
        # first-visit property: pruning the tour keeps first occurrences
        tour = euler_tour(edges, 5, root=0)
        firsts = []
        for node in tour:
            if node not in firsts:
                firsts.append(node)
        assert list(order) == firsts

    def test_not_a_tree(self):
        with pytest.raises(ValueError):
            euler_order([TreeEdge(0, 1, True)], 3, root=0)
        with pytest.raises(ValueError):
            euler_order([TreeEdge(0, 1, True), TreeEdge(0, 1, False)], 3)

    def test_pruning_never_increases_difference(self):
        g = random_connected_graph(14, 22, np.random.default_rng(7))
        hyper = [neighborhood(g, v, 1) for v in range(g.n)]
        rng = np.random.default_rng(8)
        edges = build_spanning_tree(hyperedge_membership(hyper), g.n, 2, rng,
                                    ground_size=g.n)
        tour = euler_tour(edges, g.n, root=0)
        tour_sum = sum(len(hyper[a] ^ hyper[b]) for a, b in zip(tour, tour[1:]))
        order = euler_order(edges, g.n, root=0)
        order_sum = total_difference(order, lambda v: hyper[v])
        assert order_sum <= tour_sum


class TestVertexOrders:
    def test_k3_any_permutation_zero_difference(self):
        g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
        order = ball_order(g, 1, 2, np.random.default_rng(0))
        assert sorted(order.perm) == [0, 1, 2]
        assert total_difference(order, lambda v: neighborhood(g, v, 1)) == 0

    def test_p4_not_worse_than_identity(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        identity = EdgeOrder((0, 1, 2, 3))
        base = total_difference(identity, lambda v: neighborhood(g, v, 1))
        for seed in range(10):
            order = ball_order(g, 1, 2, np.random.default_rng(seed))
            got = total_difference(order, lambda v: neighborhood(g, v, 1))
            assert got <= base

    def test_star_bound(self):
        g = from_edges(6, [(0, i) for i in range(1, 6)])
        balls = [neighborhood(g, v, 1) for v in range(6)]
        worst = max(len(a ^ b) for a in balls for b in balls)
        order = ball_order(g, 1, 2, np.random.default_rng(1))
        got = total_difference(order, lambda v: balls[v])
        assert got <= 2 * worst * 5

    def test_weighted_uniform_reduces_to_unweighted(self):
        g = random_connected_graph(12, 18, np.random.default_rng(9))
        o1 = ball_order(g, 1, 2, np.random.default_rng(42), [1] * g.n)
        assert sorted(o1.perm) == list(range(g.n))

    def test_k3_weighted_interval_cost(self):
        from kdiam.intervals import canonicalize

        g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
        weights = [5, 1, 1]
        order = ball_order(g, 1, 2, np.random.default_rng(3), weights)
        pos = order.position_of()
        cost = 0
        for v in range(3):
            rep = canonicalize({pos[u] + 1 for u in neighborhood(g, v, 1)})
            cost += weights[v] * len(rep)
        assert cost == sum(weights)

    def test_p4_weighted_by_degree_average(self):
        from kdiam.intervals import canonicalize

        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        weights = [max(1, len(a)) for a in g.adjacency]

        def cost_under(order):
            pos = {v: i + 1 for i, v in enumerate(order)}
            total = 0
            for v in range(4):
                rep = canonicalize({pos[u] for u in neighborhood(g, v, 1)})
                total += weights[v] * len(rep)
            return total

        base = cost_under([0, 1, 2, 3])
        costs = [cost_under(list(ball_order(g, 1, 2, np.random.default_rng(s),
                                            weights)))
                 for s in range(20)]
        assert sum(costs) / len(costs) <= base

    def test_weight_validation(self):
        g = from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            ball_order(g, 1, 2, np.random.default_rng(0), [1, 0])


class TestTotalDifference:
    def test_identical_sets(self):
        order = EdgeOrder((0, 1))
        assert total_difference(order, lambda v: {1, 2}) == 0

    def test_disjoint_singletons(self):
        sets = [{1}, {2}]
        assert total_difference(EdgeOrder((0, 1)), lambda v: sets[v]) == 2

    def test_five_cycle_identity(self):
        # consecutive balls on the cycle differ by 2; four gaps in the order
        g = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        balls = [ball(g.adjacency, v, 1) for v in range(5)]
        expect = sum(len(balls[i] ^ balls[i + 1]) for i in range(4))
        assert expect == 8
        got = total_difference(EdgeOrder(tuple(range(5))),
                               lambda v: neighborhood(g, v, 1))
        assert got == 8

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            EdgeOrder((0, 0, 1))


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
