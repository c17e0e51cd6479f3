import numpy as np
import pytest

from kdiam.gen import (default_box, random_connected_graph,
                       random_points_for_shape, random_symmetric_polygon,
                       random_unit_square_points)
from kdiam.geometry import axis_square, intersection_graph_naive
from kdiam.graph import bfs_distances, diameter_naive, from_edges
from kdiam.implicit import (ExpandCost, expand_balls, k_diameter_implicit,
                            simulate_bfs)
from kdiam.nsds import NaiveNeighbourSets
from kdiam.plane import GeometricNeighbourSets, geometric_nsds

from helpers import k_diameter_implicit_reference


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestExpandBalls:
    def test_single_delta(self):
        g = path_graph(4)
        nsds = NaiveNeighbourSets(g)
        (h,) = expand_balls([{1}], nsds)
        assert nsds.set_of(h) == frozenset({0, 1, 2})

    def test_two_deltas_cancel(self):
        g = path_graph(4)
        nsds = NaiveNeighbourSets(g)
        h1, h2 = expand_balls([{0}, {0, 2}], nsds)
        assert nsds.set_of(h1) == frozenset({0, 1})
        assert nsds.set_of(h2) == frozenset({1, 2, 3})

    def test_empty_input(self):
        nsds = NaiveNeighbourSets(path_graph(3))
        with pytest.raises(ValueError):
            expand_balls([], nsds)

    def test_random_vs_prefix_oracle_and_cost(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(3, 24))
            mx = n * (n - 1) // 2
            m = int(rng.integers(n - 1, min(mx, 2 * n) + 1))
            g = random_connected_graph(n, m, rng)
            t = int(rng.integers(1, 33))
            deltas = [set(int(x) for x in
                          rng.choice(n, size=rng.integers(0, n + 1),
                                     replace=False))
                      for _ in range(t)]
            nsds = NaiveNeighbourSets(g)
            cost = ExpandCost()
            handles = expand_balls(deltas, nsds, cost=cost)
            acc = set()
            for i in range(t):
                acc ^= deltas[i]
                want = set()
                for v in acc:
                    want |= set(g.adjacency[v]) | {v}
                assert nsds.set_of(handles[i]) == frozenset(want)
            a = len(deltas[0])
            b = sum(len(d) for d in deltas[1:])
            assert cost.operations <= ExpandCost.bound(a, b, t)


class TestSimulateBfs:
    def test_k3_radius1(self):
        nsds = NaiveNeighbourSets(complete_graph(3))
        assert simulate_bfs(nsds, 0, 1) == {0: 0, 1: 1, 2: 1}

    def test_p5_endpoint_radius2(self):
        nsds = NaiveNeighbourSets(path_graph(5))
        assert set(simulate_bfs(nsds, 0, 2)) == {0, 1, 2}

    def test_matches_bfs_on_geometric(self):
        rng = np.random.default_rng(1)
        pts = random_unit_square_points(25, default_box(25), rng)
        g = intersection_graph_naive(pts, axis_square(1.0))
        nsds = geometric_nsds(pts, None)
        for v in range(0, g.n, 5):
            got = simulate_bfs(nsds, v)
            ref = bfs_distances(g, v).dist
            assert got == {u: int(ref[u]) for u in range(g.n)}

    def test_each_vertex_listed_once(self):
        g = random_connected_graph(15, 25, np.random.default_rng(2))
        nsds = NaiveNeighbourSets(g)
        before = nsds.add_count
        simulate_bfs(nsds, 0)
        # one add per popped vertex, n pops of vertices below the limit
        assert nsds.add_count - before <= g.n


class TestKDiameterImplicit:
    def test_three_mutually_intersecting_squares(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.3], [0.2, 0.6]])
        got = k_diameter_implicit(lambda: geometric_nsds(pts, None, 0),
                                  3, 1, 4, np.random.default_rng(0))
        assert got is True

    def test_collinear_squares_chain(self):
        # centers 1.5 apart with adjacency reach 2: a path, diameter 2
        pts = np.array([[0.0, 0.0], [1.5, 0.0], [3.0, 0.0]])
        square = axis_square(2.0)
        g = intersection_graph_naive(pts, square)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]
        rng = np.random.default_rng(0)
        assert k_diameter_implicit(lambda: geometric_nsds(pts, square, 0),
                                   3, 1, 4, rng) is False
        assert k_diameter_implicit(lambda: geometric_nsds(pts, square, 1),
                                   3, 2, 4, rng) is True

    def test_matches_naive_on_explicit_graphs(self):
        rng = np.random.default_rng(3)
        for trial in range(12):
            n = int(rng.integers(3, 25))
            mx = n * (n - 1) // 2
            g = random_connected_graph(n, int(rng.integers(n - 1,
                                                           min(mx, 2 * n) + 1)),
                                       rng)
            diam = diameter_naive(g)
            for k in range(1, 5):
                got = k_diameter_implicit(
                    lambda: NaiveNeighbourSets(g), g.n, k, 3, rng)
                assert got == (diam <= k)

    def test_matches_naive_on_geometric(self):
        rng = np.random.default_rng(4)
        for trial in range(6):
            n = int(rng.integers(6, 45))
            pts = random_unit_square_points(n, default_box(n), rng)
            g = intersection_graph_naive(pts, axis_square(1.0))
            diam = diameter_naive(g)
            for k in range(1, 5):
                got = k_diameter_implicit(
                    lambda: geometric_nsds(pts, None),
                    n, k, 4, rng)
                assert got == (diam <= k)

    def test_seed_independence(self):
        g = random_connected_graph(14, 20, np.random.default_rng(5))
        diam = diameter_naive(g)
        for k in (1, 2, 3):
            answers = {k_diameter_implicit(
                lambda: NaiveNeighbourSets(g), g.n, k, 2,
                np.random.default_rng(s)) for s in range(6)}
            assert answers == {diam <= k}

    def test_delta_reconstruction_invariant(self):
        g = random_connected_graph(16, 26, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        checked = []

        def inspect(r, nsds, order, deltas):
            probe = np.random.default_rng(100 + r)
            idx = probe.choice(g.n, size=max(1, g.n // 10), replace=False)
            for i in idx:
                i = int(i)
                acc = set()
                for d in deltas[:i + 1]:
                    acc ^= d
                want = set(simulate_bfs(nsds, order[i], r))
                assert acc == want
                checked.append((r, i))

        # Deltas are built for radii below k, so k = 4 audits radius 3.
        k_diameter_implicit(lambda: NaiveNeighbourSets(g), g.n, 4, 3,
                            rng, inspect=inspect)
        assert {r for r, _ in checked} == {1, 2, 3}

    def test_one_structure_and_k_minus_one_orders(self, monkeypatch):
        import kdiam.implicit

        g = random_connected_graph(14, 20, np.random.default_rng(8))
        diam = diameter_naive(g)
        orders = []
        build = kdiam.implicit.order_from_membership

        def counting(*args, **kwargs):
            orders.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(kdiam.implicit, "order_from_membership", counting)
        for k in range(1, 5):
            made = []

            def factory():
                made.append(NaiveNeighbourSets(g))
                return made[-1]

            orders.clear()
            got = k_diameter_implicit(factory, g.n, k, 3,
                                      np.random.default_rng(k))
            assert got == (diam <= k)
            assert len(made) == 1
            assert len(orders) == k - 1

    def test_last_radius_stops_at_first_short_ball(self):
        made = []

        def factory():
            made.append(NaiveNeighbourSets(path_graph(10)))
            return made[-1]

        assert k_diameter_implicit(factory, 10, 1, 3,
                                   np.random.default_rng(0)) is False
        (nsds,) = made
        assert nsds.list_count == 1
        assert nsds.add_count == 10

    def test_validates_arguments(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            k_diameter_implicit(lambda: NaiveNeighbourSets(g), 3, 0, 2,
                                np.random.default_rng(0))
        with pytest.raises(ValueError):
            k_diameter_implicit(lambda: NaiveNeighbourSets(g), 3, 1, 1,
                                np.random.default_rng(0))


def in_descent_order(nsds):
    """Wrap a geometric structure's listing so that every output is checked
    to come in descent order (stripes bottom to top, x order within one):
    the order a descent to the leaves lists them in, on which the order
    construction's membership reads depend."""
    plane = nsds._plane
    rank = {}
    for band in plane.bands:
        for pid in plane._stripe_static[band].ids:
            rank[pid] = len(rank)
    listing = nsds.list_differences

    def checked(h1, h2):
        out = listing(h1, h2)
        assert out == sorted(out, key=rank.__getitem__)
        return out

    nsds.list_differences = checked
    return nsds


class TestSameWorkAsReference:
    """The driver reads order membership from the ball handles it has built;
    the reference simulates BFS and builds a fresh structure per radius.
    Both must make the same order and the same deltas at every radius below
    k (the driver builds none at k), and the driver's one structure must
    have made exactly the expansion's adds over radii 1..k.  Geometric
    structures must list in descent order throughout."""

    @staticmethod
    def run(driver, make, n, k, d, seed):
        steps, made = [], []

        def factory():
            nsds = make()
            if isinstance(nsds, GeometricNeighbourSets):
                in_descent_order(nsds)
            made.append(nsds)
            return nsds

        def inspect(r, nsds, order, deltas):
            steps.append((r, list(order), [set(x) for x in deltas]))

        answer = driver(factory, n, k, d, np.random.default_rng(seed),
                        inspect=inspect)
        return answer, steps, made

    def check(self, make, n, k, d, seed):
        got, steps, made = self.run(k_diameter_implicit, make, n, k, d, seed)
        want, ref_steps, _ = self.run(k_diameter_implicit_reference, make,
                                      n, k, d, seed)
        assert got == want
        assert len(ref_steps) == k
        assert steps == ref_steps[:k - 1]
        (nsds,) = made
        deltas = [{0}] + [{i - 1, i} for i in range(1, n)]
        adds = 0
        for _, _, next_deltas in ref_steps:
            fresh = make()
            expand_balls(deltas, fresh)
            adds += fresh.add_count
            deltas = next_deltas
        assert nsds.add_count == adds

    def test_naive_structure(self):
        rng = np.random.default_rng(30)
        for trial in range(6):
            n = int(rng.integers(4, 30))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 2 * n) + 1))
            g = random_connected_graph(n, m, rng)
            for k in (1, 2, 3):
                self.check(lambda: NaiveNeighbourSets(g), g.n, k,
                           3, 100 * trial + k)

    @pytest.mark.parametrize("label", ["square", "polygon"])
    def test_geometric_structure(self, label):
        rng = np.random.default_rng(31 if label == "square" else 32)
        for trial in range(3):
            n = int(rng.integers(20, 40))
            if label == "square":
                shape = None
                pts = random_unit_square_points(n, default_box(n), rng)
            else:
                shape = random_symmetric_polygon(3, rng)
                pts = random_points_for_shape(n, shape, 2.5, rng)
            g = intersection_graph_naive(pts, shape or axis_square(1.0))
            diam = diameter_naive(g)
            for k in sorted({max(1, diam - 1), diam}):
                self.check(lambda: geometric_nsds(pts, shape),
                           n, k, 4, 10 * trial + k)
