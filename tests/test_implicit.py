from contextlib import contextmanager
from itertools import islice

import numpy as np
import pytest

import kdiam.implicit
from kdiam.gen import (default_box, random_connected_graph,
                       random_points_for_shape, random_symmetric_polygon,
                       random_unit_square_points)
from kdiam.geometry import axis_square, intersection_graph_naive
from kdiam.graph import Graph, Mask, diameter_naive
from kdiam.implicit import (expand_balls, k_diameter_implicit, radius_steps,
                            simulate_bfs)
from kdiam.nsds import MaskNeighbourSets
from kdiam.plane import geometric_nsds

from helpers import (ExpandCost, adjacency, as_masks, bfs_dict, counted_expansion,
                     expand_balls_reference, expansion_inputs,
                     radius_steps_reference)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestExpandBalls:
    def test_single_delta(self):
        g = path_graph(4)
        nsds = MaskNeighbourSets.from_graph(g)
        (h,) = expand_balls(as_masks([{1}]), nsds)
        assert set(nsds.list_differences(nsds.empty, h)) == {0, 1, 2}

    def test_two_deltas_cancel(self):
        g = path_graph(4)
        nsds = MaskNeighbourSets.from_graph(g)
        h1, h2 = expand_balls(as_masks([{0}, {0, 2}]), nsds)
        assert set(nsds.list_differences(nsds.empty, h1)) == {0, 1}
        assert set(nsds.list_differences(nsds.empty, h2)) == {1, 2, 3}

    def test_empty_input(self):
        nsds = MaskNeighbourSets.from_graph(path_graph(3))
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
            nsds = MaskNeighbourSets.from_graph(g)
            adj = adjacency(g)
            with counted_expansion() as cost:
                handles = expand_balls(as_masks(deltas), nsds)
            acc = set()
            for i in range(t):
                acc ^= deltas[i]
                want = set()
                for v in acc:
                    want |= set(adj[v]) | {v}
                got = nsds.list_differences(nsds.empty, handles[i])
                assert set(got) == want
            a = len(deltas[0])
            b = sum(len(d) for d in deltas[1:])
            assert cost.calls == 2 * t - 1
            assert cost.operations <= ExpandCost.bound(a, b, t)


class RecordingNeighbourSets(MaskNeighbourSets):
    """Masks that log every AddNeighbours as its (handle, vertex) pair."""

    def __init__(self, closed, rank):
        super().__init__(closed, rank)
        self.adds = []

    def add_neighbours(self, h, v):
        self.adds.append((h, v))
        return super().add_neighbours(h, v)


class TestSameWorkAsSetRecursion:
    """The mask recursion must make the set recursion's AddNeighbours
    sequence, return its handles and count its operations."""

    @staticmethod
    def check(g, deltas):
        base = MaskNeighbourSets.from_graph(g)
        got, want = (RecordingNeighbourSets(base.closed, base.rank)
                     for _ in range(2))
        want_cost = ExpandCost()
        with counted_expansion() as got_cost:
            handles = expand_balls(as_masks(deltas), got)
        assert handles == expand_balls_reference(deltas, want, cost=want_cost)
        assert got.adds == want.adds
        assert got_cost == want_cost

    def test_criterion_4_inputs(self):
        rng = np.random.default_rng(20260104)
        for g, deltas in expansion_inputs(rng, 100):
            self.check(g, deltas)

    def test_edge_cases(self):
        g = random_connected_graph(12, 20, np.random.default_rng(3))
        self.check(g, [{4, 0, 9}])                   # t = 1
        self.check(g, [set(), {1, 2}, {2, 3}, {5}])  # empty first delta
        self.check(g, [{1, 5, 7}] * 6)               # all deltas equal
        self.check(g, [[7, 5, 1], (5,), range(3)])   # any id collection


class TestSimulateBfs:
    def test_k3_radius1(self):
        nsds = MaskNeighbourSets.from_graph(complete_graph(3))
        assert simulate_bfs(nsds, 0, 1) == {0: 0, 1: 1, 2: 1}

    def test_p5_endpoint_radius2(self):
        nsds = MaskNeighbourSets.from_graph(path_graph(5))
        assert set(simulate_bfs(nsds, 0, 2)) == {0, 1, 2}

    def test_matches_bfs_on_geometric(self):
        rng = np.random.default_rng(1)
        pts = random_unit_square_points(25, default_box(25), rng)
        g = intersection_graph_naive(pts, axis_square(1.0))
        nsds = geometric_nsds(pts, axis_square(1.0))
        for v in range(0, g.n, 5):
            got = simulate_bfs(nsds, v)
            assert got == bfs_dict(adjacency(g), v)

    def test_each_vertex_listed_once(self):
        g = random_connected_graph(15, 25, np.random.default_rng(2))
        nsds = MaskNeighbourSets.from_graph(g)
        before = nsds.add_count
        simulate_bfs(nsds, 0)
        # one add per popped vertex, n pops of vertices below the limit
        assert nsds.add_count - before <= g.n


class TestKDiameterImplicit:
    def test_three_mutually_intersecting_squares(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.3], [0.2, 0.6]])
        got = k_diameter_implicit(
            lambda: geometric_nsds(pts, axis_square(1.0), 0),
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
                    lambda: MaskNeighbourSets.from_graph(g), g.n, k, 3, rng)
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
                    lambda: geometric_nsds(pts, axis_square(1.0)),
                    n, k, 4, rng)
                assert got == (diam <= k)

    def test_seed_independence(self):
        g = random_connected_graph(14, 20, np.random.default_rng(5))
        diam = diameter_naive(g)
        for k in (1, 2, 3):
            answers = {k_diameter_implicit(
                lambda: MaskNeighbourSets.from_graph(g), g.n, k, 2,
                np.random.default_rng(s)) for s in range(6)}
            assert answers == {diam <= k}

    def test_delta_reconstruction_invariant(self):
        g = random_connected_graph(16, 26, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        nsds = MaskNeighbourSets.from_graph(g)
        checked = []
        # Step r expands the (r - 1)-balls, so four steps audit radii 0..3.
        for step in islice(radius_steps(nsds, g.n, 3, rng), 4):
            r = step.radius - 1
            probe = np.random.default_rng(100 + r)
            idx = probe.choice(g.n, size=max(1, g.n // 10), replace=False)
            for i in idx:
                i = int(i)
                acc = set()
                for d in step.deltas[:i + 1]:
                    acc ^= set(d)
                want = set(simulate_bfs(nsds, step.order[i], r))
                assert acc == want
                checked.append((r, i))
        assert {r for r, _ in checked} == {0, 1, 2, 3}

    def test_deltas_are_masks_at_every_radius(self):
        g = random_connected_graph(20, 32, np.random.default_rng(10))
        nsds = MaskNeighbourSets.from_graph(g)
        for step in islice(radius_steps(nsds, g.n, 3,
                                        np.random.default_rng(11)), 4):
            assert len(step.deltas) == g.n
            assert all(type(d) is Mask for d in step.deltas)
            # consecutive handles of the radius below, XORed once
            if step.radius > 1:
                assert step.deltas[0] == prev[step.order[0]]
                for a, b, delta in zip(step.order, step.order[1:],
                                       step.deltas[1:]):
                    assert delta == prev[a] ^ prev[b]
            prev = dict(zip(step.order, step.handles))
        assert nsds.list_count == 0

    def test_one_structure_and_k_minus_one_orders(self, monkeypatch):
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
                made.append(MaskNeighbourSets.from_graph(g))
                return made[-1]

            orders.clear()
            got = k_diameter_implicit(factory, g.n, k, 3,
                                      np.random.default_rng(k))
            assert got == (diam <= k)
            assert len(made) == 1
            # the sweep stops at k or at the first full radius
            assert len(orders) == min(k, diam) - 1

    def test_last_radius_stops_at_first_short_ball(self):
        made = []

        def factory():
            made.append(MaskNeighbourSets.from_graph(path_graph(10)))
            return made[-1]

        assert k_diameter_implicit(factory, 10, 1, 3,
                                   np.random.default_rng(0)) is False
        (nsds,) = made
        # fullness compares handles with the full mask: nothing is listed
        assert nsds.list_count == 0
        assert nsds.add_count == 10

    @pytest.mark.parametrize("label", ["graph", "squares"])
    def test_radius_one_is_one_add_per_vertex(self, label):
        # The first step's handles are N[v] in the rank's order, made by n
        # AddNeighbours from the empty set and no listing; its deltas are
        # still the rank's pair deltas.
        rng = np.random.default_rng(9)
        if label == "graph":
            nsds = MaskNeighbourSets.from_graph(
                random_connected_graph(25, 40, rng))
        else:
            nsds = geometric_nsds(random_unit_square_points(40, 4.0, rng),
                                  axis_square(1.0))
        rank = nsds.rank
        step = next(radius_steps(nsds, nsds.n, 3, rng))
        assert step.radius == 1 and step.order == rank
        assert all(type(d) is Mask for d in step.deltas)
        assert step.handles == [nsds.closed[v] for v in rank]
        assert [set(d) for d in step.deltas] == \
            [{rank[0]}] + [{rank[i - 1], rank[i]} for i in range(1, nsds.n)]
        assert nsds.add_count == nsds.n
        assert nsds.list_count == 0

    def test_validates_arguments(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            k_diameter_implicit(lambda: MaskNeighbourSets.from_graph(g),
                                3, 0, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            k_diameter_implicit(lambda: MaskNeighbourSets.from_graph(g),
                                3, 1, 1, np.random.default_rng(0))


@contextmanager
def in_descent_order():
    """Wrap the membership oracle that the sweep hands to the order
    construction, so that every listing is checked to be increasing: the
    order on which the order construction's membership reads depend."""
    build = kdiam.implicit.order_from_membership

    def checked_build(membership, *args, **kwargs):
        def checked(x):
            out = list(membership(x))
            assert all(a < b for a, b in zip(out, out[1:]))
            return out
        return build(checked, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kdiam.implicit, "order_from_membership", checked_build)
        yield


class TestSameWorkAsReference:
    """The sweep reads order membership from the ball handles it has built;
    the reference simulates BFS, builds a fresh structure per radius and
    expands on sets.  Both must make the same order and the same deltas at
    every radius below k (the sweep stopped at k draws none for k), and the
    sweep's one structure must have made exactly the set recursion's adds
    over radii 1..k, with no listing.  Every membership the sweep hands to
    the order construction must come in increasing id order."""

    def check(self, make, n, k, d, seed):
        nsds = make()
        with in_descent_order():
            steps = list(islice(
                radius_steps(nsds, n, d, np.random.default_rng(seed)), k))
        # the sweep's deltas are handle XORs: it lists nothing
        assert nsds.list_count == 0
        ref_steps = list(islice(radius_steps_reference(
            make, n, d, np.random.default_rng(seed)), k))
        _, _, last = ref_steps[-1]
        assert steps[-1].full == (last[0] == set(range(n))
                                  and not any(last[1:]))
        # step r + 1 expands the radius-r deltas along the radius-r order
        assert [(s.radius - 1, list(s.order), [set(x) for x in s.deltas])
                for s in steps[1:]] == ref_steps[:k - 1]
        rank = nsds.rank
        deltas = [{rank[0]}] + [{rank[i - 1], rank[i]} for i in range(1, n)]
        adds = 0
        for _, _, next_deltas in ref_steps:
            fresh = make()
            expand_balls_reference(deltas, fresh)
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
                self.check(lambda: MaskNeighbourSets.from_graph(g), g.n, k,
                           3, 100 * trial + k)

    @pytest.mark.parametrize("label", ["square", "polygon"])
    def test_geometric_structure(self, label):
        rng = np.random.default_rng(31 if label == "square" else 32)
        for trial in range(3):
            n = int(rng.integers(20, 40))
            if label == "square":
                shape = axis_square(1.0)
                pts = random_unit_square_points(n, default_box(n), rng)
            else:
                shape = random_symmetric_polygon(3, rng)
                pts = random_points_for_shape(n, shape, 2.5, rng)
            g = intersection_graph_naive(pts, shape)
            diam = diameter_naive(g)
            for k in sorted({max(1, diam - 1), diam}):
                self.check(lambda: geometric_nsds(pts, shape),
                           n, k, 4, 10 * trial + k)
