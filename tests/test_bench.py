import numpy as np
import pytest

from kdiam.bench import order_and_sum, scaling_rows, sparse_graph, squares_graph
from kdiam.gen import random_connected_graph, random_unit_square_points
from kdiam.geometry import axis_square, intersection_graph_naive
from kdiam.graph import (balls_at, diameter_naive, locality_rank,
                         neighborhood)


def brute_force_sum(g, order, k):
    balls = [neighborhood(g, v, k) for v in range(g.n)]
    return sum(len(balls[u] ^ balls[v]) for u, v in zip(order, order[1:]))


def small_graphs(rng):
    for _ in range(6):
        n = int(rng.integers(2, 40))
        yield random_connected_graph(n, min(2 * n, n * (n - 1) // 2), rng)
    for _ in range(6):
        n = int(rng.integers(2, 40))
        pts = random_unit_square_points(n, max(1.5, n / 6), rng)
        yield intersection_graph_naive(pts, axis_square(1.0))


@pytest.mark.parametrize("d", [2, 4])
def test_order_difference_sum_matches_brute_force(d):
    rng = np.random.default_rng(31 + d)
    for g in small_graphs(rng):
        diam = diameter_naive(g)
        # k >= D reads the sweep's last round, where every ball is full
        for k in sorted({1, 2, diam, diam + 2}):
            order, diff = order_and_sum(balls_at(g, k), d, rng,
                                        locality_rank(g))
            assert sorted(order) == list(range(g.n))
            assert diff == brute_force_sum(g, order, k)
            if k >= diam:
                assert diff == 0


@pytest.mark.parametrize("kind,make", [("unit-squares", squares_graph),
                                       ("sparse-graph", sparse_graph)])
def test_scaling_rows_match_brute_force(kind, make):
    rows = scaling_rows(kind, [30, 60], 2, 4, 0)
    for row, n in zip(rows, (30, 60), strict=True):
        g = make(n, 0)
        assert (row.n, row.m) == (g.n, g.m)
        assert row.identity_diff_sum == brute_force_sum(g, range(g.n), 2)
        order, diff = order_and_sum(balls_at(g, 2), 4,
                                    np.random.default_rng(0), locality_rank(g))
        assert row.diff_sum == diff == brute_force_sum(g, order, 2)
