"""Benchmark helpers: scaling counters for the slope analysis."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .gen import default_box, random_connected_graph, random_unit_square_points
from .geometry import axis_square, intersection_graph_naive
from .graph import Graph, balls_at, ids_of, locality_rank
from .order import order_from_membership


def order_and_sum(balls: list, d: int, rng: np.random.Generator,
                  rank) -> tuple:
    """A low-difference order of ``balls`` (masks in the format of
    :func:`kdiam.graph.ball_masks`, such as ``balls_at(g, k)``), its ties
    broken by ``rank`` as the decide paths break them (the graph's
    :func:`kdiam.graph.locality_rank`), and the exact total consecutive
    ball difference under it: (order, diff_sum)."""
    order = order_from_membership(lambda x: ids_of(balls[x]), len(balls), d,
                                  rng, rank=rank)
    return order, _difference_sum(balls, order)


def _difference_sum(balls: list, order) -> int:
    """Sum of |balls[u] xor balls[v]| over consecutive u, v in ``order``."""
    return sum((balls[u] ^ balls[v]).bit_count()
               for u, v in zip(order, order[1:]))


def loglog_slope(ns, values) -> float:
    """Least-squares slope of log(value) against log(n)."""
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


@dataclass
class BenchRow:
    n: int
    m: int
    seed: int
    order_seconds: float
    diff_sum: int
    identity_diff_sum: int


def squares_graph(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    pts = random_unit_square_points(n, default_box(n), rng)
    return intersection_graph_naive(pts, axis_square(1.0))


def sparse_graph(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    m = min(3 * n, n * (n - 1) // 2)
    return random_connected_graph(n, m, rng)


def scaling_rows(kind: str, sizes, k: int, d: int, seed: int) -> list:
    """One row per n: time to compute the balls, the rank and the order,
    plus the exact difference-sum counter under the order and under the
    identity order."""
    make = squares_graph if kind == "unit-squares" else sparse_graph
    rows = []
    for n in sizes:
        g = make(n, seed)
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        balls = balls_at(g, k)
        _, diff = order_and_sum(balls, d, rng, locality_rank(g))
        elapsed = time.perf_counter() - start
        ident = _difference_sum(balls, range(g.n))
        rows.append(BenchRow(g.n, g.m, seed, elapsed, diff, ident))
    return rows
