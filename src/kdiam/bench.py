"""Benchmark helpers: scaling counters for the slope analysis."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .gen import default_box, random_connected_graph, random_unit_square_points
from .geometry import axis_square, intersection_graph_naive
from .graph import Graph, neighborhood
from .order import order_from_membership


def order_difference_sum(g: Graph, k: int, d: int,
                         rng: np.random.Generator) -> tuple:
    """Compute a low-difference order and the exact total consecutive ball
    difference under it.  Returns (order, diff_sum)."""
    order = order_from_membership(lambda x: neighborhood(g, x, k), g.n, d, rng)
    indptr, indices = g.csr
    diff = int(_kernels.order_diff_sum(
        indptr, indices, np.asarray(order, dtype=np.int64), k))
    return order, diff


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

    def as_dict(self):
        return self.__dict__.copy()


def squares_graph(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    pts = random_unit_square_points(n, default_box(n), rng)
    return intersection_graph_naive(pts, axis_square(1.0))


def sparse_graph(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    m = min(3 * n, n * (n - 1) // 2)
    return random_connected_graph(n, m, rng)


def scaling_rows(kind: str, sizes, k: int, d: int, seed: int) -> list:
    """One row per n: time to compute the order plus the exact
    difference-sum counter under it and under the identity order."""
    make = squares_graph if kind == "unit-squares" else sparse_graph
    rows = []
    for n in sizes:
        g = make(n, seed)
        indptr, indices = g.csr
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        _, diff = order_difference_sum(g, k, d, rng)
        elapsed = time.perf_counter() - start
        ident = int(_kernels.order_diff_sum(
            indptr, indices, np.arange(g.n, dtype=np.int64), k))
        rows.append(BenchRow(g.n, g.m, seed, elapsed, diff, ident))
    return rows
