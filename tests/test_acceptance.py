"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line with its runtime.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines stream.
"""

import math
import time

import numpy as np
import pytest

from kdiam.explicit import k_diameter_explicit
from kdiam.gen import (default_box, random_connected_graph,
                       random_symmetric_polygon, random_unit_square_points)
from kdiam.geometry import (axis_square, intersection_graph_naive,
                            shape_metric, symmetrize)
from kdiam.graph import (diameter_naive, distance_vc_shatter_check,
                         neighborhood)
from kdiam.implicit import ExpandCost, expand_balls, k_diameter_implicit
from kdiam.intervals import is_canonical
from kdiam.nsds import NaiveNeighbourSets
from kdiam.plane import geometric_nsds, plane_init, plane_list_differences, \
    plane_mark
from kdiam.bench import loglog_slope, order_difference_sum

from helpers import geometric_graph_sat, point_in_polygon


def report(number, label, start, budget):
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number} PASS ({label}) in {elapsed:.1f}s")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_explicit_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20260101)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(3, 61))
        m_hi = min(n * (n - 1) // 2, 300, 4 * n)
        m = int(rng.integers(n - 1, m_hi + 1))
        g = random_connected_graph(n, m, rng)
        diam = diameter_naive(g)
        for k in range(1, 6):
            if k_diameter_explicit(g, k, 3, rng) != (diam <= k):
                mismatches += 1
    assert mismatches == 0
    report(1, "explicit == naive on 200 graphs x k=1..5", start, 120)


def test_criterion_2_implicit_geometric_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20260102)
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(10, 201))
        pts = random_unit_square_points(n, default_box(n), rng)
        g = intersection_graph_naive(pts, axis_square(1.0))
        diam = diameter_naive(g)
        for k in range(1, 6):
            got = k_diameter_implicit(
                lambda: geometric_nsds(pts, None),
                n, k, 4, rng)
            if got != (diam <= k):
                mismatches += 1
    assert mismatches == 0
    report(2, "implicit geometric == naive on 100 instances x k=1..5",
           start, 300)


def test_criterion_3_persistent_structure_correctness():
    start = time.time()
    rng = np.random.default_rng(20260103)
    hexagon = random_symmetric_polygon(3, np.random.default_rng(99),
                                       radius=1.3)
    hex_verts = [tuple(v) for v in hexagon.vertices]
    square_verts = [tuple(v) for v in axis_square(1.0).vertices]
    for seq in range(50):
        use_hex = seq >= 40
        shape = hexagon if use_hex else None
        verts = hex_verts if use_hex else square_verts
        n = int(rng.integers(50, 501))
        width = max(2.0, math.sqrt(n))
        pts = rng.uniform(0, width, size=(n, 2))
        structure, v = plane_init(pts, shape)
        n_marks = int(rng.integers(100, 501))
        versions = [v]
        naive = [set()]
        for _ in range(n_marks):
            c = (float(rng.uniform(-1, width + 1)),
                 float(rng.uniform(-1, width + 1)))
            versions.append(plane_mark(versions[-1], c))
            cur = naive[-1] | {i for i, p in enumerate(pts)
                               if point_in_polygon((p[0] - c[0], p[1] - c[1]),
                                                   verts)}
            naive.append(cur)
        for _ in range(200):
            i = int(rng.integers(0, len(versions)))
            j = int(rng.integers(0, len(versions)))
            got = plane_list_differences(versions[i], versions[j])
            assert len(got) == len(set(got))
            assert set(got) == naive[i] ^ naive[j], (seq, i, j)
    report(3, "50 mark sequences, 200 version-pair diffs each", start, 300)


def test_criterion_4_expansion_cost_bound():
    start = time.time()
    rng = np.random.default_rng(20260104)
    for trial in range(100):
        n = int(rng.integers(3, 40))
        m_hi = min(n * (n - 1) // 2, 3 * n)
        g = random_connected_graph(n, int(rng.integers(n - 1, m_hi + 1)), rng)
        t = int(rng.integers(1, 40))
        deltas = [set(int(x) for x in
                      rng.choice(n, size=rng.integers(0, n + 1),
                                 replace=False))
                  for _ in range(t)]
        nsds = NaiveNeighbourSets(g)
        cost = ExpandCost()
        expand_balls(deltas, nsds, cost=cost)
        a = len(deltas[0])
        b = sum(len(d) for d in deltas[1:])
        assert cost.operations <= ExpandCost.bound(a, b, t), \
            (trial, cost.operations, ExpandCost.bound(a, b, t))
    report(4, "expansion cost within closed-form budget, 100 inputs",
           start, 60)


def test_criterion_5_vc_dimension_ceiling():
    start = time.time()
    rng = np.random.default_rng(20260105)
    worst = 0
    for trial in range(50):
        n = int(rng.integers(4, 13))
        pts = random_unit_square_points(n, max(1.5, n / 4.0), rng)
        g = intersection_graph_naive(pts, axis_square(1.0))
        got = distance_vc_shatter_check(g, 5)
        worst = max(worst, got)
        assert got <= 4, (trial, got)
    report(5, f"no shattered 5-set on 50 instances (max found {worst})",
           start, 180)


def test_criterion_6_subquadratic_difference_sum():
    start = time.time()
    sizes = (200, 400, 800, 1600)
    slopes = []
    for seed in range(5):
        sums = []
        for n in sizes:
            rng = np.random.default_rng(1000 * seed + n)
            pts = random_unit_square_points(n, default_box(n), rng)
            g = intersection_graph_naive(pts, axis_square(1.0))
            _, diff = order_difference_sum(g, 2, 4, rng)
            sums.append(diff)
        slopes.append(loglog_slope(sizes, sums))
    assert all(s < 2.0 for s in slopes), slopes
    report(6, "log-log slopes " + ", ".join(f"{s:.2f}" for s in slopes),
           start, 600)


def test_criterion_7_geometry_equivalences():
    start = time.time()
    rng = np.random.default_rng(20260107)
    # shape-vs-symmetrized isomorphism, edge for edge, via the direct
    # pairwise-intersection oracle
    for trial in range(50):
        while True:
            angles = np.sort(rng.uniform(0, 2 * math.pi, size=5))
            if np.min(np.diff(angles)) > 0.2:
                break
        from kdiam.geometry import ConvexPolygon

        pentagon = ConvexPolygon(np.c_[np.cos(angles), np.sin(angles)])
        pts = rng.uniform(0, 4, size=(int(rng.integers(5, 26)), 2))
        direct = geometric_graph_sat(pts, [tuple(v) for v in
                                           pentagon.vertices])
        via_h = set(intersection_graph_naive(pts, pentagon).edges())
        assert direct == via_h, trial
        sym = symmetrize(pentagon)
        assert set(intersection_graph_naive(pts, sym).edges()) == via_h
    # metric triangle inequality and segment additivity at 1e-9
    f = symmetrize(random_symmetric_polygon(3, rng))
    for _ in range(10_000):
        a, b, c = rng.normal(scale=3.0, size=(3, 2))
        assert shape_metric(f, a, c) <= \
            shape_metric(f, a, b) + shape_metric(f, b, c) + 1e-9
        t = float(rng.uniform(0, 1))
        mid = a + t * (c - a)
        lhs = shape_metric(f, a, c)
        rhs = shape_metric(f, a, mid) + shape_metric(f, mid, c)
        assert abs(lhs - rhs) <= 1e-9
    report(7, "50 isomorphism instances + 10^4 metric triples", start, 120)


def test_criterion_8_invariant_audits():
    start = time.time()
    violations = []

    # (a) interval canonicality after every explicit step
    rng = np.random.default_rng(20260108)
    for _ in range(5):
        n = int(rng.integers(6, 30))
        g = random_connected_graph(n, int(rng.integers(n - 1, 2 * n)), rng)

        def check_enc(enc):
            for v in range(g.n):
                if not is_canonical(enc.reps[v], g.n):
                    violations.append(("canonical", v))
                if enc.decode(v) != neighborhood(g, v, enc.radius):
                    violations.append(("decode", v))

        k_diameter_explicit(g, 3, 3, rng, inspect=check_enc)

    # (b) delta prefix-reconstruction spot checks
    from kdiam.implicit import simulate_bfs

    for trial in range(5):
        n = int(rng.integers(6, 25))
        g = random_connected_graph(n, int(rng.integers(n - 1, 2 * n)), rng)

        def check_deltas(r, nsds, order, deltas):
            probe = np.random.default_rng(r)
            for i in probe.choice(n, size=max(1, n // 10), replace=False):
                i = int(i)
                acc = set()
                for d in deltas[:i + 1]:
                    acc ^= d
                if acc != set(simulate_bfs(nsds, order[i], r)):
                    violations.append(("delta", trial, r, i))

        # Deltas are built for radii below k, so k = 4 audits radius 3.
        k_diameter_implicit(lambda: NaiveNeighbourSets(g),
                            g.n, 4, 3, rng, inspect=check_deltas)

    # (c) stripe-node invariant walker on trees with n <= 256
    from kdiam.stripes import BOT, DOWN, TOP, UP, stripe_init, stripe_mark
    from helpers import StripeModel, audit_stripe_version

    for n in (64, 256):
        pts = [(i, float(rng.uniform(0, 25)), float(rng.uniform(0, 1)))
               for i in range(n)]
        v = stripe_init(pts, 0.0)
        model = StripeModel(v.static)
        for step in range(200):
            cx = float(rng.uniform(-1, 26))
            cy = float(rng.uniform(-0.6, 1.6))
            before = v
            v = stripe_mark(v, (cx, cy))
            if v is not before:
                if cy <= 0.5:
                    model.apply(cx - 0.5, cx + 0.5, BOT, UP, cy + 0.5)
                else:
                    model.apply(cx - 0.5, cx + 0.5, TOP, DOWN, -(cy - 0.5))
            if step % 20 == 0:
                violations.extend(audit_stripe_version(v, model))
        violations.extend(audit_stripe_version(v, model))

    # (d) plane version masks: the stripe root masks side by side in band
    # order, and the bits of the decoded set in the same layout
    pts = rng.uniform(0, 10, size=(150, 2))
    structure, version = plane_init(pts, None)
    versions = [version]
    for _ in range(200):
        c = (float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        versions.append(plane_mark(versions[-1], c))

    for step, vv in enumerate(versions[::10]):
        marked = structure.decode(vv)
        roots = bits = offset = 0
        for band, root in zip(structure.bands, vv.roots):
            static = structure._stripe_static[band]
            roots |= root.mask << offset
            bits |= sum(1 << (offset + i) for i, pid in
                        enumerate(static.ids) if pid in marked)
            offset += static.size
        if not vv.mask == roots == bits:
            violations.append(("plane mask", 10 * step))

    assert violations == []
    report(8, "canonicality, delta prefixes, stripe walker, stripe index",
           start, 300)
