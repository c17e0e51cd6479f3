"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line with its runtime.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines stream.
"""

import math
import time
from itertools import islice

import numpy as np
import pytest

from kdiam import explicit, implicit
from kdiam.explicit import k_diameter_explicit
from kdiam.gen import (default_box, random_connected_graph,
                       random_symmetric_polygon, random_unit_square_points)
from kdiam.geometry import axis_square, intersection_graph_naive, norm_value
from kdiam.graph import (balls_at, diameter_naive, distance_vc_shatter_check,
                         locality_rank)
from kdiam.implicit import ExpandCost, expand_balls, k_diameter_implicit
from kdiam.nsds import MaskNeighbourSets
from kdiam.plane import PlaneStructure, geometric_nsds
from kdiam.bench import loglog_slope, order_and_sum

from helpers import (encoding_is_valid, expansion_inputs, geometric_graph_sat,
                     points_in_polygon)


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
                lambda: geometric_nsds(pts, axis_square(1.0)),
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
        structure = PlaneStructure(
            pts, (shape or axis_square(1.0)).slabs())
        n_marks = int(rng.integers(100, 501))
        masks = [0]
        naive = [set()]
        for _ in range(n_marks):
            c = (float(rng.uniform(-1, width + 1)),
                 float(rng.uniform(-1, width + 1)))
            masks.append(structure.mark(masks[-1], [c]))
            cur = naive[-1] | set(
                np.flatnonzero(points_in_polygon(pts - c, verts)).tolist())
            naive.append(cur)
        for _ in range(200):
            i = int(rng.integers(0, len(masks)))
            j = int(rng.integers(0, len(masks)))
            got = structure.list_differences(masks[i], masks[j])
            assert len(got) == len(set(got))
            assert set(got) == naive[i] ^ naive[j], (seq, i, j)
    report(3, "50 mark sequences, 200 mask-pair diffs each", start, 300)


def test_criterion_4_expansion_cost_bound():
    start = time.time()
    rng = np.random.default_rng(20260104)
    for trial, (g, deltas) in enumerate(expansion_inputs(rng, 100)):
        t = len(deltas)
        nsds = MaskNeighbourSets.from_graph(g)
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
            _, diff = order_and_sum(balls_at(g, 2), 4, rng, locality_rank(g))
            sums.append(diff)
        slopes.append(loglog_slope(sizes, sums))
    assert all(s < 2.0 for s in slopes), slopes
    report(6, "log-log slopes " + ", ".join(f"{s:.2f}" for s in slopes),
           start, 600)


def test_criterion_7_geometry_equivalences():
    start = time.time()
    rng = np.random.default_rng(20260107)
    # the oracle's f - f slabs against the direct pairwise-intersection
    # oracle, edge for edge
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
    # metric triangle inequality and segment additivity at 1e-9
    f = random_symmetric_polygon(3, rng)
    for _ in range(10_000):
        a, b, c = rng.normal(scale=3.0, size=(3, 2))
        assert norm_value(f, a - c) <= \
            norm_value(f, a - b) + norm_value(f, b - c) + 1e-9
        t = float(rng.uniform(0, 1))
        mid = a + t * (c - a)
        lhs = norm_value(f, a - c)
        rhs = norm_value(f, a - mid) + norm_value(f, mid - c)
        assert abs(lhs - rhs) <= 1e-9
    report(7, "50 isomorphism instances + 10^4 metric triples", start, 120)


def test_criterion_8_invariant_audits():
    start = time.time()
    violations = []

    # (a) interval canonicality and exact decoding of every encoding the
    # explicit sweep builds up to radius 3: the rebased ones (radii 0..2)
    # and the unions (radii 1..3)
    rng = np.random.default_rng(20260108)
    for trial in range(5):
        n = int(rng.integers(6, 30))
        g = random_connected_graph(n, int(rng.integers(n - 1, 2 * n)), rng)
        for step in islice(explicit.radius_steps(g, 3, rng), 3):
            for enc in (step.start, step.grown):
                if not encoding_is_valid(g, enc):
                    violations.append(("encoding", trial, enc.radius))

    # (b) delta prefix-reconstruction spot checks: step r expands the
    # (r - 1)-balls, so four steps audit radii 0..3
    for trial in range(5):
        n = int(rng.integers(6, 25))
        g = random_connected_graph(n, int(rng.integers(n - 1, 2 * n)), rng)
        nsds = MaskNeighbourSets.from_graph(g)
        for step in islice(implicit.radius_steps(nsds, n, 3, rng), 4):
            r = step.radius - 1
            probe = np.random.default_rng(r)
            for i in probe.choice(n, size=max(1, n // 10), replace=False):
                i = int(i)
                acc = set()
                for d in step.deltas[:i + 1]:
                    acc ^= set(d)
                if acc != set(implicit.simulate_bfs(nsds, step.order[i], r)):
                    violations.append(("delta", trial, r, i))

    # (c) every stripe lookup's covered mask against brute force, on
    # stripes with n <= 256: the points i whose projection p has
    # -w <= p - c <= w, and the marked mask as the OR of the lookups so far
    from kdiam.stripes import stripe_init, stripe_mark_line

    for n in (64, 256):
        pts = rng.uniform((0, 0), (25, 1), size=(n, 2))
        keys = (pts @ np.array([1.0, 0.0])).tolist()
        stripe = stripe_init(keys)
        mask = marked = 0
        for step in range(200):
            c = float(rng.uniform(-1, 26))
            w = float(rng.uniform(0, 1))
            want = sum(1 << i for i, p in enumerate(keys) if abs(p - c) <= w)
            if stripe.covered(c, -w, w) != want:
                violations.append(("stripe lookup", n, step))
            marked |= want
            mask = stripe_mark_line(stripe, mask, c, -w, w)
            if mask != marked:
                violations.append(("stripe mask", n, step))

    # (d) plane masks: bit i for point i of the brute-force marked set
    # (point in shape over the marks applied)
    pts = rng.uniform(0, 10, size=(150, 2))
    structure = PlaneStructure(pts, axis_square(1.0).slabs())
    mask = 0
    square_verts = [tuple(v) for v in axis_square(1.0).vertices]
    marked = set()
    for step in range(200):
        c = (float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        mask = structure.mark(mask, [c])
        marked |= set(np.flatnonzero(
            points_in_polygon(pts - c, square_verts)).tolist())
        if (step + 1) % 10 == 0 and \
                mask != sum(1 << i for i in marked):
            violations.append(("plane mask", step + 1))

    assert violations == []
    report(8, "canonicality, delta prefixes, stripe lookups, plane masks",
           start, 300)
