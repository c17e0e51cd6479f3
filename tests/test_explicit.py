from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import kdiam.order
from kdiam import intervals
from kdiam.explicit import (expand_step, initial_encoding,
                            k_diameter_explicit, radius_steps, rebase)
from kdiam.gen import random_connected_graph
from kdiam.graph import Graph, diameter_naive, locality_rank, neighborhood

from helpers import encoding_is_valid


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestRebase:
    def test_identity_reorder(self):
        g = random_connected_graph(10, 16, np.random.default_rng(0))
        enc = initial_encoding(g)
        order = enc.order
        again = rebase(enc.reps, order, order)
        assert list(again) == list(enc.reps)

    def test_k3_any_reorder_full(self):
        g = complete_graph(3)
        reps = helpers.from_reps([((1, 3),)] * 3)
        out = rebase(reps, (0, 1, 2), (2, 0, 1))
        assert tuple(out) == (((1, 3),),) * 3

    def test_p5_random_reorder_decodes(self):
        g = path_graph(5)
        order_old = (0, 1, 2, 3, 4)
        pos = {v: i + 1 for i, v in enumerate(order_old)}
        reps = helpers.from_reps([
            helpers.canonicalize({pos[u] for u in neighborhood(g, v, 1)})
            for v in range(5)])
        rng = np.random.default_rng(1)
        for _ in range(10):
            new_order = tuple(int(x) for x in rng.permutation(5))
            out = rebase(reps, order_old, new_order)
            assert out.is_canonical(5)
            for v in range(5):
                decoded = {new_order[p - 1]
                           for p in helpers.positions(helpers.rep_at(out, v))}
                assert decoded == neighborhood(g, v, 1)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            rebase(helpers.from_reps([((1, 1),)]), (0,), (0, 1))

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(st.sets(st.integers(1, n)), min_size=n, max_size=n),
        st.permutations(range(n)), st.permutations(range(n)))),
        st.sampled_from([1, 3, intervals.BLOCK]))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_and_sets(self, case, block):
        sets, order_old, order_new = case
        reps = tuple(helpers.canonicalize(s) for s in sets)
        saved, intervals.BLOCK = intervals.BLOCK, block
        try:
            got = tuple(rebase(helpers.from_reps(reps), order_old,
                               order_new))
        finally:
            intervals.BLOCK = saved
        assert got == helpers.rebase(reps, order_old, order_new)
        new_pos = {v: i + 1 for i, v in enumerate(order_new)}
        for x in range(len(sets)):
            # x is in set s_v exactly when new position of v is in rep[x]
            holders = {new_pos[v] for v, s in enumerate(sets)
                       if order_old.index(x) + 1 in s}
            assert got[x] == helpers.canonicalize(holders)

    def test_single_vertex(self):
        one = helpers.from_reps([((1, 1),)])
        assert tuple(rebase(one, (0,), (0,))) == (((1, 1),),)

    @pytest.mark.parametrize("reps", [
        [((1, 1), (1, 1)), ((2, 2),)],
        [((2, 1),), ((2, 2),)],
        [((1, 3),), ((2, 2),)],
        [((1, 1), (2, 2)), ((2, 2),)],
    ], ids=["duplicate", "reversed", "past-n", "touching"])
    def test_non_canonical_input_is_rejected(self, reps):
        # The sweep's parity needs disjoint intervals; the check rejects
        # any set that is not canonical instead of returning wrong sets.
        with pytest.raises(ValueError, match="canonical"):
            rebase(helpers.from_reps(reps), (0, 1), (1, 0))

    @pytest.mark.parametrize("block", [64, intervals.BLOCK])
    def test_matches_reference_across_blocks(self, monkeypatch, block):
        # The sweep's first three rebases on 300 vertices take 2,035, 9,987
        # and 18,999 intervals, each in two pairs: many blocks of 64, and
        # more than one default block for the last two.
        g = random_connected_graph(300, 900, np.random.default_rng(5))
        steps = list(islice(radius_steps(g, 3, np.random.default_rng(5)), 4))
        monkeypatch.setattr(intervals, "BLOCK", block)
        for step, after in zip(steps, steps[1:]):
            old, new = step.grown.order, after.start.order
            got = rebase(step.grown.reps, old, new)
            assert tuple(got) == helpers.rebase(tuple(step.grown.reps), old,
                                                new)


class TestExpandStep:
    def test_k3_radius1_full(self):
        g = complete_graph(3)
        enc = expand_step(g, initial_encoding(g))
        assert enc.radius == 1
        assert all(rep == ((1, 3),) for rep in enc.reps)

    def test_p4_radius1_decodes_closed_neighborhoods(self):
        g = path_graph(4)
        enc = expand_step(g, initial_encoding(g))
        for v in range(4):
            assert set(enc.decode(v).tolist()) == neighborhood(g, v, 1)

    def test_five_cycle_radius2_full(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        enc = expand_step(g, expand_step(g, initial_encoding(g)))
        for v in range(5):
            assert set(enc.decode(v).tolist()) == set(range(5))

    def test_decode_correct_and_monotone_every_step(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(4, 18))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 2 * n) + 1))
            g = random_connected_graph(n, m, rng)
            prev = [{v} for v in range(g.n)]
            for step in islice(radius_steps(g, 3, rng), 3):
                assert encoding_is_valid(g, step.start)
                assert encoding_is_valid(g, step.grown)
                cur = [set(step.grown.decode(v).tolist())
                       for v in range(g.n)]
                for v in range(g.n):
                    assert prev[v] <= cur[v]
                prev = cur

    @pytest.mark.parametrize("block", [1, 5, 4_096, intervals.BLOCK])
    def test_matches_reference_steps(self, monkeypatch, block):
        monkeypatch.setattr(intervals, "BLOCK", block)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 40))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 3 * n) + 1))
            g = random_connected_graph(n, m, rng)
            enc = initial_encoding(g)
            rank = locality_rank(g)
            assert enc.order == rank
            order, reps = enc.order, tuple(enc.reps)
            # The sweep draws the order for radius r + 1 when step r + 2 is
            # asked for, from one rng; the reference draws it per call.
            ref_rng = np.random.default_rng(10)
            steps = radius_steps(g, 3, np.random.default_rng(10))
            for r, step in zip(range(5), steps):
                assert step.start.radius == r
                assert step.start.order == order
                assert tuple(step.start.reps) == reps
                order, reps = helpers.expand_step(g, order, reps, r, 3,
                                                  ref_rng, rank)

    def test_single_vertex_graph(self):
        g = Graph(1, [])
        enc = expand_step(g, initial_encoding(g))
        assert tuple(enc.reps) == (((1, 1),),)
        assert k_diameter_explicit(g, 1, 2, np.random.default_rng(0))

    def test_frozen_order_still_correct(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(12, 20, rng)
        enc = initial_encoding(g)
        for _ in range(3):
            enc = expand_step(g, enc)
            assert enc.order == locality_rank(g)
            assert encoding_is_valid(g, enc)


class TestOpenNeighbourhoodUnions:
    """From radius 1 on, a ball is the union of the balls of the open
    neighbourhood; radius 0 and a vertex with no neighbours keep the
    closed form."""

    graphs = {
        "isolated-vertex": Graph(5, [(0, 1), (1, 2), (2, 3)]),
        "two-vertices": Graph(2, [(0, 1)]),
        "star": Graph(7, [(0, i) for i in range(1, 7)]),
        "path": path_graph(8),
    }

    @pytest.mark.parametrize("name", graphs)
    def test_every_step_is_valid(self, name):
        g = self.graphs[name]
        for step in islice(radius_steps(g, 3, np.random.default_rng(0)), 8):
            assert encoding_is_valid(g, step.start)
            assert encoding_is_valid(g, step.grown)

    @pytest.mark.parametrize("name", graphs)
    def test_expand_from_radius_0_and_1_gives_the_bfs_balls(self, name):
        g = self.graphs[name]
        enc = initial_encoding(g)
        for radius in (1, 2):
            enc = expand_step(g, enc)
            assert enc.radius == radius
            assert [set(enc.decode(v).tolist()) for v in range(g.n)] == \
                [neighborhood(g, v, radius) for v in range(g.n)]


def grid_graph(width, height):
    n = width * height
    edges = [(v, v + 1) for v in range(n) if (v + 1) % width]
    edges += [(v, v + width) for v in range(n - width)]
    return Graph(n, edges)


class TestSameWork:
    """The interval totals of every radius, pinned: a change to the sweeps
    that keeps the answers but not the representations shows here."""

    @pytest.mark.parametrize("g, grown, rebased", [
        (random_connected_graph(400, 1200, np.random.default_rng(0)),
         [2522, 12441, 32824, 11391, 711, 401, 400],
         [2499, 12905, 33485, 10704, 693, 400]),
        (grid_graph(9, 7),
         [183, 309, 385, 427, 431, 343, 300, 231, 165, 127, 91, 73, 66, 63],
         [187, 309, 387, 441, 385, 378, 315, 238, 180, 119, 91, 73, 65]),
    ], ids=["random-400-1200", "grid-9x7"])
    def test_interval_totals_per_radius(self, g, grown, rebased):
        steps = list(islice(radius_steps(g, 3, np.random.default_rng(0)),
                            diameter_naive(g)))
        assert steps[-1].full and not steps[-2].full
        assert [len(s.grown.reps.starts) for s in steps] == grown
        assert [len(s.start.reps.starts) for s in steps[1:]] == rebased


class TestKDiameterExplicit:
    def test_k3(self):
        assert k_diameter_explicit(complete_graph(3), 1, 2,
                                   np.random.default_rng(0)) is True

    def test_p5_k2(self):
        assert k_diameter_explicit(path_graph(5), 2, 2,
                                   np.random.default_rng(0)) is False

    def test_p5_k4(self):
        assert k_diameter_explicit(path_graph(5), 4, 2,
                                   np.random.default_rng(0)) is True

    def test_validates_arguments(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            k_diameter_explicit(g, 0, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            k_diameter_explicit(g, 1, 1, np.random.default_rng(0))

    def test_matches_naive_many_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 3 * n) + 1))
            g = random_connected_graph(n, m, rng)
            diam = diameter_naive(g)
            for k in range(1, 6):
                assert k_diameter_explicit(g, k, 3, rng) == (diam <= k)

    def test_seed_independent_answers(self):
        g = random_connected_graph(16, 24, np.random.default_rng(6))
        diam = diameter_naive(g)
        for k in (1, 2, 3):
            answers = {k_diameter_explicit(g, k, 2, np.random.default_rng(s))
                       for s in range(8)}
            assert answers == {diam <= k}

    def test_canonicality_audit_over_the_sweep(self):
        g = random_connected_graph(14, 22, np.random.default_rng(7))
        seen = []
        for step in islice(radius_steps(g, 3, np.random.default_rng(8)), 3):
            for enc in (step.start, step.grown):
                assert enc.reps.is_canonical(g.n)
                seen.append(enc.radius)
        assert seen == [0, 1, 1, 2, 2, 3]

    @staticmethod
    def radii_ordered(monkeypatch, g):
        """Record the radius of the balls each order is drawn from."""
        calls = []
        real = kdiam.order.order_from_membership

        def counting(membership, *args, **kwargs):
            # the radius whose balls the membership oracle lists
            calls.append(next(
                r for r in range(g.n)
                if all(set(membership(x)) == neighborhood(g, x, r)
                       for x in range(g.n))))
            return real(membership, *args, **kwargs)

        monkeypatch.setattr(kdiam.order, "order_from_membership", counting)
        return calls

    def test_last_radius_keeps_the_order(self, monkeypatch):
        g = random_connected_graph(14, 22, np.random.default_rng(7))
        assert diameter_naive(g) > 3
        calls = self.radii_ordered(monkeypatch, g)
        assert k_diameter_explicit(g, 3, 3, np.random.default_rng(8)) is False
        assert calls == [1, 2]
        steps = radius_steps(g, 3, np.random.default_rng(8))
        *_, last = islice(steps, 3)
        assert last.grown.order == last.start.order

    def test_stops_at_the_first_full_radius(self, monkeypatch):
        g = random_connected_graph(14, 22, np.random.default_rng(7))
        diam = diameter_naive(g)
        calls = self.radii_ordered(monkeypatch, g)
        assert k_diameter_explicit(g, diam + 3, 3, np.random.default_rng(8))
        assert calls == list(range(1, diam))
