import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import kdiam.order
from kdiam import explicit, intervals
from kdiam.explicit import (BallEncoding, encoding_is_valid, expand_step,
                            initial_encoding, k_diameter_explicit, rebase)
from kdiam.gen import random_connected_graph
from kdiam.graph import diameter_naive, from_edges, neighborhood


def complete_graph(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestRebase:
    def test_identity_reorder(self):
        g = random_connected_graph(10, 16, np.random.default_rng(0))
        enc = initial_encoding(g)
        order = enc.order
        again = rebase(enc.reps, order, order)
        assert list(again) == list(enc.reps)

    def test_k3_any_reorder_full(self):
        g = complete_graph(3)
        reps = tuple(((1, 3),) for _ in range(3))
        out = rebase(reps, (0, 1, 2), (2, 0, 1))
        assert tuple(out) == (((1, 3),),) * 3

    def test_p5_random_reorder_decodes(self):
        g = path_graph(5)
        order_old = (0, 1, 2, 3, 4)
        pos = {v: i + 1 for i, v in enumerate(order_old)}
        reps = tuple(
            intervals.canonicalize({pos[u] for u in neighborhood(g, v, 1)})
            for v in range(5))
        rng = np.random.default_rng(1)
        for _ in range(10):
            new_order = tuple(int(x) for x in rng.permutation(5))
            out = rebase(reps, order_old, new_order)
            for v in range(5):
                decoded = {new_order[p - 1]
                           for p in intervals.positions(out[v])}
                assert decoded == neighborhood(g, v, 1)
                assert intervals.is_canonical(out[v], 5)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            rebase((((1, 1),),), (0,), (0, 1))

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(st.sets(st.integers(1, n)), min_size=n, max_size=n),
        st.permutations(range(n)), st.permutations(range(n)))),
        st.sampled_from([1, 3, explicit.BLOCK]))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_and_sets(self, case, block):
        sets, order_old, order_new = case
        reps = tuple(intervals.canonicalize(s) for s in sets)
        saved, explicit.BLOCK = explicit.BLOCK, block
        try:
            got = tuple(rebase(reps, order_old, order_new))
        finally:
            explicit.BLOCK = saved
        assert got == helpers.rebase(reps, order_old, order_new)
        new_pos = {v: i + 1 for i, v in enumerate(order_new)}
        for x in range(len(sets)):
            # x is in set s_v exactly when new position of v is in rep[x]
            holders = {new_pos[v] for v, s in enumerate(sets)
                       if order_old.index(x) + 1 in s}
            assert got[x] == intervals.canonicalize(holders)

    def test_single_vertex(self):
        assert tuple(rebase((((1, 1),),), (0,), (0,))) == (((1, 1),),)

    def test_lost_interval_is_an_error(self):
        # A non-canonical set (the same interval twice) breaks the sweep's
        # coverage count; the endpoint check reports it instead of
        # returning wrong sets.
        with pytest.raises(AssertionError, match="lost an interval"):
            rebase((((1, 1), (1, 1)), ((2, 2),)), (0, 1), (1, 0))


class TestExpandStep:
    def test_k3_radius1_full(self):
        g = complete_graph(3)
        enc = expand_step(g, initial_encoding(g), 2, np.random.default_rng(0))
        assert enc.radius == 1
        assert all(rep == ((1, 3),) for rep in enc.reps)

    def test_p4_radius1_decodes_closed_neighborhoods(self):
        g = path_graph(4)
        enc = expand_step(g, initial_encoding(g), 2, np.random.default_rng(1))
        for v in range(4):
            assert enc.decode(v) == neighborhood(g, v, 1)

    def test_five_cycle_radius2_full(self):
        g = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        enc = initial_encoding(g)
        rng = np.random.default_rng(2)
        enc = expand_step(g, enc, 2, rng)
        enc = expand_step(g, enc, 2, rng)
        for v in range(5):
            assert enc.decode(v) == set(range(5))

    def test_decode_correct_and_monotone_every_step(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(4, 18))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 2 * n) + 1))
            g = random_connected_graph(n, m, rng)
            enc = initial_encoding(g)
            prev = [enc.decode(v) for v in range(g.n)]
            for r in range(1, 4):
                enc = expand_step(g, enc, 3, rng)
                assert encoding_is_valid(g, enc)
                cur = [enc.decode(v) for v in range(g.n)]
                for v in range(g.n):
                    assert prev[v] <= cur[v]
                prev = cur

    @pytest.mark.parametrize("block", [1, 5, explicit.BLOCK])
    def test_matches_reference_steps(self, monkeypatch, block):
        monkeypatch.setattr(explicit, "BLOCK", block)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 40))
            m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 3 * n) + 1))
            g = random_connected_graph(n, m, rng)
            enc = initial_encoding(g)
            order, reps = enc.order, tuple(enc.reps)
            for r in range(4):
                enc = expand_step(g, enc, 3, np.random.default_rng(10 + r))
                order, reps = helpers.expand_step(
                    g, order, reps, r, 3, np.random.default_rng(10 + r))
                assert enc.order == order
                assert tuple(enc.reps) == reps

    def test_single_vertex_graph(self):
        g = from_edges(1, [])
        enc = expand_step(g, initial_encoding(g), 2, np.random.default_rng(0))
        assert tuple(enc.reps) == (((1, 1),),)
        assert k_diameter_explicit(g, 1, 2, np.random.default_rng(0))

    def test_frozen_order_still_correct(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(12, 20, rng)
        enc = initial_encoding(g)
        for _ in range(3):
            enc = expand_step(g, enc, 3, rng, reorder=False)
            assert enc.order == tuple(range(g.n))
            assert encoding_is_valid(g, enc)


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

    def test_canonicality_audit_via_inspect(self):
        g = random_connected_graph(14, 22, np.random.default_rng(7))
        seen = []

        def check(enc: BallEncoding):
            for rep in enc.reps:
                assert intervals.is_canonical(rep, g.n)
            seen.append(enc.radius)

        k_diameter_explicit(g, 3, 3, np.random.default_rng(8), inspect=check)
        assert seen == [0, 1, 2, 3]

    def test_last_radius_keeps_the_order(self, monkeypatch):
        g = random_connected_graph(14, 22, np.random.default_rng(7))
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
        orders = []
        k_diameter_explicit(g, 3, 3, np.random.default_rng(8),
                            inspect=lambda enc: orders.append(enc.order))
        assert calls == [1, 2]
        assert orders[3] == orders[2]
