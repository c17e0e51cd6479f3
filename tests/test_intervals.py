import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from kdiam import intervals


position_sets = st.sets(st.integers(min_value=1, max_value=60), max_size=40)


class TestCanonicalize:
    def test_empty(self):
        assert helpers.canonicalize([]) == ()

    def test_merges_adjacent(self):
        assert helpers.canonicalize({1, 2, 3, 5}) == ((1, 3), (5, 5))

    @given(position_sets)
    def test_roundtrip_and_canonical(self, pos):
        rep = helpers.canonicalize(pos)
        assert set(helpers.positions(rep)) == pos
        assert helpers.from_reps([rep]).is_canonical(60)

    def test_random_50_subset_matches_merge_oracle(self):
        rng = np.random.default_rng(0)
        pos = set(int(x) for x in rng.choice(100, size=50, replace=False) + 1)
        rep = helpers.canonicalize(pos)
        # scan-and-merge oracle
        expect = []
        for p in sorted(pos):
            if expect and expect[-1][1] + 1 == p:
                expect[-1][1] = p
            else:
                expect.append([p, p])
        assert rep == tuple((a, b) for a, b in expect)


def owned_unions(reps, owner, n):
    """Array unions of tuple interval sets, set s going to owner
    ``owner[s]``, through the gather CSR that ``union_sweep`` takes: the
    ``(owner, start, end)`` rows of every union, by owner, then start."""
    owner = np.asarray(owner, dtype=np.int64)
    gidx = np.argsort(owner, kind="stable")
    gptr = intervals.offsets_of(np.bincount(owner, minlength=1))
    unions = intervals.union_sweep(helpers.from_reps(reps), gptr, gidx, n)
    assert len(unions) == len(gptr) - 1
    assert unions.is_canonical(n)
    return [(o, a, b) for o, rep in enumerate(unions) for a, b in rep]


def union_of(reps):
    """Array union of several tuple interval sets, as one canonical tuple."""
    rows = owned_unions(reps, np.zeros(len(reps), np.int64), 60)
    assert all(o == 0 for o, _, _ in rows)
    return tuple((a, b) for _, a, b in rows)


def difference_of(rep_a, rep_b):
    """Array ``rep_a ^ rep_b`` as a list of positions."""
    sets = helpers.from_reps([rep_a, rep_b])
    pair, pos = intervals.symmetric_difference(
        np.zeros(len(sets.starts), np.int64), sets.starts, sets.ends, 60)
    assert (pair == 0).all()
    return pos.tolist()


class TestIntervalSets:
    @given(st.lists(position_sets, max_size=8))
    def test_roundtrip(self, sets):
        reps = [helpers.canonicalize(s) for s in sets]
        packed = helpers.from_reps(reps)
        assert len(packed) == len(reps)
        assert list(packed) == reps
        assert [helpers.rep_at(packed, v) for v in range(len(reps))] == reps
        assert packed.counts().tolist() == [len(r) for r in reps]

    @given(st.lists(position_sets, max_size=8),
           st.lists(st.integers(0, 7), max_size=10))
    def test_take(self, sets, items):
        reps = [helpers.canonicalize(s) for s in sets]
        items = [i for i in items if i < len(reps)]
        packed = helpers.from_reps(reps)
        taken = packed.take(np.array(items, dtype=np.int64))
        assert list(taken) == [reps[i] for i in items]

    @pytest.mark.parametrize("reps, canonical", [
        ([], True),
        ([(), ()], True),
        ([((1, 2), (4, 60)), (), ((3, 3),)], True),
        ([((1, 3),), ((4, 4),)], True),  # touching across sets is fine
        ([((0, 2),)], False),
        ([((3, 2),)], False),
        ([((1, 61),)], False),
        ([((1, 2), (3, 4))], False),  # touching
        ([(), ((1, 2), (2, 4))], False),  # overlapping
        ([((5, 5), (5, 5))], False),  # the same interval twice
        ([((5, 6), (1, 2))], False),  # out of order
    ])
    def test_is_canonical(self, reps, canonical):
        sets = helpers.from_reps(reps)
        assert sets.is_canonical(60) is canonical

    def test_negative_index_and_range(self):
        packed = helpers.from_reps([((1, 2),), (), ((4, 4),)])
        assert helpers.rep_at(packed, -1) == ((4, 4),)
        assert helpers.rep_at(packed, 1) == ()
        with pytest.raises(IndexError):
            helpers.rep_at(packed, 3)


class TestUnionSweep:
    def test_overlapping(self):
        assert union_of([((1, 2),), ((2, 4),)]) == ((1, 4),)

    def test_disjoint(self):
        assert union_of([((1, 1),), ((3, 3),)]) == ((1, 1), (3, 3))

    def test_adjacent_merge(self):
        assert union_of([((1, 2),), ((3, 4),)]) == ((1, 4),)

    @given(st.lists(position_sets, max_size=10))
    @settings(max_examples=60)
    def test_matches_set_union(self, sets):
        reps = [helpers.canonicalize(s) for s in sets]
        got = union_of(reps)
        want = helpers.canonicalize(set().union(*sets) if sets else set())
        assert got == want == helpers.union_sweep(reps)
        assert helpers.from_reps([got]).is_canonical(60)

    def test_empty_inputs(self):
        assert union_of([]) == ()
        assert union_of([(), ()]) == ()

    @given(st.lists(st.lists(position_sets, max_size=5), max_size=8))
    @settings(max_examples=60)
    def test_many_owners_match_reference(self, groups):
        reps = [helpers.canonicalize(s) for g in groups for s in g]
        owner = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        want = [(j, a, b) for j, g in enumerate(groups)
                for a, b in helpers.union_sweep(
                    [helpers.canonicalize(s) for s in g])]
        assert owned_unions(reps, owner, 60) == want

    def test_single_position_universe(self):
        assert owned_unions([((1, 1),), ((1, 1),)], [0, 0], 1) == [(0, 1, 1)]

    @pytest.mark.parametrize("reps", [[], [()], [(), (), ()]])
    def test_no_intervals_gives_no_rows(self, reps):
        owners = max(len(reps), 1)
        gptr = np.arange(owners + 1) * len(reps) // owners
        unions = intervals.union_sweep(helpers.from_reps(reps), gptr,
                                       np.arange(len(reps)), 60)
        assert len(unions) == owners
        assert unions.counts().tolist() == [0] * owners
        assert len(unions.starts) == len(unions.ends) == 0
        assert unions.starts.dtype == unions.ends.dtype == np.int64

    def test_key_range_guard(self):
        # Owners are numbered within a block, so a block of BLOCK owners,
        # each gathering the one interval [1, n], fills the owner field.
        # Its keys fit while BLOCK << 2b stays below 2**63, so up to
        # b = top, n = 2**top - 2; one more vertex widens b.  At BLOCK =
        # 8,192, top is 24: n must stay below 2**24 - 1.
        block = intervals.BLOCK
        top = (63 - block.bit_length()) // 2
        gptr = np.arange(block + 1)
        gidx = np.zeros(block, dtype=np.int64)
        for n in (1, (1 << top) - 2):
            unions = intervals.union_sweep(
                helpers.from_reps([((1, n),)]), gptr, gidx, n)
            assert list(unions) == [((1, n),)] * block
        n = (1 << top) - 1
        assert block << 2 * (n + 1).bit_length() >= 1 << 63
        with pytest.raises(ValueError, match="int64 keys"):
            intervals.union_sweep(helpers.from_reps([((1, n),)]), gptr,
                                  gidx, n)

    # Intervals of a 12-position universe, so sets of one owner often
    # overlap or touch; one set's intervals need not be sorted or disjoint.
    loose_sets = st.lists(st.tuples(st.integers(1, 12), st.integers(0, 3))
                          .map(lambda t: (t[0], min(t[0] + t[1], 12))),
                          max_size=4)

    @given(st.lists(st.tuples(loose_sets, st.integers(0, 5)), max_size=12))
    @settings(max_examples=100)
    def test_unsorted_owners_and_loose_sets(self, owned):
        reps = [tuple(rep) for rep, _ in owned]
        owner = np.array([o for _, o in owned], dtype=np.int64)
        want = [(o, a, b) for o in sorted(set(owner.tolist()))
                for a, b in helpers.union_sweep(
                    [r for r, ro in zip(reps, owner) if ro == o])]
        assert owned_unions(reps, owner, 12) == want

    @given(st.lists(loose_sets, max_size=8),
           st.lists(st.lists(st.integers(0, 7), max_size=6), max_size=10),
           st.sampled_from([1, 2, 5, intervals.BLOCK]))
    @settings(max_examples=100, deadline=None)
    def test_gather_matches_set_union(self, sets, gathers, block):
        # Owners gather any sets, repeats and none included, in blocks of
        # any size; each union is the set union of what its owner gathers.
        gathers = [[s for s in g if s < len(sets)] for g in gathers]
        gptr = intervals.offsets_of([len(g) for g in gathers])
        gidx = np.array([s for g in gathers for s in g], dtype=np.int64)
        saved, intervals.BLOCK = intervals.BLOCK, block
        try:
            unions = intervals.union_sweep(helpers.from_reps(sets), gptr,
                                           gidx, 12)
        finally:
            intervals.BLOCK = saved
        assert len(unions) == len(gathers)
        covered = [set().union(*(helpers.positions(sets[s]) for s in g))
                   for g in gathers]
        assert list(unions) == [helpers.canonicalize(c) for c in covered]

    def test_gather_cases(self):
        # Overlapping, touching and unsorted intervals; an owner with no
        # intervals and one with none gathered; and, as the explicit path
        # gathers for a vertex with no neighbours, an owner gathering only
        # its own set.
        sets = [((5, 9), (1, 3)), ((4, 4),), ((2, 6), (8, 8)), (), ((12, 12),)]
        gathers = [[0, 1], [2, 0, 2], [3], [], [4], [1, 4, 3]]
        gptr = intervals.offsets_of([len(g) for g in gathers])
        gidx = np.array([s for g in gathers for s in g], dtype=np.int64)
        unions = intervals.union_sweep(helpers.from_reps(sets), gptr, gidx,
                                       12)
        assert list(unions) == [((1, 9),), ((1, 9),), (), (), ((12, 12),),
                                ((4, 4), (12, 12))]


class TestDifferencePositions:
    @given(position_sets, position_sets)
    def test_matches_set_difference(self, a, b):
        ra, rb = helpers.canonicalize(a), helpers.canonicalize(b)
        got = difference_of(ra, rb)
        assert got == sorted(a ^ b)
        assert got == sorted(helpers.difference_positions(ra, rb)
                             + helpers.difference_positions(rb, ra))

    def test_sorted_output(self):
        ra = helpers.canonicalize({1, 2, 3, 7, 8, 12})
        rb = helpers.canonicalize({2, 7, 20})
        out = difference_of(ra, rb)
        assert out == sorted(out) == [1, 3, 8, 12, 20]

    def test_touching_sides(self):
        assert difference_of(((1, 2),), ((3, 4),)) == [1, 2, 3, 4]

    def test_identical_sets(self):
        rep = ((1, 2), (5, 9))
        assert difference_of(rep, rep) == []

    def test_whole_range(self):
        rep = ((1, 60),)
        assert difference_of(rep, ((2, 3), (60, 60))) == \
            [1] + list(range(4, 60))
        assert difference_of((), rep) == list(range(1, 61))

    @given(st.lists(st.tuples(position_sets, position_sets), max_size=8))
    @settings(max_examples=60)
    def test_both_sides_per_pair(self, pairs):
        sets = helpers.from_reps(
            [helpers.canonicalize(s) for pair in pairs for s in pair])
        at, pos = intervals.symmetric_difference(
            np.repeat(np.arange(2 * len(pairs)) // 2, sets.counts()),
            sets.starts, sets.ends, 60)
        want = [(j, p) for j, (x, y) in enumerate(pairs)
                for p in sorted(x ^ y)]
        assert list(zip(at.tolist(), pos.tolist())) == want

    def test_pair_without_intervals(self):
        # Pair 1 has no intervals; pairs 0 and 2 list their own positions.
        sets = helpers.from_reps(
            [((1, 3),), ((2, 2),), (), (), ((4, 4),), ((60, 60),)])
        at, pos = intervals.symmetric_difference(
            np.repeat(np.arange(6) // 2, sets.counts()), sets.starts,
            sets.ends, 60)
        assert list(zip(at.tolist(), pos.tolist())) == \
            [(0, 1), (0, 3), (2, 4), (2, 60)]


class TestKeyWidth:
    """Keys pack their fields with shifts by ``b = (n + 1).bit_length()``
    bits.  At n = 1,022 the values 0..n + 1 just fill 10 bits; at n = 1,023
    they need 11, so these sizes check both sides of a width step."""

    @staticmethod
    def random_sets(rng, n, count):
        """Position sets over 1..n; about half reach n, so ``end + 1`` is
        often n + 1, the largest value a field holds."""
        sets = []
        for _ in range(count):
            pos = set((rng.integers(1, n + 1, size=int(rng.integers(0, 30)))
                       ).tolist())
            if rng.random() < 0.5:
                pos |= set(range(n - int(rng.integers(0, 4)), n + 1))
            if rng.random() < 0.3:
                pos.add(1)
            sets.append(pos)
        return sets

    @pytest.mark.parametrize("n", [1_022, 1_023])
    def test_union_sweep_matches_sets(self, n):
        rng = np.random.default_rng(n)
        sets = self.random_sets(rng, n, 80)
        owner = rng.integers(0, 15, size=len(sets))
        want = [(o, a, b) for o in sorted(set(owner.tolist()))
                for a, b in helpers.canonicalize(set().union(
                    *(s for s, so in zip(sets, owner) if so == o)))]
        assert owned_unions([helpers.canonicalize(s) for s in sets], owner,
                            n) == want

    @pytest.mark.parametrize("n", [1_022, 1_023])
    def test_symmetric_difference_matches_sets_in_any_order(self, n):
        # Pair j is sets 2j and 2j + 1.  The output depends only on which
        # intervals come in, not on their order.
        rng = np.random.default_rng(n)
        sets = self.random_sets(rng, n, 60)
        packed = helpers.from_reps(
            [helpers.canonicalize(s) for s in sets])
        pair = np.repeat(np.arange(len(sets)) // 2, packed.counts())
        want = [(j, p) for j in range(len(sets) // 2)
                for p in sorted(sets[2 * j] ^ sets[2 * j + 1])]
        for shuffled in (False, True, True, True):
            perm = (rng.permutation(len(pair)) if shuffled
                    else np.arange(len(pair)))
            at, pos = intervals.symmetric_difference(
                pair[perm], packed.starts[perm], packed.ends[perm], n)
            assert list(zip(at.tolist(), pos.tolist())) == want
