import math

import numpy as np
import pytest

from kdiam.graph import ids_of
from kdiam.stripes import stripe_init, stripe_list_differences, stripe_mark_line

S2 = math.sqrt(0.5)
X_AXIS = (1.0, 0.0)
DIAGONAL = (S2, S2)
NORMALS = [X_AXIS, (0.0, 1.0), DIAGONAL, (-S2, S2), (S2, -S2), (-S2, -S2)]


def make_points(rng, n, width=20.0):
    return rng.uniform((0.0, 0.0), (width, 1.0), size=(n, 2))


def projections(points, normal=X_AXIS):
    """Each point's projection on ``normal``, computed as the plane
    structure and the oracle compute it."""
    return (np.asarray(points, dtype=np.float64) @ np.asarray(normal)).tolist()


def slab_covers(keys, c, w):
    """Brute force: the points whose projection p has |p - c| <= w."""
    return {i for i, p in enumerate(keys) if abs(p - c) <= w}


def mask_of(marked):
    """Bit i for every marked point i."""
    return sum(1 << i for i in marked)


def mark_parts(stripe, mask, parts):
    for c, w in parts:
        mask = stripe_mark_line(stripe, mask, c, -w, w)
    return mask


class TestInit:
    def test_single_point(self):
        stripe = stripe_init([1.0])
        assert stripe.keys.tolist() == [1.0]
        assert stripe.pmasks == [0, 1]

    def test_full_marking_mask_is_all_bits(self):
        rng = np.random.default_rng(1)
        stripe = stripe_init(projections(make_points(rng, 40)))
        mask = 0
        for x in np.linspace(0, 20, 41):
            mask = stripe_mark_line(stripe, mask, float(x), -0.5, 0.5)
        assert mask == (1 << 40) - 1

    def test_leaves_x_sorted(self):
        # Along the x axis the stripe holds the x coordinates sorted, and
        # prefix mask i + 1 adds the bit of the i-th point in x order (ties
        # by id).
        rng = np.random.default_rng(2)
        pts = make_points(rng, 100)
        pts[10:20, 0] = pts[0, 0]
        stripe = stripe_init(projections(pts))
        xs = pts[:, 0].tolist()
        assert stripe.keys.tolist() == sorted(xs)
        want = sorted(range(100), key=lambda i: (xs[i], i))
        pmasks = stripe.pmasks
        assert [(pmasks[i + 1] ^ pmasks[i]).bit_length() - 1
                for i in range(100)] == want

    def test_point_on_band_floor_starts_unmarked(self):
        # A point exactly on the slab floor (p - c == lo) is covered; with
        # the center one step further it is not.
        stripe = stripe_init([0.0, 0.5])
        assert stripe_list_differences(
            stripe, 0, stripe_mark_line(stripe, 0, 0.5, -0.5, 0.5)) == [0, 1]
        assert stripe_list_differences(
            stripe, 0,
            stripe_mark_line(stripe, 0, math.nextafter(0.5, 1.0), -0.5, 0.5)
        ) == [1]
        assert stripe_mark_line(stripe, 0, math.nextafter(0.0, -1.0),
                                -0.0, 0.0) == 0


class TestMark:
    def test_mark_far_left_noop(self):
        rng = np.random.default_rng(5)
        stripe = stripe_init(projections(make_points(rng, 30)))
        assert stripe_mark_line(stripe, 0b101, -50.0, -0.5, 0.5) == 0b101
        assert stripe.mark_nodes == 0 and stripe.marks == 1

    def test_single_point_centered_square(self):
        assert stripe_mark_line(stripe_init([0.0]), 0, 0.0, -0.5, 0.5) == 1

    def test_random_marks_match_naive(self):
        rng = np.random.default_rng(7)
        keys = projections(make_points(rng, 200))
        stripe = stripe_init(keys)
        mask = 0
        marked = set()
        for step in range(500):
            c = float(rng.uniform(-1, 21))
            w = float(rng.uniform(0, 1))
            mask = stripe_mark_line(stripe, mask, c, -w, w)
            marked |= slab_covers(keys, c, w)
            assert mask == mask_of(marked), f"step {step}"

    def test_asymmetric_bounds_match_naive(self):
        # lo and hi are independent: the slab of a shape that is not
        # centrally symmetric sits off center.
        rng = np.random.default_rng(8)
        keys = projections(make_points(rng, 150), DIAGONAL)
        stripe = stripe_init(keys)
        for step in range(400):
            c = float(rng.uniform(-1, 16))
            lo, hi = sorted(rng.uniform(-1.5, 1.5, size=2).tolist())
            want = {i for i, p in enumerate(keys) if lo <= p - c <= hi}
            assert stripe.covered(c, lo, hi) == mask_of(want), f"step {step}"

    @pytest.mark.parametrize("j", range(len(NORMALS)))
    def test_ties_are_covered(self, j):
        # Points on a lattice, so many share a projection.  A slab centered
        # on one point's projection whose half-width is exactly another
        # point's offset from it has that point on its floor or ceiling and
        # covers it; one step narrower, it does not.
        pts = [(0.25 * a, 0.25 * b) for a in range(9) for b in range(3)]
        keys = projections(pts, NORMALS[j])
        stripe = stripe_init(keys)
        for i, p in enumerate(keys):
            for c in keys[::4]:
                w = abs(p - c)
                want = slab_covers(keys, c, w)
                assert i in want
                assert stripe.covered(c, -w, w) == mask_of(want)
                if w > 0:
                    narrower = math.nextafter(w, 0.0)
                    want = slab_covers(keys, c, narrower)
                    assert i not in want
                    assert stripe.covered(c, -narrower, narrower) == \
                        mask_of(want)


def lookup_keys(label):
    """Projections on the x axis for the bulk lookup's cases."""
    if label == "random":
        return projections(make_points(np.random.default_rng(43), 150))
    if label == "touching-lattice":
        # unit squares on the integer lattice: 12 runs of 12 equal keys,
        # neighbours exactly 1 apart
        return projections([(float(a), float(b))
                            for a in range(12) for b in range(12)])
    if label == "offset-lattice":
        # spacing 0.1 at 1e9 is not exact: the gaps are two doubles on
        # either side of 0.1
        return projections([(1e9 + 0.1 * a, 1e9 + 0.1 * b)
                            for a in range(12) for b in range(12)])
    return [0.25]


class TestBulkLookup:
    """``covers`` answers many centers in one call.  Each answer must be the
    brute-force set, also where p - c is exactly lo or hi and where many
    points share a projection, and the counters must advance by one lookup
    per center and one found lookup per nonempty cover, as per-center
    lookups do."""

    @pytest.mark.parametrize("label", ["random", "touching-lattice",
                                       "offset-lattice", "n=1"])
    def test_covers_match_brute_force(self, label):
        keys = lookup_keys(label)
        stripe = stripe_init(keys)
        rng = np.random.default_rng(44)
        lo_key, hi_key = min(keys), max(keys)
        centers = keys + rng.uniform(lo_key - 1, hi_key + 1, 20).tolist()
        # every gap between two distinct keys is a width at which p - c
        # is exactly -w or w for some point and some center (a key)
        gaps = sorted({abs(p - q) for p in keys[::7] for q in keys} - {0.0})
        widths = [0.0, 0.5] + gaps[:6] + gaps[-2:]
        widths += [math.nextafter(w, 0.0) for w in widths if w > 0]
        lookups = found = 0
        for w in widths:
            want = [slab_covers(keys, c, w) for c in centers]
            assert stripe.covers(centers, -w, w) == \
                [mask_of(m) for m in want], w
            lookups += len(centers)
            found += sum(1 for m in want if m)
        assert (stripe.marks, stripe.mark_nodes) == (lookups, found)
        if len(keys) > 1:
            assert any(p - c == w for w in widths for p in keys
                       for c in keys)


class TestListDifferences:
    def test_same_version(self):
        rng = np.random.default_rng(11)
        stripe = stripe_init(projections(make_points(rng, 20)))
        mask = stripe_mark_line(stripe, 0, 10.0, -0.5, 0.5)
        assert stripe_list_differences(stripe, mask, mask) == []
        assert stripe.list_nodes == 1

    def test_empty_vs_one_mark(self):
        stripe = stripe_init([10.0 * i for i in range(8)])
        mask = stripe_mark_line(stripe, 0, 70.0, -0.5, 0.5)
        assert stripe_list_differences(stripe, 0, mask) == [7]

    def test_random_pairs_match_naive(self):
        rng = np.random.default_rng(14)
        keys = projections(make_points(rng, 150))
        stripe = stripe_init(keys)
        masks = [0]
        naive = [set()]
        for _ in range(300):
            c = float(rng.uniform(-1, 21))
            masks.append(stripe_mark_line(stripe, masks[-1], c, -0.5, 0.5))
            naive.append(naive[-1] | slab_covers(keys, c, 0.5))
        for _ in range(400):
            i = int(rng.integers(0, len(masks)))
            j = int(rng.integers(0, len(masks)))
            got = stripe_list_differences(stripe, masks[i], masks[j])
            assert len(got) == len(set(got))
            assert set(got) == naive[i] ^ naive[j]


class TestWordNodes:
    """Stripes of about one and two 64-bit words on a slanted normal,
    marked by batches of narrow and wide slabs on top of random earlier
    masks: each mask is the brute-force marked set, and listing decodes
    the XOR of two masks into increasing ids."""

    @staticmethod
    def branching_masks(n, seed, steps=80):
        """The stripe, the masks, and each mask's brute-force marked set."""
        rng = np.random.default_rng(seed)
        width = max(n / 8.0, 1.0)
        keys = projections(make_points(rng, n, width=width), DIAGONAL)
        stripe = stripe_init(keys)
        masks = [0]
        marked = [set()]
        for _ in range(steps):
            base = int(rng.integers(0, len(masks)))
            parts = []
            for _ in range(int(rng.integers(1, 5))):
                c = float(rng.uniform(-0.5, width))
                w = width if rng.random() < 0.2 else float(rng.uniform(0, 2))
                parts.append((c, w))
            masks.append(mark_parts(stripe, masks[base], parts))
            marked.append(marked[base].union(
                *(slab_covers(keys, c, w) for c, w in parts)))
        return stripe, masks, marked

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_listing_matches_decode_in_set_and_order(self, n):
        stripe, masks, marked = self.branching_masks(n, seed=200 + n)
        for mask, m in zip(masks, marked):
            assert mask == mask_of(m)
        assert any(mask >> 64 for mask in masks) == (n > 64)
        rng = np.random.default_rng(n)
        for _ in range(150):
            i = int(rng.integers(0, len(masks)))
            j = int(rng.integers(0, len(masks)))
            assert stripe_list_differences(stripe, masks[i], masks[j]) == \
                sorted(marked[i] ^ marked[j])

    def test_root_mask_is_the_decoded_set(self):
        _, masks, marked = self.branching_masks(129, seed=400, steps=30)
        for mask, m in zip(masks, marked):
            assert mask == mask_of(m)
            assert ids_of(mask) == sorted(m)
        assert any(mask >> 64 for mask in masks)


class TestPolygonMode:
    def test_slanted_line_marks(self):
        rng = np.random.default_rng(15)
        keys = projections(make_points(rng, 120, width=10.0), DIAGONAL)
        stripe = stripe_init(keys)
        mask = 0
        marked = set()
        for step in range(200):
            c = float(rng.uniform(-1, 9))
            w = float(rng.uniform(0.25, 1.5))
            mask = stripe_mark_line(stripe, mask, c, -w, w)
            marked |= slab_covers(keys, c, w)
            assert mask == mask_of(marked), f"step {step}"


class TestBatchedMarks:
    """The OR of a batch of slabs' covered masks must be the marked set of
    the same slabs applied one by one, and the brute-force set."""

    @pytest.mark.parametrize("mode", ["square", "diamond"])
    def test_batches_match_chained_marks(self, mode):
        rng = np.random.default_rng(40 if mode == "square" else 41)
        normal = DIAGONAL if mode == "diamond" else X_AXIS
        keys = projections(make_points(rng, 90, width=10.0), normal)
        stripe = stripe_init(keys)
        batched = chained = 0
        marked = set()
        for step in range(60):
            parts = [(float(rng.uniform(-1, 10)), float(rng.uniform(0, 2)))
                     for _ in range(int(rng.integers(1, 13)))]
            for c, w in parts:
                batched |= stripe.covered(c, -w, w)
            chained = mark_parts(stripe, chained, parts)
            for c, w in parts:
                marked |= slab_covers(keys, c, w)
            assert batched == chained == mask_of(marked), f"step {step}"

    def test_empty_and_missing_batches_return_the_version(self):
        rng = np.random.default_rng(42)
        stripe = stripe_init(projections(make_points(rng, 20)))
        mask = stripe_mark_line(stripe, 0, 10.0, -0.5, 0.5)
        assert mark_parts(stripe, mask, []) == mask
        assert mark_parts(stripe, mask, [(30.5, 0.5), (-2.5, 0.5)]) == mask


class TestPersistence:
    def test_old_versions_stable_after_more_work(self):
        rng = np.random.default_rng(16)
        keys = projections(make_points(rng, 80))
        stripe = stripe_init(keys)
        masks = [0]
        naive = [set()]
        for _ in range(200):
            c = float(rng.uniform(0, 20))
            masks.append(stripe_mark_line(stripe, masks[-1], c, -0.5, 0.5))
            naive.append(naive[-1] | slab_covers(keys, c, 0.5))
        # 1000 extra operations on top of the last mask
        extra = masks[-1]
        for _ in range(1000):
            extra = stripe_mark_line(stripe, extra,
                                     float(rng.uniform(0, 20)), -0.5, 0.5)
        for i in range(0, len(masks), 9):
            assert masks[i] == mask_of(naive[i])
