import math

import numpy as np
import pytest

from kdiam.stripes import (DOWN, UP, StripeError, ids_of, stripe_init,
                           stripe_list_differences, stripe_mark_line)

S2 = math.sqrt(0.5)
DIAMOND_DIRS = [(0.0, 1.0), (0.0, -1.0), (S2, S2), (-S2, S2), (S2, -S2),
                (-S2, -S2)]


def make_points(rng, n, band_y0=0.0, width=20.0):
    return [(i, float(rng.uniform(0, width)),
             float(rng.uniform(band_y0, band_y0 + 1.0))) for i in range(n)]


def square_part(band_y0, center):
    """The part of the unit square at ``center`` in the band [band_y0,
    band_y0 + 1), or None: a square reaching the band floor covers what lies
    below its top side, any other one what lies above its bottom side."""
    cx, cy = center
    if cy + 0.5 < band_y0 or cy - 0.5 >= band_y0 + 1.0:
        return None
    if cy <= band_y0 + 0.5:
        return (cx - 0.5, cx + 0.5, UP, cy + 0.5)
    return (cx - 0.5, cx + 0.5, DOWN, -(cy - 0.5))


def mark_square(version, band_y0, center):
    part = square_part(band_y0, center)
    return version if part is None else stripe_mark_line(version, *part)


def in_square(x, y, center):
    return abs(x - center[0]) <= 0.5 and abs(y - center[1]) <= 0.5


def part_covers(dirs, part, x, y):
    """Brute force: x in [xlo, xhi] and dirs[j] . p <= c."""
    xlo, xhi, j, c = part
    ux, uy = dirs[j]
    return xlo <= x <= xhi and ux * x + uy * y <= c


def mark_parts(version, parts):
    for part in parts:
        version = stripe_mark_line(version, *part)
    return version


def mask_of(points, marked):
    """Bit i for the i-th point in x order (ties by id) that is marked."""
    ordered = sorted(points, key=lambda p: (p[1], p[0]))
    return sum(1 << i for i, (pid, _, _) in enumerate(ordered)
               if pid in marked)


class TestInit:
    def test_single_point(self):
        v = stripe_init([(0, 1.0, 0.5)], 0.0)
        assert v.mask == 0
        assert v.stripe.ids == [0]

    def test_full_marking_mask_is_all_bits(self):
        rng = np.random.default_rng(1)
        v = stripe_init(make_points(rng, 40), 0.0)
        for x in np.linspace(0, 20, 41):
            v = mark_square(v, 0.0, (float(x), 0.5))
        assert v.mask == (1 << 40) - 1

    def test_leaves_x_sorted(self):
        rng = np.random.default_rng(2)
        pts = make_points(rng, 100)
        v = stripe_init(pts, 0.0)
        assert v.stripe.xs == sorted(v.stripe.xs)
        want = [i for i, _, _ in sorted(pts, key=lambda t: (t[1], t[0]))]
        assert v.stripe.ids == want

    def test_rejects_point_outside_band(self):
        with pytest.raises(StripeError):
            stripe_init([(0, 1.0, 2.5)], 0.0)
        with pytest.raises(StripeError):
            stripe_init([], 0.0)

    def test_point_on_band_floor_starts_unmarked(self):
        # A point exactly on the band floor is inside the stripe; a bottom
        # line through it covers it, one just below does not.
        v = stripe_init([(0, 1.0, 0.0), (1, 2.0, 0.5)], 0.0)
        assert v.mask == 0
        assert stripe_mark_line(v, 0.0, 3.0, UP, math.nextafter(0.0, -1)) \
            is v
        assert stripe_list_differences(
            v, stripe_mark_line(v, 0.0, 3.0, UP, 0.0)) == [0]


class TestMark:
    def test_mark_far_left_noop(self):
        rng = np.random.default_rng(5)
        v = stripe_init(make_points(rng, 30), 0.0)
        assert mark_square(v, 0.0, (-50.0, 0.5)) is v
        assert v.stripe.mark_nodes == 0 and v.stripe.marks == 1

    def test_single_point_centered_square(self):
        v = stripe_init([(0, 0.0, 0.0)], -0.5)
        assert mark_square(v, -0.5, (0.0, 0.0)).mask == 1

    def test_random_marks_match_naive(self):
        rng = np.random.default_rng(7)
        pts = make_points(rng, 200, band_y0=2.0)
        v = stripe_init(pts, 2.0)
        marked = set()
        for step in range(500):
            c = (float(rng.uniform(-1, 21)), float(rng.uniform(1.4, 3.6)))
            v = mark_square(v, 2.0, c)
            marked |= {i for i, x, y in pts if in_square(x, y, c)}
            assert v.mask == mask_of(pts, marked), f"step {step}"

    @pytest.mark.parametrize("j", range(len(DIAMOND_DIRS)))
    def test_ties_are_covered(self, j):
        # Points on a lattice, several on the band floor; every part's line
        # passes exactly through a point (dirs[j] . p == c) and its x range
        # ends exactly on points, and such points are covered.
        pts = [(3 * a + b, 0.25 * a, 0.25 * b)
               for a in range(9) for b in range(3)]
        v = stripe_init(pts, 0.0, dirs=DIAMOND_DIRS)
        ux, uy = DIAMOND_DIRS[j]
        for pid, x, y in pts:
            for xlo, xhi in ((x, x), (0.0, x), (x, 2.0), (x, x + 0.25)):
                part = (xlo, xhi, j, ux * x + uy * y)
                want = {q for q, qx, qy in pts
                        if part_covers(DIAMOND_DIRS, part, qx, qy)}
                assert pid in want
                assert v.stripe.covered(*part) == mask_of(pts, want)


class TestListDifferences:
    def test_same_version(self):
        rng = np.random.default_rng(11)
        v = stripe_init(make_points(rng, 20), 0.0)
        assert stripe_list_differences(v, v) == []

    def test_empty_vs_one_mark(self):
        v = stripe_init([(7, 3.0, 0.4)], 0.0)
        v2 = mark_square(v, 0.0, (3.0, 0.4))
        assert stripe_list_differences(v, v2) == [7]

    def test_mismatched_universes(self):
        v1 = stripe_init([(0, 1.0, 0.5)], 0.0)
        v2 = stripe_init([(0, 1.0, 0.5)], 0.0)
        with pytest.raises(StripeError):
            stripe_list_differences(v1, v2)

    def test_random_pairs_match_naive(self):
        rng = np.random.default_rng(14)
        pts = make_points(rng, 150)
        versions = [stripe_init(pts, 0.0)]
        naive = [set()]
        for _ in range(300):
            c = (float(rng.uniform(-1, 21)), float(rng.uniform(-0.6, 1.6)))
            versions.append(mark_square(versions[-1], 0.0, c))
            naive.append(naive[-1] | {i for i, x, y in pts
                                      if in_square(x, y, c)})
        for _ in range(400):
            i = int(rng.integers(0, len(versions)))
            j = int(rng.integers(0, len(versions)))
            got = stripe_list_differences(versions[i], versions[j])
            assert len(got) == len(set(got))
            assert set(got) == naive[i] ^ naive[j]


class TestWordNodes:
    """Stripes of about one and two 64-bit words, marked by batches of
    slanted and flat parts on top of random earlier versions: each version's
    mask is the brute-force marked set, and listing decodes the XOR of two
    masks into the ids in x order."""

    @staticmethod
    def branching_versions(n, seed, steps=80):
        """The points, the versions, and each version's brute-force marked
        set."""
        rng = np.random.default_rng(seed)
        width = max(n / 8.0, 1.0)
        pts = make_points(rng, n, width=width)
        versions = [stripe_init(pts, 0.0, dirs=DIAMOND_DIRS)]
        marked = [set()]
        for _ in range(steps):
            base = int(rng.integers(0, len(versions)))
            parts = []
            for _ in range(int(rng.integers(1, 5))):
                j = int(rng.integers(0, len(DIAMOND_DIRS)))
                ux, uy = DIAMOND_DIRS[j]
                x0 = float(rng.uniform(0, width))
                c = ux * x0 + uy * float(rng.uniform(-0.5, 1.5))
                if rng.random() < 0.2:
                    parts.append((-1.0, width + 1.0, j, c))
                else:
                    parts.append((x0 - float(rng.uniform(0, 3)),
                                  x0 + float(rng.uniform(0, 3)), j, c))
            versions.append(mark_parts(versions[base], parts))
            marked.append(marked[base] | {
                pid for pid, x, y in pts
                if any(part_covers(DIAMOND_DIRS, p, x, y) for p in parts)})
        return pts, versions, marked

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_listing_matches_decode_in_set_and_order(self, n):
        pts, versions, marked = self.branching_versions(n, seed=200 + n)
        for v, m in zip(versions, marked):
            assert v.mask == mask_of(pts, m)
        assert any(v.mask >> 64 for v in versions) == (n > 64)
        ids = versions[0].stripe.ids
        rng = np.random.default_rng(n)
        for _ in range(150):
            i = int(rng.integers(0, len(versions)))
            j = int(rng.integers(0, len(versions)))
            diff = marked[i] ^ marked[j]
            assert stripe_list_differences(versions[i], versions[j]) == \
                [pid for pid in ids if pid in diff]

    def test_root_mask_is_the_decoded_set(self):
        pts, versions, marked = self.branching_versions(129, seed=400,
                                                        steps=30)
        ids = versions[0].stripe.ids
        for v, m in zip(versions, marked):
            assert v.mask == mask_of(pts, m)
            assert ids_of(v.mask, ids) == [pid for pid in ids if pid in m]
        assert any(v.mask >> 64 for v in versions)


class TestPolygonMode:
    def test_slanted_line_marks(self):
        rng = np.random.default_rng(15)
        pts = make_points(rng, 120, band_y0=0.0, width=10.0)
        v = stripe_init(pts, 0.0, dirs=DIAMOND_DIRS)
        marked = set()
        for step in range(200):
            xlo = float(rng.uniform(-1, 9))
            part = (xlo, xlo + float(rng.uniform(0.5, 3.0)),
                    int(rng.integers(2, 6)), float(rng.uniform(-2, 12)))
            v = stripe_mark_line(v, *part)
            marked |= {i for i, x, y in pts
                       if part_covers(DIAMOND_DIRS, part, x, y)}
            assert v.mask == mask_of(pts, marked), f"step {step}"

    def test_vertical_direction_rejected(self):
        dirs = [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0)]
        rng = np.random.default_rng(16)
        pts = make_points(rng, 20, band_y0=0.0, width=5.0)
        with pytest.raises(StripeError, match="vertical"):
            stripe_init(pts, 0.0, dirs=dirs)

    def test_dirs_must_start_with_up_and_down(self):
        rng = np.random.default_rng(17)
        pts = make_points(rng, 5, band_y0=0.0, width=5.0)
        with pytest.raises(StripeError, match="up .* and down"):
            stripe_init(pts, 0.0, dirs=[(0.0, -1.0), (0.0, 1.0)])


class TestBatchedMarks:
    """The OR of a batch of parts' covered masks must be the marked set of
    the same parts applied one by one, and the brute-force set."""

    @pytest.mark.parametrize("mode", ["square", "diamond"])
    def test_batches_match_chained_marks(self, mode):
        rng = np.random.default_rng(40 if mode == "square" else 41)
        pts = make_points(rng, 90, band_y0=0.0, width=10.0)
        dirs = DIAMOND_DIRS if mode == "diamond" else DIAMOND_DIRS[:2]
        chained = stripe_init(pts, 0.0, dirs=dirs)
        batched = 0
        marked = set()
        for step in range(60):
            parts = []
            for _ in range(int(rng.integers(1, 13))):
                c = float(rng.uniform(-1.5, 1.5))
                if mode == "diamond":
                    c += float(rng.uniform(-4, 4))
                xlo = float(rng.uniform(-1, 10))
                parts.append((xlo, xlo + float(rng.uniform(0.0, 4.0)),
                              int(rng.integers(0, len(dirs))), c))
            for part in parts:
                batched |= chained.stripe.covered(*part)
            chained = mark_parts(chained, parts)
            marked |= {i for i, x, y in pts
                       if any(part_covers(dirs, p, x, y) for p in parts)}
            assert batched == chained.mask == mask_of(pts, marked), \
                f"step {step}"

    def test_empty_and_missing_batches_return_the_version(self):
        rng = np.random.default_rng(42)
        v = stripe_init(make_points(rng, 20), 0.0)
        assert mark_parts(v, []) is v
        assert mark_parts(
            v, [(30.0, 31.0, UP, 0.5), (-3.0, -2.0, DOWN, -0.5)]) is v


class TestPersistence:
    def test_old_versions_stable_after_more_work(self):
        rng = np.random.default_rng(16)
        pts = make_points(rng, 80)
        versions = [stripe_init(pts, 0.0)]
        naive = [set()]
        for _ in range(200):
            c = (float(rng.uniform(0, 20)), float(rng.uniform(-0.4, 1.4)))
            versions.append(mark_square(versions[-1], 0.0, c))
            naive.append(naive[-1] | {i for i, x, y in pts
                                      if in_square(x, y, c)})
        # 1000 extra operations on top of the last version
        extra = versions[-1]
        for _ in range(1000):
            extra = mark_square(extra, 0.0, (float(rng.uniform(0, 20)),
                                             float(rng.uniform(-0.4, 1.4))))
        for i in range(0, len(versions), 9):
            assert versions[i].mask == mask_of(pts, naive[i])
