import math

import numpy as np
import pytest

from kdiam.stripes import (BOT, DOWN, TOP, UP, StripeError,
                           decode_marked, stripe_init, stripe_list_differences,
                           stripe_mark, stripe_mark_line, stripe_mark_lines,
                           stripe_push)

from helpers import StripeModel, audit_stripe_version


def make_points(rng, n, band_y0=0.0, width=20.0):
    return [(i, float(rng.uniform(0, width)),
             float(rng.uniform(band_y0, band_y0 + 1.0))) for i in range(n)]


class TestInit:
    def test_single_point(self):
        rng = np.random.default_rng(0)
        v = stripe_init([(0, 1.0, 0.5)], 0.0)
        assert v.root.is_leaf
        assert v.root.mask == 0
        assert decode_marked(v) == set()

    def test_full_marking_mask_is_all_bits(self):
        rng = np.random.default_rng(1)
        pts = make_points(rng, 40)
        v = stripe_init(pts, 0.0)
        cur = v
        for x in np.linspace(0, 20, 41):
            cur = stripe_mark(cur, (float(x), 0.5))
        assert decode_marked(cur) == set(range(40))
        assert cur.root.mask == (1 << 40) - 1

    def test_leaves_x_sorted(self):
        rng = np.random.default_rng(2)
        pts = make_points(rng, 100)
        v = stripe_init(pts, 0.0)
        assert v.static.xs == sorted(v.static.xs)
        want = [i for i, _, _ in sorted(pts, key=lambda t: (t[1], t[0]))]
        assert v.static.ids == want

    def test_rejects_point_outside_band(self):
        rng = np.random.default_rng(3)
        with pytest.raises(StripeError):
            stripe_init([(0, 1.0, 2.5)], 0.0)

    def test_point_on_band_floor_starts_unmarked(self):
        rng = np.random.default_rng(4)
        v = stripe_init([(0, 1.0, 0.0)], 0.0)
        assert decode_marked(v) == set()


class TestMark:
    def test_mark_far_left_noop(self):
        rng = np.random.default_rng(5)
        pts = make_points(rng, 30)
        v = stripe_init(pts, 0.0)
        v2 = stripe_mark(v, (-50.0, 0.5))
        assert decode_marked(v2) == set()

    def test_single_point_centered_square(self):
        rng = np.random.default_rng(6)
        v = stripe_init([(0, 0.0, 0.0)], -0.5)
        v2 = stripe_mark(v, (0.0, 0.0))
        assert decode_marked(v2) == {0}

    def test_random_marks_match_naive(self):
        rng = np.random.default_rng(7)
        pts = make_points(rng, 200, band_y0=2.0)
        v = stripe_init(pts, 2.0)
        marked = set()
        for step in range(500):
            cx = float(rng.uniform(-1, 21))
            cy = float(rng.uniform(1.4, 3.6))
            v = stripe_mark(v, (cx, cy))
            for i, x, y in pts:
                if abs(x - cx) <= 0.5 and abs(y - cy) <= 0.5:
                    marked.add(i)
            assert decode_marked(v) == marked, f"step {step}"


class TestPush:
    def test_non_lazy_returns_equivalent(self):
        rng = np.random.default_rng(8)
        pts = make_points(rng, 10)
        v = stripe_init(pts, 0.0)
        assert stripe_push(v.root, v.static) is v.root

    def test_lazy_top_propagates_line(self):
        rng = np.random.default_rng(9)
        pts = make_points(rng, 32)
        v = stripe_init(pts, 0.0)
        # full-width top boundary at 0.8 makes the root top-lazy
        v2 = stripe_mark_line(v, -1.0, 21.0, TOP, DOWN, -0.8)
        node = v2.root
        assert node.top_lazy and node.top.line == (DOWN, -0.8)
        pushed = stripe_push(node, v2.static)
        assert not pushed.bot_lazy and not pushed.top_lazy
        for child in (pushed.left, pushed.right):
            assert child.top_lazy or child.is_leaf
            assert child.top.line == node.top.line
        assert decode_marked(v2) == decode_marked(
            type(v2)(v2.static, pushed))
        assert decode_marked(v2) == {i for i, x, y in pts if y >= 0.8}

    def test_bottom_line_installs_lazily_over_straddling_top(self):
        # The top boundary is lowered to 0.3 over the left half only, so it
        # lies on both sides of the bottom line y = 0.5 over the root; the
        # full-width bottom line still dominates the root's bottom boundary
        # and is installed there lazily.
        rng = np.random.default_rng(30)
        pts = make_points(rng, 32)
        v = stripe_init(pts, 0.0)
        model = StripeModel(v.static)
        for part in ((-1.0, 10.0, TOP, DOWN, -0.3),
                     (-1.0, 21.0, BOT, UP, 0.5)):
            v = stripe_mark_line(v, *part)
            model.apply(*part)
        top = v.root.top
        assert top.lo[UP] < 0.5 < top.hi[UP]
        assert v.root.bot_lazy and v.root.bot.line == (UP, 0.5)
        assert audit_stripe_version(v, model) == []
        assert decode_marked(v) == model.marked_ids()

    def test_push_audit_after_random_marks(self):
        rng = np.random.default_rng(10)
        pts = make_points(rng, 64)
        v = stripe_init(pts, 0.0)
        model = StripeModel(v.static)
        for _ in range(120):
            cx = float(rng.uniform(-1, 21))
            cy = float(rng.uniform(-0.6, 1.6))
            before = v
            v = stripe_mark(v, (cx, cy))
            if v is not before:
                if cy <= 0.5:
                    model.apply(cx - 0.5, cx + 0.5, BOT, UP, cy + 0.5)
                else:
                    model.apply(cx - 0.5, cx + 0.5, TOP, DOWN, -(cy - 0.5))
            assert audit_stripe_version(v, model) == []


class TestListDifferences:
    def test_same_version(self):
        rng = np.random.default_rng(11)
        pts = make_points(rng, 20)
        v = stripe_init(pts, 0.0)
        assert stripe_list_differences(v, v) == []

    def test_empty_vs_one_mark(self):
        rng = np.random.default_rng(12)
        v = stripe_init([(7, 3.0, 0.4)], 0.0)
        v2 = stripe_mark(v, (3.0, 0.4))
        assert stripe_list_differences(v, v2) == [7]

    def test_mismatched_universes(self):
        rng = np.random.default_rng(13)
        v1 = stripe_init([(0, 1.0, 0.5)], 0.0)
        v2 = stripe_init([(0, 1.0, 0.5)], 0.0)
        with pytest.raises(StripeError):
            stripe_list_differences(v1, v2)

    def test_random_pairs_match_naive(self):
        rng = np.random.default_rng(14)
        pts = make_points(rng, 150)
        v = stripe_init(pts, 0.0)
        versions = [v]
        naive = [set()]
        for _ in range(300):
            cx = float(rng.uniform(-1, 21))
            cy = float(rng.uniform(-0.6, 1.6))
            v = stripe_mark(versions[-1], (cx, cy))
            versions.append(v)
            cur = set(naive[-1])
            for i, x, y in pts:
                if abs(x - cx) <= 0.5 and abs(y - cy) <= 0.5:
                    cur.add(i)
            naive.append(cur)
        for _ in range(400):
            i = int(rng.integers(0, len(versions)))
            j = int(rng.integers(0, len(versions)))
            got = stripe_list_differences(versions[i], versions[j])
            assert len(got) == len(set(got))
            assert set(got) == naive[i] ^ naive[j]


class TestWordNodes:
    """Stripes of about one and two 64-bit words: every node keeps its
    exact marked subset as a mask, and listing reads a difference off the
    XOR of the two root masks: the same ids, in the same x order, as a
    descent to the leaves."""

    S2 = math.sqrt(0.5)
    DIRS = [(0.0, 1.0), (0.0, -1.0), (S2, S2), (-S2, S2), (S2, -S2), (-S2, -S2)]

    @classmethod
    def branching_versions(cls, n, seed, steps=80):
        """Versions built by batches of slanted and flat line parts, each on
        top of a random earlier version, with each version's part lineage."""
        rng = np.random.default_rng(seed)
        width = max(n / 8.0, 1.0)
        v = stripe_init(make_points(rng, n, width=width), 0.0,
                        dirs=cls.DIRS)
        versions, lineages = [v], [[]]
        for _ in range(steps):
            base = int(rng.integers(0, len(versions)))
            parts = []
            for _ in range(int(rng.integers(1, 5))):
                j = int(rng.integers(0, len(cls.DIRS)))
                ux, uy = cls.DIRS[j]
                x0 = float(rng.uniform(0, width))
                c = ux * x0 + uy * float(rng.uniform(-0.5, 1.5))
                if rng.random() < 0.2:
                    xlo, xhi = -1.0, width + 1.0
                else:
                    xlo = x0 - float(rng.uniform(0, 3))
                    xhi = x0 + float(rng.uniform(0, 3))
                parts.append((xlo, xhi, BOT if uy > 0 else TOP, j, c))
            versions.append(stripe_mark_lines(versions[base], parts))
            lineages.append(lineages[base] + parts)
        return versions, lineages

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_listing_matches_decode_in_set_and_order(self, n):
        versions, lineages = self.branching_versions(n, seed=200 + n)
        static = versions[0].static
        marked = []
        for v, lineage in zip(versions, lineages):
            model = StripeModel(static)
            for part in lineage:
                model.apply(*part)
            assert audit_stripe_version(v, model) == []
            marked.append(decode_marked(v))
            assert marked[-1] == model.marked_ids()
        rng = np.random.default_rng(n)
        for _ in range(150):
            i = int(rng.integers(0, len(versions)))
            j = int(rng.integers(0, len(versions)))
            diff = marked[i] ^ marked[j]
            want = [pid for pid in static.ids if pid in diff]
            assert stripe_list_differences(versions[i], versions[j]) == want

    @pytest.mark.parametrize("n", [1, 40, 64, 65, 129])
    def test_listing_a_word_stripe_visits_one_node(self, n):
        versions, _ = self.branching_versions(n, seed=300 + n, steps=30)
        static = versions[0].static
        listed = 0
        for i in range(len(versions)):
            before = static.list_nodes
            listed += len(stripe_list_differences(versions[0], versions[i]))
            assert static.list_nodes == before + 1
        assert listed > 0

    def test_root_mask_is_the_decoded_set(self):
        versions, _ = self.branching_versions(129, seed=400, steps=30)
        static = versions[0].static
        for v in versions:
            marked = decode_marked(v)
            assert v.root.mask == sum(1 << i for i, pid in
                                      enumerate(static.ids) if pid in marked)
        assert any(v.root.mask >> 64 for v in versions)


class TestPolygonMode:
    def test_slanted_line_marks(self):
        # boundary directions of a diamond (all four diagonal normals)
        s2 = math.sqrt(0.5)
        dirs = [(0.0, 1.0), (0.0, -1.0),
                (s2, s2), (-s2, s2), (s2, -s2), (-s2, -s2)]
        rng = np.random.default_rng(15)
        pts = make_points(rng, 120, band_y0=0.0, width=10.0)
        v = stripe_init(pts, 0.0, dirs=dirs)
        model = StripeModel(v.static)
        marked = set()
        for step in range(200):
            j = int(rng.integers(2, 6))
            ux, uy = dirs[j]
            c = float(rng.uniform(-2, 12))
            xlo = float(rng.uniform(-1, 9))
            xhi = xlo + float(rng.uniform(0.5, 3.0))
            side = BOT if uy > 0 else TOP
            v = stripe_mark_line(v, xlo, xhi, side, j, c)
            model.apply(xlo, xhi, side, j, c)
            for idx, (i, x, y) in enumerate(pts):
                pass
            marked = model.marked_ids()
            assert decode_marked(v) == marked, f"step {step}"
            if step % 25 == 0:
                assert audit_stripe_version(v, model) == []


    def test_vertical_direction_rejected(self):
        dirs = [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0)]
        rng = np.random.default_rng(16)
        pts = make_points(rng, 20, band_y0=0.0, width=5.0)
        v = stripe_init(pts, 0.0, dirs=dirs)
        with pytest.raises(StripeError, match="vertical"):
            stripe_mark_line(v, -1.0, 6.0, BOT, 2, 100.0)

    def test_dirs_must_start_with_up_and_down(self):
        rng = np.random.default_rng(17)
        pts = make_points(rng, 5, band_y0=0.0, width=5.0)
        with pytest.raises(StripeError, match="up .* and down"):
            stripe_init(pts, 0.0, dirs=[(0.0, -1.0), (0.0, 1.0)])


class TestBatchedMarks:
    """One descent over a batch of parts must give the marked set (and so
    the root mask) of the same parts applied one by one, and keep the node
    rules."""

    @pytest.mark.parametrize("mode", ["square", "diamond"])
    def test_batches_match_chained_marks(self, mode):
        rng = np.random.default_rng(40 if mode == "square" else 41)
        pts = make_points(rng, 90, band_y0=0.0, width=10.0)
        if mode == "square":
            v = stripe_init(pts, 0.0)
        else:
            s2 = math.sqrt(0.5)
            dirs = [(0.0, 1.0), (0.0, -1.0),
                    (s2, s2), (-s2, s2), (s2, -s2), (-s2, -s2)]
            v = stripe_init(pts, 0.0, dirs=dirs)
        static = v.static
        model = StripeModel(static)
        batched = chained = v
        for step in range(60):
            parts = []
            for _ in range(int(rng.integers(1, 13))):
                j = int(rng.integers(0, len(static.dirs)))
                side = BOT if static.dirs[j][1] > 0 else TOP
                c = float(rng.uniform(-1.5, 1.5))
                if mode == "diamond":
                    c += float(rng.uniform(-4, 4))
                xlo = float(rng.uniform(-1, 10))
                xhi = xlo + float(rng.uniform(0.0, 4.0))
                parts.append((xlo, xhi, side, j, c))
            batched = stripe_mark_lines(batched, parts)
            for part in parts:
                chained = stripe_mark_line(chained, *part)
                model.apply(*part)
            assert decode_marked(batched) == decode_marked(chained) \
                == model.marked_ids(), f"step {step}"
            assert batched.root.mask == chained.root.mask
            assert audit_stripe_version(batched, model) == []

    def test_empty_and_missing_batches_return_the_version(self):
        rng = np.random.default_rng(42)
        v = stripe_init(make_points(rng, 20), 0.0)
        assert stripe_mark_lines(v, []) is v
        assert stripe_mark_lines(
            v, [(30.0, 31.0, BOT, UP, 0.5),
                (-3.0, -2.0, TOP, DOWN, -0.5)]) is v


class TestPersistence:
    def test_old_versions_stable_after_more_work(self):
        rng = np.random.default_rng(16)
        pts = make_points(rng, 80)
        v = stripe_init(pts, 0.0)
        versions = [v]
        naive = [set()]
        for _ in range(200):
            cx = float(rng.uniform(0, 20))
            cy = float(rng.uniform(-0.4, 1.4))
            v = stripe_mark(versions[-1], (cx, cy))
            versions.append(v)
            cur = set(naive[-1])
            for i, x, y in pts:
                if abs(x - cx) <= 0.5 and abs(y - cy) <= 0.5:
                    cur.add(i)
            naive.append(cur)
        # 1000 extra operations on top of the last version
        extra = versions[-1]
        for _ in range(1000):
            extra = stripe_mark(extra, (float(rng.uniform(0, 20)),
                                        float(rng.uniform(-0.4, 1.4))))
        for i in range(0, len(versions), 9):
            assert decode_marked(versions[i]) == naive[i]


class TestComplexityInstrumentation:
    def test_boundary_crossings_per_level_at_most_four(self):
        # width-1 marks meet each boundary at most twice, so at most four
        # covered-but-unresolved nodes can appear per level of one update
        rng = np.random.default_rng(17)
        pts = make_points(rng, 256)
        v = stripe_init(pts, 0.0)
        from kdiam import stripes as st

        orig_update = st._update
        per_level = {}

        def counting_update(static, node, parts):
            a, b = static.a[node.pos], static.b[node.pos]
            for l, r, side, j, c in parts:
                if r < a or b < l:
                    continue
                primary = node.bot if side == BOT else node.top
                if l <= a and b <= r and primary.lo[j] < c < primary.hi[j]:
                    lvl = static.level[node.pos]
                    per_level[lvl] = per_level.get(lvl, 0) + 1
            return orig_update(static, node, parts)

        st._update = counting_update
        try:
            for _ in range(300):
                per_level.clear()
                v = stripe_mark(v, (float(rng.uniform(0, 20)),
                                    float(rng.uniform(-0.6, 1.6))))
                assert all(count <= 4 for count in per_level.values()), \
                    per_level
        finally:
            st._update = orig_update

    def test_mark_cost_logarithmic_trend(self):
        rng = np.random.default_rng(18)
        ratios = []
        for exp in (8, 10, 12, 14):
            n = 2 ** exp
            width = n / 12.0
            pts = [(i, float(rng.uniform(0, width)), float(rng.uniform(0, 1)))
                   for i in range(n)]
            v = stripe_init(pts, 0.0)
            static = v.static
            base = static.mark_nodes
            marks = 300
            for _ in range(marks):
                v = stripe_mark(v, (float(rng.uniform(0, width)),
                                    float(rng.uniform(-0.5, 1.5))))
            per_mark = (static.mark_nodes - base) / marks
            ratios.append(per_mark / math.log2(n))
        assert max(ratios) <= 2.5 * min(ratios), ratios
