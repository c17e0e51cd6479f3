"""Persistent lazily-propagated marking tree for one height-1 stripe.

Points of the stripe are leaves in x order.  Marks arrive as half-plane
boundaries clipped to an x range: a *bottom* update raises the stripe's
bottom boundary (covering everything below a line whose normal points up),
a *top* update lowers the top boundary.  A point is marked when it lies
below the bottom boundary or above the top boundary.  Every node keeps, per
boundary, either the exact line (when the boundary is a single segment over
the node) or its directional extremes, plus XOR fingerprints of the covered
points; nodes are copied on write so every root is an immutable snapshot.

The rules the tree maintains:
  1. a node's stored fields never change after creation (persistence);
  2..4. a field may be stale only while some ancestor carries the matching
     lazy flag ("outdated");
  5. operations push lazy flags before entering children, so entered nodes
     are never outdated;
  6. a lazy node's boundary is a single line and the two covered regions are
     uniformly nested or uniformly crossed over the node's points (split);
  7. a node over at most ``WORD`` points is a *word node*: its ``mask`` is
     the exact marked subset of its points, bit ``i - a`` for stripe
     position ``i``; larger nodes keep ``mask = 0``.

The mask is kept by union: a lazy install or a lazy push ORs in the line's
covered bits, and a merge ORs the left mask with the right mask shifted by
the left size.  Union is exact because marks only add points and a line is
installed only where it dominates the boundary it replaces, so the points
the old boundary (stale or not) covered are covered by the new line too.
Listing stops at a word node and reads the differing points off the XOR of
the two masks, in position order, without pushing or descending further.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hashing import draw_fingerprints

BOT = 0
TOP = 1
UP = 0  # every stripe's dirs start with UP_DOWN: up (0, 1), down (0, -1)
DOWN = 1
UP_DOWN = ((0.0, 1.0), (0.0, -1.0))
WORD = 64  # points per word node: the bottom levels are packed into masks


class StripeError(ValueError):
    pass


class _Boundary(NamedTuple):
    """One boundary's state over a node: the exact line (direction index,
    offset) when it is a single segment, else None; plus min/max of the
    boundary samples along every direction."""

    line: tuple | None
    lo: tuple
    hi: tuple


class _Node:
    __slots__ = ("pos", "left", "right", "bot", "top",
                 "bot_lazy", "top_lazy", "bot_hash", "top_hash", "hash",
                 "mask", "pushed")

    def __init__(self, pos, left, right, bot, top,
                 bot_lazy, top_lazy, bot_hash, top_hash, hash_, mask):
        self.pos = pos
        self.left = left
        self.right = right
        self.bot = bot
        self.top = top
        self.bot_lazy = bot_lazy
        self.top_lazy = top_lazy
        self.bot_hash = bot_hash
        self.top_hash = top_hash
        self.hash = hash_
        self.mask = mask
        self.pushed = None  # memoized non-lazy equivalent

    @property
    def is_leaf(self):
        return self.left is None


class StripeStatic:
    """Immutable per-stripe data shared by all versions: the point layout,
    per-direction sort orders with prefix fingerprints (and, on word nodes,
    prefix masks), and the tree shape."""

    def __init__(self, point_ids, coords, fingerprints, band_y0, dirs):
        order = sorted(range(len(point_ids)),
                       key=lambda i: (coords[i][0], point_ids[i]))
        self.ids = [point_ids[i] for i in order]
        self.pts = [tuple(coords[i]) for i in order]
        self.h = [fingerprints[point_ids[i]] for i in order]
        self.y0 = band_y0
        self.y1 = band_y0 + 1.0
        for pid, (x, y) in zip(self.ids, self.pts):
            if not (self.y0 <= y < self.y1):
                raise StripeError(f"point {pid} at y={y} outside band "
                                  f"[{self.y0}, {self.y1})")
        self.xs = [p[0] for p in self.pts]
        self.dirs = tuple(tuple(d) for d in dirs)
        if self.dirs[:2] != UP_DOWN:
            raise StripeError("dirs must start with up (0, 1) and down (0, -1)")
        n = len(self.ids)
        self.a = []
        self.b = []
        self.xlo = []
        self.xhi = []
        self.left_pos = []
        self.right_pos = []
        self.level = []
        self.keys = []   # per pos, per dir: sorted u.p values
        self.prefs = []  # per pos, per dir: XOR prefix fingerprints
        self.pmasks = []  # per word-node pos, per dir: prefix masks; else None
        self._build(0, n - 1, 0)
        self.root_pos = len(self.a) - 1
        self.marks = 0
        self.mark_nodes = 0
        self.list_nodes = 0
        # Lines repeat across versions (lazy pushes re-derive the same
        # boundary at the same node), so each line's state is memoized.
        self._line_cache = {}

    def _build(self, a, b, level):
        if a < b:
            m = (a + b) // 2
            lp = self._build(a, m, level + 1)
            rp = self._build(m + 1, b, level + 1)
        else:
            lp = rp = -1
        pos = len(self.a)
        self.a.append(a)
        self.b.append(b)
        self.xlo.append(self.xs[a])
        self.xhi.append(self.xs[b])
        self.left_pos.append(lp)
        self.right_pos.append(rp)
        self.level.append(level)
        word = b - a < WORD
        keys_here = []
        prefs_here = []
        pmasks_here = [] if word else None
        for ux, uy in self.dirs:
            idx = sorted(range(a, b + 1),
                         key=lambda i: (ux * self.pts[i][0] + uy * self.pts[i][1],
                                        self.ids[i]))
            keys_here.append([ux * self.pts[i][0] + uy * self.pts[i][1]
                              for i in idx])
            pref = [0]
            for i in idx:
                pref.append(pref[-1] ^ self.h[i])
            prefs_here.append(pref)
            if word:
                pmask = [0]
                for i in idx:
                    pmask.append(pmask[-1] | 1 << (i - a))
                pmasks_here.append(pmask)
        self.keys.append(keys_here)
        self.prefs.append(prefs_here)
        self.pmasks.append(pmasks_here)
        return pos

    @property
    def size(self):
        return len(self.ids)

    def full_hash(self, pos) -> int:
        return self.prefs[pos][0][-1]

    def line_state(self, pos, j, c) -> tuple:
        """(boundary, covered fingerprint, covered mask) of the line
        ``dirs[j] . p = c`` over the node at ``pos``; fingerprint and mask
        are of the node's points with ``dirs[j] . p <= c`` (the mask is 0
        above word nodes)."""
        key = (pos, j, c)
        cached = self._line_cache.get(key)
        if cached is None:
            ux, uy = self.dirs[j]
            if uy == 0:
                raise StripeError("boundary lines cannot be vertical")
            x0, x1 = self.xlo[pos], self.xhi[pos]
            y0 = (c - ux * x0) / uy
            y1 = (c - ux * x1) / uy
            lo = []
            hi = []
            for vx, vy in self.dirs:
                d0 = vx * x0 + vy * y0
                d1 = vx * x1 + vy * y1
                if d0 <= d1:
                    lo.append(d0)
                    hi.append(d1)
                else:
                    lo.append(d1)
                    hi.append(d0)
            count = bisect.bisect_right(self.keys[pos][j], c)
            pmasks = self.pmasks[pos]
            cached = (_Boundary((j, c), tuple(lo), tuple(hi)),
                      self.prefs[pos][j][count],
                      pmasks[j][count] if pmasks is not None else 0)
            self._line_cache[key] = cached
        return cached


def _merge_boundary(b1: _Boundary, b2: _Boundary) -> _Boundary:
    line = b1.line if (b1.line is not None and b1.line == b2.line) else None
    return _Boundary(line,
                     tuple([a if a <= b else b for a, b in zip(b1.lo, b2.lo)]),
                     tuple([a if a >= b else b for a, b in zip(b1.hi, b2.hi)]))


def _combined_hash(static, pos, bot, top, bot_hash, top_hash) -> int:
    """Node fingerprint from its two boundary regions.  Needs at least one
    side to be a line; the regions are then uniformly disjoint (xor) or
    uniformly overlapping (everything covered)."""
    if bot.line is not None:
        j, c = bot.line
        if top.lo[j] > c:
            return bot_hash ^ top_hash
        if top.hi[j] <= c:
            return static.full_hash(pos)
    if top.line is not None:
        j, c = top.line
        if bot.lo[j] > c:
            return bot_hash ^ top_hash
        if bot.hi[j] <= c:
            return static.full_hash(pos)
    raise StripeError("boundary relation is not uniform over the node")


@dataclass(frozen=True)
class StripeVersion:
    """Immutable snapshot: a root node of the persistent tree."""

    static: StripeStatic
    root: _Node


def stripe_init(points, band_y0, rng_or_fingerprints, *,
                dirs=UP_DOWN) -> StripeVersion:
    """Empty-marking version over the given (id, x, y) points of the band
    [band_y0, band_y0 + 1).

    ``rng_or_fingerprints`` is either a numpy Generator (fingerprints are
    drawn from it) or a prebuilt {id: fingerprint} mapping shared with a
    larger structure.  ``dirs`` starts with up and down, at the indices
    ``UP`` and ``DOWN``; the default is those two only, all a unit square's
    marks use.
    """
    ids = [p[0] for p in points]
    coords = [(p[1], p[2]) for p in points]
    if not ids:
        raise StripeError("a stripe must hold at least one point")
    if isinstance(rng_or_fingerprints, np.random.Generator):
        fps = dict(zip(ids, draw_fingerprints(rng_or_fingerprints, len(ids))))
    else:
        fps = rng_or_fingerprints
    static = StripeStatic(ids, coords, fps, band_y0, dirs)
    root = _init_node(static, static.root_pos)
    return StripeVersion(static, root)


def _init_node(static, pos) -> _Node:
    # Bottom starts below the band (a point lying exactly on the band floor
    # is inside the stripe and must start unmarked); top starts at the band
    # ceiling, which no point reaches.
    bot = static.line_state(pos, UP, static.y0 - 1.0)[0]
    top = static.line_state(pos, DOWN, -static.y1)[0]
    lp, rp = static.left_pos[pos], static.right_pos[pos]
    left = _init_node(static, lp) if lp >= 0 else None
    right = _init_node(static, rp) if rp >= 0 else None
    return _Node(pos, left, right, bot, top, False, False, 0, 0, 0, 0)


def _apply_lazy(static, child, bot_line, top_line) -> _Node:
    """Copy of a child with the parent's lazy line boundaries installed.
    Both sides are applied before the fingerprint is recombined, so a
    both-lazy parent never mixes a fresh line with a stale opposite side.
    The lines dominate what the child's stale sides covered, so the mask is
    the child's mask united with the lines' covered bits."""
    internal = child.left is not None
    bot, bot_hash, bot_lazy = child.bot, child.bot_hash, child.bot_lazy
    top, top_hash, top_lazy = child.top, child.top_hash, child.top_lazy
    mask = child.mask
    if bot_line is not None:
        bot, bot_hash, covered = static.line_state(child.pos, *bot_line)
        bot_lazy = internal
        mask |= covered
    if top_line is not None:
        top, top_hash, covered = static.line_state(child.pos, *top_line)
        top_lazy = internal
        mask |= covered
    combined = _combined_hash(static, child.pos, bot, top, bot_hash, top_hash)
    return _Node(child.pos, child.left, child.right, bot, top,
                 bot_lazy, top_lazy, bot_hash, top_hash, combined, mask)


def stripe_push(version_or_node, static=None) -> _Node:
    """Equivalent non-lazy copy of a lazy node, with updated children.

    Children are copied and receive the parent's line boundaries; their own
    deeper descendants stay stale until entered.  Non-lazy nodes are
    returned unchanged; the pushed copy is memoized on the node so repeated
    reads of one version do the work once.
    """
    node = version_or_node.root if isinstance(version_or_node, StripeVersion) \
        else version_or_node
    if static is None:
        static = version_or_node.static
    if not (node.bot_lazy or node.top_lazy):
        return node
    if node.pushed is not None:
        return node.pushed
    bot_line = node.bot.line if node.bot_lazy else None
    top_line = node.top.line if node.top_lazy else None
    left = _apply_lazy(static, node.left, bot_line, top_line)
    right = _apply_lazy(static, node.right, bot_line, top_line)
    out = _Node(node.pos, left, right, node.bot, node.top, False, False,
                node.bot_hash, node.top_hash, node.hash, node.mask)
    node.pushed = out
    return out


def _update(static, node, parts) -> _Node:
    """Apply ``parts``, each an ``(l, r, side, j, c)`` line update over the
    leaf positions l..r, in one descent.  A part is dropped where it misses
    the node or is dominated, installed lazily where it covers the node and
    the other boundary is uniformly related to its line, and otherwise sent
    on to both children.  The marked set is a union, so installing some
    parts before parts sent down gives the same set as applying them in
    their given order."""
    static.mark_nodes += 1
    pos = node.pos
    a, b = static.a[pos], static.b[pos]
    rest = []
    for part in parts:
        l, r, side, j, c = part
        if r < a or b < l:
            continue
        primary = node.bot if side == BOT else node.top
        if primary.lo[j] >= c:
            # The boundary already dominates the new line here: no point gains.
            continue
        if l <= a and b <= r and primary.hi[j] <= c:
            other = node.top if side == BOT else node.bot
            disjoint = other.lo[j] > c
            if disjoint or other.hi[j] <= c:
                boundary, covered, bits = static.line_state(pos, j, c)
                lazy = node.left is not None
                mask = node.mask | bits
                if side == BOT:
                    combined = covered ^ node.top_hash if disjoint \
                        else static.full_hash(pos)
                    node = _Node(pos, node.left, node.right, boundary,
                                 node.top, lazy, node.top_lazy, covered,
                                 node.top_hash, combined, mask)
                else:
                    combined = node.bot_hash ^ covered if disjoint \
                        else static.full_hash(pos)
                    node = _Node(pos, node.left, node.right, node.bot,
                                 boundary, node.bot_lazy, lazy, node.bot_hash,
                                 covered, combined, mask)
                continue
            # The other boundary straddles the line: resolve below.
        rest.append(part)
    if not rest:
        return node
    pushed = stripe_push(node, static)
    left = _update(static, pushed.left, rest)
    right = _update(static, pushed.right, rest)
    if left is pushed.left and right is pushed.right:
        return node
    # A side whose child boundaries are the pushed ones has not moved and is
    # carried over from the (correct, entered) parent.
    if left.bot is pushed.left.bot and right.bot is pushed.right.bot:
        bot, bot_hash = pushed.bot, pushed.bot_hash
    else:
        bot = _merge_boundary(left.bot, right.bot)
        bot_hash = left.bot_hash ^ right.bot_hash
    if left.top is pushed.left.top and right.top is pushed.right.top:
        top, top_hash = pushed.top, pushed.top_hash
    else:
        top = _merge_boundary(left.top, right.top)
        top_hash = left.top_hash ^ right.top_hash
    mask = left.mask | right.mask << (static.a[right.pos] - a) \
        if b - a < WORD else 0
    return _Node(pos, left, right, bot, top, False, False,
                 bot_hash, top_hash, left.hash ^ right.hash, mask)


def stripe_mark_lines(version: StripeVersion, parts) -> StripeVersion:
    """New version whose marked set gains, for every ``(xlo, xhi, side, j,
    c)`` in ``parts``, the points with x in [xlo, xhi] on the covered side
    of the line ``dirs[j] . p <= c``; all parts share one descent."""
    static = version.static
    xs = static.xs
    located = []
    for xlo, xhi, side, j, c in parts:
        l = bisect.bisect_left(xs, xlo)
        r = bisect.bisect_right(xs, xhi) - 1
        if l <= r:
            located.append((l, r, side, j, c))
    if not located:
        return version
    static.marks += len(located)
    root = _update(static, version.root, located)
    if root is version.root:
        return version
    return StripeVersion(static, root)


def stripe_mark_line(version: StripeVersion, xlo, xhi, side, j, c) -> StripeVersion:
    """:func:`stripe_mark_lines` with the single part ``(xlo, xhi, side, j,
    c)``."""
    return stripe_mark_lines(version, ((xlo, xhi, side, j, c),))


def stripe_mark(version: StripeVersion, center) -> StripeVersion:
    """Unit-square mark: covers the stripe's points inside the axis-aligned
    unit square at ``center``.  A square reaching the band floor (ties
    included) raises the bottom boundary; otherwise it lowers the top one.
    """
    static = version.static
    cx, cy = center
    if cy + 0.5 < static.y0 or cy - 0.5 >= static.y1:
        return version
    if cy <= static.y0 + 0.5:
        return stripe_mark_line(version, cx - 0.5, cx + 0.5,
                                BOT, UP, cy + 0.5)
    return stripe_mark_line(version, cx - 0.5, cx + 0.5,
                            TOP, DOWN, -(cy - 0.5))


def stripe_list_differences(v1: StripeVersion, v2: StripeVersion) -> list:
    """Point ids marked in exactly one of the two versions, in x order.
    Descends both trees together, pruning subtrees with equal fingerprints,
    down to word nodes, whose differing points are the set bits of the XOR
    of the two masks."""
    if v1.static is not v2.static:
        raise StripeError("versions come from different stripes")
    static = v1.static
    out = []
    _list_diff(static, v1.root, v2.root, out)
    return out


def _list_diff(static, n1, n2, out):
    static.list_nodes += 1
    if n1 is n2 or n1.hash == n2.hash:
        return
    a = static.a[n1.pos]
    if static.b[n1.pos] - a < WORD:
        ids = static.ids
        diff = n1.mask ^ n2.mask
        while diff:
            low = diff & -diff
            out.append(ids[a + low.bit_length() - 1])
            diff ^= low
        return
    n1 = stripe_push(n1, static)
    n2 = stripe_push(n2, static)
    _list_diff(static, n1.left, n2.left, out)
    _list_diff(static, n1.right, n2.right, out)


def decode_marked(version: StripeVersion) -> set:
    """The full marked point-id set of a version, without fingerprint
    pruning (test oracle support)."""
    static = version.static
    out = set()

    def visit(node):
        if node.is_leaf:
            if node.hash != 0:
                out.add(static.ids[static.a[node.pos]])
            return
        node = stripe_push(node, static)
        visit(node.left)
        visit(node.right)

    visit(version.root)
    return out
