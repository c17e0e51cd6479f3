"""Persistent lazily-propagated marking tree for one height-1 stripe.

Points of the stripe are leaves in x order.  Marks arrive as half-plane
boundaries clipped to an x range: a *bottom* update raises the stripe's
bottom boundary (covering everything below a line whose normal points up),
a *top* update lowers the top boundary.  A point is marked when it lies
below the bottom boundary or above the top boundary.  Every node keeps, per
boundary, either the exact line (when the boundary is a single segment over
the node) or its directional extremes, plus the exact mask of the points
that boundary covers, bit ``i - a`` for stripe position ``i``; the node's
marked set is the OR of its two masks.  Nodes are copied on write so every
root is an immutable snapshot.

The rules the tree maintains:
  1. a node's stored fields never change after creation (persistence);
  2..4. a field may be stale only while some ancestor carries the matching
     lazy flag ("outdated");
  5. operations push lazy flags before entering children, so entered nodes
     are never outdated;
  6. a lazy node's boundary is a single line.

A line is installed (lazily above the leaves) where it covers the node and
dominates the boundary it replaces, so the points the old boundary covered
are covered by the line too and the line's covered mask is the side's new
mask; the other side is left as it is.  A merge ORs the left child's mask
with the right child's shifted by the left size.  Listing reads the
differing points off the XOR of two root masks, in position order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

BOT = 0
TOP = 1
UP = 0  # every stripe's dirs start with UP_DOWN: up (0, 1), down (0, -1)
DOWN = 1
UP_DOWN = ((0.0, 1.0), (0.0, -1.0))


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
                 "bot_lazy", "top_lazy", "bot_mask", "top_mask", "pushed")

    def __init__(self, pos, left, right, bot, top,
                 bot_lazy, top_lazy, bot_mask, top_mask):
        self.pos = pos
        self.left = left
        self.right = right
        self.bot = bot
        self.top = top
        self.bot_lazy = bot_lazy
        self.top_lazy = top_lazy
        self.bot_mask = bot_mask
        self.top_mask = top_mask
        self.pushed = None  # memoized non-lazy equivalent

    @property
    def is_leaf(self):
        return self.left is None

    @property
    def mask(self) -> int:
        """The node's marked subset, bit ``i - a`` for stripe position i."""
        return self.bot_mask | self.top_mask


class StripeStatic:
    """Immutable per-stripe data shared by all versions: the point layout,
    per-direction sort orders with prefix masks, and the tree shape."""

    def __init__(self, point_ids, coords, band_y0, dirs):
        order = sorted(range(len(point_ids)),
                       key=lambda i: (coords[i][0], point_ids[i]))
        self.ids = [point_ids[i] for i in order]
        self.pts = [tuple(coords[i]) for i in order]
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
        self.keys = []    # per pos, per dir: sorted u.p values
        self.pmasks = []  # per pos, per dir: prefix masks in that order
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
        keys_here = []
        pmasks_here = []
        for ux, uy in self.dirs:
            idx = sorted(range(a, b + 1),
                         key=lambda i: (ux * self.pts[i][0] + uy * self.pts[i][1],
                                        self.ids[i]))
            keys_here.append([ux * self.pts[i][0] + uy * self.pts[i][1]
                              for i in idx])
            pmask = [0]
            for i in idx:
                pmask.append(pmask[-1] | 1 << (i - a))
            pmasks_here.append(pmask)
        self.keys.append(keys_here)
        self.pmasks.append(pmasks_here)
        return pos

    @property
    def size(self):
        return len(self.ids)

    def line_state(self, pos, j, c) -> tuple:
        """(boundary, covered mask) of the line ``dirs[j] . p = c`` over the
        node at ``pos``; the mask is of the node's points with
        ``dirs[j] . p <= c``."""
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
            cached = (_Boundary((j, c), tuple(lo), tuple(hi)),
                      self.pmasks[pos][j][count])
            self._line_cache[key] = cached
        return cached


def _merge_boundary(b1: _Boundary, b2: _Boundary) -> _Boundary:
    line = b1.line if (b1.line is not None and b1.line == b2.line) else None
    return _Boundary(line,
                     tuple([a if a <= b else b for a, b in zip(b1.lo, b2.lo)]),
                     tuple([a if a >= b else b for a, b in zip(b1.hi, b2.hi)]))


_BYTE_BITS = tuple(tuple(i for i in range(8) if v >> i & 1)
                   for v in range(256))


def ids_of(mask: int, ids) -> list:
    """``ids[i]`` for every set bit i of ``mask``, in increasing i: one step
    per byte of the mask plus one per set bit."""
    out = []
    append = out.append
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                append(ids[base + i])
        base += 8
    return out


@dataclass(frozen=True)
class StripeVersion:
    """Immutable snapshot: a root node of the persistent tree."""

    static: StripeStatic
    root: _Node


def stripe_init(points, band_y0, *, dirs=UP_DOWN) -> StripeVersion:
    """Empty-marking version over the given (id, x, y) points of the band
    [band_y0, band_y0 + 1).

    ``dirs`` starts with up and down, at the indices ``UP`` and ``DOWN``;
    the default is those two only, all a unit square's marks use.
    """
    ids = [p[0] for p in points]
    coords = [(p[1], p[2]) for p in points]
    if not ids:
        raise StripeError("a stripe must hold at least one point")
    static = StripeStatic(ids, coords, band_y0, dirs)
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
    return _Node(pos, left, right, bot, top, False, False, 0, 0)


def _apply_lazy(static, child, bot_line, top_line) -> _Node:
    """Copy of a child with the parent's lazy line boundaries installed.
    Each line dominates what the child's (possibly stale) side covered, so
    its covered mask is that side's mask."""
    internal = child.left is not None
    bot, bot_mask, bot_lazy = child.bot, child.bot_mask, child.bot_lazy
    top, top_mask, top_lazy = child.top, child.top_mask, child.top_lazy
    if bot_line is not None:
        bot, bot_mask = static.line_state(child.pos, *bot_line)
        bot_lazy = internal
    if top_line is not None:
        top, top_mask = static.line_state(child.pos, *top_line)
        top_lazy = internal
    return _Node(child.pos, child.left, child.right, bot, top,
                 bot_lazy, top_lazy, bot_mask, top_mask)


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
                node.bot_mask, node.top_mask)
    node.pushed = out
    return out


def _update(static, node, parts) -> _Node:
    """Apply ``parts``, each an ``(l, r, side, j, c)`` line update over the
    leaf positions l..r, in one descent.  A part is dropped where it misses
    the node or is dominated, installed lazily where it covers the node and
    dominates that side's boundary, and otherwise sent on to both children.
    The marked set is a union, so installing some parts before parts sent
    down gives the same set as applying them in their given order."""
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
            boundary, covered = static.line_state(pos, j, c)
            lazy = node.left is not None
            if side == BOT:
                node = _Node(pos, node.left, node.right, boundary, node.top,
                             lazy, node.top_lazy, covered, node.top_mask)
            else:
                node = _Node(pos, node.left, node.right, node.bot, boundary,
                             node.bot_lazy, lazy, node.bot_mask, covered)
            continue
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
    shift = static.a[right.pos] - a
    if left.bot is pushed.left.bot and right.bot is pushed.right.bot:
        bot, bot_mask = pushed.bot, pushed.bot_mask
    else:
        bot = _merge_boundary(left.bot, right.bot)
        bot_mask = left.bot_mask | right.bot_mask << shift
    if left.top is pushed.left.top and right.top is pushed.right.top:
        top, top_mask = pushed.top, pushed.top_mask
    else:
        top = _merge_boundary(left.top, right.top)
        top_mask = left.top_mask | right.top_mask << shift
    return _Node(pos, left, right, bot, top, False, False, bot_mask, top_mask)


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
    """Point ids marked in exactly one of the two versions, in x order: the
    set bits of the XOR of the two root masks."""
    if v1.static is not v2.static:
        raise StripeError("versions come from different stripes")
    static = v1.static
    static.list_nodes += 1
    return ids_of(v1.root.mask ^ v2.root.mask, static.ids)


def decode_marked(version: StripeVersion) -> set:
    """The full marked point-id set of a version, read from the leaves
    after pushing every lazy line down (test oracle support)."""
    static = version.static
    out = set()

    def visit(node):
        if node.is_leaf:
            if node.mask:
                out.add(static.ids[static.a[node.pos]])
            return
        node = stripe_push(node, static)
        visit(node.left)
        visit(node.right)

    visit(version.root)
    return out
