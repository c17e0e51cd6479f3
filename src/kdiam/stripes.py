"""Flat marking masks for one height-1 stripe.

The points of the band [y0, y0 + 1) sit at positions 0..s-1 in x order.  A
part ``(xlo, xhi, j, c)`` covers the points with x in [xlo, xhi] and
``dirs[j] . p <= c``; marks only add points, so a marked set is the OR of
its parts' masks, bit i for the point at position i.  Per direction the
stripe keeps its points' values ``dirs[j] . p`` sorted with the mask of
every prefix, so a part costs three bisects and the AND of a prefix mask
with a range mask: O(log s + s/w) word operations.
"""

from __future__ import annotations

import bisect
import operator
from itertools import accumulate
from typing import NamedTuple

UP = 0  # every stripe's dirs start with UP_DOWN: up (0, 1), down (0, -1)
DOWN = 1
UP_DOWN = ((0.0, 1.0), (0.0, -1.0))


class StripeError(ValueError):
    pass


class Stripe:
    """One band's points in x order and, per direction, their sorted values
    with prefix masks.  Counters: parts asked (``marks``), parts resolved by
    a bisect in the values (``mark_nodes``) and listings (``list_nodes``)."""

    def __init__(self, points, band_y0, dirs):
        if not points:
            raise StripeError("a stripe must hold at least one point")
        points = sorted(points, key=lambda p: (p[1], p[0]))
        self.ids = [pid for pid, _, _ in points]
        self.pts = [(x, y) for _, x, y in points]
        for pid, (x, y) in zip(self.ids, self.pts):
            if not (band_y0 <= y < band_y0 + 1.0):
                raise StripeError(f"point {pid} at y={y} outside band "
                                  f"[{band_y0}, {band_y0 + 1.0})")
        self.xs = [p[0] for p in self.pts]
        self.dirs = tuple(tuple(d) for d in dirs)
        if self.dirs[:2] != UP_DOWN:
            raise StripeError("dirs must start with up (0, 1) and down (0, -1)")
        if any(uy == 0 for _, uy in self.dirs):
            raise StripeError("boundary lines cannot be vertical")
        self.keys = []    # per dir: the sorted values dirs[j] . p
        self.pmasks = []  # per dir: the mask of each prefix of that order
        for ux, uy in self.dirs:
            ranked = sorted((ux * x + uy * y, pid, i) for i, (pid, (x, y))
                            in enumerate(zip(self.ids, self.pts)))
            self.keys.append([key for key, _, _ in ranked])
            self.pmasks.append(list(accumulate(
                (1 << i for _, _, i in ranked), operator.or_, initial=0)))
        self.marks = self.mark_nodes = self.list_nodes = 0

    def covered(self, xlo, xhi, j, c) -> int:
        """Mask of the points with x in [xlo, xhi] and ``dirs[j] . p <= c``."""
        self.marks += 1
        l = bisect.bisect_left(self.xs, xlo)
        r = bisect.bisect_right(self.xs, xhi)
        if l >= r:
            return 0
        self.mark_nodes += 1
        below = self.pmasks[j][bisect.bisect_right(self.keys[j], c)]
        return below & (1 << r) - (1 << l)


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


class StripeVersion(NamedTuple):
    """A marked subset of a stripe's points, as a mask."""
    stripe: Stripe
    mask: int


def stripe_init(points, band_y0, *, dirs=UP_DOWN) -> StripeVersion:
    """Empty version over the (id, x, y) points of the band [band_y0,
    band_y0 + 1); ``dirs`` starts with up and down (the default)."""
    return StripeVersion(Stripe(points, band_y0, dirs), 0)


def stripe_mark_line(version: StripeVersion, xlo, xhi, j, c) -> StripeVersion:
    """The version with what the part ``(xlo, xhi, j, c)`` covers added;
    the version itself when no point is gained."""
    mask = version.mask | version.stripe.covered(xlo, xhi, j, c)
    return version if mask == version.mask else version._replace(mask=mask)


def stripe_list_differences(v1: StripeVersion, v2: StripeVersion) -> list:
    """Point ids marked in exactly one of the two versions, in x order."""
    if v1.stripe is not v2.stripe:
        raise StripeError("versions come from different stripes")
    v1.stripe.list_nodes += 1
    return ids_of(v1.mask ^ v2.mask, v1.stripe.ids)
