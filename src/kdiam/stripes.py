"""Flat marking masks for one slab.

A slab ``lo <= normal . x <= hi`` centered at c covers the points whose
projection ``p = normal . point`` has ``lo <= p - c <= hi``: a contiguous
run of the points sorted by projection.  Float subtraction is monotone, so
two bisects on ``p - c`` find that run exactly where a direct comparison of
every ``p - c`` with ``lo`` and ``hi`` would put it.  The stripe keeps the
mask of every prefix of the sorted order, bit i for point i, so a lookup
costs two bisects and one XOR of prefix masks: O(log n + n/w) word
operations.
"""

from __future__ import annotations

import bisect
import operator
from itertools import accumulate
from typing import NamedTuple


class StripeError(ValueError):
    pass


class Stripe:
    """One slab's point projections, sorted, with the mask of each prefix.
    Counters: lookups (``marks``), lookups that found a point
    (``mark_nodes``) and listings (``list_nodes``)."""

    def __init__(self, keys):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.keys = [keys[i] for i in order]
        self.pmasks = list(accumulate((1 << i for i in order), operator.or_,
                                      initial=0))
        self.marks = self.mark_nodes = self.list_nodes = 0

    def covered(self, c: float, lo: float, hi: float) -> int:
        """Mask of the points whose projection p has ``lo <= p - c <= hi``."""
        self.marks += 1

        def offset(p):
            return p - c

        first = bisect.bisect_left(self.keys, lo, key=offset)
        end = bisect.bisect_right(self.keys, hi, key=offset)
        if first == end:
            return 0
        self.mark_nodes += 1
        return self.pmasks[end] ^ self.pmasks[first]


_BYTE_BITS = tuple(tuple(i for i in range(8) if v >> i & 1)
                   for v in range(256))


def ids_of(mask: int) -> list:
    """Every set bit i of ``mask``, in increasing i: one step per byte of
    the mask plus one per set bit."""
    if not mask:
        return []
    out = []
    append = out.append
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                append(base + i)
        base += 8
    return out


class StripeVersion(NamedTuple):
    """A marked subset of a stripe's points, as a mask."""
    stripe: Stripe
    mask: int


def stripe_init(keys) -> StripeVersion:
    """Empty version over the points whose projections on the slab's normal
    are ``keys``; point i is the one at ``keys[i]``."""
    return StripeVersion(Stripe(keys), 0)


def stripe_mark_line(version: StripeVersion, c: float, lo: float,
                     hi: float) -> StripeVersion:
    """The version with what the slab ``[lo, hi]`` centered at projection
    ``c`` covers added; the version itself when no point is gained."""
    mask = version.mask | version.stripe.covered(c, lo, hi)
    return version if mask == version.mask else version._replace(mask=mask)


def stripe_list_differences(v1: StripeVersion, v2: StripeVersion) -> list:
    """Point ids marked in exactly one of the two versions, in increasing
    order."""
    if v1.stripe is not v2.stripe:
        raise StripeError("versions come from different stripes")
    v1.stripe.list_nodes += 1
    return ids_of(v1.mask ^ v2.mask)
