"""Flat marking masks for one slab.

A slab ``lo <= normal . x <= hi`` centered at c covers the points whose
projection ``p = normal . point`` has ``lo <= p - c <= hi``: a contiguous
run of the points sorted by projection.  The stripe keeps the projections
sorted, as a float64 array, and the mask of every prefix of that order, bit
i for point i, so a cover is ``pmasks[end] ^ pmasks[first]``.

:meth:`Stripe.covers` finds the runs of many centers at once: one
``np.searchsorted`` per bound on ``c + lo`` and ``c + hi``, then an exact
fix-up.  Float subtraction is monotone, so ``p - c < lo`` (and
``p - c <= hi``) holds on a prefix of the sorted projections; the fix-up
moves each estimate over whole runs of equal projections until it sits on
that prefix's end, comparing ``p - c`` with the bound in the same doubles
the oracle compares.  ``c + lo`` is off from the true boundary by rounding
only, so the fix-up steps once per distinct projection that rounding put on
the wrong side, whatever the number of points that share it.  A batch of m
centers costs O(m log n) numpy work and m XORs of prefix masks.

A marked set is a plain ``int`` mask, bit i for point i.  The plane
structure builds its stripes with :func:`stripe_init` and calls
:meth:`Stripe.covers`; :meth:`Stripe.covered` is its one-center case.
:func:`stripe_mark_line` and :func:`stripe_list_differences` stay, on ints,
because the benchmark's tracer hooks them (and :func:`stripe_init`) by
name.
"""

from __future__ import annotations

import operator
from itertools import accumulate

import numpy as np

from .graph import ids_of


class Stripe:
    """One slab's point projections, sorted, with the mask of each prefix.
    Counters: lookups, one per center (``marks``), lookups that found a
    point (``mark_nodes``) and listings (``list_nodes``)."""

    def __init__(self, keys):
        keys = np.asarray(keys, dtype=np.float64)
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.pmasks = list(accumulate((1 << i for i in order.tolist()),
                                      operator.or_, initial=0))
        self.marks = self.mark_nodes = self.list_nodes = 0

    def _prefix(self, cs, bound: float, side: str):
        """Per center c, how many sorted projections p have ``p - c <
        bound`` (side "left") or ``p - c <= bound`` (side "right")."""
        keys = self.keys
        inside = np.less if side == "left" else np.less_equal
        i = np.searchsorted(keys, cs + bound, side)
        while True:
            back = np.flatnonzero(i > 0)
            back = back[~inside(keys[i[back] - 1] - cs[back], bound)]
            fwd = np.flatnonzero(i < len(keys))
            fwd = fwd[inside(keys[i[fwd]] - cs[fwd], bound)]
            if not (back.size or fwd.size):
                return i
            # step over the whole run of projections equal to the one
            # just tested
            i[back] = np.searchsorted(keys, keys[i[back] - 1], "left")
            i[fwd] = np.searchsorted(keys, keys[i[fwd]], "right")

    def covers(self, cs, lo: float, hi: float) -> list[int]:
        """Per center projection c in ``cs``, the mask of the points whose
        projection p has ``lo <= p - c <= hi``."""
        cs = np.asarray(cs, dtype=np.float64)
        first = self._prefix(cs, lo, "left")
        end = self._prefix(cs, hi, "right")
        self.marks += len(cs)
        self.mark_nodes += int(np.count_nonzero(first < end))
        pm = self.pmasks
        return [pm[e] ^ pm[f] for f, e in zip(first.tolist(), end.tolist())]

    def covered(self, c: float, lo: float, hi: float) -> int:
        """Mask of the points whose projection p has ``lo <= p - c <= hi``."""
        return self.covers([c], lo, hi)[0]


def stripe_init(keys) -> Stripe:
    """The stripe over the points whose projections on the slab's normal
    are ``keys``; point i is the one at ``keys[i]``."""
    return Stripe(keys)


def stripe_mark_line(stripe: Stripe, mask: int, c: float, lo: float,
                     hi: float) -> int:
    """``mask`` with what the slab ``[lo, hi]`` centered at projection
    ``c`` covers added."""
    return mask | stripe.covered(c, lo, hi)


def stripe_list_differences(stripe: Stripe, m1: int, m2: int) -> list:
    """Point ids marked in exactly one of the two masks, in increasing
    order."""
    stripe.list_nodes += 1
    return ids_of(m1 ^ m2)
