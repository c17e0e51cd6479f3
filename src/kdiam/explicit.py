"""Interval-encoded k-diameter algorithm for explicitly given sparse graphs.

Balls are kept as canonical interval sets over a vertex order chosen so the
weighted total interval count stays sub-quadratic.  Growing the radius by one
is: sweep-union over neighbors' representations, reorder, re-express under
the new order via consecutive-difference endpoint extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import intervals, order
from .graph import Graph, neighborhood
from .intervals import IntervalSets

# Most intervals one bulk union or difference sweep takes in.  Larger work is
# split into blocks of consecutive vertices, which bounds the memory of the
# endpoint-event arrays (about a dozen int64 arrays of up to 2 * BLOCK
# entries each) without changing any result.  On 400-vertex sparse graphs
# 16,384 raised peak RSS by 2 MB over the tuple-based sweep it replaced,
# while 4,096 stays level with it and costs about 5% in speed.
BLOCK = 4_096


@dataclass(frozen=True)
class BallEncoding:
    """Per-vertex interval representations of radius-``radius`` balls under
    ``order``; decoding rep[v] through the order yields exactly the ball."""

    order: tuple
    reps: IntervalSets
    radius: int

    @property
    def n(self):
        return len(self.order)

    def decode(self, v: int) -> set:
        order = self.order
        return {order[p - 1] for p in intervals.positions(self.reps[v])}


def initial_encoding(g: Graph, order=None) -> BallEncoding:
    """Radius-0 encoding: every ball is the vertex itself."""
    if order is None:
        order = tuple(range(g.n))
    pos = np.empty(g.n, dtype=np.int64)
    pos[np.asarray(order, dtype=np.int64)] = np.arange(1, g.n + 1)
    reps = IntervalSets(np.arange(g.n + 1, dtype=np.int64), pos, pos.copy())
    return BallEncoding(tuple(order), reps, 0)


def _blocks(weights):
    """(lo, hi) bounds of consecutive runs of items whose weights sum to at
    most ``BLOCK`` (an item heavier than that gets a run of its own)."""
    cum = np.cumsum(weights)
    lo, done = 0, 0
    while lo < len(cum):
        hi = max(int(np.searchsorted(cum, done + BLOCK, side="right")), lo + 1)
        yield lo, hi
        lo, done = hi, int(cum[hi - 1])


def _closed_unions(g: Graph, reps: IntervalSets) -> IntervalSets:
    """For every vertex v, the union of the sets of v and its neighbours."""
    n = g.n
    indptr, indices = g.csr
    # Closed-neighbourhood CSR: each vertex first, then its neighbours.
    cptr = indptr + np.arange(n + 1)
    cidx = np.insert(indices, indptr[:-1], np.arange(n))
    member_counts = reps.counts()[cidx]
    counts, starts, ends = [], [], []
    for lo, hi in _blocks(np.add.reduceat(member_counts, cptr[:-1])):
        owner = np.repeat(np.arange(hi - lo), np.diff(cptr[lo:hi + 1]))
        rows = intervals.union_sweep(reps.take(cidx[cptr[lo]:cptr[hi]]),
                                     owner, n)
        counts.append(np.bincount(rows[:, 0], minlength=hi - lo))
        starts.append(rows[:, 1].copy())  # copies, so each block's rows
        ends.append(rows[:, 2].copy())    # are freed with the block
    return IntervalSets(intervals.offsets_of(np.concatenate(counts)),
                        np.concatenate(starts), np.concatenate(ends))


def rebase(reps_old, order_old, order_new) -> IntervalSets:
    """Re-express per-vertex interval sets under a new order.

    Under the new order, position i opens an interval of rep[x] exactly when
    x is in ball(v_i) but not ball(v_i-1), and closes one when x is in
    ball(v_i) but not ball(v_i+1); both fall out of one difference sweep
    over the old representations of each consecutive new-order pair.  The
    first position opens all of ball(v_1), the last closes all of ball(v_n).
    ``reps_old`` is an :class:`IntervalSets` or a sequence of canonical
    interval tuples.
    """
    n = len(order_old)
    if len(order_new) != n or len(reps_old) != n:
        raise ValueError("orders and representations must agree in size")
    if not isinstance(reps_old, IntervalSets):
        reps_old = IntervalSets.from_reps(reps_old)
    old_vertex = np.asarray(order_old, dtype=np.int64)
    # Sets P_0 .. P_{n+1}: P_i is the set of the i-th new-order vertex and
    # P_0 = P_{n+1} is empty.  Pair j compares P_j with P_{j+1}: positions
    # only in P_j close at j, positions only in P_{j+1} open at j + 1.
    seq = np.asarray(order_new, dtype=np.int64)
    seq_counts = np.zeros(n + 2, dtype=np.int64)
    seq_counts[1:-1] = reps_old.counts()[seq]
    lefts, rights = [], []
    for lo, hi in _blocks(seq_counts[:-1] + seq_counts[1:]):
        # Pairs lo..hi-1 read the sets lo..hi; only P_1..P_n have intervals.
        i = np.arange(max(lo, 1), min(hi, n) + 1)
        sets = reps_old.take(seq[i - 1])
        pair = np.repeat(i, sets.counts())
        starts, ends = sets.starts, sets.ends
        as_a, as_b = pair < hi, pair > lo
        (close_at, close_pos), (open_at, open_pos) = \
            intervals.split_difference(
                pair[as_a], starts[as_a], ends[as_a],
                pair[as_b] - 1, starts[as_b], ends[as_b], n)
        # Keyed by (vertex, new position), so one sort per side groups the
        # endpoints of each vertex in order.
        rights.append(old_vertex[close_pos - 1] * (n + 1) + close_at)
        lefts.append(old_vertex[open_pos - 1] * (n + 1) + open_at + 1)
    # Done one side at a time, in place where possible: these arrays hold
    # every interval of the radius and set the step's peak memory.
    lefts = np.concatenate(lefts)
    lefts.sort()
    rights = np.concatenate(rights)
    rights.sort()
    counts = np.bincount(lefts // (n + 1), minlength=n)
    if len(lefts) != len(rights) or \
            (counts != np.bincount(rights // (n + 1), minlength=n)).any():
        raise AssertionError("endpoint extraction lost an interval")
    return IntervalSets(intervals.offsets_of(counts),
                        np.remainder(lefts, n + 1, out=lefts),
                        np.remainder(rights, n + 1, out=rights))


def expand_step(g: Graph, enc: BallEncoding, d: int,
                rng: np.random.Generator, *, reorder: bool = True) -> BallEncoding:
    """Encoding of (radius+1)-balls from a radius encoding.

    Step 1 unions each closed neighborhood's representations under the old
    order; step 2 draws a fresh degree-weighted order for the new radius;
    step 3 rebases the unions onto that order.  With ``reorder`` off the
    unions are kept under the old order and steps 2 and 3 are skipped.
    """
    r = enc.radius + 1
    unions = _closed_unions(g, enc.reps)
    if not reorder:
        return BallEncoding(enc.order, unions, r)
    degrees = [max(deg, 1) for deg in g.degrees()]
    new_order = tuple(order.order_from_membership(
        lambda x: neighborhood(g, x, r), g.n, d, rng, weights=degrees))
    return BallEncoding(new_order, rebase(unions, enc.order, new_order), r)


def k_diameter_explicit(g: Graph, k: int, d: int, rng: np.random.Generator,
                        *, inspect=None) -> bool:
    """True iff the diameter is at most ``k``.

    Randomness only affects how much work the interval representations take,
    never the answer.  ``inspect`` (if given) is called with every encoding
    produced, radius 0 included.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    enc = initial_encoding(g)
    if inspect is not None:
        inspect(enc)
    for r in range(1, k + 1):
        # The answer only asks whether every last-radius ball is full, which
        # the unions show under any order, so the last step keeps the old one.
        enc = expand_step(g, enc, d, rng, reorder=r < k)
        if inspect is not None:
            inspect(enc)
    reps = enc.reps
    return bool((reps.counts() == 1).all() and (reps.starts == 1).all()
                and (reps.ends == g.n).all())


def encoding_is_valid(g: Graph, enc: BallEncoding) -> bool:
    """Audit helper: every representation canonical and decoding to the exact
    ball (used by the invariant tests, not on the hot path)."""
    for v in range(g.n):
        if not intervals.is_canonical(enc.reps[v], g.n):
            return False
        if enc.decode(v) != neighborhood(g, v, enc.radius):
            return False
    return True
