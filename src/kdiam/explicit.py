"""Interval-encoded k-diameter algorithm for explicitly given sparse graphs.

Balls are kept as canonical interval sets over a vertex order chosen so the
weighted total interval count stays sub-quadratic.  :func:`radius_steps`
grows every ball one radius at a time, lazily: each step sweep-unions the
neighbours' representations and yields the radius, whether every ball is
full (every union the one interval [1, n]) and the unions; only when the
next step is asked for does it draw a fresh order and re-express the unions
under it from the symmetric differences of consecutive balls.
``k_diameter_explicit`` reads its answer for one k from the sweep with
:func:`kdiam.graph.diameter_upto`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import intervals, order
from ._kernels import concat_ranges
from .graph import Graph, balls_at, diameter_upto, ids_of, locality_rank
from .intervals import IntervalSets

# Most intervals one bulk union or difference sweep takes in.  Larger work is
# split into blocks of consecutive vertices, which bounds the memory of the
# sweep arrays (the union's one key per interval, the difference sweep's
# two endpoint keys per interval of each pair, and a few temporaries of
# either size) without changing any result.  Union owners are numbered
# within a block, at most BLOCK of them (every vertex gathers at least one
# interval), so the union keys ``owner << 2b | start << b | end`` with
# ``b = (n + 1).bit_length()`` pass the int64 guard of
# :func:`kdiam.intervals.union_sweep` while b <= 24: for n below
# 2**24 - 1, about 16.7 million vertices.
# On the 400-vertex sparse benchmark graphs (2-vCPU host), two 12 s runs
# each gave peak RSS 54.0-54.1 MB at 4,096, 54.1-54.3 MB at 8,192 and
# 54.8-54.9 MB at 16,384 (53.9 MB before the union sorted one key per
# interval); 8,192 decided about 10% faster than 4,096, and 16,384 no
# faster than 8,192 within the runs' spread.
BLOCK = 8_192


@dataclass(frozen=True)
class BallEncoding:
    """Per-vertex interval representations of radius-``radius`` balls under
    ``order``; decoding rep[v] through the order yields exactly the ball."""

    order: tuple
    reps: IntervalSets
    radius: int

    @cached_property
    def _vertex_at(self) -> np.ndarray:
        """The order as an array: the vertex at position p is entry p - 1."""
        return np.asarray(self.order, dtype=np.int64)

    def decode(self, v: int) -> set:
        reps = self.reps
        lo, hi = reps.offsets[v], reps.offsets[v + 1]
        positions = concat_ranges(reps.starts[lo:hi], reps.ends[lo:hi] + 1)
        return set(self._vertex_at[positions - 1].tolist())


def initial_encoding(g: Graph) -> BallEncoding:
    """Radius-0 encoding under the graph's Cuthill–McKee order
    (:func:`kdiam.graph.locality_rank`): every ball is the vertex itself,
    one interval at the vertex's position."""
    rank = locality_rank(g)
    pos = np.empty(g.n, dtype=np.int64)
    pos[list(rank)] = np.arange(1, g.n + 1)
    reps = IntervalSets(np.arange(g.n + 1, dtype=np.int64), pos, pos.copy())
    return BallEncoding(rank, reps, 0)


def _blocks(weights):
    """(lo, hi) bounds of consecutive runs of items whose weights sum to at
    most ``BLOCK`` (an item heavier than that gets a run of its own)."""
    cum = np.cumsum(weights)
    lo, done = 0, 0
    while lo < len(cum):
        hi = max(int(np.searchsorted(cum, done + BLOCK, side="right")), lo + 1)
        yield lo, hi
        lo, done = hi, int(cum[hi - 1])


def _ball_unions(g: Graph, reps: IntervalSets, radius: int) -> IntervalSets:
    """The radius + 1 balls from the radius-``radius`` balls ``reps``.

    At radius 0 each ball is the union of the sets of v's closed
    neighbourhood.  From radius 1 on, the open neighbourhood suffices: v
    lies in the ball of each of its neighbours, and a shortest path out of v
    passes through one of them, so v's own set is left out, which saves
    about 1 / (mean degree + 1) of the gathered intervals.  A vertex with no
    neighbours keeps its own set.
    """
    n = g.n
    indptr, indices = g.csr
    own = (np.ones(n, dtype=bool) if radius == 0
           else indptr[1:] == indptr[:-1])
    # Gather CSR: each vertex that keeps its own set first, then its
    # neighbours.
    gptr = indptr + intervals.offsets_of(own)
    gidx = np.insert(indices, indptr[:-1][own], np.flatnonzero(own))
    # Interval total of every gathered set, and where each one's intervals
    # start in the gathered sequence.
    totals = np.add.reduceat(reps.counts()[gidx], gptr[:-1])
    bounds = intervals.offsets_of(totals)
    counts, starts, ends = [], [], []
    for lo, hi in _blocks(totals):
        items = gidx[gptr[lo]:gptr[hi]]
        idx = concat_ranges(reps.offsets[items], reps.offsets[items + 1])
        # One set per vertex: the intervals of everything it gathers, so
        # the sweep's owner offsets come from the totals.
        gathered = IntervalSets(bounds[lo:hi + 1] - bounds[lo],
                                reps.starts[idx], reps.ends[idx])
        rows = intervals.union_sweep(gathered, np.arange(hi - lo), n)
        counts.append(np.bincount(rows[:, 0], minlength=hi - lo))
        starts.append(rows[:, 1].copy())  # copies, so each block's rows
        ends.append(rows[:, 2].copy())    # are freed with the block
    return IntervalSets(intervals.offsets_of(np.concatenate(counts)),
                        np.concatenate(starts), np.concatenate(ends))


def rebase(reps_old: IntervalSets, order_old, order_new) -> IntervalSets:
    """Re-express per-vertex interval sets under a new order.

    Vertex x enters or leaves the balls at position i of the new order
    exactly when it is in one of ball(v_i) and ball(v_i+1): one symmetric
    difference sweep over the old representations of each consecutive
    new-order pair lists these toggles.  Every ball starts and ends outside
    the empty sets before v_1 and after v_n, so x's toggles, in order,
    alternate the position before an interval of rep[x] begins and the
    position where it ends.  Raises ``ValueError`` unless ``reps_old`` is
    canonical over 1..n.
    """
    n = len(order_old)
    if len(order_new) != n or len(reps_old) != n:
        raise ValueError("orders and representations must agree in size")
    if not reps_old.is_canonical(n):
        raise ValueError("representations must be canonical interval sets")
    old_vertex = np.asarray(order_old, dtype=np.int64)
    # Sets P_0 .. P_{n+1}: P_i is the set of the i-th new-order vertex and
    # P_0 = P_{n+1} is empty.  Pair j compares P_j with P_{j+1}.
    seq = np.asarray(order_new, dtype=np.int64)
    seq_counts = np.zeros(n + 2, dtype=np.int64)
    seq_counts[1:-1] = reps_old.counts()[seq]
    width = (n + 1).bit_length()  # bits that hold a pair, 0..n
    toggles = []
    for lo, hi in _blocks(seq_counts[:-1] + seq_counts[1:]):
        # Pairs lo..hi-1 read the sets lo..hi; only P_1..P_n have intervals.
        i = np.arange(max(lo, 1), min(hi, n) + 1)
        sets = reps_old.take(seq[i - 1])
        pair = np.repeat(i, sets.counts())
        starts, ends = sets.starts, sets.ends
        # Set i is in pair i when i < hi: every set but set hi, the last
        # when present.  It is in pair i - 1 when i > lo: every set but
        # set lo, the first when present.
        a = slice(sets.offsets[-2] if hi <= n else None)
        b = slice(sets.offsets[1] if lo >= 1 else None, None)
        at, pos = intervals.symmetric_difference(
            np.concatenate((pair[a], pair[b] - 1)),
            np.concatenate((starts[a], starts[b])),
            np.concatenate((ends[a], ends[b])), n)
        # Keyed by (vertex, pair), so one sort groups the toggles of each
        # vertex in order.
        toggles.append(old_vertex[pos - 1] << width | at)
    # Worked on in place: this array holds every endpoint of the radius and
    # sets the step's peak memory.  Its rows are each interval's toggles.
    toggles = np.concatenate(toggles)
    toggles.sort()
    toggles = toggles.reshape(-1, 2)
    counts = np.bincount(toggles[:, 0] >> width, minlength=n)
    toggles &= (1 << width) - 1  # the pairs
    toggles[:, 0] += 1
    return IntervalSets(intervals.offsets_of(counts), toggles[:, 0],
                        toggles[:, 1])


def expand_step(g: Graph, enc: BallEncoding) -> BallEncoding:
    """Encoding of the (radius + 1)-balls under the same order: each ball is
    the union of the representations of a neighbourhood
    (:func:`_ball_unions`)."""
    return BallEncoding(enc.order, _ball_unions(g, enc.reps, enc.radius),
                        enc.radius + 1)


@dataclass(frozen=True)
class RadiusStep:
    """One radius of the sweep: ``grown`` holds the radius-``radius`` balls,
    the unions grown from ``start`` and still under its order."""

    radius: int
    full: bool
    start: BallEncoding
    grown: BallEncoding


def radius_steps(g: Graph, d: int, rng: np.random.Generator):
    """Yield one :class:`RadiusStep` per radius r = 1, 2, ..., without end.

    Radius 0 is encoded under the graph's locality rank, which also breaks
    every drawn order's ties.  A ball is full iff its union is the one
    interval [1, n], under any order.  The rank and the randomness only
    affect how much work the interval representations take, never
    ``full``.
    """
    degrees = [max(deg, 1) for deg in g.degrees()]
    enc = initial_encoding(g)
    rank = enc.order
    while True:
        grown = expand_step(g, enc)
        reps = grown.reps
        yield RadiusStep(grown.radius,
                         bool((reps.counts() == 1).all()
                              and (reps.starts == 1).all()
                              and (reps.ends == g.n).all()),
                         enc, grown)
        new_order = order.order_from_membership(grown.decode, g.n, d, rng,
                                                weights=degrees, rank=rank)
        enc = BallEncoding(new_order, rebase(reps, enc.order, new_order),
                           grown.radius)


def k_diameter_explicit(g: Graph, k: int, d: int,
                        rng: np.random.Generator) -> bool:
    """True iff the diameter is at most ``k``.

    The sweep stops at the first full radius or at k, whichever comes
    first, so it draws no order for the radius it stops at.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    return diameter_upto(radius_steps(g, d, rng), k) is not None


def encoding_is_valid(g: Graph, enc: BallEncoding) -> bool:
    """Audit helper: every representation canonical and decoding to the exact
    ball (used by the invariant tests, not on the hot path)."""
    balls = balls_at(g, enc.radius)
    return enc.reps.is_canonical(g.n) and all(
        enc.decode(v) == set(ids_of(balls[v])) for v in range(g.n))
