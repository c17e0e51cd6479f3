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
from .graph import Graph, diameter_upto, locality_rank
from .intervals import IntervalSets

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

    def decode(self, v: int) -> np.ndarray:
        """The ball of ``v``: its vertex ids in position order, as an int64
        array."""
        reps = self.reps
        lo, hi = reps.offsets[v], reps.offsets[v + 1]
        return self._vertex_at[concat_ranges(reps.starts[lo:hi] - 1,
                                             reps.ends[lo:hi])]


def initial_encoding(g: Graph) -> BallEncoding:
    """Radius-0 encoding under the graph's Cuthill–McKee order
    (:func:`kdiam.graph.locality_rank`): every ball is the vertex itself,
    one interval at the vertex's position."""
    rank = locality_rank(g)
    pos = np.empty(g.n, dtype=np.int64)
    pos[list(rank)] = np.arange(1, g.n + 1)
    reps = IntervalSets(np.arange(g.n + 1, dtype=np.int64), pos, pos.copy())
    return BallEncoding(rank, reps, 0)


def _ball_unions(g: Graph, reps: IntervalSets, radius: int) -> IntervalSets:
    """The radius + 1 balls from the radius-``radius`` balls ``reps``.

    At radius 0 each ball is the union of the sets of v's closed
    neighbourhood.  From radius 1 on, the open neighbourhood suffices: v
    lies in the ball of each of its neighbours, and a shortest path out of v
    passes through one of them, so v's own set is left out, which saves
    about 1 / (mean degree + 1) of the gathered intervals.  A vertex with no
    neighbours keeps its own set.
    """
    indptr, indices = g.csr
    own = (np.ones(g.n, dtype=bool) if radius == 0
           else indptr[1:] == indptr[:-1])
    # Gather CSR: each vertex that keeps its own set first, then its
    # neighbours.
    gptr = indptr + intervals.offsets_of(own)
    gidx = np.insert(indices, indptr[:-1][own], np.flatnonzero(own))
    return intervals.union_sweep(reps, gptr, gidx, g.n)


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
    for lo, hi in intervals.blocks(seq_counts[:-1] + seq_counts[1:]):
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

