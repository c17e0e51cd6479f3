"""Canonical interval representations of position sets.

An interval set is a tuple of (a, b) pairs with 1 <= a <= b, sorted, pairwise
disjoint and non-adjacent (b + 1 < a' for consecutive pairs).  Non-adjacency
makes the representation unique and minimal for the set it covers, which the
difference-extraction step relies on.

Many sets over the positions 1..n are stored together as
:class:`IntervalSets` (CSR arrays) and combined in bulk: :func:`union_sweep`
and :func:`split_difference` turn every interval into two endpoint events,
sort all events of all sets once and read the result off a running depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import concat_ranges

IntervalSet = tuple  # of (a, b) int pairs


def is_canonical(rep: IntervalSet, n: int | None = None) -> bool:
    prev_end = -1
    for a, b in rep:
        if a < 1 or b < a:
            return False
        if a <= prev_end + 1:
            return False
        if n is not None and b > n:
            return False
        prev_end = b
    return True


def canonicalize(positions) -> IntervalSet:
    """Minimal disjoint non-adjacent interval cover of a position set."""
    pos = sorted(set(positions))
    if not pos:
        return ()
    out = []
    start = prev = pos[0]
    for p in pos[1:]:
        if p == prev + 1:
            prev = p
        else:
            out.append((start, prev))
            start = prev = p
    out.append((start, prev))
    return tuple(out)


def positions(rep: IntervalSet):
    """Iterate the covered positions in increasing order."""
    for a, b in rep:
        yield from range(a, b + 1)


@dataclass(frozen=True, eq=False)
class IntervalSets:
    """A sequence of canonical interval sets in CSR form.

    Set ``v`` is the intervals ``[starts[j], ends[j]]`` for
    ``offsets[v] <= j < offsets[v + 1]``, in increasing order; all three
    arrays are int64.  Indexing and iteration yield the canonical tuple of
    pairs, so code written against tuples of interval sets reads it as is.
    """

    offsets: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    @classmethod
    def from_reps(cls, reps) -> "IntervalSets":
        reps = list(reps)
        pairs = np.array([p for rep in reps for p in rep],
                         dtype=np.int64).reshape(-1, 2)
        return cls(offsets_of([len(rep) for rep in reps]),
                   pairs[:, 0].copy(), pairs[:, 1].copy())

    def counts(self) -> np.ndarray:
        """Interval count of every set."""
        return np.diff(self.offsets)

    def take(self, items) -> "IntervalSets":
        """The sets ``items`` (an int64 array; repeats allowed), in order."""
        lo, hi = self.offsets[items], self.offsets[items + 1]
        idx = concat_ranges(lo, hi)
        return IntervalSets(offsets_of(hi - lo), self.starts[idx],
                            self.ends[idx])

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, v) -> IntervalSet:
        v = range(len(self))[v]
        lo, hi = self.offsets[v], self.offsets[v + 1]
        return tuple(zip(self.starts[lo:hi].tolist(),
                         self.ends[lo:hi].tolist()))

    def __iter__(self):
        pairs = list(zip(self.starts.tolist(), self.ends.tolist()))
        offsets = self.offsets.tolist()
        for lo, hi in zip(offsets, offsets[1:]):
            yield tuple(pairs[lo:hi])


def offsets_of(counts) -> np.ndarray:
    """CSR offsets (one more entry than ``counts``) for the given counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def union_sweep(sets: IntervalSets, owner, n: int) -> np.ndarray:
    """Canonical union of the sets that share an owner, for every owner.

    Set ``s`` of ``sets`` (canonical, over positions 1..n) goes into the
    union of owner ``owner[s]``, a non-negative int.  Each interval becomes
    an opening event at its start and a closing event one past its end,
    encoded as ``(owner * (n + 2) + position) * 2 + closing`` so that one
    sort groups events by owner and position, with openings first.  Closed
    intervals [a, b] and [b + 1, c] therefore merge: the depth never drops
    to zero at b + 1.

    Returns an int64 array with one row ``(owner, start, end)`` per union
    interval, sorted by owner, then start.
    """
    span = n + 2
    m = len(sets.starts)
    base = np.repeat(owner * span, sets.counts())
    # Worked on in place: these arrays set the peak memory of a step.
    events = np.concatenate((base + sets.starts, base + sets.ends))
    del base
    events[m:] += 1
    events <<= 1
    events[m:] |= 1
    events.sort()
    opening = (events & 1) == 0
    depth = np.cumsum(np.where(opening, 1, -1))
    events >>= 1
    opened = events[opening & (depth == 1)]
    closed = events[depth == 0]
    out_owner = opened // span
    return np.column_stack((out_owner, opened - out_owner * span,
                            closed % span - 1))


# Coverage change of each event kind: A opens, A closes, B opens, B closes.
_STEP = np.array([1, -1, 2, -2], dtype=np.int64)


def split_difference(a_pair, a_starts, a_ends, b_pair, b_starts, b_ends,
                     n: int):
    """Positions only in A_j and only in B_j, for every pair j.

    A_j is the set covered by the intervals ``[a_starts[t], a_ends[t]]``
    with ``a_pair[t] == j``, B_j likewise; the intervals of one A_j (or one
    B_j) must be disjoint, as those of a canonical set are.  One sort of the
    endpoint events, keyed by pair and position, and a running
    ``cover(A) + 2 * cover(B)`` give the coverage of every segment between
    consecutive event positions.

    Returns ``((pair, pos), (pair, pos))`` arrays for A_j - B_j and for
    B_j - A_j, each sorted by pair, then position.
    """
    span = n + 2
    a_base, b_base = a_pair * span, b_pair * span
    events = np.concatenate(((a_base + a_starts) << 2,
                             ((a_base + a_ends + 1) << 2) | 1,
                             ((b_base + b_starts) << 2) | 2,
                             ((b_base + b_ends + 1) << 2) | 3))
    events.sort()
    cover = np.cumsum(_STEP[events & 3])
    where = events >> 2
    # Last event at each (pair, position): the coverage from there up to
    # the next event position.  Coverage is back to 0 after a pair's last
    # event, so a covered segment never runs into the next pair.
    last = np.flatnonzero(where[:-1] != where[1:])
    seg_cover = cover[last]
    out = []
    for side in (1, 2):
        keep = last[seg_cover == side]
        covered = concat_ranges(where[keep], where[keep + 1])
        pair = covered // span
        out.append((pair, covered - pair * span))
    return tuple(out)
