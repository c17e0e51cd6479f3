"""Canonical interval representations of position sets.

An interval set is a tuple of (a, b) pairs with 1 <= a <= b, sorted, pairwise
disjoint and non-adjacent (b + 1 < a' for consecutive pairs).  Non-adjacency
makes the representation unique and minimal for the set it covers, so a set
is full exactly when it is the one interval (1, n).

Many sets over the positions 1..n are stored together as
:class:`IntervalSets` (CSR arrays) and combined in bulk, with one sort of
int64 keys for all sets at once: :func:`union_sweep` makes one key per
interval and reads the unions off a running maximum of the ends;
:func:`symmetric_difference` makes one key per interval endpoint and reads
the positions in exactly one set of a pair off the parity of the sorted keys.
A key packs its fields with shifts by ``b = (n + 1).bit_length()`` bits, the
fewest that hold every position 0..n + 1, so its fields are read back with
``>>`` and ``&``, not with integer division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import concat_ranges

IntervalSet = tuple  # of (a, b) int pairs


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
    arrays are int64.  (:func:`union_sweep` also takes sets whose intervals
    overlap, touch or come in any order.)  Indexing and iteration yield the
    canonical tuple of pairs, so code written against tuples of interval
    sets reads it as is.
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

    def is_canonical(self, n: int) -> bool:
        """True iff every set is canonical over the positions 1..n: each
        interval lies in 1..n and begins more than one past the end of the
        interval before it in its set."""
        starts, ends = self.starts, self.ends
        first = np.zeros(len(starts) + 1, dtype=bool)
        first[self.offsets] = True  # the first interval of each set
        return bool((starts >= 1).all() and (starts <= ends).all()
                    and (ends <= n).all()
                    and (first[1:-1] | (starts[1:] > ends[:-1] + 1)).all())

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

    Set ``s`` of ``sets`` goes into the union of owner ``owner[s]``, a
    non-negative int; its intervals lie in 1..n and may overlap or touch,
    within a set as across the sets of one owner.  Each interval becomes one
    key ``owner << 2b | start << b | end`` with ``b = (n + 1).bit_length()``,
    so one sort orders the intervals by owner, then start.  The running
    maximum of the reaches ``owner << b | end`` is how far the union has
    got; a head ``key >> b``, which is ``owner << b | start``, more than one
    past it begins a new union interval, so closed intervals [a, b] and
    [b + 1, c] merge.  The owner fields keep owners apart: as ``2**b`` is at
    least n + 2, an owner's first head lies at least three past the reach
    of the owner before it.

    Returns an int64 array with one row ``(owner, start, end)`` per union
    interval, sorted by owner, then start.  Raises ``ValueError`` when
    ``(max(owner) + 1) << 2b`` reaches 2**63, the first owner whose keys
    could overflow int64.
    """
    if len(sets.starts) == 0:
        return np.zeros((0, 3), dtype=np.int64)
    b = (n + 1).bit_length()
    if (int(np.max(owner)) + 1) << 2 * b >= 1 << 63:
        raise ValueError("too many owners or positions for int64 keys")
    low = (1 << b) - 1
    # Worked on in place: these arrays set the peak memory of a step.
    keys = np.repeat(owner << b, sets.counts())
    keys += sets.starts
    keys <<= b
    keys += sets.ends
    keys.sort()
    head = keys >> b  # owner << b | start
    reach = keys  # worked out in place of the keys
    reach &= low  # end
    reach |= head & ~low  # owner << b | end
    np.maximum.accumulate(reach, out=reach)
    # A union interval begins at the first head and at every head more than
    # one past the reach before it; it ends at the reach before the next.
    begins = np.ones(len(head), dtype=bool)
    np.greater(head[1:], reach[:-1] + 1, out=begins[1:])
    begins = np.flatnonzero(begins)
    first = head[begins]
    return np.column_stack((first >> b, first & low,
                            reach[np.append(begins[1:], len(head)) - 1]
                            & low))


def symmetric_difference(pair, starts, ends, n: int):
    """Positions in exactly one of the two sets of every pair.

    Pair j is the two sets whose intervals ``[starts[t], ends[t]]`` have
    ``pair[t] == j``; the intervals of each set lie in 1..n and must be
    disjoint, as those of a canonical set are.  With
    ``b = (n + 1).bit_length()``, every interval makes the keys
    ``pair << b | start`` and ``pair << b | end + 1``, next to each other,
    and one stable sort orders them: a run of intervals sorted by pair,
    then start (as ``rebase`` passes the first and then the second set of
    every pair) is one sorted run of keys, and the stable sort merges runs.
    At or below a position p, a set has one key per interval begun by p and
    one per interval ended before p; the intervals being disjoint, the two
    counts differ by one exactly when p is covered, so their sum is odd
    exactly then.  Over both sets of a pair, an odd sum means p is in
    exactly one: the positions from the sorted key at each even index up
    to, not including, the key after it.  Each pair makes an even number of
    keys, so this pairing of keys never crosses pairs.

    Returns ``(pair, pos)`` arrays, sorted by pair, then position.
    """
    b = (n + 1).bit_length()
    base = pair << b
    events = np.empty(2 * len(base), dtype=np.int64)
    events[0::2] = base + starts
    events[1::2] = base + ends + 1
    events.sort(kind="stable")
    listed = concat_ranges(events[0::2], events[1::2])
    return listed >> b, listed & (1 << b) - 1
