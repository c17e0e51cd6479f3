"""Canonical interval representations of position sets.

An interval set is a sorted sequence of intervals [a, b] with 1 <= a <= b,
pairwise disjoint and non-adjacent (b + 1 < a' for consecutive intervals).
Non-adjacency makes the representation unique and minimal for the set it
covers, so a set is full exactly when it is the one interval [1, n].

Many sets over the positions 1..n are stored together as
:class:`IntervalSets` (CSR arrays) and combined in bulk, with one sort of
int64 keys per block of work: :func:`union_sweep` packs every interval of a
radius once into a key, gathers for every owner the keys of the sets it
unions, and reads the unions off a running maximum of the ends;
:func:`symmetric_difference` makes one key per interval endpoint and reads
the positions in exactly one set of a pair off the parity of the sorted
keys.  A key packs its fields with shifts by ``b = (n + 1).bit_length()``
bits, the fewest that hold every position 0..n + 1, so its fields are read
back with ``>>`` and ``&``, not with integer division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import concat_ranges

# Most intervals one bulk union or difference sweep takes in.  Larger work is
# split into blocks of consecutive owners or pairs (:func:`blocks`), which
# bounds the memory of the sweep arrays (the union's one key per gathered
# interval, the difference sweep's two endpoint keys per interval of each
# pair, and a few temporaries of either size) without changing any result.
# The union's packed source keys, one int64 per interval of the radius, are
# not blocked: at 102,400 Apollonian vertices they raised the peak RSS of a
# decide from 850 to 886 MiB.
# Union owners are numbered within a block, at most BLOCK of them when each
# gathers an interval, as every explicit-path vertex does, so the union keys
# ``owner << 2b | start << b | end`` pass the int64 guard of
# :func:`union_sweep` while b <= 24: for n below 2**24 - 1, about 16.7
# million vertices.
# On the 400-vertex sparse benchmark graphs (2-vCPU host, unions gathering
# one packed key per interval), two 12 s runs each gave peak RSS 53.7-53.8
# MB at 4,096, 54.3 MB at 8,192 and 54.9 MB at 16,384; 8,192 decided about
# 13% faster than 4,096 (21.0 against 23.9-24.6 ms), and 16,384 no faster
# than 8,192 within the runs' spread.
BLOCK = 8_192


@dataclass(frozen=True, eq=False)
class IntervalSets:
    """A sequence of canonical interval sets in CSR form.

    Set ``v`` is the intervals ``[starts[j], ends[j]]`` for
    ``offsets[v] <= j < offsets[v + 1]``, in increasing order; all three
    arrays are int64.  (:func:`union_sweep` also takes sets whose intervals
    overlap, touch or come in any order.)  Iteration yields each set as a
    tuple of ``(a, b)`` pairs.
    """

    offsets: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

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


def blocks(weights):
    """(lo, hi) bounds of consecutive runs of items whose weights sum to at
    most ``BLOCK`` (an item heavier than that gets a run of its own)."""
    cum = np.cumsum(weights)
    lo, done = 0, 0
    while lo < len(cum):
        hi = max(int(np.searchsorted(cum, done + BLOCK, side="right")), lo + 1)
        yield lo, hi
        lo, done = hi, int(cum[hi - 1])


def union_sweep(sets: IntervalSets, gptr, gidx, n: int) -> IntervalSets:
    """Canonical union of the sets each owner gathers, for every owner.

    Owner v gathers the sets ``gidx[gptr[v]:gptr[v + 1]]`` of ``sets``
    (repeats allowed), a gather CSR over the owners 0..len(gptr) - 2.  The
    intervals lie in 1..n and may overlap, touch or come in any order,
    within a set as across the sets of one owner.  Each interval of
    ``sets`` is packed once, as ``start << b | end`` with
    ``b = (n + 1).bit_length()``.  The owners are swept in blocks of at
    most ``BLOCK`` gathered intervals (:func:`blocks`): each gathered key is
    ORed with its owner's number in the block shifted by 2b, so one sort
    orders the block's intervals by owner, then start.  The running maximum
    of the reaches ``owner << b | end`` is how far the union has got; a
    head ``key >> b``, which is ``owner << b | start``, more than one past
    it begins a new union interval, so closed intervals [a, b] and
    [b + 1, c] merge.  The owner fields keep owners apart: as ``2**b`` is
    at least n + 2, an owner's first head lies at least three past the
    reach of the owner before it.

    Returns one canonical set per owner; an owner that gathers no interval
    gets the empty set.  Raises ``ValueError`` when a block's owner count
    shifted by 2b reaches 2**63, where its keys could overflow int64.
    """
    b = (n + 1).bit_length()
    low = (1 << b) - 1
    # How many intervals each owner gathers.
    totals = np.diff(offsets_of(sets.counts()[gidx])[gptr])
    packed = sets.starts << b
    packed |= sets.ends
    counts = np.zeros(len(totals), dtype=np.int64)
    # Each list starts with an empty array, so that no owners concatenate.
    starts, ends = [counts[:0]], [counts[:0]]
    for lo, hi in blocks(totals):
        if (hi - lo) << 2 * b >= 1 << 63:
            raise ValueError("too many owners or positions for int64 keys")
        items = gidx[gptr[lo]:gptr[hi]]
        # Worked on in place: these arrays set the peak memory of a step.
        keys = packed[concat_ranges(sets.offsets[items],
                                    sets.offsets[items + 1])]
        keys |= np.repeat(np.arange(hi - lo) << 2 * b, totals[lo:hi])
        keys.sort()
        head = keys >> b  # owner << b | start
        reach = keys  # worked out in place of the keys
        reach &= low  # end
        reach |= head & ~low  # owner << b | end
        np.maximum.accumulate(reach, out=reach)
        # A union interval begins at the first head and at every head more
        # than one past the reach before it; it ends at the reach before the
        # next begins, or at the last.
        begins = np.ones(len(head) + 1, dtype=bool)
        np.greater(head[1:], reach[:-1] + 1, out=begins[1:-1])
        first = head[np.flatnonzero(begins[:-1])]
        counts[lo:hi] = np.bincount(first >> b, minlength=hi - lo)
        starts.append(first & low)
        ends.append(reach[np.flatnonzero(begins[1:])] & low)
    return IntervalSets(offsets_of(counts), np.concatenate(starts),
                        np.concatenate(ends))


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
