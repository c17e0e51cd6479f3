"""k-diameter for implicitly given graphs, driven entirely through a
neighbour-set structure.

Balls are delta-encoded along a vertex order: D_1 is the first ball and D_i
the symmetric difference of consecutive balls, so the prefix-xor of the
deltas reconstructs any ball.  One radius step expands all balls with a
divide-and-conquer that shares common work, reorders with membership read
from the ball handles just built, and re-extracts deltas output-sensitively.
The last radius step stops after the expansion and checks the balls
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .nsds import NeighbourSetStructure, SetHandle
from .order import order_from_membership


@dataclass
class ExpandCost:
    """Operation counter for the expansion recursion: every call contributes
    its delta count plus the total size of its delta sets."""

    operations: int = 0
    calls: int = 0

    @staticmethod
    def bound(a: int, b: int, t: int) -> int:
        """Closed-form budget the recursion must stay within, where a is the
        first delta's size and b the total size of the rest."""
        ceil_log = (t - 1).bit_length() if t > 1 else 0
        return a + 3 * b * (ceil_log + 1) + 2 * t


def expand_balls(deltas, nsds: NeighbourSetStructure, *,
                 cost: ExpandCost | None = None) -> list[SetHandle]:
    """Handles for N[D_1 xor ... xor D_i], one per prefix of the deltas.

    Elements unique to D_1 belong to every prefix, so their neighborhoods are
    added once to a shared base set; the midpoint replacement folds the first
    half into the second half's leading delta before recursing.
    """
    deltas = [set(d) for d in deltas]
    if not deltas:
        raise ValueError("need at least one delta set")
    return _expand_rec(nsds.empty, deltas, nsds, cost)


def _expand_rec(base: SetHandle, deltas, nsds, cost) -> list[SetHandle]:
    t = len(deltas)
    if cost is not None:
        cost.calls += 1
        cost.operations += t + sum(len(d) for d in deltas)
    common = set().union(*deltas[1:]) if t > 1 else set()
    shared = base
    for v in sorted(deltas[0] - common):
        shared = nsds.add_neighbours(shared, v)
    if t == 1:
        return [shared]
    m = t // 2 + 1
    d1 = deltas[0] & common
    dm = reduce(set.symmetric_difference, deltas[1:m], d1)
    first = _expand_rec(shared, [d1] + deltas[1:m - 1], nsds, cost)
    second = _expand_rec(shared, [dm] + deltas[m:], nsds, cost)
    return first + second


def simulate_bfs(nsds: NeighbourSetStructure, v: int,
                 r: int | None = None) -> dict:
    """Hop distances from ``v`` using only the two structure operations.

    Each vertex is listed exactly once: the explored set lives in the
    structure, and listing the difference made by one AddNeighbours yields
    precisely the newly reached vertices.  Returns {vertex: distance} for
    distances <= r (all of them when r is None).  The diameter driver does
    not call this: it reads the same ball from the handles it has already
    built; this is the independent oracle the tests check it against.
    """
    if not 0 <= v < nsds.n:
        raise ValueError(f"vertex {v} out of range")
    limit = nsds.n if r is None else r
    dist = {v: 0}
    explored = nsds.empty
    queue = [v]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        if dist[x] >= limit:
            continue
        grown = nsds.add_neighbours(explored, x)
        for w in nsds.list_differences(explored, grown):
            if w == v:
                continue
            dist[w] = dist[x] + 1
            queue.append(w)
        explored = grown
    return dist


def k_diameter_implicit(nsds_factory, n: int, k: int, d: int,
                        rng: np.random.Generator, *, inspect=None) -> bool:
    """True iff the graph behind the structure has diameter at most ``k``.

    ``nsds_factory`` is called once per decide call; the structure it
    returns is cleared between radius steps, so it keeps what depends only
    on the graph (for the geometric structure: stripes, compiled marks and
    line-state caches).  Set comparisons are exact, so the answer does not
    depend on the rng draw.

    Radii 1..k-1 each build a fresh low-difference order and its deltas,
    and ``inspect(r, nsds, order, deltas)`` is called after each of them.
    The last radius only asks whether every ball is full: it lists the
    first ball, then its difference to each other ball, and answers False
    at the first shortfall, so it builds no order and lists no deltas.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    nsds = nsds_factory()
    order = list(range(n))
    deltas = [{order[0]}] + [{order[i - 1], order[i]} for i in range(1, n)]
    for r in range(1, k):
        # Ball handles under the previous order: handles[i] is B_r(order[i]).
        handles = expand_balls(deltas, nsds)
        old_pos = {v: i for i, v in enumerate(order)}
        # Fresh low-difference order for the current radius.  By symmetry of
        # hop distance the balls containing x are the balls centred in
        # B_r(x), which is listed straight from x's own handle.
        new_order = list(order_from_membership(
            lambda x: nsds.list_differences(nsds.empty, handles[old_pos[x]]),
            n, d, rng))
        mapped = [handles[old_pos[v]] for v in new_order]
        deltas = [set(nsds.list_differences(nsds.empty, mapped[0]))]
        deltas.extend(
            set(nsds.list_differences(mapped[i - 1], mapped[i]))
            for i in range(1, n))
        order = new_order
        if inspect is not None:
            inspect(r, nsds, order, deltas)
        nsds.clear()
    # Every k-ball is full iff the first one is and no other differs from it.
    handles = expand_balls(deltas, nsds)
    first = handles[0]
    if len(nsds.list_differences(nsds.empty, first)) < n:
        return False
    return not any(nsds.list_differences(first, h) for h in handles[1:])
