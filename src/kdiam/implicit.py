"""k-diameter for implicitly given graphs, driven entirely through a
neighbour-set structure.

Balls are delta-encoded along a vertex order: D_1 is the first ball and D_i
the symmetric difference of consecutive balls, so the prefix-xor of the
deltas reconstructs any ball.  :func:`radius_steps` grows every ball one
radius at a time, lazily, and yields per radius whether every ball is full
and the handles.  Radius 1 is one AddNeighbours per vertex from the empty
set.  Only when the next step is asked for does it draw the next order,
with membership read from the handles just built, and expand all balls
with a divide-and-conquer that shares common work.  A handle is its own
set, an ``int`` mask, so each delta is the XOR of two consecutive handles,
a :class:`kdiam.graph.Mask`, which the recursion takes as it is: nothing
is listed and nothing is rebuilt, and a delta's size is its popcount.
Fullness is each handle compared with the full mask, at every radius, the
last one included.  ``k_diameter_implicit`` reads its answer for one k
from the sweep with :func:`kdiam.graph.diameter_upto`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import count, pairwise
from operator import or_, xor

import numpy as np

from .graph import Mask, diameter_upto, id_array, ids_of
from .nsds import MaskNeighbourSets
from .order import order_from_membership


@dataclass
class ExpandCost:
    """Operation counter for the expansion recursion: every call contributes
    its delta count plus the total size of its deltas, each size the
    popcount of the delta's mask."""

    operations: int = 0
    calls: int = 0

    @staticmethod
    def bound(a: int, b: int, t: int) -> int:
        """Closed-form budget the recursion must stay within, where a is the
        first delta's size and b the total size of the rest."""
        ceil_log = (t - 1).bit_length() if t > 1 else 0
        return a + 3 * b * (ceil_log + 1) + 2 * t


def expand_balls(deltas: list[int], nsds: MaskNeighbourSets, *,
                 cost: ExpandCost | None = None) -> list[int]:
    """Handles for N[D_1 xor ... xor D_i], one per prefix of the deltas.

    Each delta is an ``int`` mask, and the recursion does its set algebra
    on the masks.  Elements unique to D_1 belong to every prefix, so their
    neighborhoods are added once, in increasing id, to a shared base set;
    the midpoint replacement folds the first half into the second half's
    leading delta before recursing.
    """
    if not deltas:
        raise ValueError("need at least one delta set")
    return _expand_rec(nsds.empty, deltas, nsds, cost)


def _expand_rec(base: int, deltas: list[int], nsds, cost) -> list[int]:
    t = len(deltas)
    if cost is not None:
        cost.calls += 1
        cost.operations += t + sum(d.bit_count() for d in deltas)
    common = reduce(or_, deltas[1:], 0)
    shared = base
    for v in ids_of(deltas[0] & ~common):
        shared = nsds.add_neighbours(shared, v)
    if t == 1:
        return [shared]
    m = t // 2 + 1
    d1 = deltas[0] & common
    dm = reduce(xor, deltas[1:m], d1)
    first = _expand_rec(shared, [d1] + deltas[1:m - 1], nsds, cost)
    second = _expand_rec(shared, [dm] + deltas[m:], nsds, cost)
    return first + second


def simulate_bfs(nsds: MaskNeighbourSets, v: int,
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


@dataclass(frozen=True)
class RadiusStep:
    """One radius of the sweep: ``handles[i]`` is B_radius(order[i]),
    expanded from ``deltas``, the (radius - 1)-balls delta-encoded along
    ``order``, each delta a :class:`kdiam.graph.Mask`."""

    radius: int
    full: bool
    order: tuple
    deltas: list
    handles: list


def radius_steps(nsds: MaskNeighbourSets, n: int, d: int,
                 rng: np.random.Generator):
    """Yield one :class:`RadiusStep` per radius r = 1, 2, ..., without end.

    The first order is the structure's locality rank, which also breaks
    every drawn order's ties.  Set comparisons are exact, so ``full``
    depends neither on the rank nor on the rng draw.
    """
    full = (1 << n) - 1
    order = nsds.rank
    deltas = [Mask(1 << order[0])]
    deltas.extend(Mask(1 << a | 1 << b) for a, b in pairwise(order))
    # Over these deltas every prefix is one vertex, so the expansion would
    # make exactly one AddNeighbours per vertex, from the empty set, in
    # order: make them directly.
    handles = [nsds.add_neighbours(nsds.empty, v) for v in order]
    for r in count(1):
        yield RadiusStep(r, all(h == full for h in handles), order, deltas,
                         handles)
        # Fresh low-difference order for the next radius.  By symmetry of
        # hop distance the balls containing x are the balls centred in
        # B_r(x), which is read straight from x's own handle.
        old_pos = {v: i for i, v in enumerate(order)}
        order = order_from_membership(
            lambda x: id_array(handles[old_pos[x]], n), n, d, rng,
            rank=nsds.rank)
        mapped = [handles[old_pos[v]] for v in order]
        deltas = [Mask(a ^ b) for a, b in pairwise([nsds.empty, *mapped])]
        handles = expand_balls(deltas, nsds)


def k_diameter_implicit(nsds_factory, n: int, k: int, d: int,
                        rng: np.random.Generator) -> bool:
    """True iff the graph behind the structure has diameter at most ``k``.

    ``nsds_factory`` is called once per decide call, and the structure it
    returns serves every radius step.  The sweep stops at the first full
    radius or at k, whichever comes first, so it draws no order for the
    radius it stops at.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    return diameter_upto(radius_steps(nsds_factory(), n, d, rng),
                         k) is not None
