"""The neighbour-set structure of the implicit framework.

The paper's framework reaches its graph only through a persistent family of
vertex sets under two operations: AddNeighbours extends a set by a closed
neighbourhood N[v], and ListDifferences lists the symmetric difference of
two sets, output-sensitively.  Here a set is an ``int`` mask, so a handle is
its own set and never changes, and the implicit driver takes the difference
of two handles as their XOR without listing it.  The one class has two
constructors:
:meth:`MaskNeighbourSets.from_graph` over an explicit graph, and
:func:`kdiam.plane.geometric_nsds`, which builds the masks from one sorted
stripe per slab of the shape, without the graph.
"""

from __future__ import annotations

from .graph import Graph, balls_at, ids_of, locality_rank


class MaskNeighbourSets:
    """Vertex sets of a fixed graph as masks: bit v stands for vertex v and
    ``closed[v]`` is the mask of N[v].

    The empty set is ``0``.  AddNeighbours(h, v) is ``h | closed[v]`` and
    ListDifferences(h1, h2) lists the set bits of ``h1 ^ h2``, each element
    once, in increasing order.  ``add_count`` and ``list_count`` count the
    two operations; the implicit driver's sweep lists nothing, so only
    :func:`kdiam.implicit.simulate_bfs` moves ``list_count``.  ``rank``
    lists every vertex once, in a locality order of the input: the
    implicit driver's first vertex order, and the tie-break of every order
    it draws.
    """

    empty = 0

    def __init__(self, closed: list[int], rank):
        self.closed = closed
        self.n = len(closed)
        self.rank = tuple(rank)
        self.add_count = 0
        self.list_count = 0

    @classmethod
    def from_graph(cls, g: Graph) -> MaskNeighbourSets:
        """Structure over an explicit graph: N[v] is v's radius-1 ball, and
        the rank is the graph's Cuthill–McKee order."""
        return cls(balls_at(g, 1), locality_rank(g))

    def add_neighbours(self, h: int, v: int) -> int:
        """The set h union N[v]."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        self.add_count += 1
        return h | self.closed[v]

    def list_differences(self, h1: int, h2: int) -> list:
        """The elements of exactly one of the two sets, as a list: one
        listing, which ``list_count`` counts."""
        self.list_count += 1
        return ids_of(h1 ^ h2)
