"""Neighbour-set structures: persistent families of vertex sets under
AddNeighbours / ListDifferences, plus the naive reference implementation.

The implicit diameter algorithm is written against the abstract interface
only; the geometric structure in :mod:`kdiam.plane` is the other
implementation.

``clear()`` drops every set but the empty one and issues handles under a
fresh owner id, so a handle from before the clear raises ``ValueError``.
What depends only on the graph stays: the closed neighborhoods and, in
the geometric structure, the stripes with their compiled marks and
line-state caches.  ``add_count`` and ``list_count`` keep counting across
clears.  The implicit driver builds one structure per call and clears it
between radius steps.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .graph import Graph

_structure_ids = itertools.count()


@dataclass(frozen=True)
class SetHandle:
    """Opaque immutable reference to a registered set.  Index 0 is the empty
    set; the set a handle denotes never changes."""

    owner_id: int
    index: int


class NeighbourSetStructure(ABC):
    """Persistent family of vertex subsets of a fixed graph.

    Supports exactly two operations: extend a set by a closed neighborhood,
    and list the symmetric difference of two sets (output-sensitively for
    the efficient implementations).
    """

    def __init__(self, n: int):
        self.n = n
        self._id = next(_structure_ids)
        self.add_count = 0
        self.list_count = 0

    def clear(self) -> None:
        """Drop every set but the empty one; earlier handles become invalid.
        Implementations extend this to reset their own storage."""
        self._id = next(_structure_ids)

    @property
    def empty(self) -> SetHandle:
        return SetHandle(self._id, 0)

    def _check_handle(self, h: SetHandle, n_versions: int) -> None:
        if not isinstance(h, SetHandle) or h.owner_id != self._id:
            raise ValueError("handle belongs to a different structure")
        if not 0 <= h.index < n_versions:
            raise ValueError(f"invalid handle index {h.index}")

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    @abstractmethod
    def add_neighbours(self, h: SetHandle, v: int) -> SetHandle:
        """New handle denoting set(h) union N[v]; ``h`` stays valid."""

    @abstractmethod
    def list_differences(self, h1: SetHandle, h2: SetHandle) -> list:
        """The symmetric difference set(h1) symdiff set(h2), each element
        exactly once, in no particular order."""


class NaiveNeighbourSets(NeighbourSetStructure):
    """Reference implementation backed by frozensets.

    Meets the interface contract but not the sub-linear cost bounds; it is
    the oracle for the efficient structure and the backend for running the
    implicit algorithm on explicit graphs.
    """

    def __init__(self, g: Graph):
        super().__init__(g.n)
        self._closed = [frozenset(g.adjacency[v]) | {v} for v in range(g.n)]
        self.clear()

    def clear(self) -> None:
        super().clear()
        self._sets = [frozenset()]

    def add_neighbours(self, h: SetHandle, v: int) -> SetHandle:
        self._check_handle(h, len(self._sets))
        self._check_vertex(v)
        self.add_count += 1
        self._sets.append(self._sets[h.index] | self._closed[v])
        return SetHandle(self._id, len(self._sets) - 1)

    def list_differences(self, h1: SetHandle, h2: SetHandle) -> list:
        self._check_handle(h1, len(self._sets))
        self._check_handle(h2, len(self._sets))
        self.list_count += 1
        return sorted(self._sets[h1.index] ^ self._sets[h2.index])

    def set_of(self, h: SetHandle) -> frozenset:
        """Test hook: the actual set behind a handle."""
        self._check_handle(h, len(self._sets))
        return self._sets[h.index]
