"""Plane-wide marking structure and its neighbour-set adapter.

A convex polygon is the intersection of one slab ``lo <= normal . x <= hi``
per class of parallel sides (:meth:`kdiam.geometry.ConvexPolygon.slabs`).
Per slab, the points a copy of the polygon covers are a contiguous run of
the points sorted by their projection on the slab's normal, so each slab is
one stripe (:mod:`kdiam.stripes`) and the cover of a center is the AND of
one lookup per stripe.

A marked set is a plain ``int`` mask with bit i for point i: marking ORs in
each center's cover, and listing a difference is one XOR.  The decide path
reaches this module only through :func:`geometric_nsds`.  The methods
:meth:`PlaneStructure.mark` and :meth:`PlaneStructure.list_differences`,
the ``aux_nodes`` counter and :meth:`PlaneStructure.stripe_node_counters`
stay because the benchmark's tracer hooks or reads them by name.
"""

from __future__ import annotations

import numpy as np

from . import stripes as st
from .geometry import (ConvexPolygon, adjacency_slabs, axis_square,
                       check_distinct)
from .nsds import MaskNeighbourSets


class PlaneStructure:
    """Family of point subsets under marks of one shape, given by its
    ``slabs``: (unit normal, lo, hi) triples, the shape being the points x
    with ``lo <= normal . x <= hi`` for every triple.  ``keys[j][i]`` is
    the projection of point i on slab j's normal, computed as
    ``points @ normal`` just as the oracle computes it, and ``stripes[j]``
    holds those projections sorted."""

    def __init__(self, points, slabs):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, 2) array")
        check_distinct(pts)
        self.n = pts.shape[0]
        self.slabs = slabs
        self.keys = [(pts @ nrm).tolist() for nrm, _, _ in self.slabs]
        self.stripes = [st.stripe_init(keys) for keys in self.keys]
        self.aux_nodes = 0  # listings made (the benchmark's counter name)

    # -- marking ------------------------------------------------------------

    def cover_keys(self, keys) -> int:
        """Mask of the points the shape covers when centered where the
        projections on the slab normals are ``keys``: the AND of one lookup
        per stripe."""
        mask = -1
        for stripe, (_, lo, hi), c in zip(self.stripes, self.slabs, keys):
            mask &= stripe.covered(c, lo, hi)
        return mask

    def cover(self, center) -> int:
        """Mask of the points the shape centered at ``center`` covers."""
        c = np.asarray(center, dtype=np.float64)
        return self.cover_keys([float(c @ nrm) for nrm, _, _ in self.slabs])

    def mark(self, mask: int, centers) -> int:
        """``mask`` with the points covered by the shape centered at each of
        ``centers`` added."""
        for center in centers:
            mask |= self.cover(center)
        return mask

    # -- queries ------------------------------------------------------------

    def list_differences(self, m1: int, m2: int) -> list:
        """Point ids marked in exactly one of the two masks, in increasing
        order: the set bits of their XOR."""
        self.aux_nodes += 1
        return st.ids_of(m1 ^ m2)

    def stripe_node_counters(self):
        """Per slab index: (lookups, lookups that found a point,
        listings)."""
        return {j: (s.marks, s.mark_nodes, s.list_nodes)
                for j, s in enumerate(self.stripes)}


def geometric_nsds(points, shape: ConvexPolygon | None,
                   seed=None) -> MaskNeighbourSets:
    """Neighbour-set structure of the intersection graph of ``shape``
    (None: the axis-aligned unit square) placed at ``points``, built without
    the graph.  The closed neighbourhood of v is exactly the point set the
    slabs of :func:`kdiam.geometry.adjacency_slabs` cover when centered at
    v, so ``closed[v]`` is the cover at point v's own projections.  The
    structure draws nothing at random; ``seed`` is accepted and ignored so
    callers written for a seeded structure keep working."""
    if shape is None:
        shape = axis_square(1.0)
    plane = PlaneStructure(points, adjacency_slabs(shape))
    closed = [plane.cover_keys(keys) for keys in zip(*plane.keys)]
    return MaskNeighbourSets(closed)
