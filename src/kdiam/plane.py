"""Plane-wide marking structure and its neighbour-set adapter.

A convex polygon is the intersection of one slab ``lo <= normal . x <= hi``
per class of parallel sides (:meth:`kdiam.geometry.ConvexPolygon.slabs`).
Per slab, the points a copy of the polygon covers are a contiguous run of
the points sorted by their projection on the slab's normal, so each slab is
one stripe (:mod:`kdiam.stripes`) and the cover of a center is the AND of
one lookup per stripe.  :meth:`PlaneStructure.covers` answers a batch of
centers with one bulk lookup per stripe; :func:`geometric_nsds` makes one
batch of every point, so building all n closed neighbourhoods costs one
bulk lookup and n XORs of prefix masks per slab.

A marked set is a plain ``int`` mask with bit i for point i: marking ORs in
each center's cover, and listing a difference is one XOR.  The decide path
reaches this module only through :func:`geometric_nsds`.  The methods
:meth:`PlaneStructure.mark` and :meth:`PlaneStructure.list_differences`,
the ``aux_nodes`` counter and :meth:`PlaneStructure.stripe_node_counters`
stay because the benchmark's tracer hooks or reads them by name.
"""

from __future__ import annotations

from operator import and_

import numpy as np

from . import stripes as st
from .geometry import ConvexPolygon, adjacency_slabs, check_distinct
from .graph import ids_of
from .nsds import MaskNeighbourSets


class PlaneStructure:
    """Family of point subsets under marks of one shape, given by its
    ``slabs``: (unit normal, lo, hi) triples, the shape being the points x
    with ``lo <= normal . x <= hi`` for every triple.  ``keys[j][i]`` is
    the projection of point i on slab j's normal, computed as
    ``points @ normal`` just as the oracle computes it, a float64 array, and
    ``stripes[j]`` holds those projections sorted."""

    def __init__(self, points, slabs):
        pts = np.asarray(points, dtype=np.float64)
        check_distinct(pts)
        self.slabs = slabs
        self.keys = [pts @ nrm for nrm, _, _ in self.slabs]
        self.stripes = [st.stripe_init(keys) for keys in self.keys]
        self.aux_nodes = 0  # listings made (the benchmark's counter name)

    # -- marking ------------------------------------------------------------

    def covers(self, keys) -> list[int]:
        """Per center, the mask of the points the shape covers when centered
        there, ``keys[j]`` holding the centers' projections on slab j's
        normal: the AND over the stripes of one bulk lookup each."""
        parts = [stripe.covers(cs, lo, hi)
                 for stripe, (_, lo, hi), cs in zip(self.stripes, self.slabs,
                                                    keys)]
        masks = parts[0]
        for part in parts[1:]:
            masks = list(map(and_, masks, part))
        return masks

    def cover(self, center) -> int:
        """Mask of the points the shape centered at ``center`` covers."""
        c = np.asarray(center, dtype=np.float64)
        return self.covers([[float(c @ nrm)] for nrm, _, _ in self.slabs])[0]

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
        return ids_of(m1 ^ m2)

    def stripe_node_counters(self):
        """Per slab index: (lookups, lookups that found a point,
        listings)."""
        return {j: (s.marks, s.mark_nodes, s.list_nodes)
                for j, s in enumerate(self.stripes)}


def hilbert_rank(points) -> tuple:
    """Every point id once, in the order a Hilbert curve (Platzman–Bartholdi)
    visits their cells.  The cells split the points' bounding square into
    2**L by 2**L, L = ceil(log2(n) / 2), so about one point per cell: a
    finer grid cost more than it saved.  Points in one cell keep id order.
    Points close on the curve are close in the plane, which the order
    construction uses to break its ties
    (:func:`kdiam.order.order_from_membership`)."""
    pts = np.asarray(points, dtype=np.float64)
    side = 1 << (((len(pts) - 1).bit_length() + 1) // 2)
    lo = pts.min(axis=0)
    span = float((pts.max(axis=0) - lo).max()) or 1.0
    cell = np.minimum(((pts - lo) * (side / span)).astype(np.int64), side - 1)
    x, y = cell[:, 0], cell[:, 1]
    h = np.zeros(len(pts), dtype=np.int64)
    s = side // 2
    while s:
        rx, ry = (x & s) > 0, (y & s) > 0
        h += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so the curve's sub-square starts where the
        # last one ended.
        flip = rx & ~ry
        x, y = np.where(flip, side - 1 - x, x), np.where(flip, side - 1 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s //= 2
    return tuple(np.argsort(h, kind="stable").tolist())


def geometric_nsds(points, shape: ConvexPolygon,
                   seed=None) -> MaskNeighbourSets:
    """Neighbour-set structure of the intersection graph of ``shape``
    placed at ``points``, built without the graph.  The closed
    neighbourhood of v is exactly the point set the slabs of
    :func:`adjacency_slabs` cover when centered at v, so
    ``closed`` is the covers of one batch of centers, each point at its own
    projections.  Its rank is :func:`hilbert_rank`.  The structure draws
    nothing at random; ``seed`` is accepted and ignored so callers written
    for a seeded structure keep working."""
    plane = PlaneStructure(points, adjacency_slabs(shape))
    return MaskNeighbourSets(plane.covers(plane.keys), hilbert_rank(points))
