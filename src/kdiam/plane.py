"""Plane-wide marking structure and its neighbour-set adapter.

A convex polygon is the intersection of one slab ``lo <= normal . x <= hi``
per class of parallel sides (:meth:`kdiam.geometry.ConvexPolygon.slabs`).
Per slab, the points a copy of the polygon covers are a contiguous run of
the points sorted by their projection on the slab's normal, so each slab is
one stripe (:mod:`kdiam.stripes`) and the cover of a center is the AND of
one lookup per stripe.  A marked set is one exact mask with bit i for point i: marking
ORs in each center's cover, and listing a difference is one XOR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stripes as st
from .geometry import (ConvexPolygon, adjacency_slabs, axis_square,
                       check_distinct)
from .nsds import MaskNeighbourSets


@dataclass(frozen=True)
class PlaneVersion:
    """Immutable marked set: bit i of ``mask`` is point i."""

    structure: "PlaneStructure"
    mask: int


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
        self.stripes = [st.stripe_init(keys).stripe for keys in self.keys]
        self.aux_nodes = 0  # listings made (the benchmark's counter name)

    def empty_version(self) -> PlaneVersion:
        return PlaneVersion(self, 0)

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

    def mark(self, version: PlaneVersion, centers) -> PlaneVersion:
        """New version whose marked set gains the points covered by the
        shape centered at each of ``centers``; the version itself when no
        point is gained."""
        if version.structure is not self:
            raise ValueError("version belongs to a different structure")
        mask = version.mask
        for center in centers:
            mask |= self.cover(center)
        return version if mask == version.mask else PlaneVersion(self, mask)

    # -- queries ------------------------------------------------------------

    def list_differences(self, v1: PlaneVersion, v2: PlaneVersion) -> list:
        """Point ids marked in exactly one version, in increasing order: the
        set bits of the XOR of the two version masks."""
        if v1.structure is not self or v2.structure is not self:
            raise ValueError("versions belong to a different structure")
        self.aux_nodes += 1
        return st.ids_of(v1.mask ^ v2.mask)

    def decode(self, version: PlaneVersion) -> set:
        """Full marked set of a version."""
        return set(st.ids_of(version.mask))

    def stripe_node_counters(self):
        """Per slab index: (lookups, lookups that found a point,
        listings)."""
        return {j: (s.marks, s.mark_nodes, s.list_nodes)
                for j, s in enumerate(self.stripes)}


def plane_init(points, shape: ConvexPolygon | None):
    """Build the structure for marks of ``shape`` (None: the axis-aligned
    unit square); returns (structure, empty version)."""
    if shape is None:
        shape = axis_square(1.0)
    structure = PlaneStructure(points, shape.slabs())
    return structure, structure.empty_version()


def plane_mark(version: PlaneVersion, center) -> PlaneVersion:
    return version.structure.mark(version, (center,))


def plane_list_differences(v1: PlaneVersion, v2: PlaneVersion) -> list:
    return v1.structure.list_differences(v1, v2)


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
