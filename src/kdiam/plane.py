"""Plane-wide marking structure and its neighbour-set adapter.

The plane splits into height-1 stripes (only stripes holding a point are
materialized).  One mark places a convex symmetric shape at a center: the
shape's vertical slabs (trapezoids) are cut per stripe into parts, each
covering the points of an x range on one side of a line
(:mod:`kdiam.stripes`).  Every shape, the unit square included, takes this
one path; a unit square is a single slab whose top and bottom lie on the up
and down directions every stripe carries.  A marked set is one exact mask,
the stripes' masks laid side by side in band order, so marking ORs in each
center's covered mask (computed once per center) and listing a difference
is one XOR of two masks read through a table of point ids in band-then-x
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stripes as st
from .geometry import (ConvexPolygon, adjacency_shape, axis_square,
                       check_distinct, normalize_polygon, trapezoid_decompose)
from .nsds import MaskNeighbourSets


@dataclass(frozen=True)
class PlaneVersion:
    """Immutable marked set: bit ``offset + i`` of ``mask`` is the point at
    position i of the stripe whose bits start at ``offset``."""

    structure: "PlaneStructure"
    mask: int


class PlaneStructure:
    """Family of point subsets under shape marks.

    ``shape`` is the marking shape: a centrally symmetric convex polygon
    (None means the axis-aligned unit square).  It is normalized into the
    stripe frame once and cut into trapezoids; points and mark centers pass
    through the same map.  ``dirs`` holds each stripe direction once: up
    and down at indices 0 and 1, then the distinct normals of the
    trapezoids' top and bottom sides.
    """

    def __init__(self, points, shape: ConvexPolygon | None):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, 2) array")
        check_distinct(pts)
        self.n = pts.shape[0]

        if shape is None:
            shape = axis_square(1.0)
        if not shape.is_symmetric():
            raise ValueError("marking shape must be centrally symmetric")
        self.shape, self.transform = normalize_polygon(shape)
        self.tpoints = self.transform.apply(pts)

        # A normal exactly equal to an earlier direction shares its index; a
        # near-equal one would move the line by the normals' difference times
        # the point coordinates, which at large coordinates exceeds TOL.
        sides = self.shape.side_normals()
        self.trapezoids = trapezoid_decompose(self.shape)
        self.dirs = list(st.UP_DOWN)
        self._side_dir = {}
        for side in sorted({t.top_side for t in self.trapezoids}
                           | {t.bot_side for t in self.trapezoids}):
            d = (float(sides[side][0][0]), float(sides[side][0][1]))
            if d not in self.dirs:
                self.dirs.append(d)
            self._side_dir[side] = self.dirs.index(d)
        self._side_off = [off for _, off in sides]

        by_band: dict[int, list] = {}
        for i, (x, y) in enumerate(self.tpoints):
            by_band.setdefault(math.floor(y), []).append((i, float(x), float(y)))
        self.bands = sorted(by_band)
        self.band_index = {b: i for i, b in enumerate(self.bands)}
        # Per band index: its stripe and the bit offset of that stripe in a
        # mask; ids[offset + i] is the stripe's point at position i.
        self.stripes = []
        self._offsets = []
        self.ids = []
        for band in self.bands:
            stripe = st.stripe_init(by_band[band], float(band),
                                    dirs=self.dirs).stripe
            self.stripes.append(stripe)
            self._offsets.append(len(self.ids))
            self.ids.extend(stripe.ids)
        self.aux_nodes = 0  # listings made (the benchmark's counter name)
        self._covers = {}

    def empty_version(self) -> PlaneVersion:
        return PlaneVersion(self, 0)

    # -- marking ------------------------------------------------------------

    def _parts_for(self, tcx, tcy):
        """(band, xlo, xhi, dir index, offset) parts of a mark whose
        transformed center is (tcx, tcy)."""
        out = []
        for trap in self.trapezoids:
            x0, x1 = trap.x0 + tcx, trap.x1 + tcx
            top0, top1 = trap.top0 + tcy, trap.top1 + tcy
            bot0, bot1 = trap.bot0 + tcy, trap.bot1 + tcy
            jt = self._side_dir[trap.top_side]
            jb = self._side_dir[trap.bot_side]
            ct = self._side_off[trap.top_side] + (
                self.dirs[jt][0] * tcx + self.dirs[jt][1] * tcy)
            cb = self._side_off[trap.bot_side] + (
                self.dirs[jb][0] * tcx + self.dirs[jb][1] * tcy)
            lo_band = math.floor(min(bot0, bot1))
            hi_band = math.floor(max(top0, top1))
            for band in range(lo_band, hi_band + 1):
                if band not in self.band_index:
                    continue
                y0, y1 = float(band), float(band) + 1.0
                # The slab's top side bounds the covered region where it is
                # inside the band; its bottom side where that one is; between
                # them the full band height is covered.  The shape contains a
                # unit square, so the two cases cannot meet at one x.
                seg = _x_window(x0, x1, top0, top1, y0, y1)
                if seg is not None:
                    out.append((band, seg[0], seg[1], jt, ct))
                seg = _x_window(x0, x1, bot0, bot1, y0, y1)
                if seg is not None:
                    out.append((band, seg[0], seg[1], jb, cb))
                seg = _rect_window(x0, x1, top0, top1, bot0, bot1, y0, y1)
                if seg is not None:
                    out.append((band, seg[0], seg[1], st.UP, y1 + 0.5))
        return out

    def cover(self, center) -> int:
        """Mask of the points the shape centered at ``center`` (original
        coordinates) covers.  Memoized per center, since it depends on
        nothing else."""
        key = (float(center[0]), float(center[1]))
        mask = self._covers.get(key)
        if mask is None:
            tcx, tcy = (float(v) for v in self.transform.apply([key])[0])
            mask = self._covers[key] = self.cover_at(tcx, tcy)
        return mask

    def cover_at(self, tcx: float, tcy: float) -> int:
        """Mask of the points the shape covers when centered at (tcx, tcy)
        in transformed coordinates: the OR of its parts' masks, each at its
        stripe's offset."""
        mask = 0
        for band, *part in self._parts_for(tcx, tcy):
            i = self.band_index[band]
            mask |= self.stripes[i].covered(*part) << self._offsets[i]
        return mask

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
        """Point ids marked in exactly one version, in band-then-x order:
        the set bits of the XOR of the two version masks."""
        if v1.structure is not self or v2.structure is not self:
            raise ValueError("versions belong to a different structure")
        self.aux_nodes += 1
        return st.ids_of(v1.mask ^ v2.mask, self.ids)

    def decode(self, version: PlaneVersion) -> set:
        """Full marked set of a version."""
        return set(st.ids_of(version.mask, self.ids))

    def stripe_node_counters(self):
        return {band: (s.marks, s.mark_nodes, s.list_nodes)
                for band, s in zip(self.bands, self.stripes)}


def _x_window(x0, x1, v0, v1, y0, y1):
    """Subinterval of [x0, x1] where the linear value v(x) lies in [y0, y1],
    or None.  v is given by its endpoint values."""
    if x1 <= x0:
        return None
    if v0 == v1:
        return (x0, x1) if y0 <= v0 <= y1 else None
    slope = (v1 - v0) / (x1 - x0)
    ta = (y0 - v0) / slope
    tb = (y1 - v0) / slope
    lo, hi = (ta, tb) if ta <= tb else (tb, ta)
    lo = max(x0, x0 + lo)
    hi = min(x1, x0 + hi)
    return (lo, hi) if lo <= hi else None


def _rect_window(x0, x1, t0, t1, b0, b1, y0, y1):
    """Subinterval of [x0, x1] where the slab covers the full band: top side
    at or above the band ceiling and bottom side at or below the floor."""
    lo, hi = x0, x1
    for v0, v1, bound, above in ((t0, t1, y1, True), (b0, b1, y0, False)):
        if v0 == v1:
            ok = v0 >= bound if above else v0 <= bound
            if not ok:
                return None
            continue
        slope = (v1 - v0) / (x1 - x0)
        t = (bound - v0) / slope
        # One side of the crossing satisfies the constraint.
        sat_right = (slope > 0) == above
        if sat_right:
            lo = max(lo, x0 + t)
        else:
            hi = min(hi, x0 + t)
    return (lo, hi) if lo <= hi else None


def plane_init(points, shape: ConvexPolygon | None):
    """Build the structure; returns (structure, empty version)."""
    structure = PlaneStructure(points, shape)
    return structure, structure.empty_version()


def plane_mark(version: PlaneVersion, center) -> PlaneVersion:
    return version.structure.mark(version, (center,))


def plane_list_differences(v1: PlaneVersion, v2: PlaneVersion) -> list:
    return v1.structure.list_differences(v1, v2)


def geometric_nsds(points, shape: ConvexPolygon | None,
                   seed=None) -> MaskNeighbourSets:
    """Neighbour-set structure of the intersection graph of ``shape``
    (None: the axis-aligned unit square) placed at ``points``, built without
    the graph.  The closed neighbourhood of v is exactly the point set that
    the adjacency shape (twice the symmetrized shape, grown by the geometry
    tolerance) covers when centered at v, so ``closed[v]`` is that cover's
    mask and listings come in band-then-x order.  The structure draws
    nothing at random; ``seed`` is accepted and ignored so callers written
    for a seeded structure keep working."""
    if shape is None:
        shape = axis_square(1.0)
    plane = PlaneStructure(points, adjacency_shape(shape))
    closed = [plane.cover_at(x, y) for x, y in plane.tpoints.tolist()]
    return MaskNeighbourSets(closed, plane.ids)
