"""Plane-wide persistent marking structure and its neighbour-set adapter.

The plane splits into height-1 stripes (only stripes holding a point are
materialized).  One mark places a convex symmetric shape at a center: the
shape's vertical slabs (trapezoids) are routed per stripe as bottom-boundary,
top-boundary or full-height updates.  Every shape, the unit square included,
takes this one path; a unit square is a single slab whose top and bottom lie
on the up and down directions every stripe carries.  A version is one
stripe root per band plus the whole marked set as one exact mask, the
stripes' root masks laid side by side in band order, so listing a
difference is one XOR of two masks read through a table of point ids in
band-then-x order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stripes as st
from .geometry import (ConvexPolygon, adjacency_shape, axis_square,
                       check_distinct, normalize_polygon, trapezoid_decompose)
from .nsds import NeighbourSetStructure, SetHandle


@dataclass(frozen=True)
class PlaneVersion:
    """Immutable snapshot of the whole marked family: one stripe root per
    band, in band order, and the marked set as a mask whose bits from a
    band's offset on are that band's root mask."""

    structure: "PlaneStructure"
    roots: tuple
    mask: int


class PlaneStructure:
    """Persistent family of point subsets under shape marks.

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
        self._stripe_static = {}
        # Per band index: the bit offset of its stripe in a version mask;
        # _ids[offset + i] is the stripe's point at position i.
        self._offsets = []
        self._ids = []
        roots = []
        for band in self.bands:
            v = st.stripe_init(by_band[band], float(band), dirs=self.dirs)
            self._stripe_static[band] = v.static
            self._offsets.append(len(self._ids))
            self._ids.extend(v.static.ids)
            roots.append(v.root)
        # Roots only: a version stored here would refer back to the
        # structure, and the cycle would keep it alive until a collection.
        self._empty_roots = tuple(roots)
        self.aux_nodes = 0  # listings made (the benchmark's counter name)
        self._plans = {}

    def empty_version(self) -> PlaneVersion:
        return PlaneVersion(self, self._empty_roots, 0)

    # -- marking ------------------------------------------------------------

    def _parts_for(self, tcx, tcy):
        """(band, xlo, xhi, side, dir index, offset) updates for a mark whose
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
                    out.append((band, seg[0], seg[1], st.BOT, jt, ct))
                seg = _x_window(x0, x1, bot0, bot1, y0, y1)
                if seg is not None:
                    out.append((band, seg[0], seg[1], st.TOP, jb, cb))
                seg = _rect_window(x0, x1, top0, top1, bot0, bot1, y0, y1)
                if seg is not None:
                    out.append((band, seg[0], seg[1], st.BOT, st.UP,
                                y1 + 0.5))
        return out

    def _plan(self, center) -> tuple:
        """The compiled mark at ``center``: one (stripe static, band
        index, parts) entry per band it touches, in band order, where each
        part is a ``stripe_mark_lines`` part.  Memoized per center,
        since it depends on nothing else."""
        x, y = center
        key = (float(x), float(y))
        plan = self._plans.get(key)
        if plan is None:
            tcx, tcy = (float(v) for v in self.transform.apply([key])[0])
            by_band: dict[int, list] = {}
            for band, *part in self._parts_for(tcx, tcy):
                by_band.setdefault(band, []).append(tuple(part))
            plan = tuple((self._stripe_static[band], self.band_index[band],
                          tuple(parts))
                         for band, parts in sorted(by_band.items()))
            self._plans[key] = plan
        return plan

    def mark(self, version: PlaneVersion, centers) -> PlaneVersion:
        """New version whose marked set gains the points covered by the
        shape centered at each of ``centers`` (original coordinates).  The
        parts of all centers are grouped by band, so each band touched gets
        one stripe descent.  Marks only add points, so ORing each new stripe
        mask in at its band's offset gives the exact new mask."""
        if version.structure is not self:
            raise ValueError("version belongs to a different structure")
        by_band: dict[int, tuple] = {}
        for center in centers:
            for static, band_i, parts in self._plan(center):
                entry = by_band.get(band_i)
                if entry is None:
                    by_band[band_i] = (static, list(parts))
                else:
                    entry[1].extend(parts)
        roots = None
        mask = version.mask
        for band_i, (static, parts) in by_band.items():
            stripe_root = version.roots[band_i]
            root = st.stripe_mark_lines(st.StripeVersion(static, stripe_root),
                                        parts).root
            if root is not stripe_root:
                if roots is None:
                    roots = list(version.roots)
                roots[band_i] = root
                mask |= root.mask << self._offsets[band_i]
        if roots is None:
            return version
        return PlaneVersion(self, tuple(roots), mask)

    # -- queries ------------------------------------------------------------

    def list_differences(self, v1: PlaneVersion, v2: PlaneVersion) -> list:
        """Point ids marked in exactly one version, in band-then-x order:
        the set bits of the XOR of the two version masks."""
        if v1.structure is not self or v2.structure is not self:
            raise ValueError("versions belong to a different structure")
        self.aux_nodes += 1
        return st.ids_of(v1.mask ^ v2.mask, self._ids)

    def decode(self, version: PlaneVersion) -> set:
        """Full marked set of a version, read from the stripe leaves (test
        oracle support)."""
        out = set()
        for band, root in zip(self.bands, version.roots):
            out.update(st.decode_marked(
                st.StripeVersion(self._stripe_static[band], root)))
        return out

    def stripe_node_counters(self):
        return {band: (s.marks, s.mark_nodes, s.list_nodes)
                for band, s in self._stripe_static.items()}


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


class GeometricNeighbourSets(NeighbourSetStructure):
    """Neighbour-set structure for the intersection graph of a convex shape:
    the closed neighborhood of v is exactly the point set covered by the
    adjacency shape (twice the symmetrized shape, grown by the geometry
    tolerance) centered at v, so AddNeighbours is a mark.

    Marks are deferred.  A new handle records only its parent handle and its
    vertex; the first time a handle is read, every vertex pending along its
    chain of parents is marked in one multi-center mark, so a run of
    AddNeighbours costs one stripe descent per band it touches.  The chain
    is cut at each pending handle that was extended more than once: that
    handle is materialized on the way, and its other extensions start from
    it instead of marking its vertices again.
    """

    def __init__(self, points, shape: ConvexPolygon | None):
        pts = np.asarray(points, dtype=np.float64)
        super().__init__(pts.shape[0])
        if shape is None:
            shape = axis_square(1.0)
        self._plane = PlaneStructure(pts, adjacency_shape(shape))
        self._centers = [(float(x), float(y)) for x, y in pts]
        self.clear()

    def clear(self) -> None:
        """Drop every version; the plane structure, with its stripes,
        compiled marks and line-state caches, is kept."""
        super().clear()
        # Per handle index: its version (None while pending), its parent
        # index and vertex (-1 for the empty set), and how often it was
        # extended.
        self._versions = [self._plane.empty_version()]
        self._parent = [-1]
        self._vertex = [-1]
        self._extended = [0]

    def _version(self, i: int) -> PlaneVersion:
        versions = self._versions
        if versions[i] is not None:
            return versions[i]
        # (handle index, its pending vertices from the handle upwards), one
        # entry per chain segment, from i up to the nearest materialized
        # ancestor.
        segments = [(i, [])]
        j = i
        while versions[j] is None:
            segments[-1][1].append(self._vertex[j])
            j = self._parent[j]
            if versions[j] is None and self._extended[j] > 1:
                segments.append((j, []))
        version = versions[j]
        centers = self._centers
        for k, vs in reversed(segments):
            version = self._plane.mark(version,
                                       [centers[v] for v in reversed(vs)])
            versions[k] = version
        return version

    def add_neighbours(self, h: SetHandle, v: int) -> SetHandle:
        self._check_handle(h, len(self._versions))
        self._check_vertex(v)
        self.add_count += 1
        self._extended[h.index] += 1
        self._versions.append(None)
        self._parent.append(h.index)
        self._vertex.append(v)
        self._extended.append(0)
        return SetHandle(self._id, len(self._versions) - 1)

    def list_differences(self, h1: SetHandle, h2: SetHandle) -> list:
        self._check_handle(h1, len(self._versions))
        self._check_handle(h2, len(self._versions))
        self.list_count += 1
        return self._plane.list_differences(self._version(h1.index),
                                            self._version(h2.index))


def geometric_nsds(points, shape: ConvexPolygon | None,
                   seed=None) -> GeometricNeighbourSets:
    """Structure instance ready for the implicit diameter algorithm.  The
    structure draws nothing at random; ``seed`` is accepted and ignored so
    callers written for a seeded structure keep working."""
    return GeometricNeighbourSets(points, shape)
