"""Footprint objects the tests measure the float-tuple library against.

The library handles a footprint as the tuple (x, y, theta, half_l, half_w)
and its outline as the counter-clockwise corner list of
`geometry.corner_points`.  The tests keep the object form they were written
on: `FootprintBox` with its axis-aligned `Interval` bounds, the proxy test
`collide_proxy`, the point-to-box signed distance, and the gap term's
oracle `box_separation` with the projected overlaps it reads on the edge
normals, `axis_overlaps`.  `outline` turns a box into the library's corner
list, `corners` into a (4, 2) array.  `reference_enclosing_box` is the
stand-in box as it was built from a list of corner points and two axis
lists.  The numpy polygon bodies the exact checks had before they ran on
corner lists (`ConvexPolygon`, `reference_polygon_area`,
`reference_intersection_area`) stay here as the reference those checks are
compared with.  `reference_eval_physical` is the exact check as it was
before it skipped the room clip of a footprint inside the room: it clips
every footprint.  The bodies are kept as they were in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from layoutopt import geometry
from layoutopt.geometry import (
    Pose2D,
    _clip_halfplane,
    corner_points,
    half_extents,
    polygon_intersection_area,
)
from layoutopt.harness import COLLISION_TOLERANCE, OOB_TOLERANCE, PhysicalReport, asset_polygon, room_polygon


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on one axis."""

    lo: float
    hi: float

    def overlap(self, other: "Interval") -> float:
        """Signed overlap length; negative when the intervals are disjoint."""
        return min(self.hi, other.hi) - max(self.lo, other.lo)


@dataclass(frozen=True)
class FootprintBox:
    """Rectangle footprint: pose plus half sizes along the local axes.

    half_l spans local +x/-x, half_w spans local +y/-y.
    """

    pose: Pose2D
    half_l: float
    half_w: float

    def __post_init__(self):
        if self.half_l <= 0.0 or self.half_w <= 0.0:
            raise ValueError("footprint half sizes must be positive")

    @property
    def area(self) -> float:
        return 4.0 * self.half_l * self.half_w


def axis_bounds(box: FootprintBox) -> tuple[Interval, Interval]:
    """Axis-aligned proxy bounds: center +/- half extents on each axis."""
    ax, ay, _, _ = half_extents(box.half_l, box.half_w, box.pose.theta)
    return (
        Interval(box.pose.x - ax, box.pose.x + ax),
        Interval(box.pose.y - ay, box.pose.y + ay),
    )


def collide_proxy(a: FootprintBox, b: FootprintBox) -> bool:
    """True when the axis-aligned proxies overlap with positive area.

    Touching boundaries (zero-length overlap) do not count as collision.
    """
    ax, ay = axis_bounds(a)
    bx, by = axis_bounds(b)
    return ax.overlap(bx) > 0.0 and ay.overlap(by) > 0.0


def outline(box: FootprintBox) -> list:
    """The footprint as the library's exact checks take it: its
    `corner_points`, counter-clockwise (x, y) float pairs."""
    return corner_points(box.pose.x, box.pose.y, box.pose.theta, box.half_l, box.half_w)


def corners(box: FootprintBox) -> np.ndarray:
    """World-frame corners of the footprint, counter-clockwise, shape (4, 2)."""
    return np.array(outline(box))


def reference_enclosing_box(poses, halves) -> tuple:
    """Center (x, y), half_l and half_w of the axis-aligned box enclosing
    the footprints with the given (x, y, theta) poses and (half_l, half_w);
    NaN on an axis where a corner coordinate is NaN."""
    points = [p for (x, y, t), (hl, hw) in zip(poses, halves) for p in corner_points(x, y, t, hl, hw)]
    lo, hi = [], []
    for axis in ([p[0] for p in points], [p[1] for p in points]):
        total = sum(axis)
        nan = total != total and any(v != v for v in axis)
        lo.append(math.nan if nan else min(axis))
        hi.append(math.nan if nan else max(axis))
    return (0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1])), 0.5 * (hi[0] - lo[0]), 0.5 * (hi[1] - lo[1])


def reference_polygon_area(points: np.ndarray) -> float:
    """Shoelace area of a simple polygon given as an (n, 2) vertex array."""
    if len(points) < 3:
        return 0.0
    x, y = points[:, 0], points[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon with counter-clockwise vertices, shape (n, 2)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("polygon needs at least 3 planar vertices")
        # Convexity and orientation: consecutive edge cross products must not
        # turn clockwise (collinear vertices are tolerated).
        n = len(v)
        for i in range(n):
            e1 = v[(i + 1) % n] - v[i]
            e2 = v[(i + 2) % n] - v[(i + 1) % n]
            if e1[0] * e2[1] - e1[1] * e2[0] < -1e-9:
                raise ValueError("vertices must be convex and counter-clockwise")

    @staticmethod
    def from_box(box: FootprintBox) -> "ConvexPolygon":
        return ConvexPolygon(corners(box))

    @property
    def area(self) -> float:
        return reference_polygon_area(self.vertices)


def reference_intersection_area(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Exact intersection area of two convex polygons.

    Clips `a` successively against each half-plane of `b` and measures the
    remainder.  Degenerate intersections (points, segments) have zero area.
    """
    pts = [tuple(p) for p in a.vertices]
    vb = b.vertices
    n = len(vb)
    for i in range(n):
        if len(pts) < 3:
            return 0.0
        pts = _clip_halfplane(pts, vb[i], vb[(i + 1) % n])
    if len(pts) < 3:
        return 0.0
    return reference_polygon_area(np.asarray(pts))


def signed_distance_point_box(point, box: FootprintBox) -> float:
    """Signed distance from a point to the box boundary.

    Positive outside, zero on the boundary, negative inside.
    """
    c, s = math.cos(box.pose.theta), math.sin(box.pose.theta)
    dx = float(point[0]) - box.pose.x
    dy = float(point[1]) - box.pose.y
    ux = c * dx + s * dy
    uy = -s * dx + c * dy
    qx = abs(ux) - box.half_l
    qy = abs(uy) - box.half_w
    outside = math.hypot(max(qx, 0.0), max(qy, 0.0))
    return outside + min(max(qx, qy), 0.0)


def _segment_distance(p, s0, s1) -> float:
    """Distance from the point p to the segment s0-s1."""
    ex, ey = s1[0] - s0[0], s1[1] - s0[1]
    t = min(max(((p[0] - s0[0]) * ex + (p[1] - s0[1]) * ey) / (ex * ex + ey * ey), 0.0), 1.0)
    return math.hypot(p[0] - s0[0] - t * ex, p[1] - s0[1] - t * ey)


def axis_overlaps(a: FootprintBox, b: FootprintBox) -> list:
    """For each edge normal, a's local x and y, then b's, the two one-sided
    overlaps of the boxes' corner projections on it: max(a) - min(b) and
    max(b) - min(a).  The projections overlap by the smaller one."""
    ca, cb = outline(a), outline(b)
    out = []
    for theta in (a.pose.theta, a.pose.theta + 0.5 * math.pi, b.pose.theta, b.pose.theta + 0.5 * math.pi):
        n = (math.cos(theta), math.sin(theta))
        pa = [x * n[0] + y * n[1] for x, y in ca]
        pb = [x * n[0] + y * n[1] for x, y in cb]
        out.append((max(pa) - min(pb), max(pb) - min(pa)))
    return out


def box_separation(a: FootprintBox, b: FootprintBox) -> float:
    """Signed separation of two boxes, the quantity the gap term reads.

    Disjoint or touching boxes (no intersection area): the smallest
    distance from a corner of either box to an edge of the other.
    Overlapping boxes: minus the separating-axis depth, the smallest
    overlap of their projections over the four edge normals.
    """
    ca, cb = outline(a), outline(b)
    if polygon_intersection_area(ca, cb) == 0.0:
        return min(
            _segment_distance(p, q[k], q[(k + 1) % 4]) for points, q in ((ca, cb), (cb, ca)) for p in points
            for k in range(4)
        )
    return -min(min(pair) for pair in axis_overlaps(a, b))


def reference_eval_physical(spec, layout) -> PhysicalReport:
    """`harness.eval_physical`, clipping every footprint against the room."""
    ids = [a.id for a in spec.assets]
    polys = [asset_polygon(spec, aid, layout) for aid in ids]
    room = room_polygon(spec)

    lo = [(min(x for x, _ in p), min(y for _, y in p)) for p in polys]
    hi = [(max(x for x, _ in p), max(y for _, y in p)) for p in polys]
    colliding = set()
    for i, j in geometry.overlapping_pairs(lo, hi):
        if polygon_intersection_area(polys[i], polys[j]) > COLLISION_TOLERANCE:
            colliding.add(ids[i])
            colliding.add(ids[j])
    oob = []
    for a, poly in zip(spec.assets, polys):
        outside = a.size[0] * a.size[1] - polygon_intersection_area(poly, room)
        if not outside <= OOB_TOLERANCE:
            oob.append(a.id)

    n = max(len(ids), 1)
    return PhysicalReport(
        100.0 * len(colliding) / n,
        100.0 * len(oob) / n,
        tuple(sorted(colliding)),
        tuple(oob),
    )
