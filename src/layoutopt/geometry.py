"""Planar rigid-body geometry for layout solving.

Poses live in SE(2) and are written (x, y, theta) with theta in radians,
counter-clockwise, zero facing +x.  Object footprints are rectangles centered
on their pose, handled as plain floats: a footprint is the tuple
(x, y, theta, half_l, half_w), its outline the counter-clockwise list of
(x, y) pairs that `corner_points` returns.  Collision pre-checks use the
axis-aligned proxy box spanned by the rotated footprint (`half_extents`,
`overlapping_pairs`); exact overlap clips such corner lists against each
other (`polygon_intersection_area`, `polygon_area`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Map an angle in radians to the interval (-pi, pi]."""
    a = math.fmod(theta, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


@dataclass(frozen=True)
class Pose2D:
    """Planar pose (x, y, theta).  theta is stored unnormalized."""

    x: float
    y: float
    theta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta], dtype=float)

    @staticmethod
    def from_array(v) -> "Pose2D":
        return Pose2D(float(v[0]), float(v[1]), float(v[2]))


def compose(outer: Pose2D, inner: Pose2D) -> Pose2D:
    """Pose composition: apply `inner` in the frame defined by `outer`.

    (x, y) = outer.xy + R(outer.theta) @ inner.xy, angles add.
    """
    c, s = math.cos(outer.theta), math.sin(outer.theta)
    return Pose2D(
        outer.x + c * inner.x - s * inner.y,
        outer.y + s * inner.x + c * inner.y,
        outer.theta + inner.theta,
    )


def invert(p: Pose2D) -> Pose2D:
    """Inverse pose: compose(invert(p), p) is the identity."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    return Pose2D(-(c * p.x + s * p.y), s * p.x - c * p.y, -p.theta)


def relative(a: Pose2D, b: Pose2D) -> Pose2D:
    """Pose of `b` expressed in the frame of `a`: invert(a) composed with b."""
    return compose(invert(a), b)


def half_extents(hl: float, hw: float, theta: float):
    """Half extents (ax, ay) of a footprint with half sizes (hl, hw) turned
    by theta, and their theta derivatives (dax, day):
    ax = hl*|cos t| + hw*|sin t|, ay = hl*|sin t| + hw*|cos t|."""
    c, s = math.cos(theta), math.sin(theta)
    sc, ss = math.copysign(1.0, c), math.copysign(1.0, s)
    ax = hl * abs(c) + hw * abs(s)
    ay = hl * abs(s) + hw * abs(c)
    dax = -hl * sc * s + hw * ss * c
    day = hl * ss * c - hw * sc * s
    return ax, ay, dax, day


def overlapping_pairs(lo, hi) -> list:
    """Pairs (i, j), i < j, of axis-aligned boxes whose overlap can be positive.

    `lo` and `hi` hold the (x, y) bounds of each box.  A pair is dropped only
    when min(hi_i, hi_j) - max(lo_i, lo_j) <= 0 on some axis, so boxes that
    only touch are dropped; for finite floats, when a box is empty on the
    axis or one's hi is at most the other's lo.  One sort-and-sweep on x
    (Ericson, Real-Time Collision Detection, ch. 7) meets each box with the
    later ones in lo_x order whose lo_x is below its hi_x.  A box with a
    non-finite bound pairs with every other box.  Pairs come in row-major
    order, that of `for i in range(n): for j in range(i + 1, n)`.
    """
    live, bad = [], []
    for i, ((lx, ly), (hx, hy)) in enumerate(zip(lo, hi)):
        bounds = (float(lx), float(hx), float(ly), float(hy))
        if not all(map(math.isfinite, bounds)):
            bad.append(i)
        elif bounds[1] > bounds[0] and bounds[3] > bounds[2]:
            live.append((*bounds, i))
    live.sort()
    pairs = [(min(i, k), max(i, k)) for k in bad for i in range(len(lo)) if i != k]
    for p, (_, hx, ly, hy, i) in enumerate(live):
        for q in range(p + 1, len(live)):
            lx2, _, ly2, hy2, j = live[q]
            if lx2 >= hx:
                break
            if ly2 < hy and ly < hy2:
                pairs.append((i, j) if i < j else (j, i))
    return sorted(set(pairs))


# Corner offsets in the local frame, counter-clockwise starting at (+, +).
_CORNER_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def corner_points(x: float, y: float, theta: float, half_l: float, half_w: float) -> list:
    """Corners of the footprint with pose (x, y, theta) and the given half
    sizes, as (x, y) float pairs, counter-clockwise."""
    c, s = math.cos(theta), math.sin(theta)
    out = []
    for sx, sy in _CORNER_SIGNS:
        ox, oy = sx * half_l, sy * half_w
        out.append((x + c * ox - s * oy, y + s * ox + c * oy))
    return out


def enclosing_box(poses, halves) -> tuple:
    """Center (x, y), half_l and half_w of the axis-aligned box enclosing
    the footprints with the given (x, y, theta) poses and (half_l, half_w);
    NaN on an axis where a corner coordinate is NaN.  A unit's stand-in box
    is this box of its anchor, at the frame origin, and its members, in the
    unit frame."""
    points = [p for (x, y, t), (hl, hw) in zip(poses, halves) for p in corner_points(x, y, t, hl, hw)]
    lo, hi = [], []
    for axis in ([p[0] for p in points], [p[1] for p in points]):
        total = sum(axis)
        nan = total != total and any(v != v for v in axis)
        lo.append(math.nan if nan else min(axis))
        hi.append(math.nan if nan else max(axis))
    return (0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1])), 0.5 * (hi[0] - lo[0]), 0.5 * (hi[1] - lo[1])


def polygon_area(points: list) -> float:
    """Shoelace area of a simple polygon given as a list of (x, y) pairs."""
    if len(points) < 3:
        return 0.0
    forward = backward = 0.0
    for (px, py), (qx, qy) in zip(points, [*points[1:], points[0]]):
        forward += px * qy
        backward += py * qx
    return 0.5 * abs(forward - backward)


def _clip_halfplane(points: list, a, b) -> list:
    """Keep the part of a polygon on the left of the directed edge a->b."""
    out = []
    n = len(points)
    ex, ey = b[0] - a[0], b[1] - a[1]
    for i in range(n):
        p = points[i]
        q = points[(i + 1) % n]
        dp = ex * (p[1] - a[1]) - ey * (p[0] - a[0])
        dq = ex * (q[1] - a[1]) - ey * (q[0] - a[0])
        if dp >= 0.0:
            out.append(p)
            if dq < 0.0:
                t = dp / (dp - dq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        elif dq >= 0.0:
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def polygon_intersection_area(a: list, b: list) -> float:
    """Exact intersection area of two convex polygons, each a list of (x, y)
    pairs in counter-clockwise order, as `corner_points` gives them.

    Clips `a` successively against each half-plane of `b` (Sutherland and
    Hodgman) and measures the remainder.  Degenerate intersections (points,
    segments) have zero area.
    """
    pts = a
    n = len(b)
    for i in range(n):
        if len(pts) < 3:
            return 0.0
        pts = _clip_halfplane(pts, b[i], b[(i + 1) % n])
    return polygon_area(pts)


# Interior edge samples at odd eighths keep the probe set symmetric and dense
# enough that the separated-box minimum is still attained at a vertex probe.
_EDGE_FRACTIONS = (0.125, 0.375, 0.625, 0.875)


def boundary_probes(x: float, y: float, theta: float, half_l: float, half_w: float) -> list:
    """Probe points on the boundary of the footprint with pose (x, y, theta)
    and the given half sizes, as (x, y) float pairs: the 4 corners of
    `corner_points`, then 4 samples per edge."""
    cs = corner_points(x, y, theta, half_l, half_w)
    pts = list(cs)
    for k in range(4):
        (px, py), (qx, qy) = cs[k], cs[(k + 1) % 4]
        for t in _EDGE_FRACTIONS:
            pts.append((px + t * (qx - px), py + t * (qy - py)))
    return pts
