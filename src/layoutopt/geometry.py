"""Planar rigid-body geometry for layout solving.

Poses live in SE(2) and are written (x, y, theta) with theta in radians,
counter-clockwise, zero facing +x.  Object footprints are rectangles centered
on their pose, handled as plain floats: a footprint is the tuple
(x, y, theta, half_l, half_w), its outline the counter-clockwise list of
(x, y) pairs that `corner_points` returns.  Collision pre-checks use the
axis-aligned proxy box spanned by the rotated footprint (`half_extents`,
`overlapping_pairs`); exact overlap clips such corner lists against each
other (`polygon_intersection_area`, `polygon_area`), and `contains` tells
when such a clip would change nothing.
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
    later ones in lo_x order whose lo_x is below its hi_x, so it meets each
    pair once.  A box with a non-finite bound pairs with every other box;
    only then can a pair come twice, and only then are the pairs deduped.
    Pairs come in row-major order, that of `for i in range(n): for j in
    range(i + 1, n)`.
    """
    live, bad = [], []
    isfinite = math.isfinite
    for i, ((lx, ly), (hx, hy)) in enumerate(zip(lo, hi)):
        lx, hx, ly, hy = float(lx), float(hx), float(ly), float(hy)
        if not (isfinite(lx) and isfinite(hx) and isfinite(ly) and isfinite(hy)):
            bad.append(i)
        elif hx > lx and hy > ly:
            live.append((lx, hx, ly, hy, i))
    live.sort()
    pairs = [(min(i, k), max(i, k)) for k in bad for i in range(len(lo)) if i != k]
    for p, (_, hx, ly, hy, i) in enumerate(live):
        for q in range(p + 1, len(live)):
            lx2, _, ly2, hy2, j = live[q]
            if lx2 >= hx:
                break
            if ly2 < hy and ly < hy2:
                pairs.append((i, j) if i < j else (j, i))
    if bad:
        return sorted(set(pairs))
    pairs.sort()
    return pairs


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
    unit frame.  One pass over the corners of `corner_points`, in its order,
    keeps each axis's extremes with first-wins comparisons, as `min` and
    `max` do, so signed zeros and infinities come out as they would there.
    """
    lo_x = lo_y = math.inf
    hi_x = hi_y = -math.inf
    nan_x = nan_y = False
    for (x, y, theta), (half_l, half_w) in zip(poses, halves):
        c, s = math.cos(theta), math.sin(theta)
        for sx, sy in _CORNER_SIGNS:
            ox, oy = sx * half_l, sy * half_w
            px, py = x + c * ox - s * oy, y + s * ox + c * oy
            lo_x, hi_x = px if px < lo_x else lo_x, px if px > hi_x else hi_x
            lo_y, hi_y = py if py < lo_y else lo_y, py if py > hi_y else hi_y
            nan_x, nan_y = nan_x or px != px, nan_y or py != py
    lo_x, hi_x = (math.nan, math.nan) if nan_x else (lo_x, hi_x)
    lo_y, hi_y = (math.nan, math.nan) if nan_y else (lo_y, hi_y)
    return (0.5 * (lo_x + hi_x), 0.5 * (lo_y + hi_y)), 0.5 * (hi_x - lo_x), 0.5 * (hi_y - lo_y)


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


def contains(b: list, points: list) -> bool:
    """Whether every point lies in the convex polygon `b` (a list of (x, y)
    pairs, counter-clockwise) by `_clip_halfplane`'s own test on each of its
    edges, so that clipping the points against `b` returns them unchanged."""
    n = len(b)
    for i in range(n):
        ax, ay = b[i]
        cx, cy = b[(i + 1) % n]
        ex, ey = cx - ax, cy - ay
        for px, py in points:
            if not ex * (py - ay) - ey * (px - ax) >= 0.0:
                return False
    return True


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
