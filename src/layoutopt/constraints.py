"""Differentiable penalty terms over planar footprints.

Each penalty family is one scalar kernel on plain floats, `<family>_loss`.
A kernel takes its boxes as (x, y, theta, half_l, half_w) tuples: a relation
kernel a list of its end boxes, the term's scalar parameter, then the
constants that `_<family>_rule` (or `SIDE_RULES`) resolves.  It returns
(value, one (d/dx, d/dy, d/dtheta) tuple per box, d/d parameter or None),
a relation kernel then its penalty, the value but in `directional_loss`,
whose value squares the alignment w and whose penalty reads |w|.  Gradients
are hand-derived; kinks coming from hinges, absolute values, and min/max
selections use the subgradient that is zero at the kink (hinges) or the
tie-broken branch (selections).  Separations are exact: `gap_loss` reads
the corner-to-box distance of two boxes that are apart and minus their
separating-axis depth when they overlap.

Two aggregation levels mirror the pose parameterization: unit-local terms are
evaluated in the unit frame and never touch the unit pose; scene-level terms
see independent assets and whole units through their enclosing oriented box.
One pass, `objective`, reads poses from one flat parameter vector and adds
every gradient into one list of the same layout, by index, through the slot
table `ParamIndex`; each aggregate is that pass over one block.

`param_index` compiles a scene once into its relation plan, the one compiled
form of a scene: one `Block` per frame (each unit's, then the scene's)
listing its boxes and its relation terms in evaluation order (an around
group is one term, see `scene_model.relation_terms`).  Each `Term` names its
end boxes by position, its kernel, its constants and its scalar parameter,
optional params defaulted as the parser defaults them.  The pass,
`relation_penalties` and the imagination pass read that plan through
`_block_boxes`, which builds unit stand-ins with `geometry.enclosing_box`;
a heading that is not finite reads as NaN there.  The pass calls each
term's kernel, routes its gradients inline and records its penalty, which
`relation_penalties` evaluates afresh; collisions go through
`collision_loss`, once per pair the broadphase `_proxy_pairs` keeps, the
pairs the imagination pass checks for conflicts.  Kernels are looked up by
module attribute at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import MissingEntityError
from .geometry import _CORNER_SIGNS, enclosing_box, half_extents
from .scene_model import (
    CORNER_WALLS,
    DIRECTIONAL_KINDS,
    SCENE_ANCHORED_KINDS,
    SHARED_PARAM_SLOTS,
    Relation,
    Room,
    SceneSpec,
    relation_params,
    relation_terms,
    shared_param_priors,
)

FACING_EPS = 1e-8
_ZERO = (0.0, 0.0, 0.0)
_NAN = (math.nan, math.nan, math.nan)


@dataclass
class LossValue:
    """Result of an aggregate: the weighted objective, its gradient as one
    flat array laid out by a ParamIndex (a list while `objective` runs), the
    raw total of each penalty family by name, and each term's penalty."""

    value: float
    grads: np.ndarray
    terms: dict = field(default_factory=dict)
    penalties: list = field(default_factory=list)


@dataclass(frozen=True)
class Weights:
    """Multipliers for the three penalty families."""

    collision: float = 1.0
    relation: float = 1.0
    boundary: float = 1.0


def _heading(theta: float) -> float:
    return theta if math.isfinite(theta) else math.nan


# ---------------------------------------------------------------------------
# Collision and boundary
# ---------------------------------------------------------------------------


def _proxy_axis(ca, ha, cb, hb):
    """Overlap and span of two proxies on one axis, with their derivatives
    (d / d center_a, d / d half_a, same for b)."""
    alo, ahi = ca - ha, ca + ha
    blo, bhi = cb - hb, cb + hb
    ov = min(ahi, bhi) - max(alo, blo)
    span = max(ahi, bhi) - min(alo, blo)
    u, l = float(ahi <= bhi), float(alo >= blo)  # 1.0 where a's hi, lo ends the overlap
    su, sl = float(ahi >= bhi), float(alo <= blo)  # 1.0 where a's hi, lo ends the span
    return ov, span, (u - l, u + l, l - u, 2.0 - u - l), (su - sl, su + sl, sl - su, 2.0 - su - sl)


class CollisionLoss(NamedTuple):
    """`collision_loss`'s result; its fields are named because the
    benchmark's hit tally reads `.value`."""

    value: float
    grads: tuple
    param_grad: None


def collision_loss(a: tuple, b: tuple) -> CollisionLoss:
    """Overlap penalty on axis-aligned proxies.

    value = IoU + rho * (1 - d^2 / c^2), where rho is intersection over the
    smaller proxy area, d the center distance, and c the diagonal of the
    smallest axis-aligned box enclosing both proxies.  d <= c, so the value
    is never negative, and it is zero exactly when the proxies are disjoint:
    a clean layout is where the term is least.  The aggregates call it once
    per pair that the broadphase keeps.
    """
    ax_a, ay_a, dax_a, day_a = half_extents(a[3], a[4], a[2])
    ax_b, ay_b, dax_b, day_b = half_extents(b[3], b[4], b[2])
    ovx, cx, dovx, dcx = _proxy_axis(a[0], ax_a, b[0], ax_b)
    ovy, cy, dovy, dcy = _proxy_axis(a[1], ay_a, b[1], ay_b)
    px, py = max(ovx, 0.0), max(ovy, 0.0)
    inter = px * py

    area_a, area_b = 4.0 * ax_a * ay_a, 4.0 * ax_b * ay_b
    union = area_a + area_b - inter
    min_area = area_a if area_a <= area_b else area_b
    a_is_min = area_a <= area_b

    dx, dy = a[0] - b[0], a[1] - b[1]
    d2 = dx * dx + dy * dy
    c2 = cx * cx + cy * cy

    iou = inter / union
    rho = inter / min_area
    ratio = d2 / c2
    value = iou + rho * (1.0 - ratio)

    darea_a = 4.0 * (dax_a * ay_a + ax_a * day_a)  # d area_a / d theta_a
    darea_b = 4.0 * (dax_b * ay_b + ax_b * day_b)

    gate_x, gate_y = (1.0 if ovx > 0.0 else 0.0), (1.0 if ovy > 0.0 else 0.0)

    # Per-variable derivative bundles: (d inter, d area_a, d area_b, d d2, d c2),
    # for a's x, y, theta, then b's.
    rows = (
        (gate_x * py * dovx[0], 0.0, 0.0, 2.0 * dx, 2.0 * cx * dcx[0]),
        (gate_y * px * dovy[0], 0.0, 0.0, 2.0 * dy, 2.0 * cy * dcy[0]),
        (gate_x * py * dovx[1] * dax_a + gate_y * px * dovy[1] * day_a, darea_a, 0.0, 0.0,
         2.0 * cx * dcx[1] * dax_a + 2.0 * cy * dcy[1] * day_a),
        (gate_x * py * dovx[2], 0.0, 0.0, -2.0 * dx, 2.0 * cx * dcx[2]),
        (gate_y * px * dovy[2], 0.0, 0.0, -2.0 * dy, 2.0 * cy * dcy[2]),
        (gate_x * py * dovx[3] * dax_b + gate_y * px * dovy[3] * day_b, 0.0, darea_b, 0.0,
         2.0 * cx * dcx[3] * dax_b + 2.0 * cy * dcy[3] * day_b),
    )
    union2, min_area2, c2_2 = union * union, min_area * min_area, c2 * c2
    g = []
    for d_inter, d_area_a, d_area_b, d_d2, d_c2 in rows:
        d_union = d_area_a + d_area_b - d_inter
        d_iou = (d_inter * union - inter * d_union) / union2
        d_min = d_area_a if a_is_min else d_area_b
        d_rho = (d_inter * min_area - inter * d_min) / min_area2
        d_ratio = (d_d2 * c2 - d2 * d_c2) / c2_2
        g.append(d_iou + d_rho * (1.0 - ratio) - rho * d_ratio)
    return CollisionLoss(value, ((g[0], g[1], g[2]), (g[3], g[4], g[5])), None)


def _proxy_pairs(boxes: list) -> list:
    """Position pairs of `boxes` in nested-loop order, less the pairs whose
    proxies are disjoint or touch: `collision_loss` is exactly 0 there,
    with a gradient of signed zeros.  Bounds use the half extents and the
    expressions of `collision_loss` (`half_extents`' ax and ay), so the two
    agree bit for bit."""
    lo, hi = [], []
    for x, y, theta, half_l, half_w in boxes:
        c, s = abs(math.cos(theta)), abs(math.sin(theta))
        ax, ay = half_l * c + half_w * s, half_l * s + half_w * c
        lo.append((x - ax, y - ay))
        hi.append((x + ax, y + ay))
    return geometry.overlapping_pairs(lo, hi)


def boundary_loss(box: tuple, room: Room):
    """L1 excursion of the footprint corners outside the room rectangle;
    NaN, with a NaN gradient, on a box holding a NaN."""
    if any(map(math.isnan, box)):
        return math.nan, (_NAN,), None
    x, y, theta, half_l, half_w = box
    c, s = math.cos(theta), math.sin(theta)
    limits = (room.length, room.width)
    value, g = 0.0, [0.0, 0.0, 0.0]
    for sx, sy in ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)):
        ox, oy = sx * half_l, sy * half_w
        corner = (x + c * ox - s * oy, y + s * ox + c * oy)
        for axis_i in (0, 1):
            v = corner[axis_i]
            if v < 0.0:
                value += -v
                g[axis_i] -= 1.0
                g[2] -= -s * ox - c * oy if axis_i == 0 else c * ox - s * oy
            elif v > limits[axis_i]:
                value += v - limits[axis_i]
                g[axis_i] += 1.0
                g[2] += -s * ox - c * oy if axis_i == 0 else c * ox - s * oy
    return value, ((g[0], g[1], g[2]),), None


# ---------------------------------------------------------------------------
# Pairwise relation penalties
# ---------------------------------------------------------------------------


def distance_loss(boxes: list, d_star: float):
    """Squared error between center distance and the target d_star."""
    a, b = boxes
    dx, dy = a[0] - b[0], a[1] - b[1]
    dist = math.hypot(dx, dy)
    r = dist - d_star
    if dist > 1e-12:
        k = 2.0 * r / dist
        return r * r, ((k * dx, k * dy, 0.0), (-k * dx, -k * dy, 0.0)), -2.0 * r, r * r
    return r * r, (_ZERO, _ZERO), -2.0 * r, r * r


def _local_sdf(ux: float, uy: float, half_l: float, half_w: float) -> float:
    """Signed distance from the point (ux, uy) of a box's frame to its
    boundary; the value part of `_local_sdf_grad`."""
    ex = abs(ux) - half_l
    ey = abs(uy) - half_w
    if ex > 0.0 or ey > 0.0:
        return math.hypot(max(ex, 0.0), max(ey, 0.0))
    return ex if ex >= ey else ey


def _local_sdf_grad(ux: float, uy: float, half_l: float, half_w: float):
    """d `_local_sdf` / d (ux, uy), tie-broken toward the x face inside."""
    ex = abs(ux) - half_l
    ey = abs(uy) - half_w
    if ex > 0.0 or ey > 0.0:
        px_, py_ = max(ex, 0.0), max(ey, 0.0)
        norm = math.hypot(px_, py_)
        return math.copysign(1.0, ux) * px_ / norm, math.copysign(1.0, uy) * py_ / norm
    if ex >= ey:
        return math.copysign(1.0, ux), 0.0
    return 0.0, math.copysign(1.0, uy)


def gap_loss(boxes: list, g: float):
    """Squared error between the signed separation of two boxes and target g.

    The separation is exact (Ericson, Real-Time Collision Detection, ch. 5):
    - Boxes whose projections overlap on all four edge normals read minus the
      smallest overlap, the separating-axis depth (Gottschalk et al. 1996),
      which for two rectangles is the shortest translation that parts them.
      On a normal n of box P at heading phi the overlap is half_P +
      hl_Q |cos(theta_Q - phi)| + hw_Q |sin(theta_Q - phi)| - |(c_Q - c_P) . n|.
    - Disjoint or touching boxes read the smallest `_local_sdf` of the eight
      corners against the other box: the distance between disjoint convex
      polygons is reached at a vertex.  A corner is carried into the other
      box's frame from the centre offset, not through world coordinates, so
      that it keeps its precision far from the origin.
    Derivatives follow the first strict minimum: a's normals (x, then y)
    before b's, and a's corners before b's, each in `corner_points` order.
    A NaN pose reads NaN, with NaN gradients.
    """
    (x1, y1, t1, l1, w1), (x2, y2, t2, l2, w2) = boxes
    c1, s1, c2, s2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
    dx, dy = x2 - x1, y2 - y1
    # cos and sin of b's heading less a's, and b's centre offset on each normal.
    cd, sd = c1 * c2 + s1 * s2, c1 * s2 - s1 * c2
    abs_cd, abs_sd = abs(cd), abs(sd)
    pa, qa, pb, qb = c1 * dx + s1 * dy, c1 * dy - s1 * dx, c2 * dx + s2 * dy, c2 * dy - s2 * dx
    overlaps = (l1 + l2 * abs_cd + w2 * abs_sd - abs(pa), w1 + l2 * abs_sd + w2 * abs_cd - abs(qa),
                l2 + l1 * abs_cd + w1 * abs_sd - abs(pb), w2 + l1 * abs_sd + w1 * abs_cd - abs(qb))
    if overlaps[0] > 0.0 and overlaps[1] > 0.0 and overlaps[2] > 0.0 and overlaps[3] > 0.0:
        depth = min(overlaps)
        k = overlaps.index(depth)
        # The overlap's half extent of the other box, its normal, the offset
        # on it and that offset's derivative by the normal's heading.
        hl, hw, n0, n1, p, dp = ((l2, w2, c1, s1, pa, qa), (w2, l2, -s1, c1, qa, -pa),
                                 (l1, w1, c2, s2, pb, qb), (w1, l1, -s2, c2, qb, -pb))[k]
        # d/d theta_a of the other box's extent on the normal, through
        # |cos| and |sin| of the relative heading; d/d theta_b is its negative.
        d_ext = hl * math.copysign(1.0, cd) * sd - hw * math.copysign(1.0, sd) * cd
        r = -depth - g
        k2 = 2.0 * r
        m = k2 * math.copysign(1.0, p)
        g_a = (-m * n0, -m * n1, -k2 * d_ext + m * dp if k < 2 else -k2 * d_ext)
        g_b = (m * n0, m * n1, k2 * d_ext if k < 2 else k2 * d_ext + m * dp)
        return r * r, (g_a, g_b), -2.0 * r, r * r
    best, winner = math.inf, None
    # Each box's corners in the other's frame: its centre there plus its
    # corner offsets turned by its heading less the other's.
    for ux0, uy0, sr, box_l, box_w, half_l, half_w, on_b in ((-pb, -qb, -sd, l1, w1, l2, w2, False),
                                                            (pa, qa, sd, l2, w2, l1, w1, True)):
        for sx, sy in _CORNER_SIGNS:
            ox, oy = sx * box_l, sy * box_w
            ux, uy = ux0 + cd * ox - sr * oy, uy0 + sr * ox + cd * oy
            value = _local_sdf(ux, uy, half_l, half_w)
            if value < best:
                best, winner = value, (ox, oy, ux, uy, sr, half_l, half_w, on_b)
    if winner is None:
        return math.nan, (_NAN, _NAN), math.nan, math.nan
    ox, oy, ux, uy, sr, half_l, half_w, on_b = winner
    gux, guy = _local_sdf_grad(ux, uy, half_l, half_w)
    co, so = (c1, s1) if on_b else (c2, s2)
    r = best - g
    k2 = 2.0 * r
    gq0, gq1 = k2 * (co * gux - so * guy), k2 * (so * gux + co * guy)
    g_corner = (gq0, gq1, k2 * (gux * (-sr * ox - cd * oy) + guy * (cd * ox - sr * oy)))
    g_other = (-gq0, -gq1, k2 * (gux * uy - guy * ux))
    return r * r, ((g_other, g_corner) if on_b else (g_corner, g_other)), -2.0 * r, r * r


WALL_RULES = {
    # wall: (axis index, sign of half-extent in target, wall coordinate, theta*)
    "L": (0, 1.0, 0.0, 0.0),
    "R": (0, -1.0, None, math.pi),
    "B": (1, 1.0, 0.0, 0.5 * math.pi),
    "T": (1, -1.0, None, -0.5 * math.pi),
}


def _against_wall_rule(wall: str, room: Room) -> tuple:
    """`WALL_RULES[wall]` with the wall coordinate resolved in `room`."""
    axis_i, sign, base, theta_star = WALL_RULES[wall]
    if base is None:
        base = room.length if axis_i == 0 else room.width
    return axis_i, sign, base, theta_star


def against_wall_loss(boxes: list, _, axis_i: int, sign: float, base: float, theta_star: float):
    """Flush-to-wall penalty: squared offset from the wall by the footprint's
    half extent, plus 1 - cos(theta - theta_wall).  The constants are
    `_against_wall_rule`'s."""
    x, y, theta, half_l, half_w = boxes[0]
    ax, ay, dax, day = half_extents(half_l, half_w, theta)
    half, dhalf = (ax, dax) if axis_i == 0 else (ay, day)
    target = base + sign * half
    r = (x if axis_i == 0 else y) - target
    dth = theta - theta_star
    value = r * r + 1.0 - math.cos(dth)
    g_theta = 2.0 * r * (-sign * dhalf) + math.sin(dth)
    g = (2.0 * r, 0.0, g_theta) if axis_i == 0 else (0.0, 2.0 * r, g_theta)
    return value, (g,), None, value


def _corner_rule(corner_tag: str, wall: str, room: Room) -> tuple:
    """Signs and wall coordinates of a room corner, read off the
    `_against_wall_rule`s of its x wall and its y wall (`CORNER_WALLS`),
    and the named wall's target angle."""
    x_wall, y_wall = CORNER_WALLS[corner_tag]
    _, sx, x_base, _ = _against_wall_rule(x_wall, room)
    _, sy, y_base, _ = _against_wall_rule(y_wall, room)
    return sx, sy, x_base, y_base, WALL_RULES[wall][3]


def corner_loss(boxes: list, _, sx: float, sy: float, x_base: float, y_base: float, theta_star: float):
    """Tuck-into-corner penalty: squared offsets from both adjacent walls by
    the half extents, plus orientation toward the named wall's target angle.
    The constants are `_corner_rule`'s."""
    x, y, theta, half_l, half_w = boxes[0]
    ax, ay, dax, day = half_extents(half_l, half_w, theta)
    rx = x - (x_base + sx * ax)
    ry = y - (y_base + sy * ay)
    dth = theta - theta_star
    value = rx * rx + ry * ry + 1.0 - math.cos(dth)
    g = (2.0 * rx, 2.0 * ry, 2.0 * rx * (-sx * dax) + 2.0 * ry * (-sy * day) + math.sin(dth))
    return value, (g,), None, value


def facing_loss(boxes: list, _):
    """1 - cosine between a's heading and the direction from a to b."""
    a, b = boxes
    ca, sa = math.cos(a[2]), math.sin(a[2])
    dx, dy = b[0] - a[0], b[1] - a[1]
    n = math.hypot(dx, dy)
    if n < 1e-12:
        return 1.0, (_ZERO, _ZERO), None, 1.0
    denom = n + FACING_EPS
    f = ca * dx + sa * dy
    value = 1.0 - f / denom
    # d value / d (dx, dy)
    gd0 = -(ca * denom - f * dx / n) / (denom * denom)
    gd1 = -(sa * denom - f * dy / n) / (denom * denom)
    return value, ((-gd0, -gd1, -(-sa * dx + ca * dy) / denom), (gd0, gd1, 0.0)), None, value


# Directional side rules: primary axis (0 = target-local x, 1 = y) and the
# sign sigma such that the hinge reads sigma * coord + r + e <= 0 at zero loss.
SIDE_RULES = {
    "left_of": (0, 1.0),
    "right_of": (0, -1.0),
    "behind_of": (1, 1.0),
    "in_front_of": (1, -1.0),
}


def directional_loss(boxes: list, p: float, axis_i: int, sigma: float):
    """Side placement in the target's frame.

    The source center, expressed in the target frame, must clear the shared
    half extents along the side's axis (squared hinge) and line up on the
    perpendicular axis at the fraction p between the two touch extremes: the
    value and its derivatives take the deviation w squared, which the
    descent minimizes; the penalty, from the same hinge and w, takes |w|, so
    that "satisfied" keeps its units.  Both forms are zero at the same
    places.  Sides: left/right along target-local x, behind/front along
    target-local y; the constants are the side's `SIDE_RULES` entry.
    """
    src, tgt = boxes
    ct, st = math.cos(tgt[2]), math.sin(tgt[2])
    dx, dy = src[0] - tgt[0], src[1] - tgt[1]
    xp = ct * dx + st * dy
    yp = -st * dx + ct * dy

    rx, ry, drx, dry = half_extents(src[3], src[4], src[2] - tgt[2])

    coords, rr, ee, drr = (xp, yp), (rx, ry), (tgt[3], tgt[4]), (drx, dry)
    other = 1 - axis_i

    z = sigma * coords[axis_i] + rr[axis_i] + ee[axis_i]
    bar = (2.0 * p - 1.0) * (ee[other] - rr[other])
    w = coords[other] - bar

    hinge = max(z, 0.0)
    h2, sw = 2.0 * hinge, 2.0 * w

    # Derivatives of the target-frame coordinates w.r.t. the source position
    # and the target heading.
    (da0, da1), (do0, do1) = ((ct, st), (-st, ct)) if axis_i == 0 else ((-st, ct), (ct, st))
    dcoord_tth = (yp, -xp)

    # Hinge term, then the alignment term, whose bar depends on theta
    # through the source's half extent.  Each sum starts from +0.0, so a
    # zero gradient is +0.0.
    hs = h2 * sigma
    gsrc = (
        0.0 + hs * da0 + sw * do0,
        0.0 + hs * da1 + sw * do1,
        0.0 + h2 * drr[axis_i] + sw * (2.0 * p - 1.0) * drr[other],
    )
    gtgt = (
        0.0 - hs * da0 - sw * do0,
        0.0 - hs * da1 - sw * do1,
        0.0
        + h2 * (sigma * dcoord_tth[axis_i] - drr[axis_i])
        + sw * (dcoord_tth[other] - (2.0 * p - 1.0) * drr[other]),
    )
    return hinge * hinge + w * w, (gsrc, gtgt), sw * (-2.0) * (ee[other] - rr[other]), hinge * hinge + abs(w)


def angle_offset_loss(boxes: list, alpha: float):
    """1 - cos of the heading difference minus the target offset alpha."""
    d = boxes[0][2] - boxes[1][2] - alpha
    sd, value = math.sin(d), 1.0 - math.cos(d)
    return value, ((0.0, 0.0, sd), (0.0, 0.0, -sd)), -sd, value


def _placement_rule(axis: str, room: Room, margin: float) -> tuple:
    """Axis index and slack margin * span of a placement."""
    axis_i = 0 if axis == "x" else 1
    return axis_i, margin * (room.length if axis_i == 0 else room.width)


def placement_loss(boxes: list, target: float, axis_i: int, slack: float):
    """Squared hinge on the center coordinate's deviation beyond margin*span.
    The constants are `_placement_rule`'s."""
    dev = boxes[0][axis_i] - target
    hinge = max(abs(dev) - slack, 0.0)
    sd = math.copysign(1.0, dev) if dev != 0.0 else 0.0
    g_axis = 2.0 * hinge * sd
    g = (g_axis, 0.0, 0.0) if axis_i == 0 else (0.0, g_axis, 0.0)
    return hinge * hinge, (g,), -2.0 * hinge * sd, hinge * hinge


def around_loss(boxes: list, _, sweep: float, center: float):
    """Even angular spread around a focal object plus a circular-mean
    orientation target.

    Directions to the sources, measured in the focal frame, are sorted; the
    consecutive gaps should all equal sweep/(N-1).  Source headings relative
    to the focal should average (in the embedded sin/cos sense) to the mean
    resultant of N headings evenly spread over the sweep centered at `center`.
    The boxes are the sources then the focal; the parameter gradient is
    (d/d sweep, d/d center).  The reductions stay numpy's, and so their
    summation order, called as numpy's own wrappers call them: the stable
    `argsort`, `diff` as a slice difference, `sum` as `np.add.reduce` and a
    `mean` as that sum over n; `dot` as it is.  The per-source derivatives
    are plain floats summed from 0.0.
    """
    *sources, focal = boxes
    n = len(sources)
    if n < 2:
        raise ValueError("around needs at least two sources")
    fx, fy, ftheta = focal[0], focal[1], focal[2]
    cf, sf = math.cos(ftheta), math.sin(ftheta)

    phis, dphis = [], []
    for box in sources:
        dx, dy = box[0] - fx, box[1] - fy
        xp = cf * dx + sf * dy
        yp = -sf * dx + cf * dy
        r2 = xp * xp + yp * yp
        phis.append(math.atan2(yp, xp))
        if r2 > 1e-18:
            dphi_dxp, dphi_dyp = -yp / r2, xp / r2
            dphis.append((dphi_dxp * cf + dphi_dyp * (-sf), dphi_dxp * sf + dphi_dyp * cf))
        else:
            dphis.append((0.0, 0.0))
    phis = np.array(phis)
    order = phis.argsort(kind="stable")
    ordered = phis[order]
    resid = (ordered[1:] - ordered[:-1]) - sweep / (n - 1)
    term1 = float(np.dot(resid, resid)) / (n - 1)

    gx, gy, gt = [0.0] * n, [0.0] * n, [0.0] * n
    f0 = f1 = f2 = 0.0
    r = resid.tolist()
    for k, i in enumerate(order.tolist()):
        d = 2.0 * ((r[k - 1] if k > 0 else 0.0) - (r[k] if k < n - 1 else 0.0)) / (n - 1)
        d0, d1 = dphis[i]
        gx[i], gy[i] = 0.0 + d * d0, 0.0 + d * d1
        f0 -= d * d0
        f1 -= d * d1
        f2 -= d
    d_term1_dsweep = -2.0 * float(np.add.reduce(resid)) / ((n - 1) * (n - 1))

    # Orientation embedding: mean of (sin, cos) of relative headings.
    rel = [box[2] - ftheta for box in sources]
    rel_a = np.array(rel)
    emb_s, emb_c = np.add.reduce(np.sin(rel_a)) / n, np.add.reduce(np.cos(rel_a)) / n
    delta = sweep / (2.0 * (n - 1))
    if abs(delta) < 1e-9:
        m_res = 1.0
        dm_ddelta = 0.0
    else:
        m_res = math.sin(n * delta) / (n * math.sin(delta))
        dm_ddelta = (
            n * math.cos(n * delta) * math.sin(delta) - math.sin(n * delta) * math.cos(delta)
        ) / (n * math.sin(delta) ** 2)
    sc, cc = math.sin(center), math.cos(center)
    err0, err1 = float(emb_s - m_res * sc), float(emb_c - m_res * cc)
    err = np.array([err0, err1])
    term2 = float(np.dot(err, err))

    for i, t in enumerate(rel):
        dot = 2.0 * float(np.dot(err, (math.cos(t) / n, -math.sin(t) / n)))
        gt[i] = 0.0 + dot
        f2 -= dot
    d_term2_dcenter = -2.0 * m_res * (err0 * cc - err1 * sc)
    d_term2_dsweep = -2.0 * float(np.dot(err, (sc, cc))) * (dm_ddelta / (2.0 * (n - 1)))
    grads = (*zip(gx, gy, gt), (f0, f1, f2))
    return term1 + term2, grads, (d_term1_dsweep + d_term2_dsweep, d_term2_dcenter), term1 + term2


# ---------------------------------------------------------------------------
# Relation terms and the relation plan
# ---------------------------------------------------------------------------


def _kernel(rel: Relation, params: dict, room: Room) -> tuple:
    """Kernel name and constants of a relation other than around."""
    kind = rel.kind
    if kind == "against_wall":
        return "against_wall_loss", _against_wall_rule(rel.target.removeprefix("wall:"), room)
    if kind == "corner":
        return "corner_loss", _corner_rule(rel.target.removeprefix("corner:"), params["wall"], room)
    if kind in ("h_place", "v_place"):
        return "placement_loss", _placement_rule("x" if kind == "h_place" else "y", room, params["margin"])
    if kind in DIRECTIONAL_KINDS:
        return "directional_loss", SIDE_RULES[kind]
    return f"{kind}_loss", ()


@dataclass
class Term:
    """One relation term of a block, resolved: a relation, or a whole around
    group.  `label` names its first relation, "relations[<index>]".  `ends`
    are box positions in the block: source, then target if it is an entity;
    an around group's sources, then its focal.  The term's value is
    `kernel(boxes at ends, parameter, *consts)`, the kernel named by its
    module attribute.  The scalar parameter is `x[param]` when it is shared,
    else `value`; `value` holds the shared parameter's prior when it is
    shared, else the relation's own, with the parser's default for an
    optional param it omits.  Not frozen: a solve compiles a plan, and the
    revision loop one per fresh pass, and a frozen dataclass is several
    times slower to build.
    """

    label: str
    ends: tuple
    kernel: str
    consts: tuple = ()
    param: int | None = None
    value: float | None = None


@dataclass
class Block:
    """The boxes and relation terms of one frame: a unit's, or the scene's
    (`unit` None).  Per box: entity id, first slot of its row in the flat
    vector (None for an anchor, at the frame origin), half sizes, and for a
    unit's stand-in the unit's block, whose footprints it encloses (its half
    sizes are then None).
    """

    unit: str | None
    ids: tuple
    rows: tuple
    halves: tuple
    frames: tuple
    terms: list


def _halves(spec: SceneSpec, asset_id: str) -> tuple:
    a = spec.asset(asset_id)
    return a.half_l, a.half_w


def _relation_plan(spec: SceneSpec, pose: dict, param: dict, priors: dict) -> dict:
    """The boxes of each frame, one Block per unit frame, by unit id, then
    the scene's under None, with each relation term resolved into its
    frame's block, in the term order of `scene_model.relation_terms`: an
    intra term into its unit's block, an inter one into the scene's."""
    blocks: dict = {}
    for u in spec.units:
        rows = (None,) + tuple(pose[mid].start for mid in u.members)
        halves = tuple(_halves(spec, aid) for aid in u.assets)
        blocks[u.id] = Block(u.id, u.assets, rows, halves, (None,) * len(rows), [])
    ids = spec.entities()
    halves = tuple(None if eid in blocks else _halves(spec, eid) for eid in ids)
    frames = tuple(blocks.get(eid) for eid in ids)
    blocks[None] = Block(None, ids, tuple(pose[eid].start for eid in ids), halves, frames, [])
    at = {frame: {eid: k for k, eid in enumerate(block.ids)} for frame, block in blocks.items()}
    relations = spec.relations
    for group, members in relation_terms(relations):
        rel = relations[members[0]]
        frame = rel.unit if rel.scope == "intra" else None
        label = f"relations[{members[0]}]"
        if group is not None:
            ends = tuple(relations[i].source for i in members) + (rel.target,)
            kernel, consts = "around_loss", (rel.params["sweep"], rel.params["center"])
            shared = value = None
        else:
            params = relation_params(rel)
            ends = (rel.source,) if rel.kind in SCENE_ANCHORED_KINDS else (rel.source, rel.target)
            kernel, consts = _kernel(rel, params, spec.room)
            shared = rel.shared_param
            value = params.get(SHARED_PARAM_SLOTS.get(rel.kind)) if shared is None else priors[shared]
        frame_at = at.get(frame, {})
        try:
            positions = tuple([frame_at[e] for e in ends])
        except KeyError as exc:
            where = "the scene" if frame is None else f"unit {frame!r}"
            raise MissingEntityError(f"{label} names {exc.args[0]!r}, not an entity of {where}") from None
        blocks[frame].terms.append(Term(label, positions, kernel, consts, param.get(shared), value))
    return blocks


# ---------------------------------------------------------------------------
# Flat parameter vector and aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamIndex:
    """Slot table of the flat parameter vector, and the scene's relation
    plan, built once per scene.

    The vector holds one (x, y, theta) row per unit frame, unit member and
    independent asset, then one entry per shared parameter.  `pose` maps
    each of those entity ids to the slice of its row; an anchor has no row
    of its own, its pose being its unit's frame.  `param` maps each shared
    parameter name to its position, and `priors` their declared values in
    that order.  `blocks` is the relation plan: one Block per unit frame,
    by unit id, then the scene's under None.
    """

    pose: dict
    param: dict
    size: int
    blocks: dict
    priors: tuple

    @property
    def pose_size(self) -> int:
        return self.size - len(self.param)

    def pack(self, poses: dict) -> np.ndarray:
        """Flat vector from entity id -> `Pose2D` or (x, y, theta), shared
        slots at their priors.  An entity of `pose` with no entry in `poses`
        raises MissingEntityError."""
        x = np.empty(self.size)
        for eid, rows in self.pose.items():
            if eid not in poses:
                raise MissingEntityError(f"no pose for {eid!r}")
            p = poses[eid]
            x[rows] = (p.x, p.y, p.theta) if isinstance(p, geometry.Pose2D) else p
        x[self.pose_size :] = self.priors
        return x


def param_index(spec: SceneSpec) -> ParamIndex:
    """Rows in draw order: each unit's frame then its members, then the
    independent assets; shared parameters in order of first occurrence.  A
    relation naming an entity its frame does not hold raises
    MissingEntityError."""
    ids = []
    for u in spec.units:
        ids.append(u.id)
        ids.extend(u.members)
    ids.extend(a.id for a in spec.independent_assets())
    pose = {eid: slice(3 * r, 3 * r + 3) for r, eid in enumerate(ids)}
    n = 3 * len(pose)
    priors = shared_param_priors(spec)
    param = {name: n + k for k, name in enumerate(priors)}
    blocks = _relation_plan(spec, pose, param, priors)
    return ParamIndex(pose, param, n + len(param), blocks, tuple(priors.values()))


def _block_boxes(block: Block, xs: list) -> tuple:
    """The kernel boxes of `block` at the flat vector `xs` (a list), and per
    box the lever of a unit's stand-in, or None: the pair (d/dtheta of the
    stand-in center's x, of its y), which carries a gradient on the
    stand-in back to the unit pose."""
    boxes, levers = [], []
    for r, halves, frame in zip(block.rows, block.halves, block.frames):
        x, y, theta = (0.0, 0.0, 0.0) if r is None else (xs[r], xs[r + 1], _heading(xs[r + 2]))
        if frame is None:
            boxes.append((x, y, theta, *halves))
            levers.append(None)
            continue
        members = [(0.0, 0.0, 0.0) if m is None else (xs[m], xs[m + 1], _heading(xs[m + 2])) for m in frame.rows]
        (o0, o1), half_l, half_w = enclosing_box(members, frame.halves)
        c, s = math.cos(theta), math.sin(theta)
        boxes.append((x + c * o0 - s * o1, y + s * o0 + c * o1, theta, half_l, half_w))
        levers.append((-s * o0 - c * o1, c * o0 - s * o1))
    return boxes, levers


def objective(blocks, xs: list, weights: Weights, room: Room, start: LossValue) -> LossValue:
    """The weighted terms of `blocks`, in order, at the flat vector `xs` (a
    list), carrying on `start`'s sums; `start.grads`, a list laid out as
    `xs`, is extended in place, and `start.penalties` gains each relation
    term's penalty (none when the relation weight is 0).  Family totals
    gain "boundary" on the scene.  Each block sums its value, totals and
    shared-parameter gradients from 0.0 and adds them in block order: the
    bits of summing one-block passes.  A stand-in's gradient reaches the
    unit pose through its lever, the relation weight applied first."""
    kernels = globals()  # module attributes, read per call: a wrapper set on a kernel sees every call
    boundary, collision = kernels["boundary_loss"], kernels["collision_loss"]
    wb, wc, wr = weights.boundary, weights.collision, weights.relation
    total, grad, totals, record = start.value, start.grads, dict(start.terms), start.penalties.append
    for block in blocks:
        boxes, levers = _block_boxes(block, xs)
        rows, scene = block.rows, block.unit is None
        boundary_total = collision_total = relation_total = 0.0
        # Lever routing written out per family for speed: change all three together.
        if scene and wb != 0.0:
            for r, lever, box in zip(rows, levers, boxes):
                value, ((g0, g1, g2),), _ = boundary(box, room)
                boundary_total += value
                grad[r] += wb * g0
                grad[r + 1] += wb * g1
                grad[r + 2] += wb * (g2 if lever is None else g0 * lever[0] + g1 * lever[1] + g2)
        if wc != 0.0:
            for a, b in _proxy_pairs(boxes):
                value, pair, _ = collision(boxes[a], boxes[b])
                collision_total += value
                for k, (g0, g1, g2) in zip((a, b), pair):
                    r = rows[k]
                    if r is not None:
                        lever = levers[k]
                        grad[r] += wc * g0
                        grad[r + 1] += wc * g1
                        grad[r + 2] += wc * (g2 if lever is None else g0 * lever[0] + g1 * lever[1] + g2)
        if wr != 0.0:
            shared: dict = {}
            for term in block.terms:
                p, ends = term.param, term.ends
                value, end_grads, param_grad, penalty = kernels[term.kernel](
                    [boxes[k] for k in ends], term.value if p is None else xs[p], *term.consts
                )
                relation_total += value
                record(penalty)
                for k, (g0, g1, g2) in zip(ends, end_grads):
                    r, lever = rows[k], levers[k]
                    if lever is not None:
                        g0, g1 = wr * g0, wr * g1
                        grad[r] += g0
                        grad[r + 1] += g1
                        grad[r + 2] += g0 * lever[0] + g1 * lever[1] + wr * g2
                    elif r is not None:
                        grad[r] += wr * g0
                        grad[r + 1] += wr * g1
                        grad[r + 2] += wr * g2
                if p is not None:
                    shared[p] = shared.get(p, 0.0) + wr * param_grad
            for p, g in shared.items():
                grad[p] += g
        if scene:
            totals["boundary"] = totals.get("boundary", 0.0) + boundary_total
            total += wb * boundary_total + wc * collision_total + wr * relation_total
        else:
            total += wc * collision_total + wr * relation_total
        totals["collision"] = totals.get("collision", 0.0) + collision_total
        totals["relation"] = totals.get("relation", 0.0) + relation_total
    return LossValue(total, grad, totals, start.penalties)


def _aggregate(block: Block, x, weights: Weights, room: Room) -> LossValue:
    """`objective` on one block from -0.0 (the exact identity) as an array."""
    xs = x.tolist()
    out = objective([block], xs, weights, room, LossValue(-0.0, [0.0] * len(xs)))
    return LossValue(out.value, np.array(out.grads), out.terms, out.penalties)


def aggregate_local(
    spec: SceneSpec,
    unit_id: str,
    index: ParamIndex,
    x,
    weights: Weights = Weights(),
) -> LossValue:
    """Unit-frame objective: member pairwise collisions plus intra relations.

    Member rows of `x` hold poses in the unit frame.  The gradient is a flat
    array laid out by `index`, nonzero only on member rows and shared
    parameters.  The unit's own pose never appears: every term depends only
    on relative geometry inside the frame, so its row is exactly zero.  The
    anchor is frame-fixed and receives no gradient.  Member pairs whose
    proxies are disjoint or touch are skipped: their collision value and
    gradient are exact zeros, so every sum keeps its bits.
    """
    return _aggregate(index.blocks[unit_id], x, weights, spec.room)


def aggregate_global(
    spec: SceneSpec,
    index: ParamIndex,
    x,
    weights: Weights = Weights(),
) -> LossValue:
    """Scene-level objective over independent assets and unit stand-in boxes.

    Terms: room-boundary excursions, pairwise collisions, and inter
    relations.  The gradient is a flat array laid out by `index`, nonzero
    only on unit frames, independent assets and shared parameters: a
    gradient on a unit's stand-in box is pulled back to the unit pose.
    Pairs whose proxies are disjoint or touch are skipped, as in
    `aggregate_local`: they contribute exact zeros.
    """
    return _aggregate(index.blocks[None], x, weights, spec.room)


def relation_penalties(index: ParamIndex, x) -> dict:
    """Raw (unweighted) penalty of every relation term at the given
    configuration, by the label of its first relation, 'relations[<index>]':
    an around group appears once, under its first member's label.  Intra
    terms are evaluated in their unit frame, inter terms on scene-level
    boxes, from the plan in `index`; each is its kernel's penalty.
    """
    xs = x.tolist()
    out: dict = {}
    for block in index.blocks.values():
        boxes, _ = _block_boxes(block, xs)
        for term in block.terms:
            value = term.value if term.param is None else xs[term.param]
            out[term.label] = float(globals()[term.kernel]([boxes[k] for k in term.ends], value, *term.consts)[3])
    return out
