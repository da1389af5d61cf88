"""Differentiable penalty terms over planar footprints.

Each penalty family is one scalar kernel on plain floats, `_<family>`
behind `<family>_loss`.  A kernel takes its boxes as (x, y, theta, half_l,
half_w) tuples, the term's scalar parameter, then the constants that
`_<family>_rule` (or `SIDE_RULES`) resolves, and returns (value, one
(d/dx, d/dy, d/dtheta) tuple per box, d/d parameter or None).  Gradients are
hand-derived; kinks coming from hinges, absolute values, and min/max
selections use the subgradient that is zero at the kink (hinges) or the
tie-broken branch (selections).  A heading that is not finite reads as NaN.
The `*_loss` functions are thin FootprintBox adapters returning a LossValue
keyed by slot name ("a", "box", "d", ...), so their tests check the math the
solver runs.

Two aggregation levels mirror the pose parameterization: unit-local terms are
evaluated in the unit frame and never touch the unit pose; scene-level terms
see independent assets and whole units through their enclosing oriented box.
Both read poses from one flat parameter vector and add their gradients into a
flat array of the same layout, by index, through the slot table `ParamIndex`.

`param_index` compiles a scene once into its relation plan, the one compiled
form of a scene: one `Block` per frame (each unit's, then the scene's)
listing its boxes and its relation terms in evaluation order (an around
group is one term, see `scene_model.relation_terms`).  Each `Term` names its
end boxes by position, its kernel, its constants and its scalar parameter,
optional params defaulted as the parser defaults them.  Both aggregates,
`relation_penalties` and the imagination pass read that plan through
`_block_boxes`, which builds unit stand-ins with `geometry.enclosing_box`.
The objective evaluates terms with `term_loss`; collisions go through
`collision_loss`, once per pair the broadphase `_proxy_pairs` keeps, the
pairs the imagination pass checks for conflicts.  Kernels and
`collision_loss` are looked up by module attribute at call time, so a wrapper
set on one sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import MissingEntityError
from .geometry import FootprintBox, boundary_probes, enclosing_box, half_extents
from .scene_model import (
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
    """Scalar penalty with its partial derivatives.

    A penalty term keys its derivatives by slot name ("a", "box", "d", ...);
    the aggregates return one flat array laid out by a ParamIndex.
    """

    value: float
    grads: dict = field(default_factory=dict)
    terms: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Weights:
    """Multipliers for the three penalty families."""

    collision: float = 1.0
    relation: float = 1.0
    boundary: float = 1.0


def _heading(theta: float) -> float:
    return theta if math.isfinite(theta) else math.nan


def _tuple(box) -> tuple:
    """A FootprintBox as a kernel box; a kernel box as itself."""
    if isinstance(box, tuple):
        return box
    return (box.pose.x, box.pose.y, _heading(box.pose.theta), box.half_l, box.half_w)


def _loss_value(out: tuple, slots: tuple, param_slot: str | None = None) -> LossValue:
    """A kernel's (value, grads, parameter gradient) keyed by slot name."""
    value, grads, param_grad = out
    lv = LossValue(value, {slot: np.array(g) for slot, g in zip(slots, grads)})
    if param_slot is not None:
        lv.grads[param_slot] = param_grad
    return lv


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


def _collision(a: tuple, b: tuple):
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
    value = iou - (d2 / c2) * rho

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
    g = []
    for d_inter, d_area_a, d_area_b, d_d2, d_c2 in rows:
        d_union = d_area_a + d_area_b - d_inter
        d_iou = (d_inter * union - inter * d_union) / (union * union)
        d_min = d_area_a if a_is_min else d_area_b
        d_rho = (d_inter * min_area - inter * d_min) / (min_area * min_area)
        d_ratio = (d_d2 * c2 - d2 * d_c2) / (c2 * c2)
        g.append(d_iou - d_ratio * rho - (d2 / c2) * d_rho)
    return value, ((g[0], g[1], g[2]), (g[3], g[4], g[5])), None


def collision_loss(a, b) -> LossValue:
    """Overlap penalty on axis-aligned proxies.

    value = IoU - (d^2 / c^2) * rho, where rho is intersection over the
    smaller proxy area, d the center distance, and c the diagonal of the
    smallest axis-aligned box enclosing both proxies.  Zero exactly when the
    proxies are disjoint; bounded below by -1.  A box is a FootprintBox or a
    kernel box; the aggregates pass kernel boxes, one call per pair that the
    broadphase keeps.
    """
    return _loss_value(_collision(_tuple(a), _tuple(b)), ("a", "b"))


def _proxy_pairs(boxes: list) -> list:
    """Position pairs of `boxes` in nested-loop order, less the pairs whose
    proxies are disjoint or touch: `_collision` is exactly 0 there, with
    a gradient of signed zeros.  Bounds use the half extents and the
    expressions of `_collision`, so the two agree bit for bit."""
    lo, hi = [], []
    for x, y, theta, half_l, half_w in boxes:
        ax, ay, _, _ = half_extents(half_l, half_w, theta)
        lo.append((x - ax, y - ay))
        hi.append((x + ax, y + ay))
    return geometry.overlapping_pairs(lo, hi)


def _boundary(box: tuple, length: float, width: float):
    x, y, theta, half_l, half_w = box
    c, s = math.cos(theta), math.sin(theta)
    limits = (length, width)
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


def boundary_loss(box: FootprintBox, room: Room) -> LossValue:
    """L1 excursion of the footprint corners outside the room rectangle."""
    return _loss_value(_boundary(_tuple(box), room.length, room.width), ("box",))


# ---------------------------------------------------------------------------
# Pairwise relation penalties
# ---------------------------------------------------------------------------


def _distance(boxes: list, d_star: float):
    a, b = boxes
    dx, dy = a[0] - b[0], a[1] - b[1]
    dist = math.hypot(dx, dy)
    r = dist - d_star
    if dist > 1e-12:
        k = 2.0 * r / dist
        return r * r, ((k * dx, k * dy, 0.0), (-k * dx, -k * dy, 0.0)), -2.0 * r
    return r * r, (_ZERO, _ZERO), -2.0 * r


def distance_loss(a: FootprintBox, b: FootprintBox, d_star: float) -> LossValue:
    """Squared error between center distance and the target d_star."""
    return _loss_value(_distance([_tuple(a), _tuple(b)], d_star), ("a", "b"), "d")


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


def _point_box_sdf_grads(point_box: tuple, offset, other: tuple):
    """Derivatives, w.r.t. both poses, of the signed distance from a
    boundary point of `point_box` to `other`.

    `offset` is the probe point in point_box's local frame; the distance is
    the one `_gap_scan` scans for, from the same float expressions.
    """
    cp, sp = math.cos(point_box[2]), math.sin(point_box[2])
    qx = point_box[0] + cp * offset[0] - sp * offset[1]
    qy = point_box[1] + sp * offset[0] + cp * offset[1]

    co, so = math.cos(other[2]), math.sin(other[2])
    dx, dy = qx - other[0], qy - other[1]
    ux = co * dx + so * dy
    uy = -so * dx + co * dy
    gux, guy = _local_sdf_grad(ux, uy, other[3], other[4])

    # World-frame gradient at the probe point.
    gq0, gq1 = co * gux - so * guy, so * gux + co * guy
    g_point = (gq0, gq1, gq0 * (-sp * offset[0] - cp * offset[1]) + gq1 * (cp * offset[0] - sp * offset[1]))
    return g_point, (-gq0, -gq1, gux * uy - guy * ux)


def _gap_scan(boxes: list, g: float):
    """`_gap`'s result with the gradients in probe order (probed box, other
    box), and whether the winning probe lies on the second box."""
    a, b = boxes
    best = math.inf
    winner = None
    for box, other, swapped in ((a, b, False), (b, a, True)):
        x, y, theta = box[0], box[1], box[2]
        cp, sp = math.cos(theta), math.sin(theta)
        co, so = math.cos(other[2]), math.sin(other[2])
        for px, py in boundary_probes(*box):
            # Back out the probe's local offset to chain through the pose,
            # then carry it into other's frame as `_point_box_sdf_grads` does.
            wx, wy = px - x, py - y
            offset = (cp * wx + sp * wy, -sp * wx + cp * wy)
            dx = x + cp * offset[0] - sp * offset[1] - other[0]
            dy = y + sp * offset[0] + cp * offset[1] - other[1]
            value = _local_sdf(co * dx + so * dy, -so * dx + co * dy, other[3], other[4])
            if value < best:
                best = value
                winner = (box, offset, other, swapped)
    if winner is None:
        return (math.nan, (_NAN, _NAN), math.nan), False
    box, offset, other, swapped = winner
    g_point, g_other = _point_box_sdf_grads(box, offset, other)
    r = best - g
    k = 2.0 * r
    g_point = (k * g_point[0], k * g_point[1], k * g_point[2])
    g_other = (k * g_other[0], k * g_other[1], k * g_other[2])
    return (r * r, (g_point, g_other), -2.0 * r), swapped


def _gap(boxes: list, g: float):
    (value, grads, param_grad), swapped = _gap_scan(boxes, g)
    return value, grads[::-1] if swapped else grads, param_grad


def gap_loss(a: FootprintBox, b: FootprintBox, g: float) -> LossValue:
    """Squared error between the smallest boundary separation and target g.

    The separation is the minimum signed point-to-box distance over boundary
    probes of both boxes; derivatives follow the winning probe, the first
    one strictly below all before it.  The scan computes values only: a
    probe that does not win contributes exactly nothing to the gradient, so
    only the winner's derivatives are computed.  When no probe wins, every
    probe being NaN (a pose is not finite), value and gradients are NaN.
    The gradients are keyed in probe order: "b" first when b's probe wins.
    """
    out, swapped = _gap_scan([_tuple(a), _tuple(b)], g)
    return _loss_value(out, ("b", "a") if swapped else ("a", "b"), "g")


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


def _against_wall(boxes: list, _, axis_i: int, sign: float, base: float, theta_star: float):
    x, y, theta, half_l, half_w = boxes[0]
    ax, ay, dax, day = half_extents(half_l, half_w, theta)
    half, dhalf = (ax, dax) if axis_i == 0 else (ay, day)
    target = base + sign * half
    r = (x if axis_i == 0 else y) - target
    dth = theta - theta_star
    value = r * r + 1.0 - math.cos(dth)
    g_theta = 2.0 * r * (-sign * dhalf) + math.sin(dth)
    g = (2.0 * r, 0.0, g_theta) if axis_i == 0 else (0.0, 2.0 * r, g_theta)
    return value, (g,), None


def against_wall_loss(box: FootprintBox, wall: str, room: Room) -> LossValue:
    """Flush-to-wall penalty: squared offset from the wall by the footprint's
    half extent, plus 1 - cos(theta - theta_wall)."""
    return _loss_value(_against_wall([_tuple(box)], None, *_against_wall_rule(wall, room)), ("box",))


_CORNER_SIGNS_XY = {"BL": (1.0, 1.0), "BR": (-1.0, 1.0), "TR": (-1.0, -1.0), "TL": (1.0, -1.0)}


def _corner_rule(corner_tag: str, wall: str, room: Room) -> tuple:
    """Signs and wall coordinates of a room corner, and the named wall's
    target angle."""
    sx, sy = _CORNER_SIGNS_XY[corner_tag]
    x_base = 0.0 if sx > 0.0 else room.length
    y_base = 0.0 if sy > 0.0 else room.width
    return sx, sy, x_base, y_base, WALL_RULES[wall][3]


def _corner(boxes: list, _, sx: float, sy: float, x_base: float, y_base: float, theta_star: float):
    x, y, theta, half_l, half_w = boxes[0]
    ax, ay, dax, day = half_extents(half_l, half_w, theta)
    rx = x - (x_base + sx * ax)
    ry = y - (y_base + sy * ay)
    dth = theta - theta_star
    value = rx * rx + ry * ry + 1.0 - math.cos(dth)
    g = (2.0 * rx, 2.0 * ry, 2.0 * rx * (-sx * dax) + 2.0 * ry * (-sy * day) + math.sin(dth))
    return value, (g,), None


def corner_loss(box: FootprintBox, corner_tag: str, wall: str, room: Room) -> LossValue:
    """Tuck-into-corner penalty: squared offsets from both adjacent walls by
    the half extents, plus orientation toward the named wall's target angle."""
    return _loss_value(_corner([_tuple(box)], None, *_corner_rule(corner_tag, wall, room)), ("box",))


def _facing(boxes: list, _):
    a, b = boxes
    ca, sa = math.cos(a[2]), math.sin(a[2])
    dx, dy = b[0] - a[0], b[1] - a[1]
    n = math.hypot(dx, dy)
    if n < 1e-12:
        return 1.0, (_ZERO, _ZERO), None
    denom = n + FACING_EPS
    f = ca * dx + sa * dy
    value = 1.0 - f / denom
    # d value / d (dx, dy)
    gd0 = -(ca * denom - f * dx / n) / (denom * denom)
    gd1 = -(sa * denom - f * dy / n) / (denom * denom)
    return value, ((-gd0, -gd1, -(-sa * dx + ca * dy) / denom), (gd0, gd1, 0.0)), None


def facing_loss(a: FootprintBox, b: FootprintBox) -> LossValue:
    """1 - cosine between a's heading and the direction from a to b."""
    return _loss_value(_facing([_tuple(a), _tuple(b)], None), ("a", "b"))


# Directional side rules: primary axis (0 = target-local x, 1 = y) and the
# sign sigma such that the hinge reads sigma * coord + r + e <= 0 at zero loss.
SIDE_RULES = {
    "left_of": (0, 1.0),
    "right_of": (0, -1.0),
    "behind_of": (1, 1.0),
    "in_front_of": (1, -1.0),
}


def _directional(boxes: list, p: float, axis_i: int, sigma: float):
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
    value = hinge * hinge + abs(w)

    h2 = 2.0 * hinge
    sw = math.copysign(1.0, w) if w != 0.0 else 0.0

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
    return value, (gsrc, gtgt), sw * (-2.0) * (ee[other] - rr[other])


def directional_loss(src: FootprintBox, tgt: FootprintBox, direction: str, p: float) -> LossValue:
    """Side placement in the target's frame.

    The source center, expressed in the target frame, must clear the shared
    half extents along the side's axis (squared hinge) and line up on the
    perpendicular axis at the fraction p between the two touch extremes
    (absolute deviation).  Sides: left/right along target-local x,
    behind/front along target-local y.
    """
    out = _directional([_tuple(src), _tuple(tgt)], p, *SIDE_RULES[direction])
    return _loss_value(out, ("src", "tgt"), "p")


def _angle_offset(boxes: list, alpha: float):
    d = boxes[0][2] - boxes[1][2] - alpha
    sd = math.sin(d)
    return 1.0 - math.cos(d), ((0.0, 0.0, sd), (0.0, 0.0, -sd)), -sd


def angle_offset_loss(a: FootprintBox, b: FootprintBox, alpha: float) -> LossValue:
    """1 - cos of the heading difference minus the target offset alpha."""
    return _loss_value(_angle_offset([_tuple(a), _tuple(b)], alpha), ("a", "b"), "alpha")


def _placement_rule(axis: str, room: Room, margin: float) -> tuple:
    """Axis index and slack margin * span of a placement."""
    axis_i = 0 if axis == "x" else 1
    return axis_i, margin * (room.length if axis_i == 0 else room.width)


def _placement(boxes: list, target: float, axis_i: int, slack: float):
    dev = boxes[0][axis_i] - target
    hinge = max(abs(dev) - slack, 0.0)
    sd = math.copysign(1.0, dev) if dev != 0.0 else 0.0
    g_axis = 2.0 * hinge * sd
    g = (g_axis, 0.0, 0.0) if axis_i == 0 else (0.0, g_axis, 0.0)
    return hinge * hinge, (g,), -2.0 * hinge * sd


def placement_loss(box: FootprintBox, axis: str, target: float, room: Room, margin: float) -> LossValue:
    """Squared hinge on the center coordinate's deviation beyond margin*span."""
    out = _placement([_tuple(box)], target, *_placement_rule(axis, room, margin))
    return _loss_value(out, ("box",), "target")


def _around(boxes: list, _, sweep: float, center: float):
    """The sources then the focal; the parameter gradient is (d/d sweep,
    d/d center).  The reductions stay numpy's, and so their summation order."""
    *sources, focal = boxes
    n = len(sources)
    if n < 2:
        raise ValueError("around needs at least two sources")
    fx, fy, ftheta = focal[0], focal[1], focal[2]
    cf, sf = math.cos(ftheta), math.sin(ftheta)

    phis = np.empty(n)
    dphi_sources = np.zeros((n, 2))
    for i, box in enumerate(sources):
        dx, dy = box[0] - fx, box[1] - fy
        xp = cf * dx + sf * dy
        yp = -sf * dx + cf * dy
        r2 = xp * xp + yp * yp
        phis[i] = math.atan2(yp, xp)
        if r2 > 1e-18:
            dphi_dxp, dphi_dyp = -yp / r2, xp / r2
            dphi_sources[i, 0] = dphi_dxp * cf + dphi_dyp * (-sf)
            dphi_sources[i, 1] = dphi_dxp * sf + dphi_dyp * cf
    order = np.argsort(phis, kind="stable")
    sorted_phi = phis[order]
    t_gap = sweep / (n - 1)
    resid = np.diff(sorted_phi) - t_gap
    term1 = float(np.dot(resid, resid)) / (n - 1)

    g_sources = np.zeros((n, 3))
    g_focal = np.zeros(3)
    dterm1_sorted = np.zeros(n)
    for k in range(n):
        left = resid[k - 1] if k > 0 else 0.0
        right = resid[k] if k < n - 1 else 0.0
        dterm1_sorted[k] = 2.0 * (left - right) / (n - 1)
    for k in range(n):
        i = int(order[k])
        g_sources[i, :2] += dterm1_sorted[k] * dphi_sources[i]
        g_focal[:2] -= dterm1_sorted[k] * dphi_sources[i]
        g_focal[2] += dterm1_sorted[k] * (-1.0)
    d_term1_dsweep = -2.0 * float(resid.sum()) / ((n - 1) * (n - 1))

    # Orientation embedding: mean of (sin, cos) of relative headings.
    rel = np.array([box[2] - ftheta for box in sources])
    emb = np.array([np.sin(rel).mean(), np.cos(rel).mean()])
    delta = sweep / (2.0 * (n - 1))
    if abs(delta) < 1e-9:
        m_res = 1.0
        dm_ddelta = 0.0
    else:
        m_res = math.sin(n * delta) / (n * math.sin(delta))
        dm_ddelta = (
            n * math.cos(n * delta) * math.sin(delta) - math.sin(n * delta) * math.cos(delta)
        ) / (n * math.sin(delta) ** 2)
    target_emb = m_res * np.array([math.sin(center), math.cos(center)])
    err = emb - target_emb
    term2 = float(np.dot(err, err))

    for i in range(n):
        de = np.array([math.cos(rel[i]), -math.sin(rel[i])]) / n
        g_sources[i, 2] += 2.0 * float(np.dot(err, de))
        g_focal[2] -= 2.0 * float(np.dot(err, de))
    d_term2_dcenter = -2.0 * m_res * float(
        err[0] * math.cos(center) - err[1] * math.sin(center)
    )
    d_term2_dsweep = -2.0 * float(np.dot(err, np.array([math.sin(center), math.cos(center)]))) * (
        dm_ddelta / (2.0 * (n - 1))
    )
    grads = (*map(tuple, g_sources.tolist()), tuple(g_focal.tolist()))
    return term1 + term2, grads, (d_term1_dsweep + d_term2_dsweep, d_term2_dcenter)


def around_loss(sources: list, focal: FootprintBox, sweep: float, center: float) -> LossValue:
    """Even angular spread around a focal object plus a circular-mean
    orientation target.

    Directions to the sources, measured in the focal frame, are sorted; the
    consecutive gaps should all equal sweep/(N-1).  Source headings relative
    to the focal should average (in the embedded sin/cos sense) to the mean
    resultant of N headings evenly spread over the sweep centered at `center`.
    """
    value, grads, (d_sweep, d_center) = _around([*map(_tuple, sources), _tuple(focal)], None, sweep, center)
    g_sources = np.array(grads[:-1]).reshape(-1, 3)
    return LossValue(
        value,
        {"sources": g_sources, "focal": np.array(grads[-1]), "sweep": d_sweep, "center": d_center},
    )


# ---------------------------------------------------------------------------
# Relation terms and the relation plan
# ---------------------------------------------------------------------------


def _kernel(rel: Relation, params: dict, room: Room) -> tuple:
    """Kernel name and constants of a relation other than around."""
    kind = rel.kind
    if kind == "against_wall":
        return "_against_wall", _against_wall_rule(rel.target.removeprefix("wall:"), room)
    if kind == "corner":
        return "_corner", _corner_rule(rel.target.removeprefix("corner:"), params["wall"], room)
    if kind in ("h_place", "v_place"):
        return "_placement", _placement_rule("x" if kind == "h_place" else "y", room, params["margin"])
    if kind in DIRECTIONAL_KINDS:
        return "_directional", SIDE_RULES[kind]
    return f"_{kind}", ()


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
    optional param it omits.  Not frozen: the imagination pass compiles a
    plan every round, and a frozen dataclass is several times slower to
    build.
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


def _pose_rows(spec: SceneSpec) -> dict:
    """The slice of each entity's (x, y, theta) row in the flat vector, in
    draw order: each unit's frame then its members, then the independent
    assets."""
    ids = []
    for u in spec.units:
        ids.append(u.id)
        ids.extend(u.members)
    ids.extend(a.id for a in spec.independent_assets())
    return {eid: slice(3 * r, 3 * r + 3) for r, eid in enumerate(ids)}


def _blocks(spec: SceneSpec, pose: dict) -> dict:
    """The boxes of each frame, as Blocks without terms: one per unit frame,
    by unit id, then the scene's under None."""
    blocks: dict = {}
    for u in spec.units:
        rows = (None,) + tuple(pose[mid].start for mid in u.members)
        halves = tuple(_halves(spec, aid) for aid in u.assets)
        blocks[u.id] = Block(u.id, u.assets, rows, halves, (None,) * len(rows), [])
    ids = spec.entities()
    halves = tuple(None if eid in blocks else _halves(spec, eid) for eid in ids)
    frames = tuple(blocks.get(eid) for eid in ids)
    blocks[None] = Block(None, ids, tuple(pose[eid].start for eid in ids), halves, frames, [])
    return blocks


def _relation_plan(spec: SceneSpec, pose: dict, param: dict) -> dict:
    """`_blocks` with each relation term resolved into its frame's block, in
    the term order of `scene_model.relation_terms`: an intra term into its
    unit's block, an inter one into the scene's."""
    blocks = _blocks(spec, pose)
    at = {frame: {eid: k for k, eid in enumerate(block.ids)} for frame, block in blocks.items()}
    priors = shared_param_priors(spec)
    relations = spec.relations
    for group, members in relation_terms(relations):
        rel = relations[members[0]]
        frame = rel.unit if rel.scope == "intra" else None
        label = f"relations[{members[0]}]"
        if group is not None:
            ends = tuple(relations[i].source for i in members) + (rel.target,)
            kernel, consts = "_around", (rel.params["sweep"], rel.params["center"])
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
    parameter name to its position.  `blocks` is the relation plan: one
    Block per unit frame, by unit id, then the scene's under None.
    """

    pose: dict
    param: dict
    size: int
    blocks: dict

    @property
    def pose_size(self) -> int:
        return self.size - len(self.param)

    def shared(self, x) -> dict:
        """Shared parameter values held in `x`, by name."""
        return {name: float(x[k]) for name, k in self.param.items()}

    def pack(self, poses: dict, shared: dict) -> np.ndarray:
        """Flat vector from entity id -> (x, y, theta) and name -> value."""
        x = np.empty(self.size)
        for eid, rows in self.pose.items():
            x[rows] = poses[eid]
        for name, k in self.param.items():
            x[k] = shared[name]
        return x


def param_index(spec: SceneSpec) -> ParamIndex:
    """Rows in draw order: each unit's frame then its members, then the
    independent assets; shared parameters in order of first occurrence.  A
    relation naming an entity its frame does not hold raises
    MissingEntityError."""
    pose = _pose_rows(spec)
    n = 3 * len(pose)
    param = {name: n + k for k, name in enumerate(shared_param_priors(spec))}
    return ParamIndex(pose, param, n + len(param), _relation_plan(spec, pose, param))


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


def term_loss(term: Term, boxes: list, xs) -> tuple:
    """(value, pose gradient per end box, parameter gradient) of one term on
    its block's kernel boxes, its parameter read from `xs` when shared."""
    value = term.value if term.param is None else xs[term.param]
    return globals()[term.kernel]([boxes[k] for k in term.ends], value, *term.consts)


def _aggregate(block: Block, x, weights: Weights, room: Room) -> LossValue:
    """Weighted collision and relation terms of one block, plus the
    boundary term for the scene, with the gradient over `x`."""
    xs = x.tolist()
    boxes, levers = _block_boxes(block, xs)
    rows = block.rows
    grad = [0.0] * len(xs)

    def add(k: int, g0: float, g1: float, g2: float, w: float):
        # w times a gradient on box k, carried to the unit pose for a stand-in.
        r = rows[k]
        if r is None:
            return
        grad[r] += w * g0
        grad[r + 1] += w * g1
        lever = levers[k]
        grad[r + 2] += w * (g2 if lever is None else g0 * lever[0] + g1 * lever[1] + g2)

    boundary_total, wb = 0.0, weights.boundary
    if block.unit is None and wb != 0.0:
        for k, box in enumerate(boxes):
            value, ((g0, g1, g2),), _ = _boundary(box, room.length, room.width)
            boundary_total += value
            add(k, g0, g1, g2, wb)

    collision_total, wc = 0.0, weights.collision
    if wc != 0.0:
        for a, b in _proxy_pairs(boxes):
            lv = collision_loss(boxes[a], boxes[b])
            collision_total += lv.value
            add(a, *lv.grads["a"].tolist(), wc)
            add(b, *lv.grads["b"].tolist(), wc)

    relation_total, wr = 0.0, weights.relation
    if wr != 0.0:
        for term in block.terms:
            value, grads, param_grad = term_loss(term, boxes, xs)
            relation_total += value
            # The weight goes on before the stand-in pull-back.
            for k, (g0, g1, g2) in zip(term.ends, grads):
                add(k, wr * g0, wr * g1, wr * g2, 1.0)
            if term.param is not None:
                grad[term.param] += wr * param_grad

    grad = np.array(grad)
    terms = {"collision": collision_total, "relation": relation_total}
    if block.unit is not None:
        value = wc * collision_total + wr * relation_total
        return LossValue(value, grad, terms)
    value = wb * boundary_total + wc * collision_total + wr * relation_total
    return LossValue(value, grad, {"boundary": boundary_total, **terms})


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


def relation_penalties(spec: SceneSpec, index: ParamIndex, x) -> dict:
    """Raw (unweighted) penalty of every relation term at the given
    configuration, by the label of its first relation, 'relations[<index>]':
    an around group appears once, under its first member's label.  Intra
    terms are evaluated in their unit frame, inter terms on scene-level
    boxes, from the plan in `index`.
    """
    xs = x.tolist()
    out: dict = {}
    for block in index.blocks.values():
        boxes, _ = _block_boxes(block, xs)
        for term in block.terms:
            out[term.label] = float(term_loss(term, boxes, xs)[0])
    return out
