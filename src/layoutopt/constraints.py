"""Differentiable penalty terms over planar footprints.

Every loss returns a LossValue: a scalar plus analytic partial derivatives
with respect to the poses involved (arrays [d/dx, d/dy, d/dtheta]) and any
scalar constraint parameters.  Gradients are hand-derived; kinks coming from
hinges, absolute values, and min/max selections use the subgradient that is
zero at the kink (hinges) or the tie-broken branch (selections).

Two aggregation levels mirror the pose parameterization: unit-local terms are
evaluated in the unit frame and never touch the unit pose; scene-level terms
see independent assets and whole units through their enclosing oriented box.
Both read poses from one flat parameter vector and add their gradients into a
flat array of the same layout, through the slot table `ParamIndex`.

`param_index` also compiles the scene's relation plan, once per solve: one
`Block` per unit frame, then the scene's, each listing its boxes and its
relation terms in evaluation order (label, box positions, shared-parameter
position; an around group is one term, see `scene_model.relation_terms`).
Both aggregates and `relation_penalties` read that plan through one box
builder and one term evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import (
    FootprintBox,
    Pose2D,
    boundary_probes,
    corner_points,
    half_extents,
)
from .scene_model import (
    DIRECTIONAL_KINDS,
    SHARED_PARAM_SLOTS,
    Relation,
    Room,
    SceneSpec,
    Unit,
    relation_terms,
    shared_param_priors,
)

FACING_EPS = 1e-8


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


def _zero3() -> np.ndarray:
    return np.zeros(3)


# ---------------------------------------------------------------------------
# Collision and boundary
# ---------------------------------------------------------------------------


def collision_loss(a: FootprintBox, b: FootprintBox) -> LossValue:
    """Overlap penalty on axis-aligned proxies.

    value = IoU - (d^2 / c^2) * rho, where rho is intersection over the
    smaller proxy area, d the center distance, and c the diagonal of the
    smallest axis-aligned box enclosing both proxies.  Zero exactly when the
    proxies are disjoint; bounded below by -1.
    """
    ax_a, ay_a, dax_a, day_a = half_extents(a.half_l, a.half_w, a.pose.theta)
    ax_b, ay_b, dax_b, day_b = half_extents(b.half_l, b.half_w, b.pose.theta)

    def axis(ca, ha, cb, hb):
        alo, ahi = ca - ha, ca + ha
        blo, bhi = cb - hb, cb + hb
        ov = min(ahi, bhi) - max(alo, blo)
        span = max(ahi, bhi) - min(alo, blo)
        a_hi = ahi <= bhi
        a_lo = alo >= blo
        # (d ov / d center_a, d ov / d half_a, same for b)
        dov = (
            (1.0 if a_hi else 0.0) - (1.0 if a_lo else 0.0),
            (1.0 if a_hi else 0.0) + (1.0 if a_lo else 0.0),
            (0.0 if a_hi else 1.0) - (0.0 if a_lo else 1.0),
            (0.0 if a_hi else 1.0) + (0.0 if a_lo else 1.0),
        )
        s_hi = ahi >= bhi
        s_lo = alo <= blo
        dspan = (
            (1.0 if s_hi else 0.0) - (1.0 if s_lo else 0.0),
            (1.0 if s_hi else 0.0) + (1.0 if s_lo else 0.0),
            (0.0 if s_hi else 1.0) - (0.0 if s_lo else 1.0),
            (0.0 if s_hi else 1.0) + (0.0 if s_lo else 1.0),
        )
        return ov, span, dov, dspan

    ovx, cx, dovx, dcx = axis(a.pose.x, ax_a, b.pose.x, ax_b)
    ovy, cy, dovy, dcy = axis(a.pose.y, ay_a, b.pose.y, ay_b)
    px, py = max(ovx, 0.0), max(ovy, 0.0)
    inter = px * py

    area_a, area_b = 4.0 * ax_a * ay_a, 4.0 * ax_b * ay_b
    union = area_a + area_b - inter
    min_area = area_a if area_a <= area_b else area_b
    a_is_min = area_a <= area_b

    dx = a.pose.x - b.pose.x
    dy = a.pose.y - b.pose.y
    d2 = dx * dx + dy * dy
    c2 = cx * cx + cy * cy

    iou = inter / union
    rho = inter / min_area
    value = iou - (d2 / c2) * rho

    darea_a = 4.0 * (dax_a * ay_a + ax_a * day_a)  # d area_a / d theta_a
    darea_b = 4.0 * (dax_b * ay_b + ax_b * day_b)

    gate_x = 1.0 if ovx > 0.0 else 0.0
    gate_y = 1.0 if ovy > 0.0 else 0.0

    ga, gb = _zero3(), _zero3()
    # Per-variable derivative bundles: (d inter, d area_a, d area_b, d d2, d c2).
    rows = (
        (ga, 0, gate_x * py * dovx[0], 0.0, 0.0, 2.0 * dx, 2.0 * cx * dcx[0]),
        (ga, 1, gate_y * px * dovy[0], 0.0, 0.0, 2.0 * dy, 2.0 * cy * dcy[0]),
        (
            ga,
            2,
            gate_x * py * dovx[1] * dax_a + gate_y * px * dovy[1] * day_a,
            darea_a,
            0.0,
            0.0,
            2.0 * cx * dcx[1] * dax_a + 2.0 * cy * dcy[1] * day_a,
        ),
        (gb, 0, gate_x * py * dovx[2], 0.0, 0.0, -2.0 * dx, 2.0 * cx * dcx[2]),
        (gb, 1, gate_y * px * dovy[2], 0.0, 0.0, -2.0 * dy, 2.0 * cy * dcy[2]),
        (
            gb,
            2,
            gate_x * py * dovx[3] * dax_b + gate_y * px * dovy[3] * day_b,
            0.0,
            darea_b,
            0.0,
            2.0 * cx * dcx[3] * dax_b + 2.0 * cy * dcy[3] * day_b,
        ),
    )
    for out, idx, d_inter, d_area_a, d_area_b, d_d2, d_c2 in rows:
        d_union = d_area_a + d_area_b - d_inter
        d_iou = (d_inter * union - inter * d_union) / (union * union)
        d_min = d_area_a if a_is_min else d_area_b
        d_rho = (d_inter * min_area - inter * d_min) / (min_area * min_area)
        d_ratio = (d_d2 * c2 - d2 * d_c2) / (c2 * c2)
        out[idx] = d_iou - d_ratio * rho - (d2 / c2) * d_rho

    return LossValue(value, {"a": ga, "b": gb})


def _proxy_pairs(boxes: list) -> list:
    """Position pairs of `boxes` in nested-loop order, less the pairs whose
    proxies are disjoint or touch: `collision_loss` is exactly 0 there, with
    a gradient of signed zeros.  Bounds use the half extents and the
    expressions of `collision_loss`, so the two agree bit for bit."""
    lo, hi = [], []
    for box in boxes:
        ax, ay, _, _ = half_extents(box.half_l, box.half_w, box.pose.theta)
        lo.append((box.pose.x - ax, box.pose.y - ay))
        hi.append((box.pose.x + ax, box.pose.y + ay))
    return geometry.overlapping_pairs(lo, hi)


def boundary_loss(box: FootprintBox, room: Room) -> LossValue:
    """L1 excursion of the footprint corners outside the room rectangle."""
    c = math.cos(box.pose.theta)
    s = math.sin(box.pose.theta)
    limits = (room.length, room.width)
    value = 0.0
    g = _zero3()
    for sx, sy in ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)):
        ox, oy = sx * box.half_l, sy * box.half_w
        corner = (box.pose.x + c * ox - s * oy, box.pose.y + s * ox + c * oy)
        dtheta = (-s * ox - c * oy, c * ox - s * oy)
        for axis_i in (0, 1):
            v = corner[axis_i]
            if v < 0.0:
                value += -v
                g[axis_i] -= 1.0
                g[2] -= dtheta[axis_i]
            elif v > limits[axis_i]:
                value += v - limits[axis_i]
                g[axis_i] += 1.0
                g[2] += dtheta[axis_i]
    return LossValue(value, {"box": g})


# ---------------------------------------------------------------------------
# Pairwise relation penalties
# ---------------------------------------------------------------------------


def distance_loss(a: FootprintBox, b: FootprintBox, d_star: float) -> LossValue:
    """Squared error between center distance and the target d_star."""
    dx = a.pose.x - b.pose.x
    dy = a.pose.y - b.pose.y
    dist = math.hypot(dx, dy)
    r = dist - d_star
    ga, gb = _zero3(), _zero3()
    if dist > 1e-12:
        k = 2.0 * r / dist
        ga[0], ga[1] = k * dx, k * dy
        gb[0], gb[1] = -k * dx, -k * dy
    return LossValue(r * r, {"a": ga, "b": gb, "d": -2.0 * r})


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


def _point_box_sdf_grads(point_box: FootprintBox, offset, other: FootprintBox):
    """Signed distance from a boundary point of `point_box` to `other`,
    with derivatives w.r.t. both poses.

    `offset` is the probe point in point_box's local frame.  The value is
    the one `gap_loss` scans for, from the same float expressions.
    """
    pp = point_box.pose
    cp, sp = math.cos(pp.theta), math.sin(pp.theta)
    qx = pp.x + cp * offset[0] - sp * offset[1]
    qy = pp.y + sp * offset[0] + cp * offset[1]

    po = other.pose
    co, so = math.cos(po.theta), math.sin(po.theta)
    dx, dy = qx - po.x, qy - po.y
    ux = co * dx + so * dy
    uy = -so * dx + co * dy
    value = _local_sdf(ux, uy, other.half_l, other.half_w)
    gux, guy = _local_sdf_grad(ux, uy, other.half_l, other.half_w)

    # World-frame gradient at the probe point.
    gq = np.array([co * gux - so * guy, so * gux + co * guy])
    g_point = np.array(
        [gq[0], gq[1], gq[0] * (-sp * offset[0] - cp * offset[1]) + gq[1] * (cp * offset[0] - sp * offset[1])]
    )
    g_other = np.array([-gq[0], -gq[1], gux * uy - guy * ux])
    return value, g_point, g_other


def gap_loss(a: FootprintBox, b: FootprintBox, g: float) -> LossValue:
    """Squared error between the smallest boundary separation and target g.

    The separation is the minimum signed point-to-box distance over boundary
    probes of both boxes; derivatives follow the winning probe, the first
    one strictly below all before it.  The scan computes values only: a
    probe that does not win contributes exactly nothing to the gradient, so
    only the winner's derivatives are computed.  When no probe wins, every
    probe being NaN (a pose is not finite), value and gradients are NaN.
    """
    best = math.inf
    winner = None
    for box, other, slot_box, slot_other in ((a, b, "a", "b"), (b, a, "b", "a")):
        pp, po = box.pose, other.pose
        cp, sp = math.cos(pp.theta), math.sin(pp.theta)
        co, so = math.cos(po.theta), math.sin(po.theta)
        for px, py in boundary_probes(box):
            # Back out the probe's local offset to chain through the pose,
            # then carry it into other's frame as `_point_box_sdf_grads` does.
            wx, wy = px - pp.x, py - pp.y
            offset = (cp * wx + sp * wy, -sp * wx + cp * wy)
            dx = pp.x + cp * offset[0] - sp * offset[1] - po.x
            dy = pp.y + sp * offset[0] + cp * offset[1] - po.y
            value = _local_sdf(co * dx + so * dy, -so * dx + co * dy, other.half_l, other.half_w)
            if value < best:
                best = value
                winner = (box, offset, other, slot_box, slot_other)
    if winner is None:
        nan = np.full(3, math.nan)
        return LossValue(math.nan, {"a": nan, "b": nan.copy(), "g": math.nan})
    box, offset, other, slot_box, slot_other = winner
    _, g_point, g_other = _point_box_sdf_grads(box, offset, other)
    r = best - g
    out = {slot_box: 2.0 * r * g_point, slot_other: 2.0 * r * g_other}
    out["g"] = -2.0 * r
    return LossValue(r * r, out)


WALL_RULES = {
    # wall: (axis index, sign of half-extent in target, wall coordinate, theta*)
    "L": (0, 1.0, 0.0, 0.0),
    "R": (0, -1.0, None, math.pi),
    "B": (1, 1.0, 0.0, 0.5 * math.pi),
    "T": (1, -1.0, None, -0.5 * math.pi),
}


def against_wall_loss(box: FootprintBox, wall: str, room: Room) -> LossValue:
    """Flush-to-wall penalty: squared offset from the wall by the footprint's
    half extent, plus 1 - cos(theta - theta_wall)."""
    axis_i, sign, base, theta_star = WALL_RULES[wall]
    ax, ay, dax, day = half_extents(box.half_l, box.half_w, box.pose.theta)
    half = ax if axis_i == 0 else ay
    dhalf = dax if axis_i == 0 else day
    if base is None:
        base = room.length if axis_i == 0 else room.width
    target = base + sign * half
    coord = box.pose.x if axis_i == 0 else box.pose.y
    r = coord - target
    dth = box.pose.theta - theta_star
    value = r * r + 1.0 - math.cos(dth)
    g = _zero3()
    g[axis_i] = 2.0 * r
    g[2] = 2.0 * r * (-sign * dhalf) + math.sin(dth)
    return LossValue(value, {"box": g})


_CORNER_SIGNS_XY = {"BL": (1.0, 1.0), "BR": (-1.0, 1.0), "TR": (-1.0, -1.0), "TL": (1.0, -1.0)}


def corner_loss(box: FootprintBox, corner_tag: str, wall: str, room: Room) -> LossValue:
    """Tuck-into-corner penalty: squared offsets from both adjacent walls by
    the half extents, plus orientation toward the named wall's target angle."""
    sx, sy = _CORNER_SIGNS_XY[corner_tag]
    ax, ay, dax, day = half_extents(box.half_l, box.half_w, box.pose.theta)
    x_base = 0.0 if sx > 0.0 else room.length
    y_base = 0.0 if sy > 0.0 else room.width
    x_target = x_base + sx * ax
    y_target = y_base + sy * ay
    theta_star = WALL_RULES[wall][3]
    rx = box.pose.x - x_target
    ry = box.pose.y - y_target
    dth = box.pose.theta - theta_star
    value = rx * rx + ry * ry + 1.0 - math.cos(dth)
    g = np.array(
        [
            2.0 * rx,
            2.0 * ry,
            2.0 * rx * (-sx * dax) + 2.0 * ry * (-sy * day) + math.sin(dth),
        ]
    )
    return LossValue(value, {"box": g})


def facing_loss(a: FootprintBox, b: FootprintBox) -> LossValue:
    """1 - cosine between a's heading and the direction from a to b."""
    ca, sa = math.cos(a.pose.theta), math.sin(a.pose.theta)
    dx = b.pose.x - a.pose.x
    dy = b.pose.y - a.pose.y
    n = math.hypot(dx, dy)
    ga, gb = _zero3(), _zero3()
    if n < 1e-12:
        return LossValue(1.0, {"a": ga, "b": gb})
    denom = n + FACING_EPS
    f = ca * dx + sa * dy
    value = 1.0 - f / denom
    # d value / d (dx, dy)
    gd = np.array(
        [
            -(ca * denom - f * dx / n) / (denom * denom),
            -(sa * denom - f * dy / n) / (denom * denom),
        ]
    )
    ga[0], ga[1] = -gd[0], -gd[1]
    ga[2] = -(-sa * dx + ca * dy) / denom
    gb[0], gb[1] = gd[0], gd[1]
    return LossValue(value, {"a": ga, "b": gb})


# Directional side rules: primary axis (0 = target-local x, 1 = y) and the
# sign sigma such that the hinge reads sigma * coord + r + e <= 0 at zero loss.
SIDE_RULES = {
    "left_of": (0, 1.0),
    "right_of": (0, -1.0),
    "behind_of": (1, 1.0),
    "in_front_of": (1, -1.0),
}


def directional_loss(src: FootprintBox, tgt: FootprintBox, direction: str, p: float) -> LossValue:
    """Side placement in the target's frame.

    The source center, expressed in the target frame, must clear the shared
    half extents along the side's axis (squared hinge) and line up on the
    perpendicular axis at the fraction p between the two touch extremes
    (absolute deviation).  Sides: left/right along target-local x,
    behind/front along target-local y.
    """
    axis_i, sigma = SIDE_RULES[direction]
    ct, st = math.cos(tgt.pose.theta), math.sin(tgt.pose.theta)
    dx = src.pose.x - tgt.pose.x
    dy = src.pose.y - tgt.pose.y
    xp = ct * dx + st * dy
    yp = -st * dx + ct * dy

    rx, ry, drx, dry = half_extents(src.half_l, src.half_w, src.pose.theta - tgt.pose.theta)

    ex, ey = tgt.half_l, tgt.half_w
    coords = (xp, yp)
    rr = (rx, ry)
    ee = (ex, ey)
    drr = (drx, dry)
    other = 1 - axis_i

    z = sigma * coords[axis_i] + rr[axis_i] + ee[axis_i]
    bar = (2.0 * p - 1.0) * (ee[other] - rr[other])
    w = coords[other] - bar

    hinge = max(z, 0.0)
    value = hinge * hinge + abs(w)

    h2 = 2.0 * hinge
    sw = math.copysign(1.0, w) if w != 0.0 else 0.0

    # Derivatives of the target-frame coordinates.
    dxp_src = np.array([ct, st])
    dyp_src = np.array([-st, ct])
    dxp_tth = yp
    dyp_tth = -xp
    dcoord_src = (dxp_src, dyp_src)
    dcoord_tth = (dxp_tth, dyp_tth)

    gsrc, gtgt = _zero3(), _zero3()
    # Hinge term.
    gsrc[:2] += h2 * sigma * dcoord_src[axis_i]
    gtgt[:2] -= h2 * sigma * dcoord_src[axis_i]
    gsrc[2] += h2 * drr[axis_i]
    gtgt[2] += h2 * (sigma * dcoord_tth[axis_i] - drr[axis_i])
    # Alignment term; bar depends on theta through the source's half extent.
    gsrc[:2] += sw * dcoord_src[other]
    gtgt[:2] -= sw * dcoord_src[other]
    gsrc[2] += sw * (2.0 * p - 1.0) * drr[other]
    gtgt[2] += sw * (dcoord_tth[other] - (2.0 * p - 1.0) * drr[other])

    gp = sw * (-2.0) * (ee[other] - rr[other])
    return LossValue(value, {"src": gsrc, "tgt": gtgt, "p": gp})


def angle_offset_loss(a: FootprintBox, b: FootprintBox, alpha: float) -> LossValue:
    """1 - cos of the heading difference minus the target offset alpha."""
    d = a.pose.theta - b.pose.theta - alpha
    sd = math.sin(d)
    ga, gb = _zero3(), _zero3()
    ga[2] = sd
    gb[2] = -sd
    return LossValue(1.0 - math.cos(d), {"a": ga, "b": gb, "alpha": -sd})


def placement_loss(box: FootprintBox, axis: str, target: float, room: Room, margin: float) -> LossValue:
    """Squared hinge on the center coordinate's deviation beyond margin*span."""
    axis_i = 0 if axis == "x" else 1
    span = room.length if axis_i == 0 else room.width
    coord = box.pose.x if axis_i == 0 else box.pose.y
    dev = coord - target
    z = abs(dev) - margin * span
    hinge = max(z, 0.0)
    g = _zero3()
    sd = math.copysign(1.0, dev) if dev != 0.0 else 0.0
    g[axis_i] = 2.0 * hinge * sd
    return LossValue(hinge * hinge, {"box": g, "target": -2.0 * hinge * sd})


def around_loss(sources: list, focal: FootprintBox, sweep: float, center: float) -> LossValue:
    """Even angular spread around a focal object plus a circular-mean
    orientation target.

    Directions to the sources, measured in the focal frame, are sorted; the
    consecutive gaps should all equal sweep/(N-1).  Source headings relative
    to the focal should average (in the embedded sin/cos sense) to the mean
    resultant of N headings evenly spread over the sweep centered at `center`.
    """
    n = len(sources)
    if n < 2:
        raise ValueError("around needs at least two sources")
    cf = math.cos(focal.pose.theta)
    sf = math.sin(focal.pose.theta)

    phis = np.empty(n)
    dphi_sources = np.zeros((n, 2))
    for i, box in enumerate(sources):
        dx = box.pose.x - focal.pose.x
        dy = box.pose.y - focal.pose.y
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
    g_focal = _zero3()
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
    rel = np.array([box.pose.theta - focal.pose.theta for box in sources])
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

    for i, box in enumerate(sources):
        de = np.array([math.cos(rel[i]), -math.sin(rel[i])]) / n
        g_sources[i, 2] += 2.0 * float(np.dot(err, de))
        g_focal[2] -= 2.0 * float(np.dot(err, de))
    d_term2_dcenter = -2.0 * m_res * float(
        err[0] * math.cos(center) - err[1] * math.sin(center)
    )
    d_term2_dsweep = -2.0 * float(np.dot(err, np.array([math.sin(center), math.cos(center)]))) * (
        dm_ddelta / (2.0 * (n - 1))
    )

    return LossValue(
        term1 + term2,
        {
            "sources": g_sources,
            "focal": g_focal,
            "sweep": d_term1_dsweep + d_term2_dsweep,
            "center": d_term2_dcenter,
        },
    )


# ---------------------------------------------------------------------------
# Boxes of entities and units
# ---------------------------------------------------------------------------


_ORIGIN = Pose2D(0.0, 0.0, 0.0)


def box_from_array(arr, half_l: float, half_w: float) -> FootprintBox:
    return FootprintBox(Pose2D(float(arr[0]), float(arr[1]), float(arr[2])), half_l, half_w)


def _enclosing_box(poses, halves):
    """Center (2,), half_l and half_w of the axis-aligned box enclosing the
    footprints with the given (x, y, theta) poses and (half_l, half_w)."""
    pts = np.array(
        [p for (x, y, t), (hl, hw) in zip(poses, halves) for p in corner_points(x, y, t, hl, hw)]
    )
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi), float(half[0]), float(half[1])


def unit_local_aabb(spec: SceneSpec, unit: Unit, member_locals: dict):
    """Enclosing axis-aligned box of the unit in its own frame.

    Returns (center offset (2,), half_l, half_w).  Treated as fixed geometry
    by the scene-level losses: derivatives flow through the unit pose only.
    """
    poses = [(0.0, 0.0, 0.0)] + [member_locals[mid] for mid in unit.members]
    return _enclosing_box(poses, [_halves(spec, aid) for aid in unit.assets])


def _carried(pose: Pose2D, offset, half_l: float, half_w: float) -> FootprintBox:
    """A unit's local enclosing box carried by the unit pose."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    x = pose.x + c * offset[0] - s * offset[1]
    y = pose.y + s * offset[0] + c * offset[1]
    return FootprintBox(Pose2D(x, y, pose.theta), half_l, half_w)


def unit_obb(spec: SceneSpec, unit: Unit, unit_pose, member_locals: dict):
    """Scene-level stand-in box for a unit: its local enclosing box carried
    by the unit pose.  Returns (box, local center offset)."""
    offset, half_l, half_w = unit_local_aabb(spec, unit, member_locals)
    return _carried(Pose2D.from_array(unit_pose), offset, half_l, half_w), offset


def chain_obb_grad_to_unit(grad, offset, theta: float) -> np.ndarray:
    """Pull a gradient on the unit's stand-in box back to the unit pose."""
    c, s = math.cos(theta), math.sin(theta)
    out = np.array(
        [
            grad[0],
            grad[1],
            grad[0] * (-s * offset[0] - c * offset[1])
            + grad[1] * (c * offset[0] - s * offset[1])
            + grad[2],
        ]
    )
    return out


# ---------------------------------------------------------------------------
# The relation plan
# ---------------------------------------------------------------------------


# Per relation kind other than around: its loss on (the boxes it names,
# parameter value, relation, room), the loss slots of those boxes' poses,
# and the loss slot of its scalar parameter.  The lambdas look each loss up
# by name at call time, so a wrapper set on the module attribute (a tracer,
# a test spy) sees every call.
_RELATIONS = {
    "distance": (lambda b, v, rel, room: distance_loss(*b, v), ("a", "b"), "d"),
    "gap": (lambda b, v, rel, room: gap_loss(*b, v), ("a", "b"), "g"),
    "against_wall": (
        lambda b, v, rel, room: against_wall_loss(*b, rel.target.removeprefix("wall:"), room),
        ("box",),
        None,
    ),
    "corner": (
        lambda b, v, rel, room: corner_loss(
            *b, rel.target.removeprefix("corner:"), rel.params["wall"], room
        ),
        ("box",),
        None,
    ),
    "facing": (lambda b, v, rel, room: facing_loss(*b), ("a", "b"), None),
    "angle_offset": (lambda b, v, rel, room: angle_offset_loss(*b, v), ("a", "b"), "alpha"),
    "h_place": (
        lambda b, v, rel, room: placement_loss(*b, "x", v, room, rel.params["margin"]),
        ("box",),
        "target",
    ),
    "v_place": (
        lambda b, v, rel, room: placement_loss(*b, "y", v, room, rel.params["margin"]),
        ("box",),
        "target",
    ),
    **{
        kind: (lambda b, v, rel, room: directional_loss(*b, rel.kind, v), ("src", "tgt"), "p")
        for kind in DIRECTIONAL_KINDS
    },
}


@dataclass(frozen=True)
class Term:
    """One relation term of a block: a relation, or a whole around group
    (`rel` is then its first member).  `ends` are box positions: source,
    then target if it is an entity; an around group's sources, then its
    focal.  The scalar parameter is `x[param]` when shared, else `value`.
    """

    label: str
    rel: Relation
    ends: tuple
    param: int | None = None
    value: float | None = None


@dataclass
class Block:
    """The boxes and relation terms of one frame: a unit's, or the scene's
    (`unit` None).  Per box: entity id, row slice of the flat vector (None
    for an anchor, at the frame origin), half sizes, and for a unit's
    stand-in the unit's block, whose footprints it encloses (its half sizes
    are then None).
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


def _relation_plan(spec: SceneSpec, pose: dict, param: dict) -> dict:
    """One Block per unit frame, by unit id, then the scene's under None.
    Intra relations go to their unit's block and inter ones to the scene's,
    in the term order of `relation_terms`."""
    blocks: dict = {}
    for u in spec.units:
        rows = (None,) + tuple(pose[mid] for mid in u.members)
        halves = tuple(_halves(spec, aid) for aid in u.assets)
        blocks[u.id] = Block(u.id, u.assets, rows, halves, (None,) * len(rows), [])
    ids = spec.entities()
    halves = tuple(None if eid in blocks else _halves(spec, eid) for eid in ids)
    frames = tuple(blocks.get(eid) for eid in ids)
    blocks[None] = Block(None, ids, tuple(pose[eid] for eid in ids), halves, frames, [])
    for group, members in relation_terms(spec.relations):
        rel = spec.relations[members[0]]
        block = blocks[rel.unit if rel.scope == "intra" else None]
        if group is not None:
            ends = [spec.relations[i].source for i in members] + [rel.target]
            block.terms.append(Term(f"around:{group}", rel, tuple(map(block.ids.index, ends))))
            continue
        ends = tuple(map(block.ids.index, (rel.source, rel.target)[: len(_RELATIONS[rel.kind][1])]))
        value = rel.params.get(SHARED_PARAM_SLOTS.get(rel.kind))
        term = Term(f"relations[{members[0]}]", rel, ends, param.get(rel.shared_param), value)
        block.terms.append(term)
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
    independent assets; shared parameters in order of first occurrence."""
    ids = []
    for u in spec.units:
        ids.append(u.id)
        ids.extend(u.members)
    ids.extend(a.id for a in spec.independent_assets())
    pose = {eid: slice(3 * r, 3 * r + 3) for r, eid in enumerate(ids)}
    n = 3 * len(ids)
    param = {name: n + k for k, name in enumerate(shared_param_priors(spec))}
    return ParamIndex(pose, param, n + len(param), _relation_plan(spec, pose, param))


def _block_boxes(block: Block, xs) -> tuple:
    """The boxes of `block` at the flat vector `xs`, and per box the center
    offset of a unit's stand-in in the unit frame, or None."""
    boxes, offsets = [], []
    for rows, halves, frame in zip(block.rows, block.halves, block.frames):
        pose = _ORIGIN if rows is None else Pose2D(*xs[rows])
        if frame is None:
            boxes.append(FootprintBox(pose, *halves))
            offsets.append(None)
            continue
        members = [(0.0, 0.0, 0.0) if r is None else xs[r] for r in frame.rows]
        offset, half_l, half_w = _enclosing_box(members, frame.halves)
        boxes.append(_carried(pose, offset, half_l, half_w))
        offsets.append(offset)
    return boxes, offsets


def term_loss(term: Term, boxes: list, xs, room: Room):
    """Penalty of one term on its block's `boxes`, its pose gradients as
    (box position, gradient) pairs, and its gradient on the shared
    parameter (None when the term binds none)."""
    rel = term.rel
    if rel.kind == "around":
        *sources, focal = term.ends
        lv = around_loss(
            [boxes[k] for k in sources], boxes[focal], rel.params["sweep"], rel.params["center"]
        )
        return lv, [*zip(sources, lv.grads["sources"]), (focal, lv.grads["focal"])], None
    loss, pose_slots, param_slot = _RELATIONS[rel.kind]
    value = term.value if term.param is None else xs[term.param]
    lv = loss([boxes[k] for k in term.ends], value, rel, room)
    poses = [(k, lv.grads[slot]) for k, slot in zip(term.ends, pose_slots)]
    return lv, poses, None if term.param is None else lv.grads[param_slot]


def _aggregate(block: Block, x, weights: Weights, room: Room) -> LossValue:
    """Weighted collision and relation terms of one block, plus the
    boundary term for the scene, with the gradient over `x`."""
    xs = x.tolist()
    boxes, offsets = _block_boxes(block, xs)
    rows = block.rows
    grad = np.zeros(len(xs))

    def pull(k: int, g):
        """Carry a gradient on box `k` to its entity's pose."""
        if offsets[k] is None:
            return g
        return chain_obb_grad_to_unit(g, offsets[k], boxes[k].pose.theta)

    boundary_total = 0.0
    if block.unit is None and weights.boundary != 0.0:
        for k, box in enumerate(boxes):
            lv = boundary_loss(box, room)
            boundary_total += lv.value
            grad[rows[k]] += weights.boundary * pull(k, lv.grads["box"])

    collision_total = 0.0
    if weights.collision != 0.0:
        for a, b in _proxy_pairs(boxes):
            lv = collision_loss(boxes[a], boxes[b])
            collision_total += lv.value
            for k, g in ((a, lv.grads["a"]), (b, lv.grads["b"])):
                if rows[k] is not None:
                    grad[rows[k]] += weights.collision * pull(k, g)

    relation_total = 0.0
    if weights.relation != 0.0:
        for term in block.terms:
            lv, poses, param_grad = term_loss(term, boxes, xs, room)
            relation_total += lv.value
            for k, g in poses:
                if rows[k] is not None:
                    grad[rows[k]] += pull(k, weights.relation * g)
            if param_grad is not None:
                grad[term.param] += weights.relation * param_grad

    terms = {"collision": collision_total, "relation": relation_total}
    if block.unit is not None:
        value = weights.collision * collision_total + weights.relation * relation_total
        return LossValue(value, grad, terms)
    value = (
        weights.boundary * boundary_total
        + weights.collision * collision_total
        + weights.relation * relation_total
    )
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
    """Raw (unweighted) penalty of every relation at the given configuration.

    Around groups appear once under 'around:<group>'; other relations under
    'relations[<index>]'.  Intra relations are evaluated in their unit frame,
    inter relations on scene-level boxes, from the plan in `index`.
    """
    xs = x.tolist()
    out: dict = {}
    for block in index.blocks.values():
        boxes, _ = _block_boxes(block, xs)
        for term in block.terms:
            out[term.label] = float(term_loss(term, boxes, xs, spec.room)[0].value)
    return out
