"""Finite-difference oracles for the analytic penalty gradients.

Each sampler draws a random configuration, rejecting any that sits within a
small margin of a kink (hinge boundaries, min/max ties, sorting ties, extent
sign changes) so that central differences are valid.  The margin (1e-3) is
orders of magnitude above the step (1e-5).
"""

from __future__ import annotations

import math

import numpy as np

from layoutopt.constraints import (
    SIDE_RULES,
    LossValue,
    _against_wall_rule,
    _corner_rule,
    _placement_rule,
    angle_offset_loss,
    against_wall_loss,
    around_loss,
    boundary_loss,
    collision_loss,
    corner_loss,
    directional_loss,
    distance_loss,
    facing_loss,
    gap_loss,
    placement_loss,
)
from layoutopt.geometry import Pose2D
from layoutopt.scene_model import Room
from refgeom import FootprintBox, axis_overlaps, corners, signed_distance_point_box

def box_from_array(arr, half_l: float, half_w: float) -> FootprintBox:
    return FootprintBox(Pose2D(float(arr[0]), float(arr[1]), float(arr[2])), half_l, half_w)


def kernel_box(box: FootprintBox) -> tuple:
    """A footprint as the kernels take it, (x, y, theta, half_l, half_w)."""
    return (box.pose.x, box.pose.y, box.pose.theta, box.half_l, box.half_w)


def kbox(arr, half_l: float, half_w: float) -> tuple:
    return kernel_box(box_from_array(arr, half_l, half_w))


def keyed(out: tuple, slots: tuple, param_slot: str | None = None) -> LossValue:
    """A kernel's (value, grads, parameter gradient) keyed by slot name: the
    gradient at each box position under its slot, then the parameter's.  A
    relation kernel's penalty, its fourth item, is left out."""
    value, grads, param_grad = out[:3]
    lv = LossValue(value, {slot: np.array(g) for slot, g in zip(slots, grads)})
    if param_slot is not None:
        lv.grads[param_slot] = param_grad
    return lv


def keyed_around(out: tuple) -> LossValue:
    """`around_loss`'s result keyed as "sources" (one row per source),
    "focal", "sweep" and "center"."""
    value, grads, (d_sweep, d_center) = out[:3]
    g_sources = np.array(grads[:-1]).reshape(-1, 3)
    return LossValue(
        value, {"sources": g_sources, "focal": np.array(grads[-1]), "sweep": d_sweep, "center": d_center}
    )


H = 1e-5
KINK_MARGIN = 1e-3


def fd_slots(value_fn, slots: dict, h: float = H) -> dict:
    """Central finite differences of value_fn over every slot component."""
    out = {}
    for name, v in slots.items():
        if isinstance(v, float):
            hi = value_fn({**slots, name: v + h})
            lo = value_fn({**slots, name: v - h})
            out[name] = (hi - lo) / (2.0 * h)
        else:
            arr = np.asarray(v, dtype=float)
            g = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                up = arr.copy()
                up[idx] += h
                dn = arr.copy()
                dn[idx] -= h
                g[idx] = (value_fn({**slots, name: up}) - value_fn({**slots, name: dn})) / (2.0 * h)
            out[name] = g
    return out


def assert_grads_close(analytic: dict, numeric: dict, context: str = ""):
    """Relative error < 1e-4; absolute < 1e-7 for near-zero gradients."""
    for name, num in numeric.items():
        ana = analytic[name]
        a = np.atleast_1d(np.asarray(ana, dtype=float))
        f = np.atleast_1d(np.asarray(num, dtype=float))
        assert a.shape == f.shape, f"{context}:{name} shape {a.shape} vs {f.shape}"
        for idx in np.ndindex(a.shape):
            av, fv = float(a[idx]), float(f[idx])
            denom = max(abs(av), abs(fv))
            err = abs(av - fv)
            if denom < 1e-3:
                assert err < 1e-7, f"{context}:{name}{list(idx)} abs err {err:.3e}"
            else:
                assert err / denom < 1e-4, (
                    f"{context}:{name}{list(idx)} rel err {err / denom:.3e} "
                    f"(analytic {av:.6e}, numeric {fv:.6e})"
                )


def _pose(rng, span=2.0):
    return np.array(
        [
            rng.uniform(-span, span),
            rng.uniform(-span, span),
            rng.uniform(-2.0 * math.pi, 2.0 * math.pi),
        ]
    )


def _theta_regular(theta: float) -> bool:
    return abs(math.cos(theta)) > 2e-3 and abs(math.sin(theta)) > 2e-3


ROOM = Room(5.0, 4.0, 3.0)


def sample_collision(rng):
    hl_a, hw_a = rng.uniform(0.3, 1.2, size=2)
    hl_b, hw_b = rng.uniform(0.3, 1.2, size=2)
    # Near-equal areas put every pose on the min-area kink; no pose could
    # pass, so draw b's size again instead of looping forever.
    while abs(4.0 * hl_a * hw_a - 4.0 * hl_b * hw_b) < KINK_MARGIN:
        hl_b, hw_b = rng.uniform(0.3, 1.2, size=2)
    while True:
        a = _pose(rng, 1.5)
        b = _pose(rng, 1.5)
        if rng.random() < 0.5:  # force likely overlap
            b[:2] = a[:2] + rng.uniform(-0.8, 0.8, size=2)
        if not (_theta_regular(a[2]) and _theta_regular(b[2])):
            continue
        box_a = box_from_array(a, hl_a, hw_a)
        box_b = box_from_array(b, hl_b, hw_b)
        ca, cb = corners(box_a), corners(box_b)
        ok = True
        for axis in (0, 1):
            ahi, alo = ca[:, axis].max(), ca[:, axis].min()
            bhi, blo = cb[:, axis].max(), cb[:, axis].min()
            ov = min(ahi, bhi) - max(alo, blo)
            if (
                abs(ahi - bhi) < KINK_MARGIN
                or abs(alo - blo) < KINK_MARGIN
                or abs(ov) < KINK_MARGIN
            ):
                ok = False
                break
        if not ok:
            continue

        def value_fn(s):
            return collision_loss(kbox(s["a"], hl_a, hw_a), kbox(s["b"], hl_b, hw_b)).value

        lv = keyed(collision_loss(kernel_box(box_a), kernel_box(box_b)), ("a", "b"))
        return value_fn, {"a": a, "b": b}, lv.grads


def sample_boundary(rng):
    hl, hw = rng.uniform(0.3, 1.0, size=2)
    limits = (ROOM.length, ROOM.width)
    while True:
        p = np.array(
            [rng.uniform(-1.0, 6.0), rng.uniform(-1.0, 5.0), rng.uniform(-7.0, 7.0)]
        )
        box = box_from_array(p, hl, hw)
        cs = corners(box)
        ok = all(
            abs(cs[k, axis] - wall) > KINK_MARGIN
            for k in range(4)
            for axis in (0, 1)
            for wall in (0.0, limits[axis])
        )
        if not ok:
            continue

        def value_fn(s):
            return boundary_loss(kbox(s["box"], hl, hw), ROOM)[0]

        lv = keyed(boundary_loss(kernel_box(box), ROOM), ("box",))
        return value_fn, {"box": p}, lv.grads


def sample_distance(rng):
    hl_a, hw_a, hl_b, hw_b = rng.uniform(0.2, 1.0, size=4)
    while True:
        a, b = _pose(rng), _pose(rng)
        d_star = float(rng.uniform(0.0, 3.0))
        if math.hypot(a[0] - b[0], a[1] - b[1]) < 1e-2:
            continue

        def value_fn(s):
            return distance_loss([kbox(s["a"], hl_a, hw_a), kbox(s["b"], hl_b, hw_b)], s["d"])[0]

        lv = keyed(distance_loss([kbox(a, hl_a, hw_a), kbox(b, hl_b, hw_b)], d_star), ("a", "b"), "d")
        return value_fn, {"a": a, "b": b, "d": d_star}, lv.grads


def sample_gap(rng):
    hl_a, hw_a, hl_b, hw_b = rng.uniform(0.2, 1.0, size=4)
    while True:
        a, b = _pose(rng, 1.0), _pose(rng, 1.0)
        apart = rng.random() < 0.5
        if apart:
            b[:2] += np.array([3.0, 0.0]) if rng.random() < 0.5 else np.array([0.0, 3.0])
        g = float(rng.uniform(0.0, 1.5))
        box_a = box_from_array(a, hl_a, hw_a)
        box_b = box_from_array(b, hl_b, hw_b)
        if not (_theta_regular(a[2]) and _theta_regular(b[2])):
            continue
        overlaps = axis_overlaps(box_a, box_b)
        if apart:
            # Apart on some edge normal and strictly outside, with a unique
            # winning corner.
            values = sorted(
                signed_distance_point_box(p, other) for box, other in ((box_a, box_b), (box_b, box_a))
                for p in corners(box)
            )
            if min(map(min, overlaps)) >= 0.0 or values[0] < KINK_MARGIN or values[1] - values[0] < KINK_MARGIN:
                continue
        else:
            # Overlapping by more than the margin, with a unique winning
            # one-sided overlap (so its centre offset is off zero too) and
            # a relative heading off the quarter turns.
            sides = sorted(v for pair in overlaps for v in pair)
            if not _theta_regular(b[2] - a[2]) or sides[0] < KINK_MARGIN or sides[1] - sides[0] < KINK_MARGIN:
                continue

        def value_fn(s):
            return gap_loss([kbox(s["a"], hl_a, hw_a), kbox(s["b"], hl_b, hw_b)], s["g"])[0]

        lv = keyed(gap_loss([kernel_box(box_a), kernel_box(box_b)], g), ("a", "b"), "g")
        return value_fn, {"a": a, "b": b, "g": g}, lv.grads


def sample_against_wall(rng):
    hl, hw = rng.uniform(0.2, 1.0, size=2)
    walls = ("L", "R", "T", "B")
    while True:
        p = np.array([rng.uniform(0, 5), rng.uniform(0, 4), rng.uniform(-7, 7)])
        wall = walls[rng.integers(0, 4)]
        if not _theta_regular(p[2]):
            continue

        rule = _against_wall_rule(wall, ROOM)

        def value_fn(s):
            return against_wall_loss([kbox(s["box"], hl, hw)], None, *rule)[0]

        lv = keyed(against_wall_loss([kbox(p, hl, hw)], None, *rule), ("box",))
        return value_fn, {"box": p}, lv.grads


def sample_corner(rng):
    from layoutopt.scene_model import CORNER_WALLS

    hl, hw = rng.uniform(0.2, 1.0, size=2)
    tags = tuple(CORNER_WALLS)
    while True:
        p = np.array([rng.uniform(0, 5), rng.uniform(0, 4), rng.uniform(-7, 7)])
        tag = tags[rng.integers(0, 4)]
        wall = CORNER_WALLS[tag][rng.integers(0, 2)]
        if not _theta_regular(p[2]):
            continue

        rule = _corner_rule(tag, wall, ROOM)

        def value_fn(s):
            return corner_loss([kbox(s["box"], hl, hw)], None, *rule)[0]

        lv = keyed(corner_loss([kbox(p, hl, hw)], None, *rule), ("box",))
        return value_fn, {"box": p}, lv.grads


def sample_facing(rng):
    hl_a, hw_a, hl_b, hw_b = rng.uniform(0.2, 1.0, size=4)
    while True:
        a, b = _pose(rng), _pose(rng)
        if math.hypot(a[0] - b[0], a[1] - b[1]) < 1e-2:
            continue

        def value_fn(s):
            return facing_loss([kbox(s["a"], hl_a, hw_a), kbox(s["b"], hl_b, hw_b)], None)[0]

        lv = keyed(facing_loss([kbox(a, hl_a, hw_a), kbox(b, hl_b, hw_b)], None), ("a", "b"))
        return value_fn, {"a": a, "b": b}, lv.grads


def sample_directional(rng):
    directions = ("left_of", "right_of", "in_front_of", "behind_of")
    hl_s, hw_s, hl_t, hw_t = rng.uniform(0.2, 1.0, size=4)
    while True:
        src, tgt = _pose(rng), _pose(rng)
        direction = directions[rng.integers(0, 4)]
        p = float(rng.uniform(0.0, 1.0))
        delta = src[2] - tgt[2]
        if not _theta_regular(delta):
            continue
        # Recompute hinge and alignment margins in the target frame.
        ct, st = math.cos(tgt[2]), math.sin(tgt[2])
        dx, dy = src[0] - tgt[0], src[1] - tgt[1]
        xp, yp = ct * dx + st * dy, -st * dx + ct * dy
        rx = hl_s * abs(math.cos(delta)) + hw_s * abs(math.sin(delta))
        ry = hl_s * abs(math.sin(delta)) + hw_s * abs(math.cos(delta))
        table = {
            "left_of": (xp + rx + hl_t, yp - (2 * p - 1) * (hw_t - ry)),
            "right_of": (-xp + rx + hl_t, yp - (2 * p - 1) * (hw_t - ry)),
            "behind_of": (yp + ry + hw_t, xp - (2 * p - 1) * (hl_t - rx)),
            "in_front_of": (-yp + ry + hw_t, xp - (2 * p - 1) * (hl_t - rx)),
        }
        # The objective's form squares the alignment w, so only the hinge
        # kinks: samples near w = 0 check that the square is smooth there.
        z, _ = table[direction]
        if abs(z) < KINK_MARGIN:
            continue

        rule = SIDE_RULES[direction]

        def value_fn(s):
            return directional_loss([kbox(s["src"], hl_s, hw_s), kbox(s["tgt"], hl_t, hw_t)], s["p"], *rule)[0]

        out = directional_loss([kbox(src, hl_s, hw_s), kbox(tgt, hl_t, hw_t)], p, *rule)
        return value_fn, {"src": src, "tgt": tgt, "p": p}, keyed(out, ("src", "tgt"), "p").grads


def sample_angle_offset(rng):
    hl_a, hw_a, hl_b, hw_b = rng.uniform(0.2, 1.0, size=4)
    a, b = _pose(rng), _pose(rng)
    alpha = float(rng.uniform(-math.pi, math.pi))

    def value_fn(s):
        return angle_offset_loss([kbox(s["a"], hl_a, hw_a), kbox(s["b"], hl_b, hw_b)], s["alpha"])[0]

    lv = keyed(angle_offset_loss([kbox(a, hl_a, hw_a), kbox(b, hl_b, hw_b)], alpha), ("a", "b"), "alpha")
    return value_fn, {"a": a, "b": b, "alpha": alpha}, lv.grads


def sample_placement(rng):
    hl, hw = rng.uniform(0.2, 1.0, size=2)
    while True:
        p = np.array([rng.uniform(0, 5), rng.uniform(0, 4), rng.uniform(-7, 7)])
        axis = "x" if rng.random() < 0.5 else "y"
        target = float(rng.uniform(0.0, 5.0))
        margin = float(rng.choice([0.0, 0.05]))
        coord = p[0] if axis == "x" else p[1]
        span = ROOM.length if axis == "x" else ROOM.width
        dev = coord - target
        if abs(dev) < KINK_MARGIN or abs(abs(dev) - margin * span) < KINK_MARGIN:
            continue

        rule = _placement_rule(axis, ROOM, margin)

        def value_fn(s):
            return placement_loss([kbox(s["box"], hl, hw)], s["target"], *rule)[0]

        lv = keyed(placement_loss([kbox(p, hl, hw)], target, *rule), ("box",), "target")
        return value_fn, {"box": p, "target": target}, lv.grads


def sample_around(rng):
    while True:
        n = int(rng.integers(2, 7))
        halves = rng.uniform(0.15, 0.5, size=(n, 2))
        f_hl, f_hw = rng.uniform(0.3, 0.8, size=2)
        focal = _pose(rng, 1.0)
        sweep = float(rng.uniform(0.5, 2.0 * math.pi - 0.1))
        center = float(rng.uniform(-1.5, 1.5))
        sources = np.empty((n, 3))
        cf, sf = math.cos(focal[2]), math.sin(focal[2])
        phis = []
        ok = True
        for i in range(n):
            radius = rng.uniform(0.8, 2.0)
            phi = rng.uniform(-math.pi + 5e-3, math.pi - 5e-3)
            lx, ly = radius * math.cos(phi), radius * math.sin(phi)
            sources[i] = (
                focal[0] + cf * lx - sf * ly,
                focal[1] + sf * lx + cf * ly,
                rng.uniform(-2 * math.pi, 2 * math.pi),
            )
            phis.append(phi)
        phis.sort()
        for i in range(1, n):
            if phis[i] - phis[i - 1] < 10.0 * KINK_MARGIN:
                ok = False
        if not ok:
            continue

        def build(s):
            return [kbox(s["sources"][i], halves[i][0], halves[i][1]) for i in range(n)] + [
                kbox(s["focal"], f_hl, f_hw)
            ]

        def value_fn(s):
            return around_loss(build(s), None, s["sweep"], s["center"])[0]

        slots = {"sources": sources, "focal": focal, "sweep": sweep, "center": center}
        lv = keyed_around(around_loss(build(slots), None, sweep, center))
        return value_fn, slots, lv.grads


OP_SAMPLERS = {
    "collision": sample_collision,
    "boundary": sample_boundary,
    "distance": sample_distance,
    "gap": sample_gap,
    "against_wall": sample_against_wall,
    "corner": sample_corner,
    "facing": sample_facing,
    "directional": sample_directional,
    "angle_offset": sample_angle_offset,
    "placement": sample_placement,
    "around": sample_around,
}


def run_op_fd(name: str, count: int, seed: int) -> int:
    """Check `count` random configurations of one op; returns checks done."""
    rng = np.random.default_rng(seed)
    sampler = OP_SAMPLERS[name]
    for k in range(count):
        value_fn, slots, analytic = sampler(rng)
        numeric = fd_slots(value_fn, slots)
        assert_grads_close(analytic, numeric, context=f"{name}[{k}]")
    return count
