"""Monte Carlo membership oracle for footprint areas.

Estimates pairwise intersection and out-of-room areas by uniform point
sampling, sharing no code with the polygon clipping it is used to check.
Sampling is restricted to the relevant bounding-box region so the same
sample count buys much tighter area resolution.
"""

import numpy as np

from layoutopt.scene_model import Asset, Layout, Room, SceneSpec
from refgeom import axis_bounds


def _inside(points: np.ndarray, box) -> np.ndarray:
    c = np.cos(box.pose.theta)
    s = np.sin(box.pose.theta)
    dx = points[:, 0] - box.pose.x
    dy = points[:, 1] - box.pose.y
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return (np.abs(lx) <= box.half_l) & (np.abs(ly) <= box.half_w)


def _aabb(box):
    bx, by = axis_bounds(box)
    return bx.lo, bx.hi, by.lo, by.hi


def mc_pair_area(box_a, box_b, rng, samples: int = 1_000_000) -> float:
    """Intersection area estimate; exact zero when the bounding boxes clear."""
    ax0, ax1, ay0, ay1 = _aabb(box_a)
    bx0, bx1, by0, by1 = _aabb(box_b)
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    y0, y1 = max(ay0, by0), min(ay1, by1)
    if x0 >= x1 or y0 >= y1:
        return 0.0
    pts = rng.uniform((x0, y0), (x1, y1), size=(samples, 2))
    frac = float(np.mean(_inside(pts, box_a) & _inside(pts, box_b)))
    return frac * (x1 - x0) * (y1 - y0)


def mc_outside_area(box, length: float, width: float, rng, samples: int = 1_000_000) -> float:
    """Footprint area outside the room rectangle [0,L]x[0,W]."""
    x0, x1, y0, y1 = _aabb(box)
    if x0 >= 0.0 and y0 >= 0.0 and x1 <= length and y1 <= width:
        return 0.0
    pts = rng.uniform((x0, y0), (x1, y1), size=(samples, 2))
    in_room = (
        (pts[:, 0] >= 0.0)
        & (pts[:, 0] <= length)
        & (pts[:, 1] >= 0.0)
        & (pts[:, 1] <= width)
    )
    frac = float(np.mean(_inside(pts, box) & ~in_room))
    return frac * (x1 - x0) * (y1 - y0)


def random_scene_with_layout(rng):
    """Relation-free scene plus a pose assignment for membership checks.

    Centers may spill slightly past the walls so both collision and
    out-of-bounds flags occur with useful frequency.
    """
    length = float(rng.uniform(4.0, 8.0))
    width = float(rng.uniform(4.0, 8.0))
    n = int(rng.integers(4, 9))
    assets = []
    poses = {}
    for i in range(n):
        size = (float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0)), 1.0)
        assets.append(Asset(f"a{i}", "block", size))
        poses[f"a{i}"] = (
            float(rng.uniform(-0.3, length + 0.3)),
            float(rng.uniform(-0.3, width + 0.3)),
            0.5,
            float(rng.uniform(-np.pi, np.pi)),
        )
    spec = SceneSpec(room=Room(length, width, 3.0), assets=tuple(assets), units=(), relations=())
    return spec, Layout(poses)
