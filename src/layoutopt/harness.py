"""Physical metrics and rendering.

Collision and out-of-bounds checks here are exact: each asset's footprint
corners (`geometry.corner_points`, built straight from the layout's poses)
are clipped against the room's corners, and each candidate pair of
footprints is clipped in coordinates centred on one of the two, with a
small area tolerance absorbing floating-point slivers.  A footprint's area
is its asset's l x w, which stays exact however far out the pose is, and a
pair's overlap is found however far out the pair is.  The proxy
boxes used during imagination and optimization deliberately overestimate;
this module is the ground truth they are measured against, and the solver's
stop test calls `_is_clean`.  A pose that is missing, or one of an asset the
scene lacks, raises `MissingEntityError`; one with a NaN or infinite x, y or
theta raises `SceneSyntaxError`, as `parse_layout` does, in the checks and
in the SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry
from .errors import MissingEntityError, SceneSyntaxError
from .geometry import contains, corner_points, polygon_intersection_area
from .scene_model import Layout, SceneSpec

# Area slack in square meters for both the collision and containment tests.
COLLISION_TOLERANCE = 0.0003
OOB_TOLERANCE = 0.0003


@dataclass(frozen=True)
class PhysicalReport:
    cr_percent: float
    or_percent: float
    colliding_ids: tuple
    oob_ids: tuple
    tau_c: float = COLLISION_TOLERANCE
    tau_o: float = OOB_TOLERANCE

    def to_text(self) -> str:
        lines = [
            f"collision rate {self.cr_percent:.1f}% ({len(self.colliding_ids)} object(s))",
            f"out of bounds {self.or_percent:.1f}% ({len(self.oob_ids)} object(s))",
        ]
        if self.colliding_ids:
            lines.append("  colliding: " + ", ".join(self.colliding_ids))
        if self.oob_ids:
            lines.append("  outside: " + ", ".join(self.oob_ids))
        return "\n".join(lines) + "\n"


def _pose(layout: Layout, asset_id: str) -> tuple:
    """The (x, y, theta) of an asset, the one place the harness reads a pose."""
    if asset_id not in layout.poses:
        raise MissingEntityError(f"no pose for {asset_id!r}")
    x, y, _, theta = layout.poses[asset_id]
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
        raise SceneSyntaxError(f"pose of {asset_id!r} must be finite")
    return x, y, theta


def _check_ids(spec: SceneSpec, layout: Layout) -> None:
    """Raise MissingEntityError when the layout poses an asset the scene lacks."""
    stray = sorted(set(layout.poses).difference(a.id for a in spec.assets))
    if stray:
        raise MissingEntityError(f"layout poses {', '.join(map(repr, stray))}, not an asset of the scene")


def asset_polygon(spec: SceneSpec, asset_id: str, layout: Layout) -> list:
    """Footprint corners of an asset, counter-clockwise (x, y) pairs."""
    x, y, theta = _pose(layout, asset_id)
    a = spec.asset(asset_id)
    return corner_points(x, y, theta, a.half_l, a.half_w)


def _footprints(spec: SceneSpec, layout: Layout) -> tuple:
    """The kernel box (x, y, theta, half_l, half_w) and the corners of each
    asset of `spec`, in order."""
    boxes = [(*_pose(layout, a.id), a.half_l, a.half_w) for a in spec.assets]
    return boxes, [corner_points(*box) for box in boxes]


def room_polygon(spec: SceneSpec) -> list:
    """Corners of the room rectangle, counter-clockwise (x, y) pairs."""
    length, width = spec.room.length, spec.room.width
    return [(0.0, 0.0), (length, 0.0), (length, width), (0.0, width)]


def _outside(spec: SceneSpec, polys: list):
    """Positions of the footprints, one per asset of `spec` in order, with
    more than tau_o of their area outside the room, lazily.  The area is
    the asset's l x w, not the shoelace of the corners: far enough out,
    `x + half_l` rounds to `x` and the corners enclose nothing.  A NaN
    outside area flags too.  A footprint the room `contains` is not
    clipped: nothing of it is outside."""
    room = room_polygon(spec)
    for k, (a, poly) in enumerate(zip(spec.assets, polys)):
        if contains(room, poly):
            continue
        if not a.size[0] * a.size[1] - polygon_intersection_area(poly, room) <= OOB_TOLERANCE:
            yield k


def _colliding(boxes: list, polys: list):
    """Position pairs of the footprints that overlap by more than tau_c,
    lazily.  Each candidate pair is clipped in coordinates centred on its
    first footprint: far from the origin, `x + half_l` rounds to `x` and
    the corners there enclose no area.  Pairs whose vertex bounding boxes,
    each widened by two ulps of its largest coordinate against that same
    rounding, are disjoint or touch are not clipped: their intersection
    area is zero."""
    lo, hi = [], []
    for p in polys:
        xs, ys = zip(*p)
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        px, py = 2.0 * math.ulp(max(-x0, x1)), 2.0 * math.ulp(max(-y0, y1))
        lo.append((x0 - px, y0 - py))
        hi.append((x1 + px, y1 + py))
    for i, j in geometry.overlapping_pairs(lo, hi):
        x, y, theta, half_l, half_w = boxes[i]
        xj, yj, theta_j, half_lj, half_wj = boxes[j]
        a = corner_points(0.0, 0.0, theta, half_l, half_w)
        b = corner_points(xj - x, yj - y, theta_j, half_lj, half_wj)
        if polygon_intersection_area(a, b) > COLLISION_TOLERANCE:
            yield i, j


def eval_physical(spec: SceneSpec, layout: Layout) -> PhysicalReport:
    """Exact collision and containment rates over all asset pairs.

    An object collides when some pairwise footprint intersection exceeds
    tau_c; it is out of bounds when more than tau_o of its footprint area
    lies outside the room rectangle.
    """
    _check_ids(spec, layout)
    ids = [a.id for a in spec.assets]
    boxes, polys = _footprints(spec, layout)
    colliding = {ids[k] for pair in _colliding(boxes, polys) for k in pair}
    oob = [ids[k] for k in _outside(spec, polys)]

    n = max(len(ids), 1)
    return PhysicalReport(
        100.0 * len(colliding) / n,
        100.0 * len(oob) / n,
        tuple(sorted(colliding)),
        tuple(oob),
    )


def _is_clean(spec: SceneSpec, layout: Layout) -> bool:
    """Whether `eval_physical` reports 0% collision and 0% out of bounds,
    found by stopping at the first flag."""
    boxes, polys = _footprints(spec, layout)
    return next(_outside(spec, polys), None) is None and next(_colliding(boxes, polys), None) is None


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_UNIT_FILLS = ("#aecbe8", "#f6c28b", "#a6d49f", "#eFA3A3", "#cdb6d9", "#a8d5d0")
_FREE_FILL = "#d5d8dc"
_SCALE = 100.0
_PAD = 30.0


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _xml_text(s: str) -> str:
    """`s` as XML character data, as `xml.sax.saxutils.escape` writes it,
    without its import, which loads `urllib.request` (about 7 MB)."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(spec: SceneSpec, layout: Layout) -> bytes:
    """Deterministic top-down floor plan: room, footprints, headings, labels."""
    _check_ids(spec, layout)
    length, width = spec.room.length, spec.room.width
    w_px = length * _SCALE + 2 * _PAD
    h_px = width * _SCALE + 2 * _PAD

    def sx(x: float) -> float:
        return _PAD + x * _SCALE

    def sy(y: float) -> float:
        return _PAD + (width - y) * _SCALE  # svg y grows downward

    unit_fill = {}
    for k, u in enumerate(spec.units):
        fill = _UNIT_FILLS[k % len(_UNIT_FILLS)]
        for aid in u.assets:
            unit_fill[aid] = fill

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w_px)}" height="{_fmt(h_px)}" '
        f'viewBox="0 0 {_fmt(w_px)} {_fmt(h_px)}">',
        f'<rect x="{_fmt(sx(0.0))}" y="{_fmt(sy(width))}" '
        f'width="{_fmt(length * _SCALE)}" height="{_fmt(width * _SCALE)}" '
        f'fill="#ffffff" stroke="#202124" stroke-width="2"/>',
    ]
    for a in spec.assets:
        x, y, theta = _pose(layout, a.id)
        pts = " ".join(
            f"{_fmt(sx(px))},{_fmt(sy(py))}" for px, py in corner_points(x, y, theta, a.half_l, a.half_w)
        )
        fill = unit_fill.get(a.id, _FREE_FILL)
        parts.append(f'<polygon points="{pts}" fill="{fill}" stroke="#333333" stroke-width="1"/>')
        tip_x = x + 0.8 * a.half_l * math.cos(theta)
        tip_y = y + 0.8 * a.half_l * math.sin(theta)
        parts.append(
            f'<line x1="{_fmt(sx(x))}" y1="{_fmt(sy(y))}" '
            f'x2="{_fmt(sx(tip_x))}" y2="{_fmt(sy(tip_y))}" '
            f'stroke="#202124" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(x))}" y="{_fmt(sy(y) - 4.0)}" '
            f'font-family="monospace" font-size="11" text-anchor="middle" '
            f'fill="#202124">{_xml_text(a.id)}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
