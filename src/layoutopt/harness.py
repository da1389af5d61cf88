"""Physical metrics, rendering, and the convergence comparison harness.

Collision and out-of-bounds checks here are exact: each asset's footprint
corners (`geometry.corner_points`, built straight from the layout's poses)
are clipped against each other and against the room's corners, with a small
area tolerance absorbing floating-point slivers.  The proxy boxes used during
imagination and optimization deliberately overestimate; this module is the
ground truth they are measured against.  A pose that is missing raises
`MissingEntityError`; one with a NaN or infinite x, y or theta raises
`SceneSyntaxError`, as `parse_layout` does, in the checks and in the SVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .constraints import Weights
from .errors import DivergenceError, MissingEntityError, SceneSyntaxError
from .geometry import corner_points, polygon_area, polygon_intersection_area
from .optimizer import OptimizerConfig, solve, solve_global_baseline
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


def asset_polygon(spec: SceneSpec, asset_id: str, layout: Layout) -> list:
    """Footprint corners of an asset, counter-clockwise (x, y) pairs."""
    x, y, theta = _pose(layout, asset_id)
    a = spec.asset(asset_id)
    return corner_points(x, y, theta, a.half_l, a.half_w)


def room_polygon(spec: SceneSpec) -> list:
    """Corners of the room rectangle, counter-clockwise (x, y) pairs."""
    length, width = spec.room.length, spec.room.width
    return [(0.0, 0.0), (length, 0.0), (length, width), (0.0, width)]


def eval_physical(spec: SceneSpec, layout: Layout) -> PhysicalReport:
    """Exact collision and containment rates over all asset pairs.

    An object collides when some pairwise footprint intersection exceeds
    tau_c; it is out of bounds when more than tau_o of its footprint area
    lies outside the room rectangle.  Pairs whose vertex bounding boxes are
    disjoint or touch are not clipped: their intersection area is zero, so
    they never reach tau_c.
    """
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
    for aid, poly in zip(ids, polys):
        outside = polygon_area(poly) - polygon_intersection_area(poly, room)
        if outside > OOB_TOLERANCE:
            oob.append(aid)

    n = max(len(ids), 1)
    return PhysicalReport(
        100.0 * len(colliding) / n,
        100.0 * len(oob) / n,
        tuple(sorted(colliding)),
        tuple(oob),
    )


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


# ---------------------------------------------------------------------------
# Convergence comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkResult:
    """One seed's comparison; each curve holds the per-iteration totals of
    its run, and stays empty when that run diverged or was not reached."""

    scene: str
    seed: int
    reparam_iterations: int
    baseline_iterations: int
    speedup: float  # baseline / reparam, in iterations to threshold
    diverged: bool = False
    reparam_curve: tuple = ()
    baseline_curve: tuple = ()


def ema_smooth(values, alpha: float = 0.85) -> np.ndarray:
    """Exponential moving average with history weight alpha."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    acc = values[0]
    for i, v in enumerate(values):
        acc = alpha * acc + (1.0 - alpha) * v
        out[i] = acc
    return out


def _iterations_to_threshold(totals: np.ndarray, threshold: float) -> int:
    # Normalized against the shared initial loss; cap at the run length when
    # the threshold is never reached.
    start = totals[0]
    if start <= 1e-12:
        return 0
    hits = np.nonzero(totals / start <= threshold)[0]
    return int(hits[0]) if hits.size else len(totals)


def convergence_benchmark(
    spec: SceneSpec,
    seeds,
    threshold: float = 0.1,
    config: OptimizerConfig = OptimizerConfig(),
    weights: Weights = Weights(),
) -> list:
    """Iterations-to-threshold for both parameterizations, per seed.

    Both runs share the seed, so they start from the same configuration and
    the same initial loss; the reported speedup is baseline iterations over
    re-parameterized iterations.  A diverged run is recorded as a failure
    with the full iteration budget; any other error propagates.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    results = []
    cap = 2 * config.iterations
    for seed in seeds:
        cfg = replace(config, seed=int(seed))
        try:
            _, trace_re = solve(spec, cfg, weights)
        except DivergenceError:
            results.append(BenchmarkResult(spec.name, int(seed), cap, cap, 1.0, True))
            continue
        curve_re = tuple(r.total for r in trace_re.rows)
        re_iters = _iterations_to_threshold(trace_re.totals(), threshold)
        try:
            _, trace_gl = solve_global_baseline(spec, cfg, weights)
        except DivergenceError:
            results.append(
                BenchmarkResult(spec.name, int(seed), re_iters, cap, 1.0, True, curve_re)
            )
            continue
        gl_iters = _iterations_to_threshold(trace_gl.totals(), threshold)
        speedup = gl_iters / max(re_iters, 1)
        results.append(
            BenchmarkResult(
                spec.name,
                int(seed),
                re_iters,
                gl_iters,
                speedup,
                reparam_curve=curve_re,
                baseline_curve=tuple(r.total for r in trace_gl.rows),
            )
        )
    return results


def benchmark_curves_csv(results, alpha: float = 0.85) -> str:
    """Per-iteration loss curves of both parameterizations, EMA smoothed,
    from the runs `convergence_benchmark` recorded.  Seeds with a diverged
    run have no rows."""
    lines = ["seed,iteration,reparam,reparam_ema,baseline,baseline_ema"]
    for r in results:
        if r.diverged:
            continue
        raw_re, raw_gl = np.array(r.reparam_curve), np.array(r.baseline_curve)
        ema_re, ema_gl = ema_smooth(raw_re, alpha), ema_smooth(raw_gl, alpha)
        for i in range(len(raw_re)):
            lines.append(
                f"{r.seed},{i},{float(raw_re[i])!r},{float(ema_re[i])!r},"
                f"{float(raw_gl[i])!r},{float(ema_gl[i])!r}"
            )
    return "\n".join(lines) + "\n"
