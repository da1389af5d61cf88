"""Geometry tests against independent oracles.

Oracles used here deliberately avoid the implementation's formulas:
extents come from explicitly rotated corner clouds, intersection areas from
Monte-Carlo membership counting, and boundary distances from dense boundary
sampling with brute-force point-segment distances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from layoutopt.geometry import (
    ConvexPolygon,
    FootprintBox,
    Interval,
    Pose2D,
    axis_bounds,
    boundary_sample_points,
    collide_proxy,
    compose,
    corners,
    half_extents,
    invert,
    min_boundary_distance,
    normalize_angle,
    overlapping_pairs,
    polygon_intersection_area,
    relative,
    signed_distance_point_box,
)

RNG_SEED = 20240611


def random_pose(rng, span=5.0) -> Pose2D:
    return Pose2D(
        rng.uniform(-span, span),
        rng.uniform(-span, span),
        rng.uniform(-2.0 * math.pi, 2.0 * math.pi),
    )


def random_box(rng, span=5.0) -> FootprintBox:
    return FootprintBox(random_pose(rng, span), rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))


# ---------------------------------------------------------------------------
# Pose algebra
# ---------------------------------------------------------------------------


def test_compose_frozen_value():
    # Rotating the outer frame by pi/2 sends local +x to world +y.
    p = compose(Pose2D(1.0, 0.0, math.pi / 2.0), Pose2D(1.0, 0.0, 0.0))
    assert p.x == pytest.approx(1.0, abs=1e-12)
    assert p.y == pytest.approx(1.0, abs=1e-12)
    assert p.theta == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_compose_matches_matrix_oracle():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(200):
        a, b = random_pose(rng), random_pose(rng)
        p = compose(a, b)
        c, s = math.cos(a.theta), math.sin(a.theta)
        expect = np.array([a.x, a.y]) + np.array([[c, -s], [s, c]]) @ np.array([b.x, b.y])
        assert p.x == pytest.approx(expect[0], abs=1e-12)
        assert p.y == pytest.approx(expect[1], abs=1e-12)
        assert p.theta == pytest.approx(a.theta + b.theta, abs=1e-12)


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(RNG_SEED + 1)
    ident = Pose2D(0.0, 0.0, 0.0)
    for _ in range(100):
        p = random_pose(rng)
        for q in (compose(p, invert(p)), compose(invert(p), p)):
            assert abs(q.x) < 1e-12 and abs(q.y) < 1e-12 and abs(q.theta) < 1e-12
        r = compose(p, ident)
        assert (r.x, r.y, r.theta) == (p.x, p.y, p.theta)


def test_compose_associative():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(100):
        a, b, c = random_pose(rng), random_pose(rng), random_pose(rng)
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert np.allclose(lhs.as_array(), rhs.as_array(), atol=1e-10)


def test_relative_pose_cancellation():
    # Relative pose of two children of a shared parent ignores the parent:
    # relative(compose(P, a), compose(P, b)) == relative(a, b).
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(1000):
        parent, a, b = random_pose(rng), random_pose(rng), random_pose(rng)
        direct = relative(a, b)
        through = relative(compose(parent, a), compose(parent, b))
        err = np.abs(direct.as_array() - through.as_array())
        assert err.max() < 1e-9


def test_normalize_angle_range_and_equivalence():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(500):
        t = rng.uniform(-50.0, 50.0)
        a = normalize_angle(t)
        assert -math.pi < a <= math.pi
        assert math.cos(a) == pytest.approx(math.cos(t), abs=1e-9)
        assert math.sin(a) == pytest.approx(math.sin(t), abs=1e-9)
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(3.0 * math.pi) == pytest.approx(math.pi)


# ---------------------------------------------------------------------------
# Footprints, extents, proxy collision
# ---------------------------------------------------------------------------


def test_half_extents_frozen_value():
    # l=2, w=1 at 45 degrees: full extents e_x = e_y = (2+1)/sqrt(2).
    ax, ay, _, _ = half_extents(1.0, 0.5, math.pi / 4.0)
    expected = 3.0 / math.sqrt(2.0)
    assert 2.0 * ax == pytest.approx(expected, abs=1e-12)
    assert 2.0 * ay == pytest.approx(expected, abs=1e-12)


def test_extents_and_bounds_match_corner_cloud():
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(300):
        box = random_box(rng)
        cs = corners(box)
        ex_oracle = cs[:, 0].max() - cs[:, 0].min()
        ey_oracle = cs[:, 1].max() - cs[:, 1].min()
        ax, ay, _, _ = half_extents(box.half_l, box.half_w, box.pose.theta)
        assert 2.0 * ax == pytest.approx(ex_oracle, abs=1e-9)
        assert 2.0 * ay == pytest.approx(ey_oracle, abs=1e-9)
        bx, by = axis_bounds(box)
        assert bx.lo == pytest.approx(cs[:, 0].min(), abs=1e-9)
        assert bx.hi == pytest.approx(cs[:, 0].max(), abs=1e-9)
        assert by.lo == pytest.approx(cs[:, 1].min(), abs=1e-9)
        assert by.hi == pytest.approx(cs[:, 1].max(), abs=1e-9)


def test_corners_are_counter_clockwise_and_centered():
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(200):
        box = random_box(rng)
        cs = corners(box)
        assert np.allclose(cs.mean(axis=0), [box.pose.x, box.pose.y], atol=1e-9)
        area2 = 0.0
        for i in range(4):
            p, q = cs[i], cs[(i + 1) % 4]
            area2 += p[0] * q[1] - q[0] * p[1]
        assert area2 > 0.0
        assert 0.5 * area2 == pytest.approx(box.area, abs=1e-9)


def test_interval_overlap_signs():
    assert Interval(0.0, 2.0).overlap(Interval(1.0, 3.0)) == pytest.approx(1.0)
    assert Interval(0.0, 1.0).overlap(Interval(1.0, 2.0)) == pytest.approx(0.0)
    assert Interval(0.0, 1.0).overlap(Interval(2.0, 3.0)) == pytest.approx(-1.0)


def test_collide_proxy_touching_is_not_collision():
    a = FootprintBox(Pose2D(0.0, 0.0, 0.0), 0.5, 0.5)
    b = FootprintBox(Pose2D(1.0, 0.0, 0.0), 0.5, 0.5)  # shares edge x=0.5
    c = FootprintBox(Pose2D(0.9, 0.0, 0.0), 0.5, 0.5)
    d = FootprintBox(Pose2D(2.0, 2.0, 0.0), 0.5, 0.5)
    assert not collide_proxy(a, b)
    assert collide_proxy(a, c)
    assert not collide_proxy(a, d)


def test_collide_proxy_matches_interval_oracle():
    rng = np.random.default_rng(RNG_SEED + 8)
    for _ in range(300):
        a, b = random_box(rng, 3.0), random_box(rng, 3.0)
        ca, cb = corners(a), corners(b)
        ox = min(ca[:, 0].max(), cb[:, 0].max()) - max(ca[:, 0].min(), cb[:, 0].min())
        oy = min(ca[:, 1].max(), cb[:, 1].max()) - max(ca[:, 1].min(), cb[:, 1].min())
        assert collide_proxy(a, b) == (ox > 0.0 and oy > 0.0)


def _grid_boxes(rng, n):
    # Integer-grid centers and half sizes at theta = 0 make proxy bounds
    # exact, so some pairs touch with an overlap of exactly zero.
    return [
        FootprintBox(
            Pose2D(float(rng.integers(0, 6)), float(rng.integers(0, 6)), 0.0),
            0.5 * float(rng.integers(1, 4)),
            0.5 * float(rng.integers(1, 4)),
        )
        for _ in range(n)
    ]


def _brute_pairs(lo, hi) -> list:
    """Pairs whose bounds overlap by a positive amount on both axes, by the
    difference test itself, in row-major order."""
    n = len(lo)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if all(min(hi[i][k], hi[j][k]) - max(lo[i][k], lo[j][k]) > 0.0 for k in (0, 1))
    ]


def test_overlapping_pairs_matches_brute_force():
    rng = np.random.default_rng(RNG_SEED + 20)
    touching = 0
    for n in (0, 1, 2, 3, 12, 40, 160):
        for trial in range(4):
            boxes = _grid_boxes(rng, n) if trial % 2 == 0 else [random_box(rng, 4.0) for _ in range(n)]
            bounds = [axis_bounds(b) for b in boxes]
            lo = np.array([[bx.lo, by.lo] for bx, by in bounds]).reshape(-1, 2)
            hi = np.array([[bx.hi, by.hi] for bx, by in bounds]).reshape(-1, 2)
            brute = [(i, j) for i in range(n) for j in range(i + 1, n) if collide_proxy(boxes[i], boxes[j])]
            assert overlapping_pairs(lo, hi) == brute
            # Same pairs from plain lists of (x, y) pairs.
            assert overlapping_pairs(lo.tolist(), hi.tolist()) == brute
            touching += sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if min(bounds[i][0].overlap(bounds[j][0]), bounds[i][1].overlap(bounds[j][1])) == 0.0
            )
            if n == 0:
                continue
            # A row with a NaN (or infinite) bound pairs with every other row.
            k = int(rng.integers(0, n))
            for bad in (math.nan, math.inf):
                lo_bad = lo.copy()
                lo_bad[k, trial % 2] = bad
                expect = sorted(set(brute) | {(min(i, k), max(i, k)) for i in range(n) if i != k})
                assert overlapping_pairs(lo_bad, hi) == expect
    assert touching > 0
    for trial in range(60):
        n = int(rng.integers(2, 30))
        # Integer bounds make ties common: equal lo_x, boxes touching
        # exactly on x (one's hi_x is another's lo_x), and boxes of zero or
        # negative width on an axis, which overlap nothing.
        lo = rng.integers(0, 6, size=(n, 2)).astype(float)
        hi = lo + rng.integers(-1, 4, size=(n, 2)).astype(float)
        assert overlapping_pairs(lo, hi) == _brute_pairs(lo, hi), trial
    # Hand-picked: a shared lo_x, touching on x, zero width, equal boxes.
    lo = [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (0.5, 0.0), (0.0, 0.0), (2.0, 0.0)]
    hi = [(1.0, 1.0), (0.5, 2.0), (2.0, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.0)]
    assert overlapping_pairs(lo, hi) == [(0, 1), (0, 4), (1, 4)] == _brute_pairs(lo, hi)


def test_footprint_box_rejects_bad_sizes():
    with pytest.raises(ValueError):
        FootprintBox(Pose2D(0.0, 0.0, 0.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        FootprintBox(Pose2D(0.0, 0.0, 0.0), 1.0, -0.5)


# ---------------------------------------------------------------------------
# Convex polygon clipping
# ---------------------------------------------------------------------------


def _point_in_convex_oracle(point, vertices) -> bool:
    # Independent membership check: point is inside a CCW convex polygon iff
    # it is on the left of (or on) every directed edge.
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        cross = (b[0] - a[0]) * (point[1] - a[1]) - (b[1] - a[1]) * (point[0] - a[0])
        if cross < 0.0:
            return False
    return True


def test_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):  # clockwise square
        ConvexPolygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):  # non-convex chevron
        ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [1.0, 2.0]]))


def test_intersection_area_frozen_values():
    unit = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    shifted = ConvexPolygon(np.array([[0.5, 0.0], [1.5, 0.0], [1.5, 1.0], [0.5, 1.0]]))
    disjoint = ConvexPolygon(np.array([[3.0, 3.0], [4.0, 3.0], [4.0, 4.0], [3.0, 4.0]]))
    touching = ConvexPolygon(np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]]))
    assert polygon_intersection_area(unit, unit) == pytest.approx(1.0, abs=1e-12)
    assert polygon_intersection_area(unit, shifted) == pytest.approx(0.5, abs=1e-12)
    assert polygon_intersection_area(unit, disjoint) == 0.0
    assert polygon_intersection_area(unit, touching) == pytest.approx(0.0, abs=1e-12)
    # Rotated square inscribed in the unit square: area 1/2, symmetric.
    diamond = ConvexPolygon(np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]]))
    assert polygon_intersection_area(unit, diamond) == pytest.approx(0.5, abs=1e-12)
    assert polygon_intersection_area(diamond, unit) == pytest.approx(0.5, abs=1e-12)


def test_intersection_area_monte_carlo_oracle():
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(25):
        a = FootprintBox(
            Pose2D(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-4, 4)),
            rng.uniform(0.4, 1.5),
            rng.uniform(0.4, 1.5),
        )
        b = FootprintBox(
            Pose2D(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-4, 4)),
            rng.uniform(0.4, 1.5),
            rng.uniform(0.4, 1.5),
        )
        pa, pb = ConvexPolygon.from_box(a), ConvexPolygon.from_box(b)
        area = polygon_intersection_area(pa, pb)
        assert polygon_intersection_area(pb, pa) == pytest.approx(area, abs=1e-9)
        # Sample inside the AABB of box a; scale hit rate by the AABB area.
        ca = corners(a)
        lo = ca.min(axis=0)
        hi = ca.max(axis=0)
        n = 60000
        pts = rng.uniform(lo, hi, size=(n, 2))
        inside = np.ones(n, dtype=bool)
        for verts in (pa.vertices, pb.vertices):
            for i in range(4):
                va_, vb_ = verts[i], verts[(i + 1) % 4]
                cross = (vb_[0] - va_[0]) * (pts[:, 1] - va_[1]) - (vb_[1] - va_[1]) * (
                    pts[:, 0] - va_[0]
                )
                inside &= cross >= 0.0
        hits = int(inside.sum())
        box_area = (hi[0] - lo[0]) * (hi[1] - lo[1])
        mc = hits / n * box_area
        sigma = box_area * math.sqrt(0.25 / n)
        assert abs(mc - area) < max(5.0 * sigma, 0.01)


def test_intersection_contained_box():
    outer = ConvexPolygon(np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]]))
    inner = ConvexPolygon.from_box(FootprintBox(Pose2D(0.3, -0.2, 0.7), 0.5, 0.4))
    assert polygon_intersection_area(inner, outer) == pytest.approx(inner.area, abs=1e-12)
    assert polygon_intersection_area(outer, inner) == pytest.approx(inner.area, abs=1e-12)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def _segment_distance_oracle(p, a, b) -> float:
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def _point_box_distance_oracle(p, box: FootprintBox) -> float:
    cs = corners(box)
    d = min(_segment_distance_oracle(p, cs[i], cs[(i + 1) % 4]) for i in range(4))
    if _point_in_convex_oracle(p, cs):
        return -d
    return d


def test_signed_distance_point_box_against_oracle():
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(300):
        box = random_box(rng, 2.0)
        p = rng.uniform(-8.0, 8.0, size=2)
        assert signed_distance_point_box(p, box) == pytest.approx(
            _point_box_distance_oracle(p, box), abs=1e-9
        )


def test_boundary_sample_points_lie_on_boundary():
    rng = np.random.default_rng(RNG_SEED + 11)
    box = random_box(rng)
    pts = boundary_sample_points(box)
    assert pts.shape == (20, 2)
    for p in pts:
        assert abs(signed_distance_point_box(p, box)) < 1e-9


def test_min_boundary_distance_frozen_values():
    a = FootprintBox(Pose2D(0.0, 0.0, 0.0), 0.5, 0.5)
    b = FootprintBox(Pose2D(2.0, 0.0, 0.0), 0.5, 0.5)
    assert min_boundary_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    # Diagonal separation: nearest corners are (0.5, 0.5) and (1.5, 1.5).
    c = FootprintBox(Pose2D(2.0, 2.0, 0.0), 0.5, 0.5)
    assert min_boundary_distance(a, c) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_min_boundary_distance_disjoint_matches_dense_oracle():
    rng = np.random.default_rng(RNG_SEED + 12)
    checked = 0
    while checked < 60:
        a, b = random_box(rng, 4.0), random_box(rng, 4.0)
        pa = ConvexPolygon.from_box(a).vertices
        pb = ConvexPolygon.from_box(b).vertices
        if polygon_intersection_area(ConvexPolygon(pa), ConvexPolygon(pb)) > 0.0:
            continue
        checked += 1
        # Dense oracle: min distance between boundary point clouds via
        # point-segment distances from each polygon's densified boundary.
        dense_a = np.concatenate(
            [pa[i] + np.linspace(0, 1, 200)[:, None] * (pa[(i + 1) % 4] - pa[i]) for i in range(4)]
        )
        dense_b = np.concatenate(
            [pb[i] + np.linspace(0, 1, 200)[:, None] * (pb[(i + 1) % 4] - pb[i]) for i in range(4)]
        )
        oracle = math.inf
        for p in dense_a:
            oracle = min(oracle, min(_segment_distance_oracle(p, pb[i], pb[(i + 1) % 4]) for i in range(4)))
        for p in dense_b:
            oracle = min(oracle, min(_segment_distance_oracle(p, pa[i], pa[(i + 1) % 4]) for i in range(4)))
        got = min_boundary_distance(a, b)
        assert got == pytest.approx(oracle, abs=1e-6)


def test_min_boundary_distance_overlapping_is_negative():
    a = FootprintBox(Pose2D(0.0, 0.0, 0.0), 1.0, 1.0)
    b = FootprintBox(Pose2D(0.5, 0.0, 0.2), 1.0, 1.0)
    assert min_boundary_distance(a, b) < 0.0
