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
    Pose2D,
    _clip_halfplane,
    compose,
    contains,
    enclosing_box,
    half_extents,
    invert,
    normalize_angle,
    overlapping_pairs,
    polygon_area,
    polygon_intersection_area,
    relative,
)
from refgeom import (
    ConvexPolygon,
    FootprintBox,
    Interval,
    axis_bounds,
    box_separation,
    collide_proxy,
    corners,
    outline,
    reference_enclosing_box,
    reference_intersection_area,
    reference_polygon_area,
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


def _brute_pairs_any(lo, hi) -> list:
    """`overlapping_pairs`' definition on any bounds, in row-major order: a
    pair is kept when a box has a non-finite bound, else when its bounds
    overlap by a positive amount on both axes."""
    finite = [all(map(math.isfinite, (*lo[i], *hi[i]))) for i in range(len(lo))]
    return [
        (i, j)
        for i in range(len(lo))
        for j in range(i + 1, len(lo))
        if not (finite[i] and finite[j])
        or all(min(hi[i][k], hi[j][k]) - max(lo[i][k], lo[j][k]) > 0 for k in (0, 1))
    ]


def test_overlapping_pairs_property_with_ties_and_non_finite_bounds():
    # The same list, order included, as the definition on random boxes:
    # shared lo_x values, touching and zero-width boxes on a small integer
    # grid, several non-finite bounds at once (the only case where the sweep
    # can meet a pair twice, so the only one that needs the dedup), and
    # integer inputs, as numpy ints and as Python ints.
    rng = np.random.default_rng(RNG_SEED + 21)
    specials = (math.nan, math.inf, -math.inf)
    non_finite = 0
    for trial in range(600):
        n = int(rng.integers(0, 14))
        lo = rng.integers(0, 5, size=(n, 2))
        hi = lo + rng.integers(0, 3, size=(n, 2))
        want = _brute_pairs_any(lo.tolist(), hi.tolist())
        assert overlapping_pairs(lo, hi) == want == overlapping_pairs(lo.tolist(), hi.tolist()), trial
        lo, hi = 0.5 * lo, 0.5 * hi
        for _ in range(int(rng.integers(0, 4)) if n else 0):
            bounds = lo if rng.random() < 0.5 else hi
            bounds[int(rng.integers(0, n)), int(rng.integers(0, 2))] = float(rng.choice(specials))
        want = _brute_pairs_any(lo.tolist(), hi.tolist())
        assert overlapping_pairs(lo, hi) == want, (trial, lo.tolist(), hi.tolist())
        non_finite += sum(not np.isfinite(np.r_[lo[i], hi[i]]).all() for i in range(n)) > 1
    assert non_finite > 50


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


def test_intersection_area_frozen_values():
    unit = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    shifted = [(0.5, 0.0), (1.5, 0.0), (1.5, 1.0), (0.5, 1.0)]
    disjoint = [(3.0, 3.0), (4.0, 3.0), (4.0, 4.0), (3.0, 4.0)]
    touching = [(1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)]
    assert polygon_intersection_area(unit, unit) == pytest.approx(1.0, abs=1e-12)
    assert polygon_intersection_area(unit, shifted) == pytest.approx(0.5, abs=1e-12)
    assert polygon_intersection_area(unit, disjoint) == 0.0
    assert polygon_intersection_area(unit, touching) == pytest.approx(0.0, abs=1e-12)
    # Rotated square inscribed in the unit square: area 1/2, symmetric.
    diamond = [(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)]
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
        pa, pb = outline(a), outline(b)
        area = polygon_intersection_area(pa, pb)
        assert polygon_intersection_area(pb, pa) == pytest.approx(area, abs=1e-9)
        # Sample inside the AABB of box a; scale hit rate by the AABB area.
        ca = corners(a)
        lo = ca.min(axis=0)
        hi = ca.max(axis=0)
        n = 60000
        pts = rng.uniform(lo, hi, size=(n, 2))
        inside = np.ones(n, dtype=bool)
        for verts in (pa, pb):
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
    outer = [(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)]
    inner = outline(FootprintBox(Pose2D(0.3, -0.2, 0.7), 0.5, 0.4))
    assert polygon_area(inner) == pytest.approx(0.8, abs=1e-12)
    assert polygon_intersection_area(inner, outer) == pytest.approx(polygon_area(inner), abs=1e-12)
    assert polygon_intersection_area(outer, inner) == pytest.approx(polygon_area(inner), abs=1e-12)


def test_polygon_area_frozen_values():
    assert polygon_area([]) == 0.0
    assert polygon_area([(0.0, 0.0), (1.0, 1.0)]) == 0.0
    assert polygon_area([(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)]) == 1.0
    # Orientation does not change the area.
    assert polygon_area([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]) == 1.0


# The numpy bodies the exact checks had before they took corner lists sum
# with np.dot, whose order is not the shoelace loop's: areas agree to the
# last bits, not bit for bit.  That rounding is absolute, about eps times the
# squared coordinates (below 3e-14 on these polygons), so a thin polygon also
# gets an absolute floor, far below the harness's 3e-4 area tolerance.
_REL, _ABS = 1e-12, 1e-12


def _random_convex(rng, n: int) -> list:
    # Sorted angles on a jittered circle give a counter-clockwise convex n-gon.
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
    radius = rng.uniform(0.5, 3.0)
    cx, cy = rng.uniform(-5.0, 5.0, size=2)
    return [(float(cx + radius * math.cos(t)), float(cy + radius * math.sin(t))) for t in angles]


def test_polygon_area_matches_numpy_reference():
    rng = np.random.default_rng(RNG_SEED + 13)
    for _ in range(400):
        pts = _random_convex(rng, int(rng.integers(3, 9)))
        got, want = polygon_area(pts), reference_polygon_area(np.asarray(pts))
        assert math.isclose(got, want, rel_tol=_REL, abs_tol=_ABS), (pts, got, want)


def test_intersection_area_matches_numpy_reference():
    rng = np.random.default_rng(RNG_SEED + 14)
    room = [(0.0, 0.0), (6.0, 0.0), (6.0, 4.0), (0.0, 4.0)]
    room_ref = ConvexPolygon(np.asarray(room))
    overlapping = clipped = 0
    for _ in range(500):
        a, b = random_box(rng, 2.0), random_box(rng, 2.0)
        got = polygon_intersection_area(outline(a), outline(b))
        want = reference_intersection_area(ConvexPolygon.from_box(a), ConvexPolygon.from_box(b))
        assert math.isclose(got, want, rel_tol=_REL, abs_tol=_ABS), (a, b, got, want)
        overlapping += want > 0.0
        # The same box against the room, placed so that it often sticks out.
        c = FootprintBox(Pose2D(rng.uniform(-1.0, 7.0), rng.uniform(-1.0, 5.0), a.pose.theta), a.half_l, a.half_w)
        got = polygon_intersection_area(outline(c), room)
        want = reference_intersection_area(ConvexPolygon.from_box(c), room_ref)
        assert math.isclose(got, want, rel_tol=_REL, abs_tol=_ABS), (c, got, want)
        assert math.isclose(polygon_area(outline(c)), ConvexPolygon.from_box(c).area, rel_tol=_REL)
        clipped += 0.0 < want < polygon_area(outline(c)) - 1e-9
    assert overlapping > 100 and clipped > 100


def test_contains_means_clipping_changes_nothing():
    # Boxes inside, across and outside a room, some with a corner exactly
    # on its left or bottom wall: where `contains` holds, every clip returns
    # the corners as they were, so the intersection area is the box's own.
    rng = np.random.default_rng(RNG_SEED + 15)
    room = [(0.0, 0.0), (6.0, 0.0), (6.0, 4.0), (0.0, 4.0)]
    inside = outside = 0
    for _ in range(600):
        hl, hw = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        x, y, theta = rng.uniform(-1.0, 7.0), rng.uniform(-1.0, 5.0), rng.uniform(-math.pi, math.pi)
        if rng.random() < 0.4:
            x, y, theta = (hl if rng.random() < 0.5 else x), (hw if rng.random() < 0.5 else y), 0.0
        pts = outline(FootprintBox(Pose2D(x, y, theta), hl, hw))
        if contains(room, pts):
            inside += 1
            for i in range(4):
                assert _clip_halfplane(pts, room[i], room[(i + 1) % 4]) == pts
            assert polygon_intersection_area(pts, room) == polygon_area(pts)
        else:
            outside += 1
            assert any(_clip_halfplane(pts, room[i], room[(i + 1) % 4]) != pts for i in range(4))
    assert inside > 100 and outside > 100


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


def test_min_boundary_distance_frozen_values():
    a = FootprintBox(Pose2D(0.0, 0.0, 0.0), 0.5, 0.5)
    b = FootprintBox(Pose2D(2.0, 0.0, 0.0), 0.5, 0.5)
    assert box_separation(a, b) == pytest.approx(1.0, abs=1e-12)
    # Diagonal separation: nearest corners are (0.5, 0.5) and (1.5, 1.5).
    c = FootprintBox(Pose2D(2.0, 2.0, 0.0), 0.5, 0.5)
    assert box_separation(a, c) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # Touching faces, and a corner touching a face.
    assert box_separation(a, FootprintBox(Pose2D(1.0, 0.3, 0.0), 0.5, 0.5)) == pytest.approx(0.0, abs=1e-12)
    d = FootprintBox(Pose2D(0.5 + 0.5 * math.sqrt(2.0), 0.1, 0.25 * math.pi), 0.5, 0.5)
    assert box_separation(a, d) == pytest.approx(0.0, abs=1e-12)


def test_min_boundary_distance_overlapping_is_negative():
    a = FootprintBox(Pose2D(0.0, 0.0, 0.0), 1.0, 1.0)
    b = FootprintBox(Pose2D(0.5, 0.0, 0.2), 1.0, 1.0)
    assert box_separation(a, b) < 0.0
    # Overlapping: minus the depth, here 0.5 m on the x normals.
    a = FootprintBox(Pose2D(0.0, 0.0, 0.0), 0.5, 0.5)
    e = FootprintBox(Pose2D(0.5, 0.0, 0.0), 0.5, 0.5)
    assert box_separation(a, e) == pytest.approx(-0.5, abs=1e-12)
    # Two 4 x 0.2 m boards crossing at their centres part only after
    # 2.1 m, though every corner of each lies outside the other.
    board = FootprintBox(Pose2D(2.0, 2.0, 0.0), 2.0, 0.1)
    crossed = FootprintBox(Pose2D(2.0, 2.0, 0.5 * math.pi), 2.0, 0.1)
    assert box_separation(board, crossed) == pytest.approx(-2.1, abs=1e-12)


def test_box_separation_matches_dense_oracle():
    rng = np.random.default_rng(RNG_SEED + 12)
    # Translating b by the overlap of the projections on a direction u,
    # along u, parts the boxes; the depth is the least such translation.
    angles = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
    directions = np.stack([np.cos(angles), np.sin(angles)])
    disjoint = overlapping = 0
    while disjoint < 60 or overlapping < 60:
        a = random_box(rng, 4.0)
        b = random_box(rng, 4.0)
        if overlapping < 60 and rng.random() < 0.5:
            b = FootprintBox(Pose2D(a.pose.x + rng.uniform(-2.0, 2.0), a.pose.y + rng.uniform(-2.0, 2.0),
                                    b.pose.theta), b.half_l, b.half_w)
        pa, pb = corners(a), corners(b)
        got = box_separation(a, b)
        if polygon_intersection_area(outline(a), outline(b)) > 0.0:
            if overlapping == 60:
                continue
            overlapping += 1
            ra, rb = pa @ directions, pb @ directions
            dense = float(np.minimum(ra.max(0) - rb.min(0), rb.max(0) - ra.min(0)).min())
            # The edge normals attain the least overlap, so no direction
            # does better, and the dense search comes as close as its step.
            assert -got <= dense + 1e-9
            assert -got == pytest.approx(dense, abs=1e-3)
            continue
        if disjoint == 60:
            continue
        disjoint += 1
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
        assert got == pytest.approx(oracle, abs=1e-6)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:  # math.cos of an infinite heading
        return f"ValueError: {exc}"


def test_enclosing_box_matches_the_corner_list_reference_bitwise():
    # One pass with first-wins comparisons keeps the extremes that min and
    # max pick from the corner lists, signed zeros, infinities and the NaN
    # rule included.
    rng = np.random.default_rng(RNG_SEED + 40)
    specials = (0.0, -0.0, math.nan, math.inf, -math.inf)
    for case in range(20000):
        scale = 10.0 ** rng.uniform(-3.0, 4.0)
        poses, halves = [], []
        for _ in range(int(rng.integers(1, 7))):
            theta = float(rng.choice([rng.uniform(-4.0, 4.0), 0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi]))
            poses.append([float(rng.normal(0.0, scale)), float(rng.normal(0.0, scale)), theta])
            halves.append([float(rng.uniform(0.0, scale)), float(rng.uniform(0.0, scale))])
        for _ in range(int(rng.integers(0, 3))):
            k = int(rng.integers(0, len(poses)))
            slot = int(rng.integers(0, 5))
            row, i = (poses[k], slot) if slot < 3 else (halves[k], slot - 3)
            row[i] = float(rng.choice(specials))
        poses, halves = [tuple(p) for p in poses], [tuple(h) for h in halves]
        got = _outcome(enclosing_box, poses, halves)
        assert got == _outcome(reference_enclosing_box, poses, halves), (case, poses, halves)
