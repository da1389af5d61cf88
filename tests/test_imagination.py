"""Placement interpreter, cognitive maps, conflict detection, revision loop."""

import math

import numpy as np
import pytest

from layoutopt import geometry
from layoutopt.errors import RevisionError
from layoutopt.fixtures import FIXTURE_NAMES, load_fixture
from layoutopt.geometry import (
    ConvexPolygon,
    FootprintBox,
    Pose2D,
    collide_proxy,
    compose,
    polygon_intersection_area,
)
from layoutopt.imagination import (
    baseline_reviser,
    build_maps,
    detect_conflicts,
    imagine_and_revise,
    interpret_scene,
)
from layoutopt.scene_model import Asset, Relation, Room, SceneSpec, Unit


def _scene(room, assets, units=(), relations=()):
    return SceneSpec(room=room, assets=assets, units=units, relations=relations)


# --- placement interpreter -------------------------------------------------


def test_interpreter_dining_zero_loss_geometry():
    # Chairs sit at the side thresholds plus the 0.01 clearance, headings
    # point at the table; the symmetric unit lands exactly on its targets.
    spec = load_fixture("dining_set")
    poses = interpret_scene(spec)
    w = poses["chair_w"]
    assert (w.x, w.y) == pytest.approx((-1.035, 0.0))
    assert w.theta == pytest.approx(0.0)
    e = poses["chair_e"]
    assert (e.x, e.y) == pytest.approx((1.035, 0.0))
    assert abs(e.theta) == pytest.approx(math.pi)
    n = poses["chair_n"]
    assert (n.x, n.y) == pytest.approx((0.0, 0.685))
    assert n.theta == pytest.approx(-0.5 * math.pi)
    s = poses["chair_s"]
    assert (s.x, s.y) == pytest.approx((0.0, -0.685))
    assert s.theta == pytest.approx(0.5 * math.pi)
    unit = poses["dining"]
    assert (unit.x, unit.y, unit.theta) == pytest.approx((3.0, 3.0, 0.0))


def test_interpreter_unconstrained_defaults_to_room_center():
    spec = load_fixture("conflict_pair")
    poses = interpret_scene(spec)
    for lamp in ("lamp1", "lamp2"):
        p = poses[lamp]
        assert (p.x, p.y, p.theta) == pytest.approx((3.0, 3.0, 0.0))


def test_interpreter_wall_and_corner_pins():
    spec = load_fixture("conflict_pair")
    poses = interpret_scene(spec)
    sofa = poses["sofa"]
    # Flush against the bottom wall: heading into the room, lifted by the
    # rotated half extent; x pinned separately by the axis target.
    assert sofa.theta == pytest.approx(0.5 * math.pi)
    assert (sofa.x, sofa.y) == pytest.approx((3.0, 1.0))
    ws = poses["workspace"]
    assert ws.theta == pytest.approx(-0.5 * math.pi)
    assert (ws.x, ws.y) == pytest.approx((0.3, 5.4))


def test_interpreter_distance_fan_spreads_star():
    spec = load_fixture("star_unit")
    poses = interpret_scene(spec)
    assert (poses["m1"].x, poses["m1"].y) == pytest.approx((1.5, 0.0))
    assert (poses["m2"].x, poses["m2"].y) == pytest.approx((0.0, 1.5))
    assert (poses["m3"].x, poses["m3"].y) == pytest.approx((-1.5, 0.0))
    r = 1.5 / math.sqrt(2.0)
    assert (poses["m5"].x, poses["m5"].y) == pytest.approx((r, r))
    assert (poses["star"].x, poses["star"].y) == pytest.approx((4.0, 4.0))


def test_interpreter_is_deterministic():
    for name in ("dining_set", "mixed_ten", "conflict_pair"):
        spec = load_fixture(name)
        a = interpret_scene(spec)
        b = interpret_scene(spec)
        assert a == b


# --- cognitive maps ---------------------------------------------------------


def test_maps_axis_aligned_extents_equal_sizes():
    spec = _scene(
        Room(8.0, 8.0, 3.0),
        (Asset("a", "crate", (1.2, 0.8, 1.0)), Asset("b", "crate", (0.6, 0.6, 1.0))),
    )
    poses = {"a": Pose2D(2.0, 2.0, 0.0), "b": Pose2D(6.0, 6.0, 0.0)}
    _, gm = build_maps(spec, poses)
    assert gm.entries["a"].extents == pytest.approx((1.2, 0.8))
    assert gm.entries["b"].extents == pytest.approx((0.6, 0.6))
    assert gm.scope == "scene"


def test_member_bounds_nest_inside_unit_global_bounds():
    spec = load_fixture("dining_set")
    poses = interpret_scene(spec)
    local_maps, gm = build_maps(spec, poses)
    frame = gm.entries["dining"].pose
    gx, gy = gm.entries["dining"].bounds
    for entry in local_maps["dining"].entries.values():
        world = compose(frame, entry.pose)
        box = FootprintBox(world, entry.box.half_l, entry.box.half_w)
        _, wm = build_maps(
            _scene(spec.room, (Asset("probe", "probe", (2 * box.half_l, 2 * box.half_w, 1.0)),)),
            {"probe": world},
        )
        bx, by = wm.entries["probe"].bounds
        assert gx.lo <= bx.lo + 1e-9 and bx.hi <= gx.hi + 1e-9
        assert gy.lo <= by.lo + 1e-9 and by.hi <= gy.hi + 1e-9


def test_maps_frozen_dining_bounds():
    spec = load_fixture("dining_set")
    poses = interpret_scene(spec)
    local_maps, gm = build_maps(spec, poses)
    bx, by = local_maps["dining"].entries["chair_w"].bounds
    assert (bx.lo, bx.hi) == pytest.approx((-1.26, -0.81))
    assert (by.lo, by.hi) == pytest.approx((-0.225, 0.225))
    gx, gy = gm.entries["dining"].bounds
    assert (gx.lo, gx.hi) == pytest.approx((3.0 - 1.26, 3.0 + 1.26))
    assert (gy.lo, gy.hi) == pytest.approx((3.0 - 0.91, 3.0 + 0.91))


def test_maps_missing_pose_raises():
    spec = load_fixture("dining_set")
    with pytest.raises(KeyError):
        build_maps(spec, {})


# --- conflict detection -----------------------------------------------------


def test_detect_disjoint_scene_is_clean():
    spec = _scene(
        Room(8.0, 8.0, 3.0),
        (Asset("a", "crate", (1.0, 1.0, 1.0)), Asset("b", "crate", (1.0, 1.0, 1.0))),
    )
    poses = {"a": Pose2D(2.0, 2.0, 0.0), "b": Pose2D(6.0, 6.0, 0.0)}
    assert detect_conflicts(spec, *build_maps(spec, poses)) == []


def test_detect_coincident_pair():
    spec = _scene(
        Room(8.0, 8.0, 3.0),
        (Asset("a", "crate", (1.0, 1.0, 1.0)), Asset("b", "crate", (1.0, 1.0, 1.0))),
    )
    poses = {"a": Pose2D(4.0, 4.0, 0.0), "b": Pose2D(4.0, 4.0, 0.0)}
    conflicts = detect_conflicts(spec, *build_maps(spec, poses))
    assert len(conflicts) == 1
    c = conflicts[0]
    assert c.level == "inter" and c.pair == ("a", "b")
    assert c.overlap == pytest.approx((1.0, 1.0))


def test_unit_overlap_without_member_overlap_not_confirmed():
    # Interleaved comb: stand-in boxes overlap by construction, yet every
    # member pair stays clear, so the coarse conflict must be dropped.
    assets = (
        Asset("ta", "post", (0.4, 0.4, 1.0)),
        Asset("ma", "post", (0.4, 0.4, 1.0)),
        Asset("tb", "post", (0.4, 0.4, 1.0)),
        Asset("mb", "post", (0.4, 0.4, 1.0)),
    )
    units = (Unit("ua", "ta", ("ma",)), Unit("ub", "tb", ("mb",)))
    spec = _scene(Room(10.0, 10.0, 3.0), assets, units)
    poses = {
        "ua": Pose2D(2.0, 2.0, 0.0),
        "ma": Pose2D(2.0, 0.0, 0.0),
        "ub": Pose2D(3.0, 2.0, 0.0),
        "mb": Pose2D(2.0, 0.0, 0.0),
    }
    local_maps, gm = build_maps(spec, poses)
    ax = gm.entries["ua"].bounds[0]
    bx = gm.entries["ub"].bounds[0]
    assert ax.overlap(bx) > 0.0  # coarse boxes do overlap
    assert detect_conflicts(spec, local_maps, gm) == []


def test_broadphase_keeps_conflicts(monkeypatch):
    # Jittered imagined poses: some pairs collide, most do not.
    rng = np.random.default_rng(21)
    cases = []
    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        for _ in range(5):
            poses = {
                eid: Pose2D(p.x + rng.normal(0.0, 0.5), p.y + rng.normal(0.0, 0.5), p.theta + rng.normal(0.0, 0.5))
                for eid, p in interpret_scene(spec).items()
            }
            cases.append((spec, build_maps(spec, poses)))
    found = [detect_conflicts(spec, *maps) for spec, maps in cases]
    monkeypatch.setattr(
        geometry, "overlapping_pairs", lambda lo, hi: [(i, j) for i in range(len(lo)) for j in range(i + 1, len(lo))]
    )
    assert [detect_conflicts(spec, *maps) for spec, maps in cases] == found
    assert sum(len(f) for f in found) > 0


def test_axis_aligned_proxy_matches_exact_polygons():
    # At quarter-turn poses the proxy box is the footprint itself.
    rng = np.random.default_rng(4)
    for _ in range(300):
        boxes = []
        for _ in range(2):
            theta = rng.integers(0, 4) * 0.5 * math.pi
            boxes.append(
                FootprintBox(
                    Pose2D(rng.uniform(0, 4), rng.uniform(0, 4), theta),
                    rng.uniform(0.2, 1.0),
                    rng.uniform(0.2, 1.0),
                )
            )
        area = polygon_intersection_area(
            ConvexPolygon.from_box(boxes[0]), ConvexPolygon.from_box(boxes[1])
        )
        assert collide_proxy(boxes[0], boxes[1]) == (area > 1e-12)


# --- revision loop ----------------------------------------------------------


def test_imagine_noop_on_clean_fixtures():
    for name in ("dining_set", "bookstore_rows", "star_unit", "mixed_ten"):
        spec = load_fixture(name)
        revised, report = imagine_and_revise(spec)
        assert revised is spec, name
        assert report.converged and report.iterations == 1
        assert report.final_conflicts == ()


def test_conflict_fixture_converges_with_expected_edits():
    spec = load_fixture("conflict_pair")
    revised, report = imagine_and_revise(spec)
    assert report.converged and report.iterations == 2

    by_pair = {(r.kind, r.source, r.target): r for r in revised.relations}
    chair = by_pair[("distance", "desk_chair", "desk")]
    assert chair.params["d"] == pytest.approx(0.875)
    table = by_pair[("distance", "coffee_table", "sofa")]
    assert table.params["d"] == pytest.approx(1.0)
    lamp_gap = by_pair[("gap", "lamp2", "lamp1")]
    assert lamp_gap.params["g"] == pytest.approx(0.05)
    assert lamp_gap.scope == "inter"

    poses = interpret_scene(revised)
    assert detect_conflicts(revised, *build_maps(revised, poses)) == []
    text = report.to_text()
    assert "converged after 2" in text
    assert "lamp1 x lamp2" in text


def test_noop_reviser_exhausts_budget():
    spec = load_fixture("conflict_pair")
    revised, report = imagine_and_revise(spec, reviser=lambda s, c: s.relations, budget=4)
    assert revised is not None and not report.converged
    assert report.iterations == 4 and len(report.rounds) == 4
    assert len(report.final_conflicts) == 3
    assert "not converged within 4" in report.to_text()


def test_invalid_revision_raises():
    spec = load_fixture("conflict_pair")

    def bad(s, conflicts):
        return tuple(s.relations) + (
            Relation("distance", "ghost", "sofa", {"d": 1.0}, "inter"),
        )

    with pytest.raises(RevisionError):
        imagine_and_revise(spec, reviser=bad)


def test_nonlocal_revision_raises():
    # Only an intra conflict exists; touching an inter relation is illegal.
    spec = _scene(
        Room(10.0, 10.0, 3.0),
        (Asset("t", "table", (1.0, 1.0, 0.7)), Asset("m", "box", (0.5, 0.5, 0.5))),
        units=(Unit("u", "t", ("m",)),),
        relations=(Relation("h_place", "u", "scene", {"x": 5.0, "margin": 0.0}, "inter"),),
    )

    def sneaky(s, conflicts):
        out = []
        for r in s.relations:
            if r.kind == "h_place":
                out.append(Relation("h_place", r.source, r.target, {"x": 4.0, "margin": 0.0}, "inter"))
            else:
                out.append(r)
        return tuple(out)

    with pytest.raises(RevisionError):
        imagine_and_revise(spec, reviser=sneaky)


def test_baseline_reviser_idempotent_without_conflicts():
    spec = load_fixture("dining_set")
    assert baseline_reviser(spec, []) == spec.relations


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        imagine_and_revise(load_fixture("dining_set"), budget=0)
