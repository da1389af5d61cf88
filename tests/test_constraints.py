"""Penalty terms: frozen values, invariants, and finite-difference checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from layoutopt import geometry
from layoutopt.constraints import (
    LossValue,
    _point_box_sdf_grads,
    Weights,
    aggregate_global,
    aggregate_local,
    angle_offset_loss,
    against_wall_loss,
    around_loss,
    boundary_loss,
    box_from_array,
    collision_loss,
    corner_loss,
    directional_loss,
    distance_loss,
    facing_loss,
    gap_loss,
    param_index,
    placement_loss,
    relation_penalties,
    term_loss,
    unit_local_aabb,
    unit_obb,
)
from layoutopt.fixtures import FIXTURE_NAMES, load_fixture
from layoutopt.geometry import (
    FootprintBox,
    Pose2D,
    boundary_sample_points,
    collide_proxy,
    compose,
    corners,
    min_boundary_distance,
)
from layoutopt.imagination import imagine_and_revise
from layoutopt.optimizer import OptimizerConfig, evaluate, init_state
from layoutopt.scene_model import Room, parse_scene

from gradcheck import OP_SAMPLERS, assert_grads_close, fd_slots, run_op_fd

RNG_SEED = 915


def box(x, y, theta, hl, hw) -> FootprintBox:
    return FootprintBox(Pose2D(x, y, theta), hl, hw)


def random_box(rng, span=2.0) -> FootprintBox:
    return FootprintBox(
        Pose2D(rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-6, 6)),
        rng.uniform(0.2, 1.2),
        rng.uniform(0.2, 1.2),
    )


# ---------------------------------------------------------------------------
# Frozen values
# ---------------------------------------------------------------------------


def test_collision_frozen_values():
    a = box(0.0, 0.0, 0.0, 0.5, 0.5)
    b = box(0.5, 0.0, 0.0, 0.5, 0.5)
    # inter 0.5, union 1.5, rho 0.5, d^2 0.25, span diag^2 1.5^2 + 1 = 3.25.
    lv = collision_loss(a, b)
    assert lv.value == pytest.approx(1.0 / 3.0 - (0.25 / 3.25) * 0.5, abs=1e-12)
    same = collision_loss(a, a)
    assert same.value == pytest.approx(1.0, abs=1e-12)  # IoU 1, d 0
    apart = collision_loss(a, box(3.0, 0.0, 0.0, 0.5, 0.5))
    assert apart.value == 0.0
    assert np.all(apart.grads["a"] == 0.0) and np.all(apart.grads["b"] == 0.0)


def test_collision_zero_iff_disjoint_and_bounded():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(400):
        a, b = random_box(rng), random_box(rng)
        lv = collision_loss(a, b)
        assert lv.value >= -1.0
        if collide_proxy(a, b):
            assert lv.value != 0.0
        else:
            assert lv.value == 0.0


def test_collision_symmetry():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(100):
        a, b = random_box(rng), random_box(rng)
        ab = collision_loss(a, b)
        ba = collision_loss(b, a)
        assert ab.value == pytest.approx(ba.value, abs=1e-12)
        assert np.allclose(ab.grads["a"], ba.grads["b"], atol=1e-12)
        assert np.allclose(ab.grads["b"], ba.grads["a"], atol=1e-12)


def test_boundary_frozen_value():
    room = Room(10.0, 10.0, 3.0)
    lv = boundary_loss(box(0.0, 1.0, 0.0, 0.5, 0.5), room)
    # Two corners poke out of the left wall by 0.5 each.
    assert lv.value == pytest.approx(1.0, abs=1e-12)
    assert lv.grads["box"][0] == pytest.approx(-2.0, abs=1e-12)
    assert lv.grads["box"][1] == 0.0


def test_boundary_zero_iff_inside():
    room = Room(5.0, 4.0, 3.0)
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(300):
        b = FootprintBox(
            Pose2D(rng.uniform(-1, 6), rng.uniform(-1, 5), rng.uniform(-6, 6)),
            rng.uniform(0.2, 1.0),
            rng.uniform(0.2, 1.0),
        )
        cs = corners(b)
        inside = bool(
            (cs[:, 0] >= 0).all()
            and (cs[:, 0] <= room.length).all()
            and (cs[:, 1] >= 0).all()
            and (cs[:, 1] <= room.width).all()
        )
        lv = boundary_loss(b, room)
        assert (lv.value == 0.0) == inside
        assert lv.value >= 0.0


def test_distance_frozen_value():
    a = box(0.0, 0.0, 0.3, 0.5, 0.5)
    b = box(3.0, 4.0, -0.7, 0.5, 0.5)
    lv = distance_loss(a, b, 2.0)
    assert lv.value == pytest.approx(9.0, abs=1e-12)
    assert np.allclose(lv.grads["a"][:2], [-3.6, -4.8], atol=1e-12)
    assert np.allclose(lv.grads["b"][:2], [3.6, 4.8], atol=1e-12)
    assert lv.grads["a"][2] == 0.0
    assert lv.grads["d"] == pytest.approx(-6.0, abs=1e-12)


def test_distance_zero_radius_is_regular():
    a = box(1.0, 1.0, 0.0, 0.5, 0.5)
    lv = distance_loss(a, box(1.0, 1.0, 0.4, 0.3, 0.3), 0.7)
    assert lv.value == pytest.approx(0.49, abs=1e-12)
    assert np.all(lv.grads["a"] == 0.0)


def test_gap_matches_min_boundary_distance():
    rng = np.random.default_rng(RNG_SEED + 3)
    count = 0
    while count < 100:
        a, b = random_box(rng), random_box(rng)
        g = rng.uniform(0.0, 1.0)
        lv = gap_loss(a, b, float(g))
        expect = (min_boundary_distance(a, b) - g) ** 2
        assert lv.value == pytest.approx(expect, abs=1e-9)
        count += 1


def test_against_wall_frozen_value():
    room = Room(5.0, 4.0, 3.0)
    lv = against_wall_loss(box(0.7, 2.0, 0.0, 0.5, 0.5), "L", room)
    assert lv.value == pytest.approx(0.04, abs=1e-12)
    # Flush and aligned: zero.
    lv0 = against_wall_loss(box(0.5, 2.0, 0.0, 0.5, 0.5), "L", room)
    assert lv0.value == pytest.approx(0.0, abs=1e-12)
    # Right wall wants theta = pi.
    lvr = against_wall_loss(box(4.5, 2.0, math.pi, 0.5, 0.5), "R", room)
    assert lvr.value == pytest.approx(0.0, abs=1e-12)


def test_corner_frozen_values():
    room = Room(5.0, 4.0, 3.0)
    # Target for halves (0.5, 0.3) at theta 0 in corner BL is (0.5, 0.3).
    lv = corner_loss(box(0.6, 0.5, 0.0, 0.5, 0.3), "BL", "L", room)
    assert lv.value == pytest.approx(0.05, abs=1e-12)
    # Same displacement with orientation off by pi/2 (extents swap).
    lv2 = corner_loss(box(0.4, 0.7, 0.5 * math.pi, 0.5, 0.3), "BL", "L", room)
    assert lv2.value == pytest.approx(1.05, abs=1e-12)


def test_facing_behavior():
    a = box(0.0, 0.0, 0.0, 0.5, 0.5)
    b = box(2.0, 0.0, 0.0, 0.5, 0.5)
    assert facing_loss(a, b).value == pytest.approx(0.0, abs=1e-8)
    away = box(0.0, 0.0, math.pi, 0.5, 0.5)
    assert facing_loss(away, b).value == pytest.approx(2.0, abs=1e-8)
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(200):
        u, v = random_box(rng), random_box(rng)
        val = facing_loss(u, v).value
        assert -1e-12 <= val <= 2.0 + 1e-12


def test_directional_frozen_values():
    tgt = box(0.0, 0.0, 0.0, 0.5, 0.5)
    src_same = box(0.0, 0.0, 0.0, 0.5, 0.5)
    lv = directional_loss(src_same, tgt, "left_of", 0.5)
    assert lv.value == pytest.approx(1.0, abs=1e-12)  # hinge (0+0.5+0.5)^2
    # Canonical zero: just clear of the left edge, centered.
    src_zero = box(-1.1, 0.0, 0.0, 0.25, 0.25)
    tgt2 = box(0.0, 0.0, 0.0, 0.5, 0.5)
    lv0 = directional_loss(src_zero, tgt2, "left_of", 0.5)
    assert lv0.value == pytest.approx(0.0, abs=1e-12)
    # Rotating the frame moves the side with the target: its local -x now
    # points along world -y.
    shifted = directional_loss(
        box(1.0, -1.1, 0.5 * math.pi, 0.25, 0.25),
        box(1.0, 0.0, 0.5 * math.pi, 0.5, 0.5),
        "left_of",
        0.5,
    )
    assert shifted.value == pytest.approx(0.0, abs=1e-9)


def test_directional_alignment_fraction():
    # p = 1 pins the source at the +other-axis extreme: ybar = e_y - r_y.
    tgt = box(0.0, 0.0, 0.0, 0.5, 0.5)
    src = box(-1.0, 0.25, 0.0, 0.25, 0.25)
    lv = directional_loss(src, tgt, "left_of", 1.0)
    assert lv.value == pytest.approx(0.0, abs=1e-12)
    lv2 = directional_loss(src, tgt, "left_of", 0.0)
    assert lv2.value == pytest.approx(0.5, abs=1e-12)  # |0.25 - (-0.25)|


def test_angle_offset_periodic():
    a = box(0.0, 0.0, 0.3, 0.5, 0.5)
    b = box(1.0, 0.0, 0.1, 0.5, 0.5)
    lv = angle_offset_loss(a, b, 0.05)
    assert lv.value == pytest.approx(1.0 - math.cos(0.15), abs=1e-12)
    shifted = angle_offset_loss(box(0.0, 0.0, 0.3 + 2 * math.pi, 0.5, 0.5), b, 0.05)
    assert shifted.value == pytest.approx(lv.value, abs=1e-9)


def test_placement_frozen_values():
    room = Room(10.0, 8.0, 3.0)
    lv = placement_loss(box(3.0, 1.0, 0.2, 0.5, 0.5), "x", 2.0, room, 0.0)
    assert lv.value == pytest.approx(1.0, abs=1e-12)
    assert lv.grads["box"][0] == pytest.approx(2.0, abs=1e-12)
    assert lv.grads["target"] == pytest.approx(-2.0, abs=1e-12)
    # Inside the slack band the loss vanishes.
    lv2 = placement_loss(box(3.0, 1.0, 0.2, 0.5, 0.5), "x", 2.0, room, 0.2)
    assert lv2.value == 0.0


def _around_zero_config(n, sweep, center, focal_pose):
    focal = FootprintBox(focal_pose, 0.4, 0.4)
    sources = []
    cf, sf = math.cos(focal_pose.theta), math.sin(focal_pose.theta)
    for j in range(n):
        phi = center - 0.5 * sweep + j * sweep / (n - 1)
        radius = 1.3
        lx, ly = radius * math.cos(phi), radius * math.sin(phi)
        pose = Pose2D(
            focal_pose.x + cf * lx - sf * ly,
            focal_pose.y + sf * lx + cf * ly,
            focal_pose.theta + phi,
        )
        sources.append(FootprintBox(pose, 0.2, 0.2))
    return sources, focal


def test_around_zero_at_even_spread():
    # Evenly spread directions with matching headings null both terms: the
    # mean heading embedding of an even spread equals the closed-form
    # resultant used as the target.
    for n in (2, 3, 5, 8):
        sources, focal = _around_zero_config(n, 2.0, 0.3, Pose2D(1.0, 0.5, 0.4))
        lv = around_loss(sources, focal, 2.0, 0.3)
        assert lv.value == pytest.approx(0.0, abs=1e-10), n


def test_around_detects_uneven_spread():
    sources, focal = _around_zero_config(3, 2.0, 0.0, Pose2D(0.0, 0.0, 0.0))
    # Nudge one source along its ring: gap term picks it up.
    bad = list(sources)
    p = bad[1].pose
    bad[1] = FootprintBox(Pose2D(p.x, p.y + 0.4, p.theta), 0.2, 0.2)
    assert around_loss(bad, focal, 2.0, 0.0).value > 1e-3


def test_around_requires_two_sources():
    sources, focal = _around_zero_config(2, 1.0, 0.0, Pose2D(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        around_loss(sources[:1], focal, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Finite differences, one op at a time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", sorted(OP_SAMPLERS))
def test_gradients_match_finite_differences(op):
    run_op_fd(op, 60, seed=hash(op) % 100000)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _vector(spec, poses, shared):
    """Flat parameter vector holding the given poses and shared values."""
    index = param_index(spec)
    x = np.zeros(index.size)
    for eid, pose in poses.items():
        x[index.pose[eid]] = pose
    for name, value in shared.items():
        x[index.param[name]] = value
    return index, x


def _dining_locals(rng):
    spec = load_fixture("dining_set")
    unit = spec.units[0]
    locals_ = {
        mid: np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)])
        for mid in unit.members
    }
    return spec, unit, locals_


def test_aggregate_local_never_touches_unit_pose():
    rng = np.random.default_rng(RNG_SEED + 5)
    spec, unit, locals_ = _dining_locals(rng)
    index, x = _vector(spec, locals_, {"seat_radius": 1.1})
    lv = aggregate_local(spec, unit.id, index, x)
    member_slots = {k for mid in unit.members for k in range(index.pose[mid].start, index.pose[mid].stop)}
    assert set(np.flatnonzero(lv.grads)) <= member_slots | set(index.param.values())
    assert unit.anchor not in index.pose
    assert set(lv.terms) == {"collision", "relation"}


def test_aggregate_local_relations_are_rigid_invariant():
    # Evaluating the same intra relations on globally transported boxes gives
    # the same total for any unit pose: the unit-pose gradient block is zero.
    # (Collision proxies are axis-aligned and frame-dependent, which is why
    # they are defined in the unit frame; only relation terms are compared.)
    rng = np.random.default_rng(RNG_SEED + 6)
    spec, unit, locals_ = _dining_locals(rng)
    shared = {"seat_radius": 1.1}
    index, x = _vector(spec, locals_, shared)
    base = aggregate_local(spec, unit.id, index, x, Weights(collision=0.0))

    def global_relation_total(unit_pose_arr):
        frame = Pose2D(*unit_pose_arr)
        boxes = {}
        anchor = spec.asset(unit.anchor)
        boxes[unit.anchor] = FootprintBox(frame, anchor.half_l, anchor.half_w)
        for mid in unit.members:
            a = spec.asset(mid)
            pose = compose(frame, Pose2D(*locals_[mid]))
            boxes[mid] = FootprintBox(pose, a.half_l, a.half_w)
        block = index.blocks[unit.id]
        ordered = [boxes[eid] for eid in block.ids]
        total = 0.0
        for term in block.terms:
            lv, _, _ = term_loss(term, ordered, x, spec.room)
            total += lv.value
        return total

    for pose_arr in ([0.0, 0.0, 0.0], [2.0, -1.0, 0.8], [-0.5, 3.0, -2.4]):
        assert global_relation_total(np.array(pose_arr)) == pytest.approx(
            base.value, abs=1e-9
        )


def test_aggregate_local_shared_param_grad_accumulates():
    rng = np.random.default_rng(RNG_SEED + 7)
    spec, unit, locals_ = _dining_locals(rng)
    shared = {"seat_radius": 0.9}
    index, x = _vector(spec, locals_, shared)
    lv = aggregate_local(spec, unit.id, index, x)
    # Independent check: sum of the individual d-gradients.
    expect = 0.0
    boxes = {unit.anchor: FootprintBox(Pose2D(0, 0, 0), 0.8, 0.45)}
    for mid in unit.members:
        a = spec.asset(mid)
        boxes[mid] = FootprintBox(Pose2D(*locals_[mid]), a.half_l, a.half_w)
    for rel in spec.intra_relations(unit.id):
        if rel.kind == "distance":
            expect += distance_loss(boxes[rel.source], boxes[rel.target], 0.9).grads["d"]
    assert lv.grads[index.param["seat_radius"]] == pytest.approx(expect, abs=1e-12)


def test_aggregate_global_fd_on_unit_pose_and_independents():
    scene = parse_scene(
        """
        {
          "room": {"length": 8.0, "width": 6.0, "height": 3.0},
          "assets": [
            {"id": "desk", "size": [1.2, 0.6, 0.75]},
            {"id": "chair", "size": [0.45, 0.45, 0.9]},
            {"id": "lamp", "size": [0.4, 0.4, 1.5]},
            {"id": "rug", "size": [1.5, 1.0, 0.02]}
          ],
          "units": [{"id": "work", "anchor": "desk", "members": ["chair"]}],
          "relations": [
            {"kind": "distance", "source": "chair", "target": "desk",
             "scope": "intra", "unit": "work", "params": {"d": 0.9},
             "shared_param": "reach"},
            {"kind": "distance", "source": "lamp", "target": "work",
             "params": {"d": 1.4}},
            {"kind": "against_wall", "source": "rug", "target": "wall:B"},
            {"kind": "facing", "source": "lamp", "target": "rug"}
          ]
        }
        """
    )
    rng = np.random.default_rng(RNG_SEED + 8)
    member_locals = {"chair": np.array([0.9, 0.4, 0.3])}
    unit_poses = {"work": np.array([2.0, 2.5, 0.7])}
    independent = {
        "lamp": np.array([4.0, 2.0, 1.2]),
        "rug": np.array([5.0, 1.1, 0.4]),
    }
    shared = {"reach": 0.9}
    weights = Weights(collision=1.3, relation=0.8, boundary=1.7)
    index, x = _vector(scene, {**independent, **unit_poses, **member_locals}, shared)
    lv = aggregate_global(scene, index, x, weights)

    def value_at(name, pose):
        moved = x.copy()
        moved[index.pose[name]] = pose
        return aggregate_global(scene, index, moved, weights).value

    h = 1e-6
    for name in ("work", "lamp", "rug"):
        base_arr = unit_poses[name] if name == "work" else independent[name]
        for idx in range(3):
            up = base_arr.copy()
            up[idx] += h
            dn = base_arr.copy()
            dn[idx] -= h
            fd = (value_at(name, up) - value_at(name, dn)) / (2 * h)
            assert lv.grads[index.pose[name]][idx] == pytest.approx(fd, rel=1e-4, abs=1e-6), (
                name,
                idx,
            )


def test_unit_obb_encloses_members():
    rng = np.random.default_rng(RNG_SEED + 9)
    spec, unit, locals_ = _dining_locals(rng)
    center, hl, hw = unit_local_aabb(spec, unit, locals_)
    # Every member corner, in the unit frame, is inside the enclosing box.
    anchor = spec.asset(unit.anchor)
    boxes = [FootprintBox(Pose2D(0, 0, 0), anchor.half_l, anchor.half_w)]
    boxes += [
        FootprintBox(Pose2D(*locals_[mid]), spec.asset(mid).half_l, spec.asset(mid).half_w)
        for mid in unit.members
    ]
    for b in boxes:
        for cx, cy in corners(b):
            assert center[0] - hl - 1e-9 <= cx <= center[0] + hl + 1e-9
            assert center[1] - hw - 1e-9 <= cy <= center[1] + hw + 1e-9
    # Bit for bit the per-footprint reduction over `corners`.
    lo = np.minimum.reduce([corners(b).min(axis=0) for b in boxes])
    hi = np.maximum.reduce([corners(b).max(axis=0) for b in boxes])
    assert np.array_equal(center, 0.5 * (lo + hi))
    assert (hl, hw) == tuple((0.5 * (hi - lo)).tolist())
    # The scene-level box carries the unit pose.
    pose = np.array([3.0, 2.0, 0.6])
    obb, offset = unit_obb(spec, unit, pose, locals_)
    assert obb.pose.theta == pytest.approx(0.6)
    assert np.allclose(offset, center)


def test_relation_penalties_labels_and_values():
    spec = load_fixture("mixed_ten")
    rng = np.random.default_rng(RNG_SEED + 10)
    independent = {
        a.id: np.array([rng.uniform(1, 9), rng.uniform(1, 7), rng.uniform(-3, 3)])
        for a in spec.independent_assets()
    }
    unit_poses = {u.id: np.array([5.0, 4.0, 0.1]) for u in spec.units}
    member_locals = {
        mid: np.array([0.8, 0.0, 0.0]) for u in spec.units for mid in u.members
    }
    index, x = _vector(spec, {**independent, **unit_poses, **member_locals}, {})
    pens = relation_penalties(spec, index, x)
    assert "around:stools" in pens
    # One entry per non-around relation plus one per group.
    n_around = sum(1 for r in spec.relations if r.kind == "around")
    assert len(pens) == len(spec.relations) - n_around + 1
    assert all(v >= -1e-12 for v in pens.values())


def _bundled(name):
    """A bundled scene as the solver sees it: conflict_pair after revision."""
    spec = load_fixture(name)
    if name == "conflict_pair":
        spec, _ = imagine_and_revise(spec)
    return spec


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_relation_penalties_agree_with_the_objective(name):
    spec = _bundled(name)
    index = param_index(spec)
    labels = {f"relations[{i}]" for i, r in enumerate(spec.relations) if r.kind != "around"}
    groups = {(r.scope, r.unit, r.target, r.params["group"]) for r in spec.relations if r.kind == "around"}
    labels |= {f"around:{key[3]}" for key in groups}
    rng = np.random.default_rng(RNG_SEED + 11)
    for seed in range(4):
        state = init_state(spec, seed)
        state.x[: index.pose_size] += rng.normal(0.0, 0.4, index.pose_size)
        pens = relation_penalties(spec, index, state.x)
        # One label per relation and per around group, none twice.
        assert set(pens) == labels
        assert len(pens) == len(spec.relations) - sum(r.kind == "around" for r in spec.relations) + len(groups)
        _, _, terms = evaluate(state, Weights(), 1, OptimizerConfig())
        assert math.fsum(pens.values()) == pytest.approx(terms["relation"], rel=1e-12)
    if name == "conflict_pair":
        # The reviser's appended relations are labelled by their index.
        appended = range(len(load_fixture(name).relations), len(spec.relations))
        assert appended and all(f"relations[{i}]" in pens for i in appended)


def test_gap_loss_is_nan_on_a_nan_pose():
    a = box(math.nan, 0.0, 0.0, 0.5, 0.3)
    b = box(2.0, 0.0, 0.4, 0.4, 0.2)
    for lv in (gap_loss(a, b, 0.2), gap_loss(b, a, 0.2)):
        assert math.isnan(lv.value)
        assert set(lv.grads) == {"a", "b", "g"}
        assert all(np.isnan(g).all() for g in lv.grads.values())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_relation_penalties_turn_nan_instead_of_raising(name):
    spec = _bundled(name)
    index = param_index(spec)
    x = init_state(spec, 0).x
    finite = relation_penalties(spec, index, x)
    assert all(math.isfinite(v) for v in finite.values())

    def label(i):
        r = spec.relations[i]
        return f"around:{r.params['group']}" if r.kind == "around" else f"relations[{i}]"

    # Each pose row, then each shared parameter, holds the NaN in turn.
    for key, slot in list(index.pose.items()) + list(index.param.items()):
        bad = x.copy()
        bad[slot] = math.nan
        pens = relation_penalties(spec, index, bad)
        assert set(pens) == set(finite)
        touched = {
            label(i)
            for i, r in enumerate(spec.relations)
            if key in (r.source, r.target, r.shared_param)
        }
        assert all(math.isnan(pens[k]) for k in touched), key


# ---------------------------------------------------------------------------
# Pruned work is exactly zero work
# ---------------------------------------------------------------------------


def _all_pairs(lo, hi):
    n = len(lo)
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@pytest.mark.parametrize("name", ["mixed_ten", "bookstore_rows"])
def test_broadphase_keeps_aggregates_bit_exact(name, monkeypatch):
    spec = load_fixture(name)
    index = param_index(spec)
    kept = []
    broadphase = geometry.overlapping_pairs

    def spy(lo, hi):
        pairs = broadphase(lo, hi)
        kept.append((len(pairs), len(_all_pairs(lo, hi))))
        return pairs

    rng = np.random.default_rng(RNG_SEED + 30)
    for seed in range(4):
        x = init_state(spec, seed).x.copy()
        x[: index.pose_size] += rng.normal(0.0, 0.4, index.pose_size)

        def run():
            out = [aggregate_global(spec, index, x)]
            out += [aggregate_local(spec, u.id, index, x) for u in spec.units]
            return out

        monkeypatch.setattr(geometry, "overlapping_pairs", spy)
        pruned = run()
        monkeypatch.setattr(geometry, "overlapping_pairs", _all_pairs)
        every = run()
        for p, e in zip(pruned, every):
            assert p.value == e.value
            assert p.terms == e.terms
            assert np.array_equal(p.grads, e.grads)
    # The comparison means something only if pairs were both kept and dropped.
    assert sum(k for k, _ in kept) > 0
    assert sum(k for k, _ in kept) < sum(t for _, t in kept)


def _eager_gap(a, b, g):
    # The probe scan before it went value-only: gradients at every probe.
    best, best_grads = math.inf, None
    for box, other, slot_box, slot_other in ((a, b, "a", "b"), (b, a, "b", "a")):
        cb, sb = math.cos(box.pose.theta), math.sin(box.pose.theta)
        for p in boundary_sample_points(box):
            wx, wy = p[0] - box.pose.x, p[1] - box.pose.y
            offset = (cb * wx + sb * wy, -sb * wx + cb * wy)
            value, g_point, g_other = _point_box_sdf_grads(box, offset, other)
            if value < best:
                best, best_grads = value, {slot_box: g_point, slot_other: g_other}
    r = best - g
    out = {k: 2.0 * r * v for k, v in best_grads.items()}
    out["g"] = -2.0 * r
    return r * r, out


def test_gap_scan_matches_eager_reference_bitwise():
    rng = np.random.default_rng(RNG_SEED + 31)
    for k in range(500):
        if k % 4 == 0:
            # Axis-aligned side by side: many probes tie for the minimum.
            hl, hw = 0.25 * float(rng.integers(1, 5)), 0.25 * float(rng.integers(1, 5))
            a = box(1.0, 2.0, 0.0, hl, hw)
            b = box(1.0 + 2.0 * hl + 0.25 * float(rng.integers(0, 4)), 2.0, float(rng.choice([0.0, math.pi])), hl, hw)
        else:
            a, b = random_box(rng), random_box(rng)
        g = float(rng.uniform(0.0, 0.6))
        value, grads = _eager_gap(a, b, g)
        lv = gap_loss(a, b, g)
        assert lv.value == value
        assert list(lv.grads) == list(grads)
        for key, ref in grads.items():
            assert np.array_equal(lv.grads[key], ref)
