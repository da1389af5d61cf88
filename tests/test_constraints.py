"""Penalty terms: frozen values, invariants, and finite-difference checks."""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np
import pytest

from layoutopt import constraints, geometry, optimizer
from layoutopt.constraints import (
    FACING_EPS,
    SIDE_RULES,
    WALL_RULES,
    LossValue,
    Weights,
    _against_wall_rule,
    _block_boxes,
    _corner_rule,
    _local_sdf,
    _local_sdf_grad,
    aggregate_global,
    aggregate_local,
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
    _placement_rule,
    param_index,
    placement_loss,
    relation_penalties,
)
from layoutopt.errors import MissingEntityError
from layoutopt.fixtures import FIXTURE_NAMES, load_fixture
from layoutopt.geometry import _CORNER_SIGNS, Pose2D, compose, half_extents
from layoutopt.imagination import imagine_and_revise
from layoutopt.optimizer import OptimizerConfig, evaluate, init_state
from layoutopt.scene_model import SHARED_PARAM_SLOTS, Room, parse_scene, shared_param_priors

from gradcheck import OP_SAMPLERS, assert_grads_close, fd_slots, kernel_box, keyed, keyed_around, run_op_fd
from refgeom import FootprintBox, box_separation, collide_proxy, corners
from refopt import reference_around_loss

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
    a = (0.0, 0.0, 0.0, 0.5, 0.5)
    b = (0.5, 0.0, 0.0, 0.5, 0.5)
    # inter 0.5, union 1.5, rho 0.5, d^2 0.25, span diag^2 1.5^2 + 1 = 3.25.
    lv = collision_loss(a, b)
    assert lv.value == pytest.approx(1.0 / 3.0 + 0.5 * (1.0 - 0.25 / 3.25), abs=1e-12)
    same = collision_loss(a, a)
    assert same.value == pytest.approx(2.0, abs=1e-12)  # IoU 1, rho 1, d 0
    apart = collision_loss(a, (3.0, 0.0, 0.0, 0.5, 0.5))
    assert apart.value == 0.0
    ga, gb = apart.grads
    assert np.all(np.array(ga) == 0.0) and np.all(np.array(gb) == 0.0)


def test_collision_zero_iff_disjoint_and_bounded():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(400):
        a, b = random_box(rng), random_box(rng)
        lv = collision_loss(kernel_box(a), kernel_box(b))
        assert 0.0 <= lv.value <= 2.0
        if collide_proxy(a, b):
            assert lv.value > 0.0
        else:
            assert lv.value == 0.0


def test_collision_grows_with_depth_into_the_short_side_of_a_table():
    # dining_set's 0.45 x 0.45 chair pushed into the short side of its
    # 1.6 x 0.9 table: the term is 0 at contact and never falls as the
    # chair goes deeper, so no overlap scores below a clean contact.
    table = (0.0, 0.0, 0.0, 0.8, 0.45)
    values = []
    for depth in np.linspace(0.0, 0.20, 81).tolist():
        chair = (0.8 + 0.225 - depth, 0.0, 0.0, 0.225, 0.225)
        values.append(collision_loss(chair, table).value)
    assert values[0] == 0.0 and values[-1] > 0.0
    assert all(b >= a for a, b in zip(values, values[1:])), values


def test_collision_symmetry():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(100):
        a, b = random_box(rng), random_box(rng)
        ab = collision_loss(kernel_box(a), kernel_box(b))
        ba = collision_loss(kernel_box(b), kernel_box(a))
        assert ab.value == pytest.approx(ba.value, abs=1e-12)
        assert np.allclose(ab.grads[0], ba.grads[1], atol=1e-12)
        assert np.allclose(ab.grads[1], ba.grads[0], atol=1e-12)


def test_boundary_frozen_value():
    room = Room(10.0, 10.0, 3.0)
    value, (g,), _ = boundary_loss((0.0, 1.0, 0.0, 0.5, 0.5), room)
    # Two corners poke out of the left wall by 0.5 each.
    assert value == pytest.approx(1.0, abs=1e-12)
    assert g[0] == pytest.approx(-2.0, abs=1e-12)
    assert g[1] == 0.0


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
        value, _, _ = boundary_loss(kernel_box(b), room)
        assert (value == 0.0) == inside
        assert value >= 0.0


def test_distance_frozen_value():
    a = (0.0, 0.0, 0.3, 0.5, 0.5)
    b = (3.0, 4.0, -0.7, 0.5, 0.5)
    value, (ga, gb), gd, _ = distance_loss([a, b], 2.0)
    assert value == pytest.approx(9.0, abs=1e-12)
    assert np.allclose(ga[:2], [-3.6, -4.8], atol=1e-12)
    assert np.allclose(gb[:2], [3.6, 4.8], atol=1e-12)
    assert ga[2] == 0.0
    assert gd == pytest.approx(-6.0, abs=1e-12)


def test_distance_zero_radius_is_regular():
    a = (1.0, 1.0, 0.0, 0.5, 0.5)
    value, (ga, _), _, _ = distance_loss([a, (1.0, 1.0, 0.4, 0.3, 0.3)], 0.7)
    assert value == pytest.approx(0.49, abs=1e-12)
    assert np.all(np.array(ga) == 0.0)


def _separation(boxes, g=0.0) -> float:
    """The signed separation `gap_loss` reads, from its parameter gradient
    -2 (separation - g)."""
    return g - 0.5 * gap_loss(boxes, g)[2]


def test_gap_matches_box_separation():
    rng = np.random.default_rng(RNG_SEED + 3)
    overlapping = 0
    for _ in range(400):
        a, b = random_box(rng), random_box(rng, 1.0)
        g = rng.uniform(0.0, 1.0)
        value, _, _, _ = gap_loss([kernel_box(a), kernel_box(b)], float(g))
        expect = box_separation(a, b)
        assert value == pytest.approx((expect - g) ** 2, abs=1e-9)
        assert _separation([kernel_box(a), kernel_box(b)]) == pytest.approx(expect, abs=1e-9)
        overlapping += expect < 0.0
    assert 50 < overlapping < 350


def test_gap_reads_crossing_boards_as_overlapping():
    # Two 4 x 0.2 m boards crossing at their centres: every corner and
    # boundary sample of each lies outside the other, 0.4 m from it at the
    # least, yet they part only after 2.1 m, so a gap of 0.4 is far from
    # satisfied.
    boards = [(2.0, 2.0, 0.0, 2.0, 0.1), (2.0, 2.0, 0.5 * math.pi, 2.0, 0.1)]
    assert _separation(boards) == pytest.approx(-2.1, abs=1e-12)
    value, _, _, _ = gap_loss(boards, 0.4)
    assert value == pytest.approx(2.5**2, abs=1e-12)


def test_gap_reads_a_touching_pair_as_zero_from_both_sides():
    # Touching reads 0; nudged apart the corner distances read the gap, and
    # pushed in the projected overlap reads minus the depth, so the
    # separation is continuous where the two forms meet.
    for a, b, normal in (
        ((0.0, 0.0, 0.0, 0.5, 0.5), (1.0, 0.3, 0.0, 0.5, 0.5), (1.0, 0.0)),  # face to face
        ((0.0, 0.0, 0.0, 0.5, 0.25), (0.0, 0.5, math.pi, 0.25, 0.25), (0.0, 1.0)),  # turned half round
        ((0.0, 0.0, 0.0, 0.5, 0.5), (0.5 + 0.5 * math.sqrt(2.0), 0.1, 0.25 * math.pi, 0.5, 0.5), (1.0, 0.0)),
    ):
        for boxes in ([a, b], [b, a]):
            assert _separation(boxes) == pytest.approx(0.0, abs=1e-15)
        for eps in (1e-9, -1e-9):
            moved = (b[0] + eps * normal[0], b[1] + eps * normal[1], *b[2:])
            for boxes in ([a, moved], [moved, a]):
                assert _separation(boxes) == pytest.approx(eps, abs=1e-15)


def test_against_wall_frozen_value():
    room = Room(5.0, 4.0, 3.0)
    left, right = _against_wall_rule("L", room), _against_wall_rule("R", room)
    value, _, _, _ = against_wall_loss([(0.7, 2.0, 0.0, 0.5, 0.5)], None, *left)
    assert value == pytest.approx(0.04, abs=1e-12)
    # Flush and aligned: zero.
    value0, _, _, _ = against_wall_loss([(0.5, 2.0, 0.0, 0.5, 0.5)], None, *left)
    assert value0 == pytest.approx(0.0, abs=1e-12)
    # Right wall wants theta = pi.
    value_r, _, _, _ = against_wall_loss([(4.5, 2.0, math.pi, 0.5, 0.5)], None, *right)
    assert value_r == pytest.approx(0.0, abs=1e-12)


def test_corner_frozen_values():
    room = Room(5.0, 4.0, 3.0)
    # Target for halves (0.5, 0.3) at theta 0 in corner BL is (0.5, 0.3).
    rule = _corner_rule("BL", "L", room)
    value, _, _, _ = corner_loss([(0.6, 0.5, 0.0, 0.5, 0.3)], None, *rule)
    assert value == pytest.approx(0.05, abs=1e-12)
    # Same displacement with orientation off by pi/2 (extents swap).
    value2, _, _, _ = corner_loss([(0.4, 0.7, 0.5 * math.pi, 0.5, 0.3)], None, *rule)
    assert value2 == pytest.approx(1.05, abs=1e-12)


def test_facing_behavior():
    a = (0.0, 0.0, 0.0, 0.5, 0.5)
    b = (2.0, 0.0, 0.0, 0.5, 0.5)
    assert facing_loss([a, b], None)[0] == pytest.approx(0.0, abs=1e-8)
    away = (0.0, 0.0, math.pi, 0.5, 0.5)
    assert facing_loss([away, b], None)[0] == pytest.approx(2.0, abs=1e-8)
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(200):
        u, v = random_box(rng), random_box(rng)
        val = facing_loss([kernel_box(u), kernel_box(v)], None)[0]
        assert -1e-12 <= val <= 2.0 + 1e-12


def test_directional_frozen_values():
    left = SIDE_RULES["left_of"]
    tgt = (0.0, 0.0, 0.0, 0.5, 0.5)
    src_same = (0.0, 0.0, 0.0, 0.5, 0.5)
    # The penalty, the report's form, which "satisfied" reads.
    _, _, _, value = directional_loss([src_same, tgt], 0.5, *left)
    assert value == pytest.approx(1.0, abs=1e-12)  # hinge (0+0.5+0.5)^2
    # Canonical zero: just clear of the left edge, centered.
    src_zero = (-1.1, 0.0, 0.0, 0.25, 0.25)
    tgt2 = (0.0, 0.0, 0.0, 0.5, 0.5)
    _, _, _, value0 = directional_loss([src_zero, tgt2], 0.5, *left)
    assert value0 == pytest.approx(0.0, abs=1e-12)
    # Rotating the frame moves the side with the target: its local -x now
    # points along world -y.
    _, _, _, shifted = directional_loss(
        [(1.0, -1.1, 0.5 * math.pi, 0.25, 0.25), (1.0, 0.0, 0.5 * math.pi, 0.5, 0.5)],
        0.5,
        *left,
    )
    assert shifted == pytest.approx(0.0, abs=1e-9)
    # The objective's form has the same zeros and the same hinge.
    assert directional_loss([src_same, tgt], 0.5, *left)[0] == value
    assert directional_loss([src_zero, tgt2], 0.5, *left)[0] == pytest.approx(0.0, abs=1e-12)


def test_directional_alignment_fraction():
    # p = 1 pins the source at the +other-axis extreme: ybar = e_y - r_y.
    left = SIDE_RULES["left_of"]
    tgt = (0.0, 0.0, 0.0, 0.5, 0.5)
    src = (-1.0, 0.25, 0.0, 0.25, 0.25)
    _, _, _, value = directional_loss([src, tgt], 1.0, *left)
    assert value == pytest.approx(0.0, abs=1e-12)
    _, _, _, value2 = directional_loss([src, tgt], 0.0, *left)
    assert value2 == pytest.approx(0.5, abs=1e-12)  # |0.25 - (-0.25)|
    # The objective squares the same deviation.
    assert directional_loss([src, tgt], 1.0, *left)[0] == pytest.approx(0.0, abs=1e-12)
    assert directional_loss([src, tgt], 0.0, *left)[0] == pytest.approx(0.25, abs=1e-12)


def test_angle_offset_periodic():
    a = (0.0, 0.0, 0.3, 0.5, 0.5)
    b = (1.0, 0.0, 0.1, 0.5, 0.5)
    value, _, _, _ = angle_offset_loss([a, b], 0.05)
    assert value == pytest.approx(1.0 - math.cos(0.15), abs=1e-12)
    shifted, _, _, _ = angle_offset_loss([(0.0, 0.0, 0.3 + 2 * math.pi, 0.5, 0.5), b], 0.05)
    assert shifted == pytest.approx(value, abs=1e-9)


def test_placement_frozen_values():
    room = Room(10.0, 8.0, 3.0)
    b = (3.0, 1.0, 0.2, 0.5, 0.5)
    value, (g,), g_target, _ = placement_loss([b], 2.0, *_placement_rule("x", room, 0.0))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert g[0] == pytest.approx(2.0, abs=1e-12)
    assert g_target == pytest.approx(-2.0, abs=1e-12)
    # Inside the slack band the loss vanishes.
    value2, _, _, _ = placement_loss([b], 2.0, *_placement_rule("x", room, 0.2))
    assert value2 == 0.0


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
        value, _, _, _ = around_loss([*map(kernel_box, sources), kernel_box(focal)], None, 2.0, 0.3)
        assert value == pytest.approx(0.0, abs=1e-10), n


def test_around_detects_uneven_spread():
    sources, focal = _around_zero_config(3, 2.0, 0.0, Pose2D(0.0, 0.0, 0.0))
    # Nudge one source along its ring: gap term picks it up.
    bad = list(sources)
    p = bad[1].pose
    bad[1] = FootprintBox(Pose2D(p.x, p.y + 0.4, p.theta), 0.2, 0.2)
    assert around_loss([*map(kernel_box, bad), kernel_box(focal)], None, 2.0, 0.0)[0] > 1e-3


def test_around_tiny_sweep_joins_the_closed_form():
    # Below a half gap of 1e-9 (sweep 4e-9 for three sources) the target
    # resultant is taken at its limit, 1, with zero slope; just under and
    # just over that switch must agree.
    sources, focal = _around_zero_config(3, 0.8, 0.3, Pose2D(1.0, 0.5, 0.4))
    boxes = [*map(kernel_box, sources), kernel_box(focal)]
    below = around_loss(boxes, None, 3.9e-9, 0.3)
    above = around_loss(boxes, None, 4.1e-9, 0.3)
    assert below[0] == pytest.approx(above[0], abs=1e-9)
    assert below[2] == pytest.approx(above[2], abs=1e-9)


def test_around_requires_two_sources():
    sources, focal = _around_zero_config(2, 1.0, 0.0, Pose2D(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        around_loss([kernel_box(sources[0]), kernel_box(focal)], None, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Finite differences, one op at a time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", sorted(OP_SAMPLERS))
def test_gradients_match_finite_differences(op):
    # crc32, unlike the per-process salted str hash, draws the same samples
    # in every run.
    run_op_fd(op, 60, seed=zlib.crc32(op.encode()) % 100000)


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
        ordered = [kernel_box(boxes[eid]) for eid in block.ids]
        total, xs = 0.0, x.tolist()
        for term in block.terms:
            # The kernel as the objective calls it.
            param = term.value if term.param is None else xs[term.param]
            value, _, _, _ = getattr(constraints, term.kernel)([ordered[k] for k in term.ends], param, *term.consts)
            total += value
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
    for rel in spec.relations:
        if rel.kind == "distance" and rel.unit == unit.id:
            expect += distance_loss([kernel_box(boxes[rel.source]), kernel_box(boxes[rel.target])], 0.9)[2]
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


def test_stand_in_box_encloses_members():
    rng = np.random.default_rng(RNG_SEED + 9)
    spec, unit, locals_ = _dining_locals(rng)
    poses = [(0.0, 0.0, 0.0)] + [tuple(locals_[mid].tolist()) for mid in unit.members]
    center, hl, hw = geometry.enclosing_box(poses, [_halves_of(spec, aid) for aid in unit.assets])
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
    index, x = _vector(spec, {**locals_, unit.id: pose}, {})
    block = index.blocks[None]
    boxes, _ = _block_boxes(block, x.tolist())
    obb = boxes[block.ids.index(unit.id)]
    assert obb[2] == pytest.approx(0.6)
    assert obb[3:] == (hl, hw)
    c, s = math.cos(0.6), math.sin(0.6)
    offset = (c * (obb[0] - 3.0) + s * (obb[1] - 2.0), -s * (obb[0] - 3.0) + c * (obb[1] - 2.0))
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
    pens = relation_penalties(index, x)
    # The stools group is labelled by its first relation only.
    stools = [i for i, r in enumerate(spec.relations) if r.kind == "around"]
    assert f"relations[{stools[0]}]" in pens
    assert not any(f"relations[{i}]" in pens for i in stools[1:])
    # One entry per non-around relation plus one per group.
    n_around = sum(1 for r in spec.relations if r.kind == "around")
    assert len(pens) == len(spec.relations) - n_around + 1
    assert all(v >= -1e-12 for v in pens.values())


def test_around_groups_of_one_name_in_two_units_keep_their_own_entries():
    # Each unit rings its own anchor with a group named "g".  Each group is
    # one term, labelled by its first relation, with its own penalty.
    spec = parse_scene(
        """
        {
          "room": {"length": 8.0, "width": 6.0, "height": 3.0},
          "assets": [
            {"id": "t1", "size": [1.0, 1.0, 0.7]},
            {"id": "a1", "size": [0.4, 0.4, 0.9]},
            {"id": "b1", "size": [0.4, 0.4, 0.9]},
            {"id": "t2", "size": [1.2, 0.8, 0.7]},
            {"id": "a2", "size": [0.5, 0.5, 0.9]},
            {"id": "b2", "size": [0.5, 0.5, 0.9]}
          ],
          "units": [
            {"id": "u1", "anchor": "t1", "members": ["a1", "b1"]},
            {"id": "u2", "anchor": "t2", "members": ["a2", "b2"]}
          ],
          "relations": [
            {"kind": "around", "source": "a1", "target": "t1", "scope": "intra", "unit": "u1",
             "params": {"group": "g", "sweep": 3.0, "center": 0.0}},
            {"kind": "around", "source": "b1", "target": "t1", "scope": "intra", "unit": "u1",
             "params": {"group": "g", "sweep": 3.0, "center": 0.0}},
            {"kind": "around", "source": "a2", "target": "t2", "scope": "intra", "unit": "u2",
             "params": {"group": "g", "sweep": 1.5, "center": 0.5}},
            {"kind": "around", "source": "b2", "target": "t2", "scope": "intra", "unit": "u2",
             "params": {"group": "g", "sweep": 1.5, "center": 0.5}}
          ]
        }
        """
    )
    index = param_index(spec)
    state = init_state(spec, 0)
    pens = relation_penalties(index, state.x)
    assert set(pens) == {"relations[0]", "relations[2]"}
    assert pens["relations[0]"] != pens["relations[2]"]
    _, _, terms, _ = evaluate(state, Weights(), 1, OptimizerConfig())
    assert math.fsum(pens.values()) == pytest.approx(terms["relation"], rel=1e-12)


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
    groups: dict = {}
    for i, r in enumerate(spec.relations):
        if r.kind == "around":
            groups.setdefault((r.scope, r.unit, r.target, r.params["group"]), i)
    labels |= {f"relations[{i}]" for i in groups.values()}
    rng = np.random.default_rng(RNG_SEED + 11)
    for seed in range(4):
        state = init_state(spec, seed)
        state.x[: index.pose_size] += rng.normal(0.0, 0.4, index.pose_size)
        pens = relation_penalties(index, state.x)
        # One label per relation and per around group, none twice.
        assert set(pens) == labels
        assert len(pens) == len(spec.relations) - sum(r.kind == "around" for r in spec.relations) + len(groups)
        _, _, terms, _ = evaluate(state, Weights(), 1, OptimizerConfig())
        # The report reads each kernel's penalty; the objective its value,
        # the same but for a directional term's squared alignment.
        xs, objective_form = state.x.tolist(), {}
        for block in index.blocks.values():
            boxes, _ = _block_boxes(block, xs)
            for term in block.terms:
                param = term.value if term.param is None else xs[term.param]
                out = getattr(constraints, term.kernel)([boxes[k] for k in term.ends], param, *term.consts)
                assert repr(out[3]) == repr(pens[term.label]), term.label
                assert out[0] == out[3] or term.kernel == "directional_loss", term.label
                objective_form[term.label] = out[0]
        assert math.fsum(objective_form.values()) == pytest.approx(terms["relation"], rel=1e-12)
    if name == "conflict_pair":
        # The reviser's appended relations are labelled by their index.
        appended = range(len(load_fixture(name).relations), len(spec.relations))
        assert appended and all(f"relations[{i}]" in pens for i in appended)


def test_gap_loss_is_nan_on_a_nan_pose():
    a = (math.nan, 0.0, 0.0, 0.5, 0.3)
    b = (2.0, 0.0, 0.4, 0.4, 0.2)
    for lv in (keyed(gap_loss([a, b], 0.2), ("a", "b"), "g"), keyed(gap_loss([b, a], 0.2), ("a", "b"), "g")):
        assert math.isnan(lv.value)
        assert set(lv.grads) == {"a", "b", "g"}
        assert all(np.isnan(g).all() for g in lv.grads.values())


def test_boundary_loss_is_nan_on_a_nan_box():
    room = Room(5.0, 4.0, 3.0)
    for box in ((math.nan, 1.0, 0.0, 0.5, 0.5), (1.0, math.nan, 0.0, 0.5, 0.5), (1.0, 1.0, math.nan, 0.5, 0.5)):
        value, grads, param_grad = boundary_loss(box, room)
        assert math.isnan(value), box
        assert len(grads) == 1 and len(grads[0]) == 3 and all(map(math.isnan, grads[0])), box
        assert param_grad is None
    # A finite box well inside still reads 0 with a zero gradient.
    assert boundary_loss((1.0, 1.0, 0.3, 0.5, 0.5), room) == (0.0, ((0.0, 0.0, 0.0),), None)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_param_index_holds_each_shared_prior_at_its_slot(name):
    spec = _bundled(name)
    index = param_index(spec)
    assert list(index.param.values()) == list(range(index.pose_size, index.size))
    assert dict(zip(index.param, index.priors)) == shared_param_priors(spec)
    x = index.pack({eid: (1.0, 2.0, 0.5) for eid in index.pose})
    assert x[index.pose_size :].tolist() == list(index.priors)


def test_pack_reads_poses_and_names_an_entity_with_no_pose():
    index = param_index(_bundled("dining_set"))
    poses = {eid: Pose2D(1.0, 2.0, 0.5) for eid in index.pose}
    assert index.pack(poses).tobytes() == index.pack({eid: (1.0, 2.0, 0.5) for eid in index.pose}).tobytes()
    missing = list(index.pose)[-1]
    del poses[missing]
    with pytest.raises(MissingEntityError) as info:
        index.pack(poses)
    assert str(info.value) == f"no pose for {missing!r}"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_relation_penalties_turn_nan_instead_of_raising(name):
    spec = _bundled(name)
    index = param_index(spec)
    x = init_state(spec, 0).x
    finite = relation_penalties(index, x)
    assert all(math.isfinite(v) for v in finite.values())

    def group_key(r):
        return (r.scope, r.unit, r.target, r.params["group"]) if r.kind == "around" else None

    def label(i):
        # An around group's label is its first member's.
        key = group_key(spec.relations[i])
        if key is not None:
            i = next(j for j, r in enumerate(spec.relations) if group_key(r) == key)
        return f"relations[{i}]"

    # Each pose row, then each shared parameter, holds the NaN in turn.
    for key, slot in list(index.pose.items()) + list(index.param.items()):
        bad = x.copy()
        bad[slot] = math.nan
        pens = relation_penalties(index, bad)
        assert set(pens) == set(finite)
        touched = {
            label(i)
            for i, r in enumerate(spec.relations)
            if key in (r.source, r.target, r.shared_param)
        }
        assert all(math.isnan(pens[k]) for k in touched), key

    # An infinite heading reads as a NaN one, in the penalties and in both
    # aggregates, instead of raising from math.cos.
    def outputs(x_):
        out = list(relation_penalties(index, x_).values())
        for lv in [aggregate_global(spec, index, x_)] + [aggregate_local(spec, u.id, index, x_) for u in spec.units]:
            out += [lv.value, *lv.grads.tolist(), *lv.terms.values()]
        return out

    for key, rows in index.pose.items():
        nan_heading = x.copy()
        nan_heading[rows.start + 2] = math.nan
        expect = outputs(nan_heading)
        for inf in (math.inf, -math.inf):
            bad = x.copy()
            bad[rows.start + 2] = inf
            got = outputs(bad)
            assert all(_same(g, e) for g, e in zip(got, expect)) and len(got) == len(expect), (key, inf)


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


# ---------------------------------------------------------------------------
# Kernels against the per-term numpy bodies they replaced
# ---------------------------------------------------------------------------
# The `_reference_*` functions are the numpy bodies of the `*_loss` functions
# before those became scalar kernels, kept verbatim: on FootprintBoxes,
# returning a LossValue keyed by slot name.  Every kernel, keyed by slot, and
# a plan term's kernel on kernel boxes (`_term_loss`), must reproduce them
# bit for bit.


def _term_loss(term, boxes: list, xs) -> tuple:
    """A plan term's kernel output on its block's kernel boxes, its
    parameter read from `xs` when shared, as the pass calls it."""
    param = term.value if term.param is None else xs[term.param]
    return getattr(constraints, term.kernel)([boxes[k] for k in term.ends], param, *term.consts)


def _reference_collision(a: FootprintBox, b: FootprintBox) -> LossValue:
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
    value = iou + rho * (1.0 - d2 / c2)

    darea_a = 4.0 * (dax_a * ay_a + ax_a * day_a)  # d area_a / d theta_a
    darea_b = 4.0 * (dax_b * ay_b + ax_b * day_b)

    gate_x = 1.0 if ovx > 0.0 else 0.0
    gate_y = 1.0 if ovy > 0.0 else 0.0

    ga, gb = np.zeros(3), np.zeros(3)
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
        out[idx] = d_iou + d_rho * (1.0 - d2 / c2) - rho * d_ratio

    return LossValue(value, {"a": ga, "b": gb})


def _reference_boundary(box: FootprintBox, room: Room) -> LossValue:
    # Added to the body it was: a box holding a NaN reads NaN, not inside.
    if any(map(math.isnan, (box.pose.x, box.pose.y, box.pose.theta, box.half_l, box.half_w))):
        return LossValue(math.nan, {"box": np.full(3, math.nan)})
    c = math.cos(box.pose.theta)
    s = math.sin(box.pose.theta)
    limits = (room.length, room.width)
    value = 0.0
    g = np.zeros(3)
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


def _reference_distance(a: FootprintBox, b: FootprintBox, d_star: float) -> LossValue:
    dx = a.pose.x - b.pose.x
    dy = a.pose.y - b.pose.y
    dist = math.hypot(dx, dy)
    r = dist - d_star
    ga, gb = np.zeros(3), np.zeros(3)
    if dist > 1e-12:
        k = 2.0 * r / dist
        ga[0], ga[1] = k * dx, k * dy
        gb[0], gb[1] = -k * dx, -k * dy
    return LossValue(r * r, {"a": ga, "b": gb, "d": -2.0 * r})


def _reference_corner_sdf_grads(box: FootprintBox, offset, other: FootprintBox):
    """`_local_sdf` of the corner of `box` at `offset` in its frame against
    `other`, with its derivatives by box's pose and by other's: the corner
    is carried into other's frame from the centre offset, turned by the
    heading difference."""
    pp, po = box.pose, other.pose
    cp, sp = math.cos(pp.theta), math.sin(pp.theta)
    co, so = math.cos(po.theta), math.sin(po.theta)
    cr, sr = cp * co + sp * so, sp * co - cp * so
    dx, dy = pp.x - po.x, pp.y - po.y
    ux = co * dx + so * dy + cr * offset[0] - sr * offset[1]
    uy = co * dy - so * dx + sr * offset[0] + cr * offset[1]
    value = _local_sdf(ux, uy, other.half_l, other.half_w)
    gux, guy = _local_sdf_grad(ux, uy, other.half_l, other.half_w)
    g_box = np.array(
        [co * gux - so * guy, so * gux + co * guy,
         gux * (-sr * offset[0] - cr * offset[1]) + guy * (cr * offset[0] - sr * offset[1])]
    )
    g_other = np.array([-(co * gux - so * guy), -(so * gux + co * guy), gux * uy - guy * ux])
    return value, g_box, g_other


def _reference_overlaps(a: FootprintBox, b: FootprintBox) -> list:
    """On each edge normal n, a's x and y, then b's: the overlap of the
    boxes' projections, the half size of n's box plus the other box's extent
    on n less |(c_b - c_a) . n|; n; that offset on n, and its derivative by
    n's heading; and the derivative of the extent by a's heading."""
    cos_a, sin_a = math.cos(a.pose.theta), math.sin(a.pose.theta)
    cos_b, sin_b = math.cos(b.pose.theta), math.sin(b.pose.theta)
    dx, dy = b.pose.x - a.pose.x, b.pose.y - a.pose.y
    # |cos| and |sin| of b's heading less a's, and their derivatives by a's.
    c_rel, s_rel = cos_a * cos_b + sin_a * sin_b, cos_a * sin_b - sin_a * cos_b
    dc, ds = math.copysign(1.0, c_rel) * s_rel, -math.copysign(1.0, s_rel) * c_rel
    c_rel, s_rel = abs(c_rel), abs(s_rel)
    out = []
    # Each normal's half size, direction, and the other box with |cos| and
    # |sin| of its heading less the normal's and their derivatives.
    for half, n, other, trig in (
        (a.half_l, (cos_a, sin_a), b, (c_rel, s_rel, dc, ds)),
        (a.half_w, (-sin_a, cos_a), b, (s_rel, c_rel, ds, dc)),
        (b.half_l, (cos_b, sin_b), a, (c_rel, s_rel, dc, ds)),
        (b.half_w, (-sin_b, cos_b), a, (s_rel, c_rel, ds, dc)),
    ):
        cos_abs, sin_abs, d_cos, d_sin = trig
        p = n[0] * dx + n[1] * dy
        overlap = half + other.half_l * cos_abs + other.half_w * sin_abs - abs(p)
        dp = -n[1] * dx + n[0] * dy
        out.append((overlap, n, p, dp, other.half_l * d_cos + other.half_w * d_sin))
    return out


def _reference_gap(a: FootprintBox, b: FootprintBox, g: float) -> LossValue:
    # The signed separation of `refgeom.box_separation`: minus the least
    # projected overlap when the projections overlap on every edge normal,
    # else the least corner-to-box distance.
    overlaps = _reference_overlaps(a, b)
    if all(o[0] > 0.0 for o in overlaps):
        k = 0
        for i in range(1, 4):
            if overlaps[i][0] < overlaps[k][0]:
                k = i
        overlap, n, p, dp, d_ext = overlaps[k]
        r = -overlap - g
        k2 = 2.0 * r
        m = k2 * math.copysign(1.0, p)
        ga = np.array([-m * n[0], -m * n[1], -k2 * d_ext + m * dp if k < 2 else -k2 * d_ext])
        gb = np.array([m * n[0], m * n[1], k2 * d_ext if k < 2 else k2 * d_ext + m * dp])
        return LossValue(r * r, {"a": ga, "b": gb, "g": -2.0 * r})
    best = math.inf
    winner = None
    for box, other, slot_box, slot_other in ((a, b, "a", "b"), (b, a, "b", "a")):
        for sx, sy in _CORNER_SIGNS:
            offset = (sx * box.half_l, sy * box.half_w)
            value, g_box, g_other = _reference_corner_sdf_grads(box, offset, other)
            if value < best:
                best = value
                winner = {slot_box: g_box, slot_other: g_other}
    if winner is None:
        nan = np.full(3, math.nan)
        return LossValue(math.nan, {"a": nan, "b": nan.copy(), "g": math.nan})
    r = best - g
    out = {slot: 2.0 * r * grad for slot, grad in winner.items()}
    out["g"] = -2.0 * r
    return LossValue(r * r, out)


def _reference_against_wall(box: FootprintBox, wall: str, room: Room) -> LossValue:
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
    g = np.zeros(3)
    g[axis_i] = 2.0 * r
    g[2] = 2.0 * r * (-sign * dhalf) + math.sin(dth)
    return LossValue(value, {"box": g})


# The signs of each room corner's x and y offsets from its walls, kept
# apart from the library's wall tables.
_REFERENCE_CORNER_SIGNS = {"BL": (1.0, 1.0), "BR": (-1.0, 1.0), "TR": (-1.0, -1.0), "TL": (1.0, -1.0)}


def _reference_corner(box: FootprintBox, corner_tag: str, wall: str, room: Room) -> LossValue:
    sx, sy = _REFERENCE_CORNER_SIGNS[corner_tag]
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


def _reference_facing(a: FootprintBox, b: FootprintBox) -> LossValue:
    ca, sa = math.cos(a.pose.theta), math.sin(a.pose.theta)
    dx = b.pose.x - a.pose.x
    dy = b.pose.y - a.pose.y
    n = math.hypot(dx, dy)
    ga, gb = np.zeros(3), np.zeros(3)
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


def _reference_directional(src: FootprintBox, tgt: FootprintBox, direction: str, p: float, square: bool = False) -> LossValue:
    # `square` set: the objective's form, its alignment w^2, not |w|.
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
    value = hinge * hinge + (w * w if square else abs(w))

    h2 = 2.0 * hinge
    sw = 2.0 * w if square else math.copysign(1.0, w) if w != 0.0 else 0.0

    # Derivatives of the target-frame coordinates.
    dxp_src = np.array([ct, st])
    dyp_src = np.array([-st, ct])
    dxp_tth = yp
    dyp_tth = -xp
    dcoord_src = (dxp_src, dyp_src)
    dcoord_tth = (dxp_tth, dyp_tth)

    gsrc, gtgt = np.zeros(3), np.zeros(3)
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


def _reference_angle_offset(a: FootprintBox, b: FootprintBox, alpha: float) -> LossValue:
    d = a.pose.theta - b.pose.theta - alpha
    sd = math.sin(d)
    ga, gb = np.zeros(3), np.zeros(3)
    ga[2] = sd
    gb[2] = -sd
    return LossValue(1.0 - math.cos(d), {"a": ga, "b": gb, "alpha": -sd})


def _reference_placement(box: FootprintBox, axis: str, target: float, room: Room, margin: float) -> LossValue:
    axis_i = 0 if axis == "x" else 1
    span = room.length if axis_i == 0 else room.width
    coord = box.pose.x if axis_i == 0 else box.pose.y
    dev = coord - target
    z = abs(dev) - margin * span
    hinge = max(z, 0.0)
    g = np.zeros(3)
    sd = math.copysign(1.0, dev) if dev != 0.0 else 0.0
    g[axis_i] = 2.0 * hinge * sd
    return LossValue(hinge * hinge, {"box": g, "target": -2.0 * hinge * sd})


def _reference_around(sources: list, focal: FootprintBox, sweep: float, center: float) -> LossValue:
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


def _same(a, b) -> bool:
    """Equal float bits, the sign of zero included; any NaN equals any NaN."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def _assert_same_floats(got, want, context):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, context
    for g, w in zip(got.ravel().tolist(), want.ravel().tolist()):
        assert _same(g, w), (context, g, w)


def _assert_same_loss(lv, ref, context):
    _assert_same_floats(lv.value, ref.value, context)
    assert set(lv.grads) == set(ref.grads), context
    for key, want in ref.grads.items():
        _assert_same_floats(lv.grads[key], want, (context, key))


_QUARTER_TURNS = (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi, 1.5 * math.pi, 2.0 * math.pi)


def _kink_box(rng) -> FootprintBox:
    """A random box, half the time on a quarter-unit grid (exact touching,
    coincident centers), with a heading at a multiple of pi/2 a third of
    the time, and now and then a NaN in its pose."""
    if rng.random() < 0.5:
        x, y = 0.25 * float(rng.integers(-6, 7)), 0.25 * float(rng.integers(-6, 7))
        hl, hw = 0.25 * float(rng.integers(1, 5)), 0.25 * float(rng.integers(1, 5))
    else:
        x, y = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))
        hl, hw = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 1.0))
    theta = float(rng.choice(_QUARTER_TURNS)) if rng.random() < 1 / 3 else float(rng.uniform(-6, 6))
    pose = [x, y, theta]
    if rng.random() < 0.05:
        pose[int(rng.integers(0, 3))] = math.nan
    return box(*pose, hl, hw)


KINK_ROOM = Room(4.0, 3.0, 3.0)


def _kernel_boxes(boxes: list) -> list:
    return [kernel_box(b) for b in boxes]


# Per family: the kernel, keyed by slot, and the reference on (boxes,
# params), a draw of (boxes, params), and hand-picked kink cases.
_FAMILIES = {
    "collision": (
        lambda b, q: keyed(collision_loss(*_kernel_boxes(b)), ("a", "b")),
        lambda b, q: _reference_collision(*b),
        lambda rng: ([_kink_box(rng), _kink_box(rng)], ()),
        [
            ([box(0.0, 0.0, 0.0, 0.5, 0.5), box(1.0, 0.0, 0.0, 0.5, 0.5)], ()),  # touching on x
            ([box(0.0, 0.0, 0.5 * math.pi, 0.5, 0.25), box(0.0, 0.75, 0.0, 0.5, 0.5)], ()),  # touching on y
            ([box(1.0, 1.0, 0.0, 0.5, 0.25), box(1.0, 1.0, math.pi, 0.5, 0.25)], ()),  # coincident
            ([box(1.0, 1.0, 0.0, 0.5, 0.25), box(1.0, 1.0, 0.0, 0.25, 0.25)], ()),  # equal x extent
        ],
    ),
    "boundary": (
        lambda b, q: keyed(boundary_loss(kernel_box(b[0]), KINK_ROOM), ("box",)),
        lambda b, q: _reference_boundary(*b, KINK_ROOM),
        lambda rng: ([_kink_box(rng)], ()),
        [
            ([box(0.5, 1.0, 0.0, 0.5, 0.25)], ()),  # flush with the left wall
            ([box(3.75, 2.5, 0.5 * math.pi, 0.5, 0.25)], ()),  # flush with two walls
        ],
    ),
    "distance": (
        lambda b, q: keyed(distance_loss(_kernel_boxes(b), *q), ("a", "b"), "d"),
        lambda b, q: _reference_distance(*b, *q),
        lambda rng: ([_kink_box(rng), _kink_box(rng)], (float(rng.uniform(0.0, 2.0)),)),
        [([box(1.0, 1.0, 0.0, 0.5, 0.5), box(1.0, 1.0, 0.3, 0.25, 0.5)], (0.75,))],  # coincident
    ),
    "gap": (
        lambda b, q: keyed(gap_loss(_kernel_boxes(b), *q), ("a", "b"), "g"),
        lambda b, q: _reference_gap(*b, *q),
        lambda rng: ([_kink_box(rng), _kink_box(rng)], (float(rng.uniform(0.0, 0.6)),)),
        [
            ([box(0.0, 0.0, 0.0, 0.5, 0.5), box(1.0, 0.0, math.pi, 0.5, 0.5)], (0.0,)),  # touching
            ([box(0.0, 0.0, 0.0, 0.5, 0.5), box(0.0, 0.0, 0.0, 0.5, 0.5)], (0.25,)),  # coincident
            ([box(2.0, 2.0, 0.0, 2.0, 0.1), box(2.0, 2.0, 0.5 * math.pi, 2.0, 0.1)], (0.4,)),  # crossing
            ([box(1e5, -1e5, 0.3, 0.5, 0.25), box(1e5 + 0.9, -1e5, 1.2, 0.5, 0.25)], (0.1,)),  # far out
            ([box(1.0, 1.0, 0.0, 1e-3, 2e-3), box(1.0 + 3e-3, 1.0, 0.7, 2e-3, 1e-3)], (0.0,)),  # tiny
        ],
    ),
    "against_wall": (
        lambda b, q: keyed(against_wall_loss(_kernel_boxes(b), None, *_against_wall_rule(q[0], KINK_ROOM)), ("box",)),
        lambda b, q: _reference_against_wall(*b, q[0], KINK_ROOM),
        lambda rng: ([_kink_box(rng)], (str(rng.choice(list(WALL_RULES))),)),
        [([box(0.5, 1.0, 0.0, 0.5, 0.25)], ("L",)), ([box(3.5, 1.0, math.pi, 0.5, 0.25)], ("R",))],
    ),
    "corner": (
        lambda b, q: keyed(corner_loss(_kernel_boxes(b), None, *_corner_rule(*q, KINK_ROOM)), ("box",)),
        lambda b, q: _reference_corner(*b, *q, KINK_ROOM),
        lambda rng: ([_kink_box(rng)], (str(rng.choice(list(_REFERENCE_CORNER_SIGNS))), str(rng.choice(list(WALL_RULES))))),
        [([box(0.5, 0.25, 0.0, 0.5, 0.25)], ("BL", "L")), ([box(3.75, 2.5, 0.5 * math.pi, 0.5, 0.25)], ("TR", "R"))],
    ),
    "facing": (
        lambda b, q: keyed(facing_loss(_kernel_boxes(b), None), ("a", "b")),
        lambda b, q: _reference_facing(*b),
        lambda rng: ([_kink_box(rng), _kink_box(rng)], ()),
        [([box(1.0, 1.0, 0.5 * math.pi, 0.5, 0.5), box(1.0, 1.0, 0.0, 0.25, 0.5)], ())],  # coincident
    ),
    "directional": (
        # The penalty, which the report reads: hinge^2 + |w|.
        lambda b, q: LossValue(directional_loss(_kernel_boxes(b), q[1], *SIDE_RULES[q[0]])[3], {}),
        lambda b, q: LossValue(_reference_directional(*b, *q).value, {}),
        lambda rng: ([_kink_box(rng), _kink_box(rng)], (str(rng.choice(list(SIDE_RULES))), float(rng.uniform(0, 1)))),
        [
            # Hinge exactly 0 and w == 0: just clear of the left edge, centered.
            ([box(-0.75, 0.0, 0.0, 0.25, 0.25), box(0.0, 0.0, 0.0, 0.5, 0.5)], ("left_of", 0.5)),
            ([box(0.0, 0.75, math.pi, 0.25, 0.25), box(0.0, 0.0, 0.0, 0.5, 0.5)], ("behind_of", 0.5)),
            ([box(0.75, 0.25, 0.0, 0.25, 0.25), box(0.0, 0.0, 0.0, 0.5, 0.5)], ("right_of", 1.0)),
        ],
    ),
    "directional_squared": (
        lambda b, q: keyed(directional_loss(_kernel_boxes(b), q[1], *SIDE_RULES[q[0]]), ("src", "tgt"), "p"),
        lambda b, q: _reference_directional(*b, *q, square=True),
        lambda rng: ([_kink_box(rng), _kink_box(rng)], (str(rng.choice(list(SIDE_RULES))), float(rng.uniform(0, 1)))),
        [
            ([box(-0.75, 0.0, 0.0, 0.25, 0.25), box(0.0, 0.0, 0.0, 0.5, 0.5)], ("left_of", 0.5)),
            ([box(0.75, 0.25, 0.0, 0.25, 0.25), box(0.0, 0.0, 0.0, 0.5, 0.5)], ("right_of", 1.0)),
        ],
    ),
    "angle_offset": (
        lambda b, q: keyed(angle_offset_loss(_kernel_boxes(b), *q), ("a", "b"), "alpha"),
        lambda b, q: _reference_angle_offset(*b, *q),
        lambda rng: ([_kink_box(rng), _kink_box(rng)], (float(rng.choice([0.0, 0.5 * math.pi, rng.uniform(-3, 3)])),)),
        [([box(0.0, 0.0, 0.5 * math.pi, 0.5, 0.5), box(1.0, 0.0, 0.0, 0.5, 0.5)], (0.5 * math.pi,))],
    ),
    "placement": (
        lambda b, q: keyed(
            placement_loss(_kernel_boxes(b), q[1], *_placement_rule(q[0], KINK_ROOM, q[2])), ("box",), "target"
        ),
        lambda b, q: _reference_placement(*b, q[0], q[1], KINK_ROOM, q[2]),
        lambda rng: (
            [_kink_box(rng)],
            (str(rng.choice(["x", "y"])), 0.25 * float(rng.integers(-4, 5)), 0.125 * float(rng.integers(0, 3))),
        ),
        [
            ([box(2.5, 1.0, 0.0, 0.5, 0.5)], ("x", 2.0, 0.125)),  # hinge exactly 0
            ([box(2.0, 1.0, 0.0, 0.5, 0.5)], ("x", 2.0, 0.0)),  # deviation exactly 0
            ([box(2.0, 1.375, 0.0, 0.5, 0.5)], ("y", 1.0, 0.125)),
        ],
    ),
    "around": (
        lambda b, q: keyed_around(around_loss(_kernel_boxes(b), None, *q)),
        lambda b, q: _reference_around(b[:-1], b[-1], *q),
        lambda rng: (
            [_kink_box(rng) for _ in range(int(rng.integers(3, 6)))],
            (float(rng.uniform(0.0, 3.0)), float(rng.uniform(-1.0, 1.0))),
        ),
        [
            # A source on the focal's center, and two on one ray.
            ([box(0.0, 0.0, 0.0, 0.2, 0.2), box(1.0, 0.0, 0.0, 0.2, 0.2), box(2.0, 0.0, 0.0, 0.2, 0.2),
              box(0.0, 0.0, 0.5 * math.pi, 0.4, 0.4)], (2.0, 0.0)),
        ],
    ),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_adapters_match_the_numpy_reference_bitwise(family):
    # Named for the FootprintBox adapters the kernels replaced.
    kernel, reference, draw, kinks = _FAMILIES[family]
    rng = np.random.default_rng(RNG_SEED + 40 + sorted(_FAMILIES).index(family))
    cases = kinks + [draw(rng) for _ in range(400)]
    for boxes, params in cases:
        _assert_same_loss(kernel(boxes, params), reference(boxes, params), (family, boxes, params))


def _every_kind_scene():
    """One relation of every kind between independent assets; a distance
    and a directional relation bind shared parameters."""
    return parse_scene(
        """
        {
          "room": {"length": 6.0, "width": 5.0, "height": 3.0},
          "assets": [
            {"id": "a", "size": [1.0, 0.5, 0.5]},
            {"id": "b", "size": [0.5, 0.5, 0.5]},
            {"id": "c", "size": [1.5, 1.0, 0.5]},
            {"id": "d", "size": [0.5, 1.0, 0.5]},
            {"id": "e", "size": [1.0, 1.0, 0.5]}
          ],
          "relations": [
            {"kind": "distance", "source": "b", "target": "a", "params": {"d": 1.0}, "shared_param": "reach"},
            {"kind": "gap", "source": "c", "target": "a", "params": {"g": 0.25}},
            {"kind": "against_wall", "source": "d", "target": "wall:R"},
            {"kind": "corner", "source": "e", "target": "corner:TL", "params": {"wall": "T"}},
            {"kind": "facing", "source": "a", "target": "c"},
            {"kind": "left_of", "source": "b", "target": "a", "params": {"p": 0.25}, "shared_param": "side"},
            {"kind": "right_of", "source": "c", "target": "b"},
            {"kind": "in_front_of", "source": "d", "target": "e", "params": {"p": 0.75}},
            {"kind": "behind_of", "source": "e", "target": "d", "params": {"p": 0.0}},
            {"kind": "angle_offset", "source": "a", "target": "b", "params": {"alpha": 0.5}},
            {"kind": "h_place", "source": "a", "target": "scene", "params": {"x": 2.0, "margin": 0.125}},
            {"kind": "v_place", "source": "b", "target": "scene", "params": {"y": 3.0}},
            {"kind": "around", "source": "c", "target": "a",
             "params": {"group": "ring", "sweep": 2.0, "center": 0.25}},
            {"kind": "around", "source": "d", "target": "a",
             "params": {"group": "ring", "sweep": 2.0, "center": 0.25}},
            {"kind": "around", "source": "e", "target": "a",
             "params": {"group": "ring", "sweep": 2.0, "center": 0.25}}
          ]
        }
        """
    )


def _reference_term(spec, block, term, boxes, xs, square=False):
    """The reference loss of a plan term on FootprintBoxes by entity id, its
    gradient per end box, and its parameter gradient (None if unshared); a
    directional term's alignment squared when `square` is set, as the
    objective has it, else as the penalty report has it."""
    if term.kernel == "around_loss":
        *sources, focal = (block.ids[k] for k in term.ends)
        rel = next(r for r in spec.relations if r.kind == "around" and r.source == sources[0])
        ref = _reference_around([boxes[e] for e in sources], boxes[focal], rel.params["sweep"], rel.params["center"])
        return ref, [*ref.grads["sources"], ref.grads["focal"]], None
    rel = spec.relations[int(term.label[len("relations[") : -1])]
    v = xs[term.param] if term.param is not None else rel.params.get(SHARED_PARAM_SLOTS.get(rel.kind))
    src, tgt, room, kind = boxes[rel.source], boxes.get(rel.target), spec.room, rel.kind
    if kind == "against_wall":
        ref, slots = _reference_against_wall(src, rel.target.removeprefix("wall:"), room), ("box",)
    elif kind == "corner":
        ref, slots = _reference_corner(src, rel.target.removeprefix("corner:"), rel.params["wall"], room), ("box",)
    elif kind in ("h_place", "v_place"):
        axis = "x" if kind == "h_place" else "y"
        ref, slots = _reference_placement(src, axis, v, room, rel.params["margin"]), ("box", "target")
    elif kind in SIDE_RULES:
        ref, slots = _reference_directional(src, tgt, kind, v, square), ("src", "tgt", "p")
    elif kind == "facing":
        ref, slots = _reference_facing(src, tgt), ("a", "b")
    else:
        loss = {"distance": _reference_distance, "gap": _reference_gap, "angle_offset": _reference_angle_offset}[kind]
        ref, slots = loss(src, tgt, v), ("a", "b", SHARED_PARAM_SLOTS[kind])
    n = len(term.ends)
    param_grad = ref.grads[slots[n]] if term.param is not None else None
    return ref, [ref.grads[slot] for slot in slots[:n]], param_grad


def _reference_aggregate(spec, index, block, x, weights):
    """A block's objective on FootprintBoxes through the reference losses,
    over all pairs, adding numpy gradient rows: the aggregation the kernels
    replaced."""
    xs = x.tolist()
    boxes, offsets, rows = {}, {}, {}
    for eid, r, halves, frame in zip(block.ids, block.rows, block.halves, block.frames):
        rows[eid] = None if r is None else slice(r, r + 3)
        pose = Pose2D(0.0, 0.0, 0.0) if r is None else Pose2D(*xs[r : r + 3])
        if frame is None:
            boxes[eid] = FootprintBox(pose, *halves)
            continue
        members = [(0.0, 0.0, 0.0) if m is None else xs[m : m + 3] for m in frame.rows]
        pts = np.array(
            [p for (mx, my, mt), (hl, hw) in zip(members, frame.halves) for p in geometry.corner_points(mx, my, mt, hl, hw)]
        )
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        offsets[eid] = off = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        c, s = math.cos(pose.theta), math.sin(pose.theta)
        carried = Pose2D(pose.x + c * off[0] - s * off[1], pose.y + s * off[0] + c * off[1], pose.theta)
        boxes[eid] = FootprintBox(carried, float(half[0]), float(half[1]))

    def pull(eid, g):
        if eid not in offsets:
            return g
        off = offsets[eid]
        c, s = math.cos(boxes[eid].pose.theta), math.sin(boxes[eid].pose.theta)
        return np.array([g[0], g[1], g[0] * (-s * off[0] - c * off[1]) + g[1] * (c * off[0] - s * off[1]) + g[2]])

    grad = np.zeros(len(xs))
    totals = {"boundary": 0.0, "collision": 0.0, "relation": 0.0}
    if block.unit is None and weights.boundary != 0.0:
        for eid in block.ids:
            lv = _reference_boundary(boxes[eid], spec.room)
            totals["boundary"] += lv.value
            grad[rows[eid]] += weights.boundary * pull(eid, lv.grads["box"])
    if weights.collision != 0.0:
        for i, a in enumerate(block.ids):
            for b in block.ids[i + 1 :]:
                lv = _reference_collision(boxes[a], boxes[b])
                totals["collision"] += lv.value
                for eid, g in ((a, lv.grads["a"]), (b, lv.grads["b"])):
                    if rows[eid] is not None:
                        grad[rows[eid]] += weights.collision * pull(eid, g)
    if weights.relation != 0.0:
        for term in block.terms:
            ref, end_grads, param_grad = _reference_term(spec, block, term, boxes, xs, square=True)
            totals["relation"] += ref.value
            for k, g in zip(term.ends, end_grads):
                eid = block.ids[k]
                if rows[eid] is not None:
                    grad[rows[eid]] += pull(eid, weights.relation * np.asarray(g))
            if param_grad is not None:
                grad[term.param] += weights.relation * param_grad
    if block.unit is None:
        value = (
            weights.boundary * totals["boundary"]
            + weights.collision * totals["collision"]
            + weights.relation * totals["relation"]
        )
        return value, grad, totals
    del totals["boundary"]
    return weights.collision * totals["collision"] + weights.relation * totals["relation"], grad, totals


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_aggregates_match_the_numpy_reference_bitwise(name):
    spec = _bundled(name)
    index = param_index(spec)
    rng = np.random.default_rng(RNG_SEED + 61)
    for seed in range(3):
        x = init_state(spec, seed).x.copy()
        x[: index.pose_size] += rng.normal(0.0, 0.4, index.pose_size)
        for weights in (Weights(), Weights(collision=0.0, boundary=0.0), Weights(collision=1.3, relation=0.8, boundary=1.7)):
            for unit_id, block in index.blocks.items():
                lv = aggregate_global(spec, index, x, weights) if unit_id is None else aggregate_local(spec, unit_id, index, x, weights)
                value, grad, terms = _reference_aggregate(spec, index, block, x, weights)
                context = (seed, weights, unit_id)
                _assert_same_floats(lv.value, value, context)
                _assert_same_floats(lv.grads, grad, context)
                assert lv.terms.keys() == terms.keys(), context
                _assert_same_floats(list(lv.terms.values()), [terms[k] for k in lv.terms], context)


def test_term_loss_matches_the_numpy_reference_bitwise():
    spec = _every_kind_scene()
    index = param_index(spec)
    block = index.blocks[None]
    assert {t.kernel for t in block.terms} == {
        "distance_loss", "gap_loss", "against_wall_loss", "corner_loss", "facing_loss", "directional_loss",
        "angle_offset_loss", "placement_loss", "around_loss",
    }
    rng = np.random.default_rng(RNG_SEED + 60)
    for trial in range(200):
        poses = {}
        for a in spec.assets:
            b = _kink_box(rng)
            poses[a.id] = (b.pose.x + 3.0, b.pose.y + 2.5, b.pose.theta)
        shared = {"reach": float(rng.uniform(0.5, 1.5)), "side": float(rng.choice([0.0, 0.5, rng.uniform()]))}
        _, x = _vector(spec, poses, shared)
        xs = x.tolist()
        boxes = {eid: box(*poses[eid], *_halves_of(spec, eid)) for eid in block.ids}
        kernel_boxes = [kernel_box(boxes[eid]) for eid in block.ids]
        for term in block.terms:
            # The value and gradients in the objective's form, the penalty
            # in the report's.
            value, grads, param_grad, penalty = _term_loss(term, kernel_boxes, xs)
            ref, ref_grads, ref_param = _reference_term(spec, block, term, boxes, xs, square=True)
            context = (trial, term.label)
            _assert_same_floats(value, ref.value, context)
            _assert_same_floats(penalty, _reference_term(spec, block, term, boxes, xs)[0].value, context)
            assert len(grads) == len(ref_grads) == len(term.ends), context
            for g, want in zip(grads, ref_grads):
                _assert_same_floats(g, want, context)
            if term.param is not None:
                _assert_same_floats(param_grad, ref_param, context)


def _report_matches_the_reference(index, spec, xs, context):
    """Every penalty `relation_penalties` reports at `xs` is, bit for bit,
    the numpy reference's value in the report's form: a directional term's
    hinge^2 + |w|."""
    pens = relation_penalties(index, np.array(xs))
    directional = 0
    for block in index.blocks.values():
        kernel_boxes, _ = _block_boxes(block, xs)
        boxes = {eid: box(*k) for eid, k in zip(block.ids, kernel_boxes)}
        for term in block.terms:
            ref, _, _ = _reference_term(spec, block, term, boxes, xs)
            _assert_same_floats(pens[term.label], ref.value, (context, term.label))
            directional += term.kernel == "directional_loss"
    return directional


def test_relation_penalties_keep_the_report_form_bitwise():
    # The objective squares a directional term's alignment; the penalty
    # report, and so "satisfied", keeps hinge^2 + |w|: on random poses of a
    # scene with every kind, and at the final states of default solves of
    # the five fixtures.
    spec = _every_kind_scene()
    index = param_index(spec)
    rng = np.random.default_rng(RNG_SEED + 63)
    for trial in range(200):
        poses = {}
        for a in spec.assets:
            b = _kink_box(rng)
            poses[a.id] = (b.pose.x + 3.0, b.pose.y + 2.5, b.pose.theta)
        shared = {"reach": float(rng.uniform(0.5, 1.5)), "side": float(rng.uniform())}
        _, x = _vector(spec, poses, shared)
        assert _report_matches_the_reference(index, spec, x.tolist(), trial) == 4
    seen = 0
    for name in FIXTURE_NAMES:
        spec = _bundled(name)
        for seed in range(3):
            config = OptimizerConfig(seed=seed)
            state, imagined = optimizer._start(spec, config)
            _, trace = optimizer._run(state, config, False, imagined)
            assert repr(relation_penalties(state.index, state.x)) == repr(trace.final_penalties)
            seen += _report_matches_the_reference(state.index, spec, state.x.tolist(), (name, seed))
    assert seen > 0


def _halves_of(spec, eid):
    a = spec.asset(eid)
    return a.half_l, a.half_w


def _kernel_outputs(spec, block, k, xs) -> list:
    """Every kernel call on box k of `block` at `xs`: its collision with
    each other box, its boundary term, then each relation term that ends on
    it, as (value, flat floats, whether the kernel reads k's heading)."""
    boxes, _ = _block_boxes(block, xs)
    calls = [(collision_loss(boxes[k], b), True) for j, b in enumerate(boxes) if j != k]
    calls.append((boundary_loss(boxes[k], spec.room), True))
    for term in block.terms:
        if k in term.ends:
            reads = term.kernel not in ("distance_loss", "placement_loss")
            if term.kernel == "facing_loss":
                reads = term.ends[0] == k
            calls.append((_term_loss(term, boxes, xs), reads))
    out = []
    for (value, grads, param_grad, *penalty), reads in calls:
        floats = [v for g in grads for v in g] + penalty
        if param_grad is not None:
            floats += np.atleast_1d(param_grad).tolist()
        out.append((value, floats, reads))
    return out


def test_infinite_heading_reads_as_nan_in_the_adapters():
    # A box that `_block_boxes` builds from an infinite heading has a NaN
    # one.  Every kernel on it gives the bits it gives on a NaN heading, a
    # NaN value wherever it reads that heading, and none raises.
    spec = _every_kind_scene()
    index = param_index(spec)
    block = index.blocks[None]
    x = init_state(spec, 0).x
    for k, eid in enumerate(block.ids):
        heading = index.pose[eid].start + 2
        nan_x = x.copy()
        nan_x[heading] = math.nan
        expect = _kernel_outputs(spec, block, k, nan_x.tolist())
        for inf in (math.inf, -math.inf):
            bad = x.copy()
            bad[heading] = inf
            assert math.isnan(_block_boxes(block, bad.tolist())[0][k][2])
            got = _kernel_outputs(spec, block, k, bad.tolist())
            assert len(got) == len(expect) == len(block.ids) + sum(k in t.ends for t in block.terms)
            for (value, floats, reads), (want, want_floats, _) in zip(got, expect):
                _assert_same_floats([value, *floats], [want, *want_floats], (eid, inf))
                assert math.isnan(value) or not reads, (eid, inf)


def test_around_loss_matches_the_numpy_bookkeeping_reference_bitwise():
    # The per-source derivatives are plain floats; every numpy reduction is
    # the reference's, so value and gradients agree by repr, on 2-7 sources,
    # a source on the focal, a zero sweep, NaN in any pose slot and an
    # infinite x or y.  (An infinite heading never reaches a kernel:
    # `_block_boxes` reads it as NaN.)
    rng = np.random.default_rng(RNG_SEED + 62)
    for case in range(3000):
        n = int(rng.integers(2, 8))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        boxes = [
            [float(rng.normal(0.0, scale)), float(rng.normal(0.0, scale)), float(rng.uniform(-4.0, 4.0)), 0.5, 0.3]
            for _ in range(n + 1)
        ]
        j = int(rng.integers(0, n + 1))
        mode = case % 5
        if mode == 1 and j < n:
            boxes[j][:2] = boxes[-1][:2]
        elif mode == 2:
            boxes[j][int(rng.integers(0, 3))] = math.nan
        elif mode == 3:
            boxes[j][int(rng.integers(0, 2))] = float(rng.choice([math.inf, -math.inf]))
        elif mode == 4:
            boxes[j][2] = float(rng.choice([0.0, -0.0, math.pi, -0.5 * math.pi]))
        sweep = float(rng.choice([0.0, 1e-10, rng.uniform(0.0, 2.0 * math.pi), 2.0 * math.pi]))
        center = float(rng.uniform(-4.0, 4.0))
        boxes = [tuple(b) for b in boxes]
        with np.errstate(invalid="ignore"):
            got = around_loss(boxes, None, sweep, center)
            want = reference_around_loss(boxes, None, sweep, center)
        assert repr(got) == repr(want), (case, boxes, sweep, center)
