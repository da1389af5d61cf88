"""Placement interpreter, cognitive maps, conflict detection, revision loop."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from layoutopt import geometry
from layoutopt.constraints import param_index, relation_penalties
from layoutopt.errors import RevisionError, SceneSemanticError, SceneSyntaxError
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
    RevisionReport,
    RevisionRound,
    _check_locality,
    _describe,
    _rel_key,
    baseline_reviser,
    build_maps,
    detect_conflicts,
    imagine_and_revise,
    interpret_scene,
)
from layoutopt.optimizer import OptimizerConfig, init_state, solve
from layoutopt.scene_model import (
    DEFAULT_P,
    DIRECTIONAL_KINDS,
    Asset,
    Relation,
    Room,
    SceneSpec,
    Unit,
    parse_scene,
    serialize_scene,
)


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


def test_interpreter_reads_the_default_p_of_a_hand_built_scene():
    # A hand-built scene may omit a directional relation's optional p; the
    # interpreter and the penalties read the parser's default for it.
    parsed = load_fixture("dining_set")
    stripped = dataclasses.replace(
        parsed,
        relations=tuple(
            dataclasses.replace(r, params={k: v for k, v in r.params.items() if k != "p"})
            for r in parsed.relations
        ),
    )
    assert sum(r.kind in DIRECTIONAL_KINDS for r in stripped.relations) == 4
    assert all(r.params["p"] == DEFAULT_P for r in parsed.relations if r.kind in DIRECTIONAL_KINDS)
    assert interpret_scene(stripped) == interpret_scene(parsed)
    x = init_state(parsed, 0).x
    assert relation_penalties(stripped, param_index(stripped), x) == relation_penalties(parsed, param_index(parsed), x)


def _bits(v) -> bytes:
    return struct.pack("<d", v)


def test_a_hand_built_scene_without_optional_params_places_and_solves_as_parsed():
    # A hand-built scene may omit every optional param, a placement's margin
    # as well as a directional p: the interpreter and the solver read the
    # parser's defaults, bit for bit.
    parsed = load_fixture("dining_set")
    stripped = parsed.with_relations(
        dataclasses.replace(r, params={k: v for k, v in r.params.items() if k not in ("margin", "p")})
        for r in parsed.relations
    )
    assert sum("margin" in r.params for r in parsed.relations) == 2
    assert not any("margin" in r.params or "p" in r.params for r in stripped.relations)
    want, got = interpret_scene(parsed), interpret_scene(stripped)
    assert list(got) == list(want)
    for eid, p in want.items():
        q = got[eid]
        assert [_bits(v) for v in (q.x, q.y, q.theta)] == [_bits(v) for v in (p.x, p.y, p.theta)], eid
    config = OptimizerConfig(iterations=30)
    (layout_a, trace_a), (layout_b, trace_b) = solve(parsed, config), solve(stripped, config)
    assert len(trace_b.rows) == len(trace_a.rows)
    for a, b in zip(trace_a.rows, trace_b.rows):
        assert [_bits(v) for v in dataclasses.astuple(b)] == [_bits(v) for v in dataclasses.astuple(a)]
    assert layout_b.poses == layout_a.poses


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


# --- incremental revision against the whole-scene round trip ---------------


def _reference_imagine_and_revise(spec, reviser=baseline_reviser, budget=10):
    """Reference revision loop: every round runs the whole scene through
    the parser, and the relation diff tests membership in lists."""
    current = spec
    rounds = []
    for t in range(1, budget + 1):
        poses = interpret_scene(current)
        conflicts = detect_conflicts(current, *build_maps(current, poses))
        if not conflicts:
            rounds.append(RevisionRound(t, (), ()))
            return current, RevisionReport(True, t, tuple(rounds))
        new_relations = tuple(reviser(current, conflicts))
        old_keys = [_rel_key(r) for r in current.relations]
        new_keys = [_rel_key(r) for r in new_relations]
        removed = [r for r, k in zip(current.relations, old_keys) if k not in new_keys]
        added = [r for r, k in zip(new_relations, new_keys) if k not in old_keys]
        edits = [f"- {_describe(r)}" for r in removed] + [f"+ {_describe(r)}" for r in added]
        _check_locality(removed, added, conflicts)
        try:
            current = parse_scene(serialize_scene(current.with_relations(new_relations)))
        except (SceneSyntaxError, SceneSemanticError) as exc:
            raise RevisionError(f"reviser produced an invalid scene: {exc}") from exc
        rounds.append(RevisionRound(t, tuple(conflicts), tuple(edits)))
    return current, RevisionReport(False, budget, tuple(rounds))


def _crowded_scene():
    """Unparsed scene that revises in every round: intra and inter
    conflicts, int params, an omitted optional p (its shared parameter is
    declared on an earlier relation) and an around group."""
    box = (1.0, 1.0, 1.0)
    stool = (0.4, 0.4, 0.5)
    return _scene(
        Room(6.0, 5.0, 3.0),
        (
            Asset("a", "box", box),
            Asset("b", "box", box),
            Asset("c", "box", (0.6, 0.6, 0.6)),
            Asset("e", "box", (0.5, 0.5, 0.5)),
            Asset("t", "table", (1.2, 0.8, 0.7)),
            Asset("s1", "stool", stool),
            Asset("s2", "stool", stool),
            Asset("s3", "stool", stool),
            Asset("k1", "chair", stool),
            Asset("k2", "chair", stool),
        ),
        units=(Unit("u", "t", ("s1", "s2", "s3", "k1", "k2")),),
        relations=(
            Relation("h_place", "a", "scene", {"x": 3, "margin": 0}, "inter"),
            Relation("v_place", "a", "scene", {"y": 2}, "inter"),
            Relation("distance", "s1", "t", {"d": 0.2}, "intra", "u"),
            Relation("distance", "b", "a", {"d": 0}, "inter"),
            Relation("left_of", "c", "a", {"p": 0.3}, "inter", shared_param="s"),
            Relation("left_of", "e", "b", {}, "inter", shared_param="s"),
            Relation("right_of", "s2", "t", {"p": 1}, "intra", "u"),
            Relation("distance", "s3", "s2", {"d": 0.1}, "intra", "u"),
            Relation("around", "k1", "t", {"group": "ring", "sweep": 1, "center": 0}, "intra", "u"),
            Relation("around", "k2", "t", {"group": "ring", "sweep": 1, "center": 0}, "intra", "u"),
            Relation("h_place", "u", "scene", {"x": 2.8}, "inter"),
        ),
    )


def _reversed_reviser(s, conflicts):
    return tuple(reversed(baseline_reviser(s, conflicts)))


def _copying_reviser(s, conflicts):
    """Equal relations, every one a new object."""
    return tuple(
        Relation(r.kind, r.source, r.target, dict(r.params), r.scope, r.unit, r.shared_param)
        for r in baseline_reviser(s, conflicts)
    )


def _relation_index(relations, kind, source, target):
    return next(
        i for i, r in enumerate(relations) if (r.kind, r.source, r.target) == (kind, source, target)
    )


def _in_place_reviser(s, conflicts):
    """Also sets a carried-over distance to the int 2, in place: the parser
    turns it into 2.0, so only a revalidated relation reads the same."""
    out = baseline_reviser(s, conflicts)
    out[_relation_index(out, "distance", "s3", "s2")].params["d"] = 2
    return out


@pytest.mark.parametrize("parsed", [True, False], ids=["parsed", "hand_built"])
@pytest.mark.parametrize(
    "reviser",
    [baseline_reviser, _reversed_reviser, _copying_reviser, _in_place_reviser],
    ids=["baseline", "reversed", "copying", "in_place"],
)
def test_revision_matches_whole_scene_round_trip(parsed, reviser):
    outputs = []
    for loop in (imagine_and_revise, _reference_imagine_and_revise):
        spec = _crowded_scene()
        if parsed:
            spec = parse_scene(serialize_scene(spec))
        revised, report = loop(spec, reviser=reviser)
        outputs.append(_outputs(revised, report))
        assert sum(1 for r in report.rounds if r.edits) >= 3
    assert outputs[0] == outputs[1]


def _outputs(revised, report):
    return repr(revised), serialize_scene(revised), report.to_text()


def test_revision_matches_round_trip_on_fixtures():
    for name in FIXTURE_NAMES:
        new = imagine_and_revise(load_fixture(name))
        ref = _reference_imagine_and_revise(load_fixture(name))
        assert _outputs(*new) == _outputs(*ref), name
    noop = lambda s, c: s.relations  # noqa: E731
    new = imagine_and_revise(load_fixture("conflict_pair"), reviser=noop, budget=4)
    ref = _reference_imagine_and_revise(load_fixture("conflict_pair"), reviser=noop, budget=4)
    assert _outputs(*new) == _outputs(*ref)


def test_revision_edits_hold_plain_floats():
    # A unit's stand-in box has numpy coordinates; the edits derived from
    # it must not carry numpy scalars into the relations or the report.
    types = set()

    def recording(s, conflicts):
        out = baseline_reviser(s, conflicts)
        types.update(type(v) for r in out for v in r.params.values())
        return out

    _, report = imagine_and_revise(parse_scene(serialize_scene(_crowded_scene())), recording)
    assert types == {float, str}
    text = report.to_text()
    assert "+ inter gap u->a (g=" in text
    assert "np." not in text


def _late(bad):
    """Reviser that acts as the baseline one, then applies `bad` to its
    output from round 2 on."""
    calls = []

    def reviser(s, conflicts):
        calls.append(None)
        out = list(baseline_reviser(s, conflicts))
        if len(calls) >= 2:
            bad(out)
        return tuple(out)

    return reviser


def _mutate_d(out):
    out[_relation_index(out, "distance", "s3", "s2")].params["d"] = -1


@pytest.mark.parametrize(
    "bad, location",
    [
        (lambda o: o.append(Relation("distance", "ghost", "a", {"d": 1.0})), "].source"),
        (lambda o: o.append(Relation("distance", "c", "a", {"d": -0.5})), "].params.d"),
        (lambda o: o.append(Relation("distance", "c", "a", {"d": math.nan})), "].params.d"),
        (lambda o: o.append(Relation("distance", "c", "a", {"d": [1.0]})), "].params.d"),
        (lambda o: o.append(Relation("gap", "s1", "a", {"g": 0.1})), "].source"),
        (lambda o: o.pop(_relation_index(o, "around", "k2", "t")), "]"),
        (lambda o: o.append(Relation("gap", "c", "b", {"g": 0.1}, shared_param="s")), "shared_param"),
        (_mutate_d, "].params.d"),
    ],
    ids=[
        "unknown_entity",
        "negative_d",
        "nan_d",
        "unhashable_d",
        "inter_names_member",
        "around_one_source",
        "shared_mixes_kinds",
        "mutated_in_place",
    ],
)
def test_late_invalid_revision_raises_as_round_trip(bad, location):
    messages = []
    for loop in (imagine_and_revise, _reference_imagine_and_revise):
        spec = parse_scene(serialize_scene(_crowded_scene()))
        with pytest.raises(RevisionError) as info:
            loop(spec, reviser=_late(bad))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("reviser produced an invalid scene: relations[")
    assert location in messages[0]
