"""Placement interpreter, cognitive maps, conflict detection, revision loop."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from layoutopt import constraints, geometry, imagination, scene_model
from layoutopt.constraints import param_index, relation_penalties
from layoutopt.errors import MissingEntityError, RevisionError, SceneSemanticError, SceneSyntaxError
from layoutopt.fixtures import FIXTURE_NAMES, load_fixture
from layoutopt.geometry import (
    Pose2D,
    compose,
    half_extents,
    normalize_angle,
    polygon_intersection_area,
)
from layoutopt.imagination import (
    _DISTANCE_CYCLE,
    _GAP_CYCLE,
    RING_CLEARANCE,
    SIDE_CLEARANCE,
    CognitiveMap,
    Conflict,
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
    SCENE_ANCHORED_KINDS,
    SHARED_PARAM_SLOTS,
    Asset,
    Relation,
    Room,
    SceneSpec,
    Unit,
    parse_scene,
    relation_params,
    relation_terms,
    serialize_scene,
    shared_param_priors,
)
from refgeom import FootprintBox, axis_bounds, collide_proxy, outline


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


@pytest.mark.parametrize("call", [param_index, interpret_scene, solve, imagine_and_revise])
@pytest.mark.parametrize(
    "ghost, where",
    [
        (Relation("distance", "dining", "ghost", {"d": 1.0}), "the scene"),
        (Relation("distance", "chair_n", "ghost", {"d": 1.0}, "intra", "dining"), "unit 'dining'"),
    ],
    ids=["inter", "intra"],
)
def test_a_relation_naming_a_missing_entity_raises_missing_entity_error(call, ghost, where):
    # Only a hand-built scene gets here: the parser checks every endpoint.
    spec = load_fixture("dining_set")
    spec = spec.with_relations(spec.relations + (ghost,))
    with pytest.raises(MissingEntityError) as info:
        call(spec)
    label = f"relations[{len(spec.relations) - 1}]"
    assert str(info.value) == f"{label} names 'ghost', not an entity of {where}"


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


def _bounds(box):
    """Axis-aligned proxy bounds of a kernel box."""
    return axis_bounds(FootprintBox(Pose2D(*box[:3]), box[3], box[4]))


def test_maps_axis_aligned_extents_equal_sizes():
    spec = _scene(
        Room(8.0, 8.0, 3.0),
        (Asset("a", "crate", (1.2, 0.8, 1.0)), Asset("b", "crate", (0.6, 0.6, 1.0))),
    )
    poses = {"a": Pose2D(2.0, 2.0, 0.0), "b": Pose2D(6.0, 6.0, 0.0)}
    _, gm = build_maps(spec, poses)
    for eid, extents in (("a", (1.2, 0.8)), ("b", (0.6, 0.6))):
        bx, by = _bounds(gm.entries[eid])
        assert (bx.hi - bx.lo, by.hi - by.lo) == pytest.approx(extents)
    assert gm.scope == "scene"


def test_member_bounds_nest_inside_unit_global_bounds():
    spec = load_fixture("dining_set")
    poses = interpret_scene(spec)
    local_maps, gm = build_maps(spec, poses)
    frame = Pose2D(*local_maps["dining"].frame)
    assert frame == poses["dining"]
    gx, gy = _bounds(gm.entries["dining"])
    for x, y, theta, half_l, half_w in local_maps["dining"].entries.values():
        world = compose(frame, Pose2D(x, y, theta))
        _, wm = build_maps(
            _scene(spec.room, (Asset("probe", "probe", (2 * half_l, 2 * half_w, 1.0)),)),
            {"probe": world},
        )
        bx, by = _bounds(wm.entries["probe"])
        assert gx.lo <= bx.lo + 1e-9 and bx.hi <= gx.hi + 1e-9
        assert gy.lo <= by.lo + 1e-9 and by.hi <= gy.hi + 1e-9


def test_maps_frozen_dining_bounds():
    spec = load_fixture("dining_set")
    poses = interpret_scene(spec)
    local_maps, gm = build_maps(spec, poses)
    bx, by = _bounds(local_maps["dining"].entries["chair_w"])
    assert (bx.lo, bx.hi) == pytest.approx((-1.26, -0.81))
    assert (by.lo, by.hi) == pytest.approx((-0.225, 0.225))
    gx, gy = _bounds(gm.entries["dining"])
    assert (gx.lo, gx.hi) == pytest.approx((3.0 - 1.26, 3.0 + 1.26))
    assert (gy.lo, gy.hi) == pytest.approx((3.0 - 0.91, 3.0 + 0.91))


def test_maps_missing_pose_raises():
    spec = load_fixture("dining_set")
    with pytest.raises(MissingEntityError):
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


def _comb_scene():
    """Interleaved comb: two units whose stand-in boxes overlap by
    construction while every member pair stays clear, and its poses."""
    assets = tuple(Asset(aid, "post", (0.4, 0.4, 1.0)) for aid in ("ta", "ma", "tb", "mb"))
    units = (Unit("ua", "ta", ("ma",)), Unit("ub", "tb", ("mb",)))
    poses = {
        "ua": Pose2D(2.0, 2.0, 0.0),
        "ma": Pose2D(2.0, 0.0, 0.0),
        "ub": Pose2D(3.0, 2.0, 0.0),
        "mb": Pose2D(2.0, 0.0, 0.0),
    }
    return _scene(Room(10.0, 10.0, 3.0), assets, units), poses


def test_unit_overlap_without_member_overlap_not_confirmed():
    # The coarse conflict of the comb's stand-ins must be dropped.
    spec, poses = _comb_scene()
    local_maps, gm = build_maps(spec, poses)
    ax = _bounds(gm.entries["ua"])[0]
    bx = _bounds(gm.entries["ub"])[0]
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
        area = polygon_intersection_area(outline(boxes[0]), outline(boxes[1]))
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


def test_revision_with_mixed_type_param_keys_raises():
    spec = load_fixture("conflict_pair")

    def bad(s, conflicts):
        return tuple(s.relations) + (
            Relation("distance", "desk", "sofa", {"d": 1.0, 1: 2.0, "x": 1}, "inter"),
        )

    with pytest.raises(RevisionError, match=re.escape("relations[5].params: unknown keys [1, 'x']")):
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


def test_in_place_nonlocal_revision_raises():
    # Only an intra conflict is open; an inter relation whose params the
    # reviser sets in place is an edit outside the conflicting scopes too.
    def scene():
        return _scene(
            Room(6.0, 5.0, 3.0),
            (
                Asset("t", "table", (1.2, 0.8, 0.7)),
                Asset("s", "stool", (0.4, 0.4, 0.5)),
                Asset("a", "box", (1.0, 1.0, 1.0)),
            ),
            units=(Unit("u", "t", ("s",)),),
            relations=(
                Relation("distance", "s", "t", {"d": 0.0}, "intra", "u"),
                Relation("h_place", "a", "scene", {"x": 5.0}, "inter"),
                Relation("h_place", "u", "scene", {"x": 1.5}, "inter"),
            ),
        )

    spec = scene()
    assert [c.level for c in detect_conflicts(spec, *build_maps(spec, interpret_scene(spec)))] == ["intra"]

    def in_place(s, conflicts):
        out = baseline_reviser(s, conflicts)
        out[_relation_index(out, "h_place", "a", "scene")].params["x"] = 4.0
        return out

    for loop in (imagine_and_revise, _reference_imagine_and_revise):
        with pytest.raises(RevisionError, match=r"inter h_place a->scene \(x=5\.0\) outside"):
            loop(scene(), reviser=in_place)


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
        old_keys = [_rel_key(r) for r in current.relations]
        new_relations = tuple(reviser(current, conflicts))
        new_keys = [_rel_key(r) for r in new_relations]
        removed = [k for k in old_keys if k not in new_keys]
        added = [k for k in new_keys if k not in old_keys]
        edits = [f"- {_describe(k)}" for k in removed] + [f"+ {_describe(k)}" for k in added]
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


@pytest.mark.parametrize(
    "make", [lambda: load_fixture("conflict_pair"), _crowded_scene], ids=["parsed", "hand_built"]
)
def test_revision_replaces_only_relations(make):
    spec = make()
    revised, report = imagine_and_revise(spec)
    assert report.rounds[0].edits
    assert revised.room is spec.room
    assert revised.assets is spec.assets
    assert revised.units is spec.units
    assert (revised.seed, revised.name) == (spec.seed, spec.name)


def test_revision_parses_only_the_relations_the_reviser_added_or_changed(monkeypatch):
    # The input's relations are parser outputs for it, so round 1 parses
    # only the reviser's new relation objects and keeps the others as given.
    spec = load_fixture("conflict_pair")
    revisions, parsed = [], []

    def recording(s, conflicts):
        revisions.append(baseline_reviser(s, conflicts))
        return revisions[-1]

    read = scene_model._read_relation

    def spy(raw, location, *args):
        parsed.append(location)
        return read(raw, location, *args)

    monkeypatch.setattr(scene_model, "_read_relation", spy)
    revised, report = imagine_and_revise(spec, recording)
    assert report.iterations == 2 and len(revisions) == 1
    new = [k for k, r in enumerate(revisions[0]) if not any(r is old for old in spec.relations)]
    assert parsed == [f"relations[{k}]" for k in new] and len(new) == 3
    for k, r in enumerate(revised.relations):
        assert (r is revisions[0][k]) == (k not in new)


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


def _negative_d_from_the_start():
    """Hand-built `_crowded_scene` whose s1 -> t distance is negative before
    any revision; the baseline reviser does not touch it."""
    spec = _crowded_scene()
    relations = list(spec.relations)
    k = _relation_index(relations, "distance", "s1", "t")
    relations[k] = dataclasses.replace(relations[k], params={"d": -1})
    return spec.with_relations(relations)


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
        (None, "].params.d"),
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
        "hand_built_invalid_from_the_start",
    ],
)
def test_late_invalid_revision_raises_as_round_trip(bad, location):
    # Without `bad`, the input itself is invalid: the first revision reports it.
    messages = []
    for loop in (imagine_and_revise, _reference_imagine_and_revise):
        if bad is None:
            spec, reviser = _negative_d_from_the_start(), baseline_reviser
        else:
            spec, reviser = parse_scene(serialize_scene(_crowded_scene())), _late(bad)
        with pytest.raises(RevisionError) as info:
            loop(spec, reviser=reviser)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("reviser produced an invalid scene: relations[")
    assert location in messages[0]


# --- the parent design, kept as the reference -----------------------------
# The `_reference_*` functions are the bodies the imagination pass had
# before it read the relation plan: relation terms keyed by entity id, a
# board keyed by id, stand-ins rebuilt with `geometry.enclosing_box`, maps of
# FootprintBox entries with Interval bounds, and conflicts found on those.
# Every pose, map box, conflict and revision must match them bit for bit.


@dataclasses.dataclass
class _ReferenceTerm:
    frame: object
    label: str
    ends: tuple
    kernel: str
    consts: tuple
    shared: object = None
    value: object = None


def _reference_resolve_relations(spec):
    frames = {u.id: [] for u in spec.units}
    frames[None] = []
    priors = shared_param_priors(spec)
    relations = spec.relations
    for group, members in relation_terms(relations):
        rel = relations[members[0]]
        frame = rel.unit if rel.scope == "intra" else None
        label = f"relations[{members[0]}]"
        if group is not None:
            ends = tuple(relations[i].source for i in members) + (rel.target,)
            term = _ReferenceTerm(frame, label, ends, "around_loss", (rel.params["sweep"], rel.params["center"]))
        else:
            params = relation_params(rel)
            ends = (rel.source,) if rel.kind in SCENE_ANCHORED_KINDS else (rel.source, rel.target)
            shared = rel.shared_param
            value = params.get(SHARED_PARAM_SLOTS.get(rel.kind)) if shared is None else priors[shared]
            term = _ReferenceTerm(frame, label, ends, *constraints._kernel(rel, params, spec.room), shared, value)
        frames[frame].append(term)
    return frames


class _ReferenceBoard:
    def __init__(self, halves, default_xy):
        self.halves = halves
        self.default_xy = default_xy
        self.slots = {eid: [None, None, None] for eid in halves}
        self.counters = {}

    def pin(self, eid, axis, value):
        if self.slots[eid][axis] is None:
            self.slots[eid][axis] = float(value)

    def theta(self, eid):
        v = self.slots[eid][2]
        return 0.0 if v is None else v

    def center(self, eid):
        s = self.slots[eid]
        x = self.default_xy[0] if s[0] is None else s[0]
        y = self.default_xy[1] if s[1] is None else s[1]
        return x, y

    def half_extents(self, eid, theta=None):
        hl, hw = self.halves[eid]
        return half_extents(hl, hw, self.theta(eid) if theta is None else theta)[:2]

    def next_direction(self, eid, cycle):
        k = self.counters.get(eid, 0)
        self.counters[eid] = k + 1
        turns = cycle[k % len(cycle)] + 0.125 * (k // len(cycle))
        return turns * math.pi

    def resolved(self):
        out = {}
        for eid in self.halves:
            x, y = self.center(eid)
            out[eid] = Pose2D(x, y, self.theta(eid))
        return out


def _reference_apply_term(board, term):
    kernel, consts, value = term.kernel, term.consts, term.value
    src = term.ends[0]
    if kernel == "placement_loss":
        board.pin(src, consts[0], value)
        return
    if kernel == "against_wall_loss":
        axis_i, sign, base, theta_star = consts
        board.pin(src, 2, theta_star)
        ext = board.half_extents(src, theta_star)
        board.pin(src, axis_i, base + sign * ext[axis_i])
        return
    if kernel == "corner_loss":
        sx, sy, x_base, y_base, theta_star = consts
        board.pin(src, 2, theta_star)
        ext = board.half_extents(src, theta_star)
        board.pin(src, 0, x_base + sx * ext[0])
        board.pin(src, 1, y_base + sy * ext[1])
        return
    if kernel == "around_loss":
        *sources, focal = term.ends
        sweep, center = term.consts
        n = len(sources)
        delta = sweep / (n - 1) if n > 1 else 0.0
        fx, fy = board.center(focal)
        f_theta = board.theta(focal)
        hl_f, hw_f = board.halves[focal]
        for j, s in enumerate(sources):
            phi = center - 0.5 * sweep + j * delta
            heading = normalize_angle(f_theta + phi)
            hl_s, hw_s = board.halves[s]
            radius = math.hypot(hl_f, hw_f) + math.hypot(hl_s, hw_s) + RING_CLEARANCE
            ang = f_theta + phi
            board.pin(s, 0, fx + radius * math.cos(ang))
            board.pin(s, 1, fy + radius * math.sin(ang))
            board.pin(s, 2, heading)
        return

    tgt = term.ends[1]
    tx, ty = board.center(tgt)
    t_theta = board.theta(tgt)
    if kernel == "distance_loss":
        ang = board.next_direction(tgt, _DISTANCE_CYCLE)
        board.pin(src, 0, tx + value * math.cos(ang))
        board.pin(src, 1, ty + value * math.sin(ang))
        return
    if kernel == "gap_loss":
        ang = board.next_direction(tgt, _GAP_CYCLE)
        axis_i = 0 if abs(math.cos(ang)) > 0.5 else 1
        sign = 1.0 if (math.cos(ang) if axis_i == 0 else math.sin(ang)) >= 0.0 else -1.0
        reach = board.half_extents(tgt)[axis_i] + board.half_extents(src)[axis_i] + value
        cand = (tx, ty)[axis_i] + sign * reach
        board.pin(src, axis_i, cand)
        board.pin(src, 1 - axis_i, (ty, tx)[axis_i])
        return
    if kernel == "directional_loss":
        axis_i, sigma = consts
        side = -sigma
        rel_angle = board.theta(src) - t_theta
        r = board.half_extents(src, rel_angle)
        e = board.halves[tgt]
        main = side * (e[axis_i] + r[axis_i] + SIDE_CLEARANCE)
        other = (2.0 * value - 1.0) * (e[1 - axis_i] - r[1 - axis_i])
        local = (main, other) if axis_i == 0 else (other, main)
        ct, st = math.cos(t_theta), math.sin(t_theta)
        board.pin(src, 0, tx + ct * local[0] - st * local[1])
        board.pin(src, 1, ty + st * local[0] + ct * local[1])
        return
    if kernel == "facing_loss":
        sx, sy = board.center(src)
        dx, dy = tx - sx, ty - sy
        if math.hypot(dx, dy) > 1e-9:
            board.pin(src, 2, math.atan2(dy, dx))
        return
    if kernel == "angle_offset_loss":
        board.pin(src, 2, normalize_angle(t_theta + value))
        return
    raise ValueError(f"unhandled relation kernel {kernel!r}")


def _reference_run_pass(terms, halves, default_xy, pinned):
    board = _ReferenceBoard(halves, default_xy)
    for eid, pose in pinned.items():
        board.slots[eid] = [pose[0], pose[1], pose[2]]
    for term in terms:
        _reference_apply_term(board, term)
    return board.resolved()


def _reference_asset_halves(spec, asset_ids):
    return {aid: (spec.asset(aid).half_l, spec.asset(aid).half_w) for aid in asset_ids}


def _reference_interpret_scene(spec):
    frames = _reference_resolve_relations(spec)
    poses, offsets, halves = {}, {}, {}
    for u in spec.units:
        unit_halves = _reference_asset_halves(spec, u.assets)
        centers = _reference_run_pass(frames[u.id], unit_halves, (0.0, 0.0), {u.anchor: (0.0, 0.0, 0.0)})
        members = [(0.0, 0.0, 0.0)]
        for mid in u.members:
            poses[mid] = c = centers[mid]
            members.append((c.x, c.y, c.theta))
        offsets[u.id], half_l, half_w = geometry.enclosing_box(members, unit_halves.values())
        halves[u.id] = (half_l, half_w)
    halves.update(_reference_asset_halves(spec, (a.id for a in spec.independent_assets())))
    centers = _reference_run_pass(frames[None], halves, (0.5 * spec.room.length, 0.5 * spec.room.width), {})
    for eid, c in centers.items():
        if spec.is_unit(eid):
            ox, oy = offsets[eid]
            ct, st = math.cos(c.theta), math.sin(c.theta)
            poses[eid] = Pose2D(c.x - (ct * ox - st * oy), c.y - (st * ox + ct * oy), c.theta)
        else:
            poses[eid] = c
    return poses


@dataclasses.dataclass(frozen=True)
class _ReferenceEntry:
    pose: Pose2D
    box: FootprintBox
    extents: tuple
    bounds: tuple


def _reference_footprint_extents(box):
    ax, ay, _, _ = half_extents(box.half_l, box.half_w, box.pose.theta)
    return 2.0 * ax, 2.0 * ay


def _reference_entry(pose, box):
    return _ReferenceEntry(pose, box, _reference_footprint_extents(box), axis_bounds(box))


def _reference_build_maps(spec, poses):
    local_maps = {}
    for u in spec.units:
        anchor = spec.asset(u.anchor)
        origin = Pose2D(0.0, 0.0, 0.0)
        entries = {u.anchor: _reference_entry(origin, FootprintBox(origin, anchor.half_l, anchor.half_w))}
        for mid in u.members:
            if mid not in poses:
                raise MissingEntityError(f"no pose for {mid!r}")
            m = spec.asset(mid)
            entries[mid] = _reference_entry(poses[mid], FootprintBox(poses[mid], m.half_l, m.half_w))
        local_maps[u.id] = CognitiveMap(u.id, entries)
    gentries = {}
    for u in spec.units:
        if u.id not in poses:
            raise MissingEntityError(f"no pose for {u.id!r}")
        p = poses[u.id]
        members = [(0.0, 0.0, 0.0)] + [(poses[m].x, poses[m].y, poses[m].theta) for m in u.members]
        (ox, oy), half_l, half_w = geometry.enclosing_box(members, _reference_asset_halves(spec, u.assets).values())
        c, s = math.cos(p.theta), math.sin(p.theta)
        box = FootprintBox(Pose2D(p.x + c * ox - s * oy, p.y + s * ox + c * oy, p.theta), half_l, half_w)
        gentries[u.id] = _reference_entry(p, box)
    for a in spec.independent_assets():
        if a.id not in poses:
            raise MissingEntityError(f"no pose for {a.id!r}")
        p = poses[a.id]
        gentries[a.id] = _reference_entry(p, FootprintBox(p, a.half_l, a.half_w))
    return local_maps, CognitiveMap("scene", gentries)


def _reference_proxy_overlap(ea, eb):
    ox = ea.bounds[0].overlap(eb.bounds[0])
    oy = ea.bounds[1].overlap(eb.bounds[1])
    if ox > 0.0 and oy > 0.0:
        return ox, oy
    return None


def _reference_candidate_pairs(entries):
    ids = sorted(entries)
    lo = [(entries[e].bounds[0].lo, entries[e].bounds[1].lo) for e in ids]
    hi = [(entries[e].bounds[0].hi, entries[e].bounds[1].hi) for e in ids]
    return [(ids[i], ids[j]) for i, j in geometry.overlapping_pairs(lo, hi)]


def _reference_global_member_boxes(frame, local_map):
    return [
        FootprintBox(compose(frame, entry.pose), entry.box.half_l, entry.box.half_w)
        for entry in local_map.entries.values()
    ]


def _reference_detect_conflicts(spec, local_maps, global_map):
    out = []
    for u in spec.units:
        entries = local_maps[u.id].entries
        for a, b in _reference_candidate_pairs(entries):
            ov = _reference_proxy_overlap(entries[a], entries[b])
            if ov is not None:
                out.append(Conflict("intra", u.id, (a, b), ov, entries[a].box, entries[b].box))
    entries = global_map.entries
    for a, b in _reference_candidate_pairs(entries):
        ov = _reference_proxy_overlap(entries[a], entries[b])
        if ov is None:
            continue
        if spec.is_unit(a) and spec.is_unit(b):
            boxes_a = _reference_global_member_boxes(entries[a].pose, local_maps[a])
            boxes_b = _reference_global_member_boxes(entries[b].pose, local_maps[b])
            if not any(collide_proxy(x, y) for x in boxes_a for y in boxes_b):
                continue
        out.append(Conflict("inter", None, (a, b), ov, entries[a].box, entries[b].box))
    return out


def _reference_required_center_distance(conflict, source_id):
    src = conflict.box_a if conflict.pair[0] == source_id else conflict.box_b
    tgt = conflict.box_b if conflict.pair[0] == source_id else conflict.box_a
    ux, uy = src.pose.x - tgt.pose.x, src.pose.y - tgt.pose.y
    n = math.hypot(ux, uy)
    if n < 1e-9:
        ux, uy = 1.0, 0.0
    else:
        ux, uy = ux / n, uy / n
    ea = _reference_footprint_extents(src)
    eb = _reference_footprint_extents(tgt)
    best = math.inf
    for axis_i, u in enumerate((ux, uy)):
        if abs(u) > 1e-9:
            best = min(best, 0.5 * (ea[axis_i] + eb[axis_i]) / abs(u))
    return best


def _box_bits(box) -> list:
    """A kernel box, or a FootprintBox as one, as float bits."""
    if isinstance(box, FootprintBox):
        box = (box.pose.x, box.pose.y, box.pose.theta, box.half_l, box.half_w)
    return [_bits(v) for v in box]


def _pose_bits(poses: dict) -> list:
    return [(eid, _bits(p.x), _bits(p.y), _bits(p.theta)) for eid, p in poses.items()]


def _map_bits(local_maps: dict, global_map) -> list:
    maps = [*local_maps.values(), global_map]
    return [(m.scope, [(eid, _box_bits(getattr(e, "box", e))) for eid, e in m.entries.items()]) for m in maps]


def _conflict_bits(conflicts: list) -> list:
    return [
        (c.level, c.unit, c.pair, [_bits(v) for v in c.overlap], _box_bits(c.box_a), _box_bits(c.box_b))
        for c in conflicts
    ]


def _assert_maps_and_conflicts_match(spec, poses):
    new_maps = build_maps(spec, poses)
    ref_maps = _reference_build_maps(spec, poses)
    assert _map_bits(*new_maps) == _map_bits(*ref_maps)
    for uid, m in new_maps[0].items():
        # A local map's frame is the unit's pose, which the reference's
        # global entry holds.
        assert [_bits(v) for v in m.frame] == [_bits(v) for v in dataclasses.astuple(ref_maps[1].entries[uid].pose)]
    conflicts = detect_conflicts(spec, *new_maps)
    assert _conflict_bits(conflicts) == _conflict_bits(_reference_detect_conflicts(spec, *ref_maps))
    return conflicts


def _reference_revise(monkeypatch, spec, **kwargs):
    """`imagine_and_revise` of `spec` through the reference pass."""
    with monkeypatch.context() as m:
        m.setattr(imagination, "interpret_scene", _reference_interpret_scene)
        m.setattr(imagination, "build_maps", _reference_build_maps)
        m.setattr(imagination, "detect_conflicts", _reference_detect_conflicts)
        m.setattr(imagination, "_required_center_distance", _reference_required_center_distance)
        return imagine_and_revise(spec, **kwargs)


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "crowded_parsed", "crowded_hand_built"])
def test_imagination_pass_matches_the_reference_bitwise(name, monkeypatch):
    if name.startswith("crowded"):
        spec = _crowded_scene()
        if name == "crowded_parsed":
            spec = parse_scene(serialize_scene(spec))
    else:
        spec = load_fixture(name)
    poses = interpret_scene(spec)
    assert _pose_bits(poses) == _pose_bits(_reference_interpret_scene(spec))
    _assert_maps_and_conflicts_match(spec, poses)
    revised, report = imagine_and_revise(spec)
    ref_revised, ref_report = _reference_revise(monkeypatch, spec)
    assert _outputs(revised, report) == _outputs(ref_revised, ref_report)
    # Every round's conflicts too, and the revised scene's poses.
    for r, ref in zip(report.rounds, ref_report.rounds, strict=True):
        assert _conflict_bits(r.conflicts) == _conflict_bits(ref.conflicts)
    assert _pose_bits(interpret_scene(revised)) == _pose_bits(_reference_interpret_scene(revised))


def test_maps_and_conflicts_match_the_reference_bitwise_on_jittered_and_comb_poses():
    # The jittered poses of `test_broadphase_keeps_conflicts`, then the comb.
    rng = np.random.default_rng(21)
    found = 0
    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        for _ in range(5):
            poses = {
                eid: Pose2D(p.x + rng.normal(0.0, 0.5), p.y + rng.normal(0.0, 0.5), p.theta + rng.normal(0.0, 0.5))
                for eid, p in interpret_scene(spec).items()
            }
            found += len(_assert_maps_and_conflicts_match(spec, poses))
    assert found > 0
    assert _assert_maps_and_conflicts_match(*_comb_scene()) == []
