"""Scene parsing, validation, and layout serialization."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import layoutopt
from layoutopt.errors import SceneSemanticError, SceneSyntaxError
from layoutopt.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from layoutopt import scene_model
from layoutopt.scene_model import (
    Layout,
    SceneSpec,
    parse_layout,
    parse_scene,
    relation_terms,
    replace_relations,
    serialize_layout,
    serialize_scene,
)


def minimal_scene(**overrides) -> dict:
    data = {
        "room": {"length": 6.0, "width": 5.0, "height": 3.0},
        "assets": [{"id": "table", "size": [1.6, 0.9, 0.75]}],
    }
    data.update(overrides)
    return data


def parse(data: dict):
    return parse_scene(json.dumps(data))


def test_minimal_scene_is_valid():
    spec = parse(minimal_scene())
    assert spec.room.length == 6.0
    assert [a.id for a in spec.assets] == ["table"]
    assert spec.units == ()
    assert spec.relations == ()
    assert spec.seed == 0


def test_malformed_json_is_syntax_error():
    with pytest.raises(SceneSyntaxError):
        parse_scene("{not json")
    with pytest.raises(SceneSyntaxError):
        parse_scene("[1, 2]")


def loc_of(excinfo) -> str:
    return excinfo.value.location


def test_dangling_ids_are_located():
    data = minimal_scene(units=[{"id": "u", "anchor": "ghost", "members": ["table"]}])
    with pytest.raises(SceneSemanticError) as e:
        parse(data)
    assert loc_of(e) == "units[0]"

    data = minimal_scene(
        relations=[{"kind": "facing", "source": "table", "target": "ghost"}]
    )
    with pytest.raises(SceneSemanticError) as e:
        parse(data)
    assert loc_of(e) == "relations[0].target"


def test_duplicate_ids_rejected():
    data = minimal_scene(
        assets=[
            {"id": "a", "size": [1, 1, 1]},
            {"id": "a", "size": [2, 2, 2]},
        ]
    )
    with pytest.raises(SceneSemanticError) as e:
        parse(data)
    assert loc_of(e) == "assets[1].id"


def test_nonpositive_sizes_rejected():
    data = minimal_scene(assets=[{"id": "a", "size": [1.0, 0.0, 1.0]}])
    with pytest.raises(SceneSemanticError) as e:
        parse(data)
    assert "size" in loc_of(e)
    data = minimal_scene(room={"length": -1.0, "width": 5.0, "height": 3.0})
    with pytest.raises(SceneSemanticError):
        parse(data)


def two_asset_unit_scene(relations=(), units=None) -> dict:
    return {
        "room": {"length": 8.0, "width": 6.0, "height": 3.0},
        "assets": [
            {"id": "desk", "size": [1.2, 0.6, 0.75]},
            {"id": "chair", "size": [0.45, 0.45, 0.9]},
            {"id": "lamp", "size": [0.4, 0.4, 1.5]},
        ],
        "units": units
        if units is not None
        else [{"id": "work", "anchor": "desk", "members": ["chair"]}],
        "relations": list(relations),
    }


def test_member_in_inter_relation_rejected():
    data = two_asset_unit_scene(
        relations=[{"kind": "distance", "source": "chair", "target": "lamp", "params": {"d": 1.0}}]
    )
    with pytest.raises(SceneSemanticError) as e:
        parse(data)
    assert loc_of(e) == "relations[0].source"
    assert "work" in str(e.value)


def test_anchor_in_inter_relation_suggests_unit_id():
    data = two_asset_unit_scene(
        relations=[{"kind": "distance", "source": "lamp", "target": "desk", "params": {"d": 1.0}}]
    )
    with pytest.raises(SceneSemanticError) as e:
        parse(data)
    assert "use the unit id 'work'" in str(e.value)


def test_intra_relation_must_stay_inside_unit():
    data = two_asset_unit_scene(
        relations=[
            {
                "kind": "distance",
                "source": "chair",
                "target": "lamp",
                "scope": "intra",
                "unit": "work",
                "params": {"d": 1.0},
            }
        ]
    )
    with pytest.raises(SceneSemanticError) as e:
        parse(data)
    assert loc_of(e) == "relations[0].target"


def test_duplicate_anchor_membership_rejected():
    data = two_asset_unit_scene(
        units=[
            {"id": "u1", "anchor": "desk", "members": ["chair"]},
            {"id": "u2", "anchor": "desk", "members": ["lamp"]},
        ]
    )
    with pytest.raises(SceneSemanticError) as e:
        parse(data)
    assert loc_of(e) == "units[1]"


def test_scene_anchored_kinds_must_be_inter():
    data = two_asset_unit_scene(
        relations=[
            {
                "kind": "against_wall",
                "source": "chair",
                "target": "wall:L",
                "scope": "intra",
                "unit": "work",
            }
        ]
    )
    with pytest.raises(SceneSemanticError) as e:
        parse(data)
    assert loc_of(e) == "relations[0].scope"


def test_wall_and_corner_target_validation():
    bad_wall = two_asset_unit_scene(
        relations=[{"kind": "against_wall", "source": "lamp", "target": "wall:Q"}]
    )
    with pytest.raises(SceneSemanticError):
        parse(bad_wall)
    bad_adjacent = two_asset_unit_scene(
        relations=[
            {"kind": "corner", "source": "lamp", "target": "corner:BL", "params": {"wall": "T"}}
        ]
    )
    with pytest.raises(SceneSemanticError) as e:
        parse(bad_adjacent)
    assert loc_of(e) == "relations[0].params.wall"


def test_directional_p_defaults_and_bounds():
    data = two_asset_unit_scene(
        relations=[
            {"kind": "left_of", "source": "chair", "target": "desk", "scope": "intra", "unit": "work"}
        ]
    )
    spec = parse(data)
    assert spec.relations[0].params["p"] == 0.5
    data["relations"][0]["params"] = {"p": 1.5}
    with pytest.raises(SceneSemanticError):
        parse(data)


def test_around_group_rules():
    def around(source, group="g", sweep=math.pi, center=0.0):
        return {
            "kind": "around",
            "source": source,
            "target": "desk",
            "scope": "intra",
            "unit": "work",
            "params": {"group": group, "sweep": sweep, "center": center},
        }

    base = {
        "room": {"length": 8.0, "width": 6.0, "height": 3.0},
        "assets": [
            {"id": "desk", "size": [1.2, 0.6, 0.75]},
            {"id": "s1", "size": [0.4, 0.4, 0.4]},
            {"id": "s2", "size": [0.4, 0.4, 0.4]},
        ],
        "units": [{"id": "work", "anchor": "desk", "members": ["s1", "s2"]}],
    }
    ok = dict(base, relations=[around("s1"), around("s2")])
    spec = parse(ok)
    groups = [members for group, members in relation_terms(spec.relations) if group is not None]
    assert len(groups) == 1
    (rels,) = groups
    assert [spec.relations[i].source for i in rels] == ["s1", "s2"]

    lonely = dict(base, relations=[around("s1")])
    with pytest.raises(SceneSemanticError) as e:
        parse(lonely)
    assert "at least two" in str(e.value)

    mixed = dict(base, relations=[around("s1"), around("s2", sweep=1.0)])
    with pytest.raises(SceneSemanticError):
        parse(mixed)

    repeated = dict(base, relations=[around("s1"), around("s1")])
    with pytest.raises(SceneSemanticError):
        parse(repeated)


def test_shared_param_groups_must_be_kind_homogeneous():
    data = two_asset_unit_scene(
        relations=[
            {
                "kind": "distance",
                "source": "chair",
                "target": "desk",
                "scope": "intra",
                "unit": "work",
                "params": {"d": 1.0},
                "shared_param": "w",
            },
            {
                "kind": "gap",
                "source": "lamp",
                "target": "work",
                "params": {"g": 0.2},
                "shared_param": "w",
            },
        ]
    )
    with pytest.raises(SceneSemanticError) as e:
        parse(data)
    assert loc_of(e) == "relations[1].shared_param"


def test_shared_param_on_unsupported_kind_rejected():
    data = two_asset_unit_scene(
        relations=[
            {
                "kind": "facing",
                "source": "chair",
                "target": "desk",
                "scope": "intra",
                "unit": "work",
                "shared_param": "w",
            }
        ]
    )
    with pytest.raises(SceneSemanticError):
        parse(data)


def test_entities_follow_unit_order():
    data = {
        "room": {"length": 8.0, "width": 6.0, "height": 3.0},
        "assets": [
            {"id": "a", "size": [1, 1, 1]},
            {"id": "b", "size": [1, 1, 1]},
            {"id": "c", "size": [1, 1, 1]},
            {"id": "d", "size": [1, 1, 1]},
            {"id": "e", "size": [1, 1, 1]},
        ],
        "units": [
            {"id": "u1", "anchor": "a", "members": ["b"]},
            {"id": "u2", "anchor": "c", "members": ["d"]},
        ],
    }
    spec = parse(data)
    assert spec.entities() == ("u1", "u2", "e")


def test_scene_round_trip_through_serialization():
    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        again = parse_scene(serialize_scene(spec))
        assert again == spec


def test_layout_round_trip_and_determinism():
    layout = Layout(
        {
            "b": (1.25, 2.5, 0.375, -0.7853981633974483),
            "a": (0.1, 0.2, 0.3, 3.0000000000000004),
        }
    )
    text = serialize_layout(layout)
    assert text == serialize_layout(parse_layout(text))
    # Keys are emitted sorted, floats via repr (exact round trip).
    assert text.index('"a"') < text.index('"b"')
    assert "3.0000000000000004" in text
    with pytest.raises(SceneSyntaxError):
        parse_layout('{"poses": {"a": {"x": 1}}}')


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["x", "y", "z", "theta"])
def test_layout_rejects_a_non_finite_pose(key, value):
    poses = {
        "table": {"x": 1.0, "y": 2.0, "z": 0.375, "theta": 0.5},
        "chair_e": {"x": 2.0, "y": 1.0, "z": 0.45, "theta": 0.0},
    }
    poses["chair_e"][key] = value
    with pytest.raises(SceneSyntaxError, match="pose of 'chair_e' must be finite"):
        parse_layout(json.dumps({"poses": poses}))


def test_dining_fixture_parse_contract():
    spec = load_fixture("dining_set")
    assert len(spec.units) == 1
    unit = spec.units[0]
    assert unit.anchor == "table"
    assert len(unit.members) == 4
    shared_distance = [
        r
        for r in spec.relations
        if r.unit == "dining" and r.kind == "distance" and r.shared_param == "seat_radius"
    ]
    assert len(shared_distance) == 4
    assert {r.shared_param for r in shared_distance} == {"seat_radius"}


def test_all_fixtures_parse():
    for name in FIXTURE_NAMES:
        spec = load_fixture(name)
        assert spec.assets, name
        assert spec.name == name
        # Raw text stays valid JSON with the same content after a round trip.
        raw = json.loads(fixture_text(name))
        assert raw["room"]["length"] == spec.room.length


# Target each kind takes in the tables below unless a case names one.
_KIND_TARGET = {"against_wall": "wall:L", "corner": "corner:BL", "h_place": "scene", "v_place": "scene"}


def _one_relation_scene(kind, params, target=None, scope="inter") -> dict:
    rel = {"kind": kind, "source": "lamp", "target": target or _KIND_TARGET.get(kind, "work")}
    if scope == "intra":
        rel.update(source="chair", scope="intra", unit="work")
    if params is not None:
        rel["params"] = params
    return two_asset_unit_scene(relations=[rel])


# One malformed relation per kind and failure: (kind, params, location,
# message).  Unknown keys are reported before missing params, and every
# missing param before any value.
_PARAM_ERRORS = [
    ("distance", None, "params", "missing param 'd'"),
    ("distance", {"d": "1"}, "params.d", "expected a number"),
    ("distance", {"d": True}, "params.d", "expected a number"),
    ("distance", {"d": -0.5}, "params.d", "must be >= 0.0"),
    ("distance", {"d": 1.0, "q": 2}, "params", "unknown keys ['q']"),
    ("distance", {"q": 1}, "params", "unknown keys ['q']"),
    ("distance", [1.0], "params", "expected an object"),
    ("gap", {}, "params", "missing param 'g'"),
    ("gap", {"g": None}, "params.g", "expected a number"),
    ("gap", {"g": -0.1}, "params.g", "must be >= 0.0"),
    ("gap", {"g": 0.1, "d": 0.2, "a": 1}, "params", "unknown keys ['a', 'd']"),
    ("against_wall", {"wall": "L"}, "params", "unknown keys ['wall']"),
    ("corner", {}, "params", "missing param 'wall'"),
    ("corner", {"wall": 3}, "params.wall", "expected a non-empty string"),
    ("corner", {"wall": ""}, "params.wall", "expected a non-empty string"),
    ("corner", {"wall": "L", "p": 0.5}, "params", "unknown keys ['p']"),
    ("facing", {"d": 1.0}, "params", "unknown keys ['d']"),
    ("left_of", {"p": "0.5"}, "params.p", "expected a number"),
    ("left_of", {"p": False}, "params.p", "expected a number"),
    ("left_of", {"p": -0.1}, "params.p", "must be >= 0.0"),
    ("left_of", {"p": 0.5, "g": 0.1}, "params", "unknown keys ['g']"),
    ("right_of", {"p": 1.5}, "params.p", "must be <= 1.0"),
    ("right_of", {"p": [0.5]}, "params.p", "expected a number"),
    ("in_front_of", {"p": 1.01}, "params.p", "must be <= 1.0"),
    ("in_front_of", {"p": True}, "params.p", "expected a number"),
    ("behind_of", {"p": -1}, "params.p", "must be >= 0.0"),
    ("behind_of", {"q": 0.5}, "params", "unknown keys ['q']"),
    ("angle_offset", {}, "params", "missing param 'alpha'"),
    ("angle_offset", {"alpha": "pi"}, "params.alpha", "expected a number"),
    ("angle_offset", {"alpha": math.nan}, "params.alpha", "number must be finite"),
    ("angle_offset", {"alpha": 1.0, "beta": 2.0}, "params", "unknown keys ['beta']"),
    ("h_place", {"margin": 0.1}, "params", "missing param 'x'"),
    ("h_place", {"margin": "a"}, "params", "missing param 'x'"),
    ("h_place", {"x": "1"}, "params.x", "expected a number"),
    ("h_place", {"x": math.inf}, "params.x", "number must be finite"),
    ("h_place", {"x": 1.0, "margin": -0.1}, "params.margin", "must be >= 0.0"),
    ("h_place", {"x": 1.0, "margin": True}, "params.margin", "expected a number"),
    ("h_place", {"x": 1.0, "y": 2.0}, "params", "unknown keys ['y']"),
    ("v_place", {"margin": 0.0}, "params", "missing param 'y'"),
    ("v_place", {"y": False}, "params.y", "expected a number"),
    ("v_place", {"y": 1.0, "margin": -1}, "params.margin", "must be >= 0.0"),
    ("v_place", {"x": 1.0, "y": 1.0}, "params", "unknown keys ['x']"),
    ("around", {"sweep": 3.0, "center": 0.0}, "params", "missing param 'group'"),
    ("around", {"group": "g", "center": 0.0}, "params", "missing param 'sweep'"),
    ("around", {"group": 1, "center": 0.0}, "params", "missing param 'sweep'"),
    ("around", {"group": "g", "sweep": 3.0}, "params", "missing param 'center'"),
    ("around", {"group": 1, "sweep": 3.0, "center": 0.0}, "params.group", "expected a non-empty string"),
    ("around", {"group": "", "sweep": 0.0, "center": "x"}, "params.group", "expected a non-empty string"),
    ("around", {"group": "g", "sweep": -1.0, "center": 0.0}, "params.sweep", "must be >= 0.0"),
    ("around", {"group": "g", "sweep": 7.0, "center": 0.0}, "params.sweep", "must be <= 6.283185307179586"),
    ("around", {"group": "g", "sweep": 0, "center": 0.0}, "params.sweep", "sweep must be positive"),
    ("around", {"group": "g", "sweep": 0.0, "center": "x"}, "params.sweep", "sweep must be positive"),
    ("around", {"group": "g", "sweep": 3.0, "center": True}, "params.center", "expected a number"),
    ("around", {"group": "g", "sweep": 3.0, "center": 0.0, "d": 1.0}, "params", "unknown keys ['d']"),
]


@pytest.mark.parametrize(
    "kind, params, location, message",
    _PARAM_ERRORS,
    ids=[f"{k}-{i}" for i, (k, *_) in enumerate(_PARAM_ERRORS)],
)
def test_param_errors_name_message_and_location(kind, params, location, message):
    with pytest.raises(SceneSemanticError) as e:
        parse(_one_relation_scene(kind, params))
    assert loc_of(e) == f"relations[0].{location}"
    assert str(e.value) == f"relations[0].{location}: {message}"


# One relation per kind with a target or scope its target form rejects:
# (kind, target, params, scope, location, message).
_TARGET_ERRORS = [
    ("corner", "corner:BL", {"wall": "T"}, "inter", "params.wall", "wall 'T' is not adjacent to corner 'BL'"),
    ("against_wall", "wall:Q", None, "inter", "target", "target must be 'wall:L|R|T|B'"),
    ("against_wall", "lamp", None, "inter", "target", "target must be 'wall:L|R|T|B'"),
    ("against_wall", "corner:BL", None, "inter", "target", "target must be 'wall:L|R|T|B'"),
    ("corner", "corner:XX", {"wall": "L"}, "inter", "target", "target must be 'corner:BL|BR|TR|TL'"),
    ("corner", "wall:L", {"wall": "L"}, "inter", "target", "target must be 'corner:BL|BR|TR|TL'"),
    ("h_place", "work", {"x": 1.0}, "inter", "target", "target must be 'scene'"),
    ("v_place", "wall:L", {"y": 1.0}, "inter", "target", "target must be 'scene'"),
    ("distance", "scene", {"d": 1.0}, "inter", "target", "distance needs an entity target"),
    ("facing", "wall:L", None, "inter", "target", "facing needs an entity target"),
    ("around", "corner:BL", {"group": "g", "sweep": 1.0, "center": 0.0}, "inter", "target", "around needs an entity target"),
    ("left_of", "ghost", None, "inter", "target", "unknown entity 'ghost'"),
    ("h_place", "scene", {"x": 1.0}, "intra", "scope", "h_place relations are scene-anchored and must be inter"),
    ("v_place", "scene", {"y": 1.0}, "intra", "scope", "v_place relations are scene-anchored and must be inter"),
    ("corner", "corner:TR", {"wall": "R"}, "intra", "scope", "corner relations are scene-anchored and must be inter"),
    ("against_wall", "wall:B", None, "intra", "scope", "against_wall relations are scene-anchored and must be inter"),
]


@pytest.mark.parametrize(
    "kind, target, params, scope, location, message",
    _TARGET_ERRORS,
    ids=[f"{k}-{i}" for i, (k, *_) in enumerate(_TARGET_ERRORS)],
)
def test_target_errors_name_message_and_location(kind, target, params, scope, location, message):
    with pytest.raises(SceneSemanticError) as e:
        parse(_one_relation_scene(kind, params, target, scope))
    assert loc_of(e) == f"relations[0].{location}"
    assert str(e.value) == f"relations[0].{location}: {message}"


# Valid params come back as floats, defaults first, then the given keys in
# the order given.
_VALID_PARAMS = [
    ("distance", {"d": 1}, "[('d', 1.0)]"),
    ("gap", {"g": 0}, "[('g', 0.0)]"),
    ("against_wall", None, "[]"),
    ("corner", {"wall": "B"}, "[('wall', 'B')]"),
    ("facing", {}, "[]"),
    ("left_of", None, "[('p', 0.5)]"),
    ("right_of", {"p": 1}, "[('p', 1.0)]"),
    ("in_front_of", {"p": 0}, "[('p', 0.0)]"),
    ("behind_of", {"p": 0.25}, "[('p', 0.25)]"),
    ("angle_offset", {"alpha": -3}, "[('alpha', -3.0)]"),
    ("h_place", {"x": 2}, "[('margin', 0.0), ('x', 2.0)]"),
    ("v_place", {"y": 1.5, "margin": 0}, "[('margin', 0.0), ('y', 1.5)]"),
]


@pytest.mark.parametrize("kind, params, items", _VALID_PARAMS, ids=[k for k, *_ in _VALID_PARAMS])
def test_valid_params_keep_values_and_order(kind, params, items):
    (rel,) = parse(_one_relation_scene(kind, params)).relations
    assert repr(list(rel.params.items())) == items


def test_around_params_keep_the_given_order():
    rels = [
        {"kind": "around", "source": s, "target": "lamp", "params": {"center": 1, "sweep": 3, "group": "g"}}
        for s in ("a", "b")
    ]
    data = minimal_scene(
        assets=[{"id": i, "size": [0.4, 0.4, 0.4]} for i in ("lamp", "a", "b")], relations=rels
    )
    for rel in parse(data).relations:
        assert repr(list(rel.params.items())) == "[('center', 1.0), ('sweep', 3.0), ('group', 'g')]"


def _scene_with(drop=(), **changes) -> dict:
    """`two_asset_unit_scene()` without the keys in `drop`, with `changes`."""
    data = {**two_asset_unit_scene(), **changes}
    return {k: v for k, v in data.items() if k not in drop}


def _relation(**entry) -> list:
    return [{"kind": "facing", "source": "lamp", "target": "work", **entry}]


_ASSET = {"id": "a", "size": [1.0, 1.0, 1.0]}
_UNIT = {"id": "work", "anchor": "desk", "members": ["chair"]}

# One malformed scene or layout per error outside relation params and
# targets: (parser, JSON value or text, location, message).  A location of
# None marks a SceneSyntaxError, which has none.
_PARSE_ERRORS = {
    "room_key": (parse_scene, _scene_with(room={"width": 5.0, "height": 3.0}), "room", "missing 'length'"),
    "no_room": (parse_scene, _scene_with(drop=("room",)), "scene", "missing room"),
    "asset_id_reserved": (
        parse_scene,
        _scene_with(assets=[{**_ASSET, "id": "scene"}]),
        "assets[0].id",
        "id is reserved",
    ),
    "unit_id_reserved": (parse_scene, _scene_with(units=[{**_UNIT, "id": "w:1"}]), "units[0].id", "id is reserved"),
    "size_shape": (
        parse_scene,
        _scene_with(assets=[{**_ASSET, "size": [1.0, 1.0]}]),
        "assets[0].size",
        "size must be [l, w, h]",
    ),
    "description_type": (
        parse_scene,
        _scene_with(assets=[{**_ASSET, "description": 3}]),
        "assets[0].description",
        "description must be a string",
    ),
    "members_empty": (
        parse_scene,
        _scene_with(units=[{**_UNIT, "members": []}]),
        "units[0].members",
        "members must be a non-empty list",
    ),
    "unit_id_duplicate": (
        parse_scene,
        _scene_with(units=[{**_UNIT, "id": "desk"}]),
        "units[0].id",
        "duplicate id 'desk'",
    ),
    "unit_repeats_anchor": (
        parse_scene,
        _scene_with(units=[{**_UNIT, "members": ["chair", "desk"]}]),
        "units[0]",
        "anchor and members must be distinct",
    ),
    "intra_unknown_unit": (
        parse_scene,
        _scene_with(relations=_relation(source="chair", target="desk", scope="intra", unit="den")),
        "relations[0].unit",
        "unknown unit 'den'",
    ),
    "kind_unknown": (
        parse_scene,
        _scene_with(relations=_relation(kind="near")),
        "relations[0].kind",
        "unknown relation kind 'near'",
    ),
    "scope_unknown": (
        parse_scene,
        _scene_with(relations=_relation(scope="global")),
        "relations[0].scope",
        "scope must be 'intra' or 'inter'",
    ),
    "inter_names_unit": (
        parse_scene,
        _scene_with(relations=_relation(unit="work")),
        "relations[0].unit",
        "inter relations must not name a unit",
    ),
    "source_not_entity": (
        parse_scene,
        _scene_with(relations=_relation(source="scene")),
        "relations[0].source",
        "source must be an entity id",
    ),
    "source_is_target": (
        parse_scene,
        _scene_with(relations=_relation(target="lamp")),
        "relations[0]",
        "source and target must differ",
    ),
    "assets_not_list": (parse_scene, _scene_with(assets={}), "assets", "assets must be a list"),
    "units_not_list": (parse_scene, _scene_with(units="work"), "units", "units must be a list"),
    "relations_not_list": (parse_scene, _scene_with(relations={}), "relations", "relations must be a list"),
    "seed_negative": (parse_scene, _scene_with(seed=-1), "seed", "seed must be a non-negative integer"),
    "seed_float": (parse_scene, _scene_with(seed=1.0), "seed", "seed must be a non-negative integer"),
    "name_type": (parse_scene, _scene_with(name=3), "name", "name must be a string"),
    "layout_json": (parse_layout, "nope", None, "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "layout_no_poses": (parse_layout, {"desk": {}}, None, "layout must be an object with a 'poses' map"),
    "layout_pose_type": (
        parse_layout,
        {"poses": {"desk": [1.0, 2.0, 0.5, 0.0]}},
        None,
        "pose of 'desk' must be an object",
    ),
}


@pytest.mark.parametrize("parser, value, location, message", _PARSE_ERRORS.values(), ids=list(_PARSE_ERRORS))
def test_parse_errors_name_message_and_location(parser, value, location, message):
    text = value if isinstance(value, str) else json.dumps(value)
    with pytest.raises(SceneSyntaxError if location is None else SceneSemanticError) as e:
        parser(text)
    if location is None:
        assert str(e.value) == message
    else:
        assert loc_of(e) == location
        assert str(e.value) == f"{location}: {message}"


def test_missing_params_error_does_not_depend_on_the_hash_seed():
    """Of several missing params, the error names the first in the kinds
    table, under any hash seed."""
    scene = json.dumps(_one_relation_scene("around", {}))
    code = (
        "import sys\n"
        "from layoutopt.scene_model import parse_scene\n"
        "from layoutopt.errors import SceneSemanticError\n"
        "try:\n"
        "    parse_scene(sys.stdin.read())\n"
        "except SceneSemanticError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(layoutopt.__file__)))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], input=scene, capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs == ["relations[0].params: missing param 'group'\n"] * 2


# --- re-validation of replaced relations -------------------------------------


def _count_parsed(monkeypatch) -> list:
    """The locations `scene_model._read_relation` parses from now on."""
    parsed = []
    read = scene_model._read_relation

    def spy(raw, location, *args):
        parsed.append(location)
        return read(raw, location, *args)

    monkeypatch.setattr(scene_model, "_read_relation", spy)
    return parsed


def test_replace_relations_keeps_the_parser_outputs_of_its_spec(monkeypatch):
    spec = load_fixture("conflict_pair")
    parsed = _count_parsed(monkeypatch)
    once = replace_relations(spec, spec.relations)
    twice = replace_relations(once, reversed(once.relations))
    assert parsed == []
    assert all(a is b for a, b in zip(twice.relations, reversed(spec.relations)))


def test_replace_relations_parses_the_relations_of_another_scene():
    # Parser outputs for dining_set name entities conflict_pair lacks.
    with pytest.raises(SceneSemanticError) as e:
        replace_relations(load_fixture("conflict_pair"), load_fixture("dining_set").relations)
    assert loc_of(e).startswith("relations[0].")


def test_replace_relations_parses_a_param_set_in_place():
    spec = load_fixture("conflict_pair")
    rel = spec.relations[0]
    rel.params["d"] = 2  # equal to 2.0, but not the parser's float
    out = replace_relations(spec, spec.relations)
    assert out.relations[0] is not rel and out.relations[0] == rel
    assert repr(out.relations[0].params) == "{'d': 2.0}"
    assert all(a is b for a, b in zip(out.relations[1:], spec.relations[1:]))


@pytest.mark.parametrize(
    "make",
    [
        lambda s: SceneSpec(s.room, s.assets, s.units, s.relations, s.seed, s.name),
        lambda s: s.with_relations(s.relations),
        lambda s: dataclasses.replace(s, seed=s.seed),
    ],
    ids=["constructor", "with_relations", "dataclasses_replace"],
)
def test_a_spec_not_from_the_parser_has_every_relation_parsed(make, monkeypatch):
    spec = load_fixture("mixed_ten")
    built = make(spec)
    assert built == spec and repr(built) == repr(spec)
    assert [f.name for f in dataclasses.fields(SceneSpec)] == ["room", "assets", "units", "relations", "seed", "name"]
    parsed = _count_parsed(monkeypatch)
    out = replace_relations(built, built.relations)
    assert parsed == [f"relations[{k}]" for k in range(len(spec.relations))]
    assert out == spec and not any(a is b for a, b in zip(out.relations, spec.relations))
