"""Scene parsing, validation, and layout serialization."""

from __future__ import annotations

import json
import math

import pytest

from layoutopt.errors import SceneSemanticError, SceneSyntaxError
from layoutopt.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from layoutopt.scene_model import (
    Layout,
    parse_layout,
    parse_scene,
    relation_terms,
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
