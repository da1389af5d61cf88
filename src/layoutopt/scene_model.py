"""Declarative scene description and its validation.

A scene is a JSON object with a room, a list of assets, optional units
(asset groups with one anchor), and relations between entities.  Relations
at unit level ("intra") may reference only that unit's assets; scene-level
("inter") relations may reference only units, independent assets, walls,
corners, or the scene itself.  Unit members never carry inter relations;
the unit id stands in for the whole group.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .errors import SceneSemanticError, SceneSyntaxError
from .geometry import Pose2D

RELATION_KINDS = frozenset(
    {
        "distance",
        "gap",
        "against_wall",
        "corner",
        "facing",
        "left_of",
        "right_of",
        "in_front_of",
        "behind_of",
        "angle_offset",
        "h_place",
        "v_place",
        "around",
    }
)

DIRECTIONAL_KINDS = frozenset({"left_of", "right_of", "in_front_of", "behind_of"})

# Alignment fraction p of a directional relation that does not give one.
DEFAULT_P = 0.5

# Kinds anchored to the room itself; these only make sense at scene level.
SCENE_ANCHORED_KINDS = frozenset({"against_wall", "corner", "h_place", "v_place"})

WALLS = ("L", "R", "T", "B")

# Walls adjacent to each corner tag (bottom-left, bottom-right, ...).
CORNER_WALLS = {
    "BL": ("L", "B"),
    "BR": ("R", "B"),
    "TR": ("R", "T"),
    "TL": ("L", "T"),
}

SCENE_TARGET = "scene"

# Scalar parameter a shared name may bind, per relation kind.
SHARED_PARAM_SLOTS = {
    "distance": "d",
    "gap": "g",
    "angle_offset": "alpha",
    "h_place": "x",
    "v_place": "y",
    "left_of": "p",
    "right_of": "p",
    "in_front_of": "p",
    "behind_of": "p",
}


@dataclass(frozen=True)
class Room:
    """Rectangular room: [0, length] x [0, width] on the floor plane."""

    length: float
    width: float
    height: float


@dataclass(frozen=True)
class Asset:
    """Physical object with a canonical size (l, w, h) at theta = 0."""

    id: str
    description: str
    size: tuple[float, float, float]

    @property
    def half_l(self) -> float:
        return 0.5 * self.size[0]

    @property
    def half_w(self) -> float:
        return 0.5 * self.size[1]


@dataclass(frozen=True)
class Unit:
    """Group of assets posed in a shared local frame rooted at the anchor."""

    id: str
    anchor: str
    members: tuple[str, ...]

    @property
    def assets(self) -> tuple[str, ...]:
        return (self.anchor,) + self.members


@dataclass(frozen=True)
class Relation:
    """One declarative constraint edge from a reference to a constrained entity.

    `source` is the constrained entity, `target` the reference (an entity id,
    "wall:X", "corner:Y", or "scene").  Intra relations carry the owning unit.
    """

    kind: str
    source: str
    target: str
    params: dict = field(default_factory=dict)
    scope: str = "inter"
    unit: str | None = None
    shared_param: str | None = None


@dataclass
class SceneSpec:
    """Validated scene: room, assets, units, relations, and a base seed."""

    room: Room
    assets: tuple[Asset, ...]
    units: tuple[Unit, ...]
    relations: tuple[Relation, ...]
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        self._assets_by_id = {a.id: a for a in self.assets}
        self._units_by_id = {u.id: u for u in self.units}
        self._unit_of = {}
        for u in self.units:
            for aid in u.assets:
                self._unit_of[aid] = u.id

    def asset(self, asset_id: str) -> Asset:
        return self._assets_by_id[asset_id]

    def unit(self, unit_id: str) -> Unit:
        return self._units_by_id[unit_id]

    def is_unit(self, entity_id: str) -> bool:
        return entity_id in self._units_by_id

    def unit_of(self, asset_id: str) -> str | None:
        """Unit id owning the asset (as anchor or member), or None."""
        return self._unit_of.get(asset_id)

    def independent_assets(self) -> tuple[Asset, ...]:
        return tuple(a for a in self.assets if a.id not in self._unit_of)

    def entities(self) -> tuple[str, ...]:
        """Scene-level placement entities: unit ids then independent assets."""
        return tuple(u.id for u in self.units) + tuple(
            a.id for a in self.independent_assets()
        )

    def with_relations(self, relations) -> "SceneSpec":
        return replace(self, relations=tuple(relations))


def relation_params(rel: Relation) -> dict:
    """`rel.params` with the parser's default for each optional param it
    omits, as a hand-built relation may."""
    return {**_PARAM_SPEC[rel.kind][1], **rel.params}


def shared_param_priors(spec: SceneSpec) -> dict:
    """Declared value of each shared parameter: first occurrence wins."""
    priors: dict = {}
    for rel in spec.relations:
        if rel.shared_param is not None and rel.shared_param not in priors:
            priors[rel.shared_param] = float(relation_params(rel)[SHARED_PARAM_SLOTS[rel.kind]])
    return priors


def relation_terms(relations) -> list:
    """Terms of a relation sequence in evaluation order, as (group, indices).

    A relation other than around is a term of its own: (None, [i]).  The
    around relations sharing (scope, unit, target, group name) form one
    joint term over all their sources, (group name, [i, j, ...]), placed at
    its first member.
    """
    terms: list = []
    groups: dict = {}
    for i, rel in enumerate(relations):
        if rel.kind != "around":
            terms.append((None, [i]))
            continue
        name = rel.params["group"]
        key = (rel.scope, rel.unit, rel.target, name)
        if key not in groups:
            groups[key] = []
            terms.append((name, groups[key]))
        groups[key].append(i)
    return terms


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def _err(message: str, location: str):
    raise SceneSemanticError(message, location)


def _number(value, location: str, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _err("expected a number", location)
    v = float(value)
    if not math.isfinite(v):
        _err("number must be finite", location)
    if minimum is not None and v < minimum:
        _err(f"must be >= {minimum}", location)
    if maximum is not None and v > maximum:
        _err(f"must be <= {maximum}", location)
    return v


def _string(value, location: str) -> str:
    if not isinstance(value, str) or not value:
        _err("expected a non-empty string", location)
    return value


def _obj(value, location: str) -> dict:
    if not isinstance(value, dict):
        _err("expected an object", location)
    return value


def _check_keys(obj: dict, allowed, location: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        _err(f"unknown keys {sorted(unknown)}", location)


def _parse_room(data, location: str) -> Room:
    obj = _obj(data, location)
    _check_keys(obj, ("length", "width", "height"), location)
    out = {}
    for key in ("length", "width", "height"):
        if key not in obj:
            _err(f"missing {key!r}", location)
        v = _number(obj[key], f"{location}.{key}")
        if v <= 0.0:
            _err("room dimensions must be positive", f"{location}.{key}")
        out[key] = v
    return Room(**out)


def _parse_asset(data, location: str) -> Asset:
    obj = _obj(data, location)
    _check_keys(obj, ("id", "description", "size"), location)
    aid = _string(obj.get("id"), f"{location}.id")
    if aid == SCENE_TARGET or ":" in aid:
        _err("id is reserved", f"{location}.id")
    size = obj.get("size")
    if not isinstance(size, list) or len(size) != 3:
        _err("size must be [l, w, h]", f"{location}.size")
    dims = tuple(
        _number(size[k], f"{location}.size[{k}]") for k in range(3)
    )
    if min(dims) <= 0.0:
        _err("asset dimensions must be positive", f"{location}.size")
    description = obj.get("description", "")
    if not isinstance(description, str):
        _err("description must be a string", f"{location}.description")
    return Asset(aid, description, dims)


def _parse_unit(data, location: str) -> Unit:
    obj = _obj(data, location)
    _check_keys(obj, ("id", "anchor", "members"), location)
    uid = _string(obj.get("id"), f"{location}.id")
    if uid == SCENE_TARGET or ":" in uid:
        _err("id is reserved", f"{location}.id")
    anchor = _string(obj.get("anchor"), f"{location}.anchor")
    members = obj.get("members")
    if not isinstance(members, list) or not members:
        _err("members must be a non-empty list", f"{location}.members")
    names = tuple(_string(m, f"{location}.members[{k}]") for k, m in enumerate(members))
    return Unit(uid, anchor, names)


# Required and optional params for each relation kind.  Optional entries map
# to their default value.
_PARAM_SPEC: dict = {
    "distance": ({"d"}, {}),
    "gap": ({"g"}, {}),
    "against_wall": (set(), {}),
    "corner": ({"wall"}, {}),
    "facing": (set(), {}),
    "left_of": (set(), {"p": DEFAULT_P}),
    "right_of": (set(), {"p": DEFAULT_P}),
    "in_front_of": (set(), {"p": DEFAULT_P}),
    "behind_of": (set(), {"p": DEFAULT_P}),
    "angle_offset": ({"alpha"}, {}),
    "h_place": ({"x"}, {"margin": 0.0}),
    "v_place": ({"y"}, {"margin": 0.0}),
    "around": ({"group", "sweep", "center"}, {}),
}


def _parse_relation_params(kind: str, raw, location: str) -> dict:
    required, optional = _PARAM_SPEC[kind]
    obj = _obj(raw, location) if raw is not None else {}
    _check_keys(obj, required | set(optional), location)
    for key in required:
        if key not in obj:
            _err(f"missing param {key!r}", location)
    params = dict(optional)
    params.update(obj)
    if kind == "distance":
        params["d"] = _number(params["d"], f"{location}.d", minimum=0.0)
    elif kind == "gap":
        params["g"] = _number(params["g"], f"{location}.g", minimum=0.0)
    elif kind == "corner":
        params["wall"] = _string(params["wall"], f"{location}.wall")
    elif kind in DIRECTIONAL_KINDS:
        params["p"] = _number(params["p"], f"{location}.p", minimum=0.0, maximum=1.0)
    elif kind == "angle_offset":
        params["alpha"] = _number(params["alpha"], f"{location}.alpha")
    elif kind == "h_place":
        params["x"] = _number(params["x"], f"{location}.x")
        params["margin"] = _number(params["margin"], f"{location}.margin", minimum=0.0)
    elif kind == "v_place":
        params["y"] = _number(params["y"], f"{location}.y")
        params["margin"] = _number(params["margin"], f"{location}.margin", minimum=0.0)
    elif kind == "around":
        params["group"] = _string(params["group"], f"{location}.group")
        params["sweep"] = _number(
            params["sweep"], f"{location}.sweep", minimum=0.0, maximum=2.0 * math.pi
        )
        if params["sweep"] == 0.0:
            _err("sweep must be positive", f"{location}.sweep")
        params["center"] = _number(params["center"], f"{location}.center")
    return params


def _parse_relation(data, location: str) -> Relation:
    obj = _obj(data, location)
    _check_keys(
        obj, ("kind", "source", "target", "params", "scope", "unit", "shared_param"), location
    )
    kind = _string(obj.get("kind"), f"{location}.kind")
    if kind not in RELATION_KINDS:
        _err(f"unknown relation kind {kind!r}", f"{location}.kind")
    source = _string(obj.get("source"), f"{location}.source")
    target = _string(obj.get("target"), f"{location}.target")
    scope = obj.get("scope", "inter")
    if scope not in ("intra", "inter"):
        _err("scope must be 'intra' or 'inter'", f"{location}.scope")
    unit = obj.get("unit")
    if scope == "intra":
        unit = _string(unit, f"{location}.unit")
    elif unit is not None:
        _err("inter relations must not name a unit", f"{location}.unit")
    shared = obj.get("shared_param")
    if shared is not None:
        shared = _string(shared, f"{location}.shared_param")
        if kind not in SHARED_PARAM_SLOTS:
            _err(f"kind {kind!r} cannot share a parameter", f"{location}.shared_param")
    params = _parse_relation_params(kind, obj.get("params"), f"{location}.params")
    return Relation(kind, source, target, params, scope, unit, shared)


def _validate_endpoint(spec_units, assets, unit_lookup, rel: Relation, endpoint: str, location: str):
    """Check one endpoint id against the relation's scope rules."""
    name = getattr(rel, endpoint)
    if rel.scope == "intra":
        unit = spec_units[rel.unit]
        if name not in unit.assets:
            _err(
                f"intra relation of unit {rel.unit!r} references {name!r}, "
                "which is not an asset of that unit",
                location,
            )
        return
    # Inter scope: unit ids, independent asset ids, or scene tags only.
    if name in unit_lookup:
        owner = unit_lookup[name]
        hint = (
            f"use the unit id {owner!r} instead"
            if spec_units[owner].anchor == name
            else "unit members carry no scene-level relations"
        )
        _err(f"{name!r} belongs to unit {owner!r}; {hint}", location)
    if name not in assets and name not in spec_units:
        _err(f"unknown entity {name!r}", location)


def _validate_relation(spec_units, assets, unit_lookup, rel: Relation, location: str):
    if rel.kind in SCENE_ANCHORED_KINDS and rel.scope != "inter":
        _err(f"{rel.kind} relations are scene-anchored and must be inter", f"{location}.scope")

    # Target shape by kind.
    if rel.kind == "against_wall":
        wall = rel.target.removeprefix("wall:")
        if rel.target == wall or wall not in WALLS:
            _err("target must be 'wall:L|R|T|B'", f"{location}.target")
    elif rel.kind == "corner":
        tag = rel.target.removeprefix("corner:")
        if rel.target == tag or tag not in CORNER_WALLS:
            _err("target must be 'corner:BL|BR|TR|TL'", f"{location}.target")
        if rel.params["wall"] not in CORNER_WALLS[tag]:
            _err(
                f"wall {rel.params['wall']!r} is not adjacent to corner {tag!r}",
                f"{location}.params.wall",
            )
    elif rel.kind in ("h_place", "v_place"):
        if rel.target != SCENE_TARGET:
            _err("target must be 'scene'", f"{location}.target")
    else:
        if rel.target == SCENE_TARGET or ":" in rel.target:
            _err(f"{rel.kind} needs an entity target", f"{location}.target")
        _validate_endpoint(spec_units, assets, unit_lookup, rel, "target", f"{location}.target")

    if rel.source == SCENE_TARGET or ":" in rel.source:
        _err("source must be an entity id", f"{location}.source")
    _validate_endpoint(spec_units, assets, unit_lookup, rel, "source", f"{location}.source")

    if rel.source == rel.target:
        _err("source and target must differ", location)


def _validate_around_groups(relations, locations):
    for group, members in relation_terms(relations):
        if group is None:
            continue
        rels = [relations[i] for i in members]
        loc = locations[members[-1]]
        if len(rels) < 2:
            _err(f"around group {group!r} needs at least two sources", loc)
        sources = [r.source for r in rels]
        if len(set(sources)) != len(sources):
            _err(f"around group {group!r} repeats a source", loc)
        first = rels[0].params
        for i in members[1:]:
            r = relations[i]
            if r.params["sweep"] != first["sweep"] or r.params["center"] != first["center"]:
                _err(f"around group {group!r} mixes sweep/center values", locations[i])


def _validate_shared_params(relations, locations):
    seen: dict = {}
    for rel, loc in zip(relations, locations):
        if rel.shared_param is None:
            continue
        kind = seen.setdefault(rel.shared_param, rel.kind)
        if kind != rel.kind:
            _err(
                f"shared parameter {rel.shared_param!r} mixes kinds "
                f"{kind!r} and {rel.kind!r}",
                f"{loc}.shared_param",
            )


def _read_relation(raw, location: str, units_by_id, asset_ids, claimed) -> Relation:
    """One relation entry through the parser: parse, then check it against
    the scene's units and assets."""
    rel = _parse_relation(raw, location)
    if rel.scope == "intra" and rel.unit not in units_by_id:
        _err(f"unknown unit {rel.unit!r}", f"{location}.unit")
    _validate_relation(units_by_id, asset_ids, claimed, rel, location)
    return rel


def _validate_relation_list(relations):
    """The rules that span relations: around groups and shared parameters."""
    locations = [f"relations[{k}]" for k in range(len(relations))]
    _validate_around_groups(relations, locations)
    _validate_shared_params(relations, locations)


def parse_scene(text: str) -> SceneSpec:
    """Parse and validate scene JSON.

    Raises SceneSyntaxError for malformed JSON and SceneSemanticError (with a
    location path) for structural violations.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneSyntaxError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SceneSyntaxError("scene must be a JSON object")
    _check_keys(data, ("room", "assets", "units", "relations", "seed", "name"), "scene")

    if "room" not in data:
        _err("missing room", "scene")
    room = _parse_room(data["room"], "room")

    raw_assets = data.get("assets", [])
    if not isinstance(raw_assets, list):
        _err("assets must be a list", "assets")
    assets = []
    ids = set()
    for k, raw in enumerate(raw_assets):
        asset = _parse_asset(raw, f"assets[{k}]")
        if asset.id in ids:
            _err(f"duplicate asset id {asset.id!r}", f"assets[{k}].id")
        ids.add(asset.id)
        assets.append(asset)

    raw_units = data.get("units", [])
    if not isinstance(raw_units, list):
        _err("units must be a list", "units")
    units = []
    unit_ids = set()
    claimed: dict = {}
    for k, raw in enumerate(raw_units):
        unit = _parse_unit(raw, f"units[{k}]")
        loc = f"units[{k}]"
        if unit.id in unit_ids or unit.id in ids:
            _err(f"duplicate id {unit.id!r}", f"{loc}.id")
        unit_ids.add(unit.id)
        if len(set(unit.assets)) != len(unit.assets):
            _err("anchor and members must be distinct", loc)
        for aid in unit.assets:
            if aid not in ids:
                _err(f"unknown asset {aid!r}", loc)
            if aid in claimed:
                _err(f"asset {aid!r} already belongs to unit {claimed[aid]!r}", loc)
            claimed[aid] = unit.id
        units.append(unit)

    units_by_id = {u.id: u for u in units}

    raw_relations = data.get("relations", [])
    if not isinstance(raw_relations, list):
        _err("relations must be a list", "relations")
    relations = [
        _read_relation(raw, f"relations[{k}]", units_by_id, ids, claimed)
        for k, raw in enumerate(raw_relations)
    ]
    _validate_relation_list(relations)

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        _err("seed must be a non-negative integer", "seed")

    name = data.get("name", "")
    if not isinstance(name, str):
        _err("name must be a string", "name")

    return SceneSpec(room, tuple(assets), tuple(units), tuple(relations), seed, name)


def load_scene(path) -> SceneSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read())


def serialize_scene(spec: SceneSpec) -> str:
    """Scene back to JSON text; parse_scene(serialize_scene(s)) == s."""
    data: dict = {
        "room": {
            "length": spec.room.length,
            "width": spec.room.width,
            "height": spec.room.height,
        },
        "assets": [
            {"id": a.id, "description": a.description, "size": list(a.size)}
            for a in spec.assets
        ],
        "units": [
            {"id": u.id, "anchor": u.anchor, "members": list(u.members)}
            for u in spec.units
        ],
        "relations": [_relation_entry(r) for r in spec.relations],
        "seed": spec.seed,
    }
    if spec.name:
        data["name"] = spec.name
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


def _relation_entry(r: Relation) -> dict:
    """The JSON object serialize_scene writes for one relation."""
    entry: dict = {
        "kind": r.kind,
        "source": r.source,
        "target": r.target,
        "scope": r.scope,
    }
    if r.params:
        entry["params"] = dict(r.params)
    if r.unit is not None:
        entry["unit"] = r.unit
    if r.shared_param is not None:
        entry["shared_param"] = r.shared_param
    return entry


def replace_relations(spec: SceneSpec, relations, fresh) -> SceneSpec:
    """`spec` with `relations`, validated as a scene parser round trip of it
    would validate them, without the round trip.

    `spec` must be a parse_scene output.  The relations at the indices in
    `fresh` go through the parser's per-relation path, entry written as
    serialize_scene writes it, and come back as parser outputs; the others
    must be parser outputs for `spec`'s assets and units and are kept as
    they are.  The rules that span relations run over the whole list.
    Raises SceneSemanticError with the location the round trip would report.
    """
    relations = list(relations)
    for k in sorted(fresh):
        relations[k] = _read_relation(
            _relation_entry(relations[k]),
            f"relations[{k}]",
            spec._units_by_id,
            spec._assets_by_id,
            spec._unit_of,
        )
    _validate_relation_list(relations)
    return spec.with_relations(relations)


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------


@dataclass
class Layout:
    """Solved placement: asset id -> (x, y, z, theta), z at half height."""

    poses: dict

    def pose2d(self, asset_id: str) -> Pose2D:
        x, y, _, theta = self.poses[asset_id]
        return Pose2D(x, y, theta)


def serialize_layout(layout: Layout) -> str:
    """Deterministic JSON text for a layout; keys sorted, floats exact."""
    data = {
        "poses": {
            aid: {"x": p[0], "y": p[1], "z": p[2], "theta": p[3]}
            for aid, p in layout.poses.items()
        }
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def parse_layout(text: str) -> Layout:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneSyntaxError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("poses"), dict):
        raise SceneSyntaxError("layout must be an object with a 'poses' map")
    poses = {}
    for aid, raw in data["poses"].items():
        if not isinstance(raw, dict):
            raise SceneSyntaxError(f"pose of {aid!r} must be an object")
        try:
            poses[aid] = (
                float(raw["x"]),
                float(raw["y"]),
                float(raw["z"]),
                float(raw["theta"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SceneSyntaxError(f"pose of {aid!r} needs x, y, z, theta") from exc
        if not all(map(math.isfinite, poses[aid])):
            raise SceneSyntaxError(f"pose of {aid!r} must be finite")
    return Layout(poses)
