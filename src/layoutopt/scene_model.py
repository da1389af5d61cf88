"""Declarative scene description and its validation.

A scene is a JSON object with a room, a list of assets, optional units
(asset groups with one anchor), and relations between entities.  Relations
at unit level ("intra") may reference only that unit's assets; scene-level
("inter") relations may reference only units, independent assets, walls,
corners, or the scene itself.  Unit members never carry inter relations;
the unit id stands in for the whole group.
"""

from __future__ import annotations

import copy
import json
import math
import operator
from dataclasses import dataclass, field, replace
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from operator import is_not

from .errors import SceneSemanticError, SceneSyntaxError
from .geometry import Pose2D

SCENE_TARGET = "scene"

WALLS = ("L", "R", "T", "B")

# Walls adjacent to each corner tag (bottom-left, bottom-right, ...).
CORNER_WALLS = {
    "BL": ("L", "B"),
    "BR": ("R", "B"),
    "TR": ("R", "T"),
    "TL": ("L", "T"),
}

# Alignment fraction p of a directional relation that does not give one.
DEFAULT_P = 0.5

# Markers in a param's entry of the kinds table: the default of a param a
# relation must give, and the bounds of a non-empty string param (a number
# param's bounds are (minimum, maximum), None for no bound).
_REQUIRED = None
_STRING = "string"

# The four directional kinds share one entry: the source sits on one side
# of the target, at the alignment fraction p along that side.
_DIRECTIONAL = ("entity", "p", (("p", DEFAULT_P, (0.0, 1.0)),))

# The kinds table, one entry per relation kind: (target form, shared slot,
# params).  The target form is "entity" (an entity id), "wall" ("wall:X"),
# "corner" ("corner:Y") or "scene"; all but "entity" anchor the kind to the
# room.  The shared slot is the scalar param a shared name binds, or None.
# Params are (name, default, bounds) in validation order; the parser adds
# one rule, sweep > 0.
KINDS = {
    "distance": ("entity", "d", (("d", _REQUIRED, (0.0, None)),)),
    "gap": ("entity", "g", (("g", _REQUIRED, (0.0, None)),)),
    "against_wall": ("wall", None, ()),
    "corner": ("corner", None, (("wall", _REQUIRED, _STRING),)),
    "facing": ("entity", None, ()),
    "left_of": _DIRECTIONAL,
    "right_of": _DIRECTIONAL,
    "in_front_of": _DIRECTIONAL,
    "behind_of": _DIRECTIONAL,
    "angle_offset": ("entity", "alpha", (("alpha", _REQUIRED, (None, None)),)),
    "h_place": ("scene", "x", (("x", _REQUIRED, (None, None)), ("margin", 0.0, (0.0, None)))),
    "v_place": ("scene", "y", (("y", _REQUIRED, (None, None)), ("margin", 0.0, (0.0, None)))),
    "around": ("entity", None, (
        ("group", _REQUIRED, _STRING),
        ("sweep", _REQUIRED, (0.0, 2.0 * math.pi)),
        ("center", _REQUIRED, (None, None)),
    )),
}

RELATION_KINDS = frozenset(KINDS)
DIRECTIONAL_KINDS = frozenset(k for k, entry in KINDS.items() if entry is _DIRECTIONAL)
SCENE_ANCHORED_KINDS = frozenset(k for k, (form, _, _) in KINDS.items() if form != "entity")
# Scalar parameter a shared name may bind, per relation kind.
SHARED_PARAM_SLOTS = {k: slot for k, (_, slot, _) in KINDS.items() if slot is not None}
# Default of each optional param, per relation kind.
_DEFAULTS = {
    k: {name: d for name, d, _ in params if d is not _REQUIRED} for k, (_, _, params) in KINDS.items()
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
    The parser's relations hold read-only params; to change one, build a new
    Relation, e.g. `dataclasses.replace(rel, params={...})`.
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
    """Validated scene: room, assets, units, relations, and a base seed.
    `_parsed` records the relations the parser produced for it, if any
    (the tuple `relations` was then, else None)."""

    room: Room
    assets: tuple[Asset, ...]
    units: tuple[Unit, ...]
    relations: tuple[Relation, ...]
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        self._parsed: tuple | None = None
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

    def is_asset(self, entity_id: str) -> bool:
        return entity_id in self._assets_by_id

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
    return {**_DEFAULTS[rel.kind], **rel.params}


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


def _load_json(text: str):
    """Decoded JSON text; malformed or too deeply nested text is a
    SceneSyntaxError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SceneSyntaxError(f"invalid JSON: {exc}") from exc


def _number(value, location: str, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _err("expected a number", location)
    try:
        v = float(value)
    except OverflowError:
        _err("number must be finite", location)
    if not math.isfinite(v):
        _err("number must be finite", location)
    if minimum is not None and v < minimum:
        _err(f"must be >= {minimum}", location)
    if maximum is not None and v > maximum:
        _err(f"must be <= {maximum}", location)
    return v


def _integer_at_least(value, least: int) -> bool:
    """Whether `value` is an integer, anything `operator.index` takes but a
    bool, of at least `least`."""
    try:
        return not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        return False


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
        _err(f"unknown keys {sorted(unknown, key=str)}", location)


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


class _Params(dict):
    """A parsed relation's params: a dict that refuses every edit, so the
    relation holds what the parser gave it; copy and pickle keep the type.
    `_read_only` builds and fills it, and an `__init__` called on it
    afterwards is refused, empty or not.  A dict method called unbound,
    `dict.__init__(params, ...)` or `dict.update(params, ...)`, still
    bypasses the guard."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a parsed relation's params are read-only; build a new Relation to change them")

    __init__ = __setitem__ = __delitem__ = __ior__ = update = pop = popitem = clear = setdefault = _refuse

    def __reduce__(self):
        return _read_only, (dict(self),)


def _read_only(params: dict) -> _Params:
    read_only = dict.__new__(_Params)
    dict.update(read_only, params)
    return read_only


def _parse_relation_params(kind: str, raw, location: str) -> dict:
    spec = KINDS[kind][2]
    obj = _obj(raw, location) if raw is not None else {}
    _check_keys(obj, [name for name, _, _ in spec], location)
    for name, default, _ in spec:
        if default is _REQUIRED and name not in obj:
            _err(f"missing param {name!r}", location)
    params = {**_DEFAULTS[kind], **obj}
    for name, _, bounds in spec:
        loc = f"{location}.{name}"
        if bounds is _STRING:
            params[name] = _string(params[name], loc)
        else:
            params[name] = _number(params[name], loc, *bounds)
        if name == "sweep" and params[name] == 0.0:
            _err("sweep must be positive", loc)
    return _read_only(params)


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


def _validate_endpoint(spec: SceneSpec, rel: Relation, endpoint: str, location: str):
    """Check one endpoint id against the relation's scope rules."""
    name = getattr(rel, endpoint)
    if rel.scope == "intra":
        if name not in spec.unit(rel.unit).assets:
            _err(
                f"intra relation of unit {rel.unit!r} references {name!r}, "
                "which is not an asset of that unit",
                location,
            )
        return
    # Inter scope: unit ids, independent asset ids, or scene tags only.
    owner = spec.unit_of(name)
    if owner is not None:
        hint = (
            f"use the unit id {owner!r} instead"
            if spec.unit(owner).anchor == name
            else "unit members carry no scene-level relations"
        )
        _err(f"{name!r} belongs to unit {owner!r}; {hint}", location)
    if not spec.is_asset(name) and not spec.is_unit(name):
        _err(f"unknown entity {name!r}", location)


def _validate_relation(spec: SceneSpec, rel: Relation, location: str):
    form = KINDS[rel.kind][0]
    if form != "entity" and rel.scope != "inter":
        _err(f"{rel.kind} relations are scene-anchored and must be inter", f"{location}.scope")

    if form == "entity":
        if rel.target == SCENE_TARGET or ":" in rel.target:
            _err(f"{rel.kind} needs an entity target", f"{location}.target")
        _validate_endpoint(spec, rel, "target", f"{location}.target")
    elif form == "scene":
        if rel.target != SCENE_TARGET:
            _err("target must be 'scene'", f"{location}.target")
    else:
        tags = WALLS if form == "wall" else CORNER_WALLS
        tag = rel.target.removeprefix(f"{form}:")
        if rel.target == tag or tag not in tags:
            _err(f"target must be '{form}:{'|'.join(tags)}'", f"{location}.target")
        if form == "corner" and rel.params["wall"] not in CORNER_WALLS[tag]:
            _err(
                f"wall {rel.params['wall']!r} is not adjacent to corner {tag!r}",
                f"{location}.params.wall",
            )

    if rel.source == SCENE_TARGET or ":" in rel.source:
        _err("source must be an entity id", f"{location}.source")
    _validate_endpoint(spec, rel, "source", f"{location}.source")

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


def _read_relation(raw, location: str, spec: SceneSpec) -> Relation:
    """One relation entry through the parser: parse, then check it against
    the units and assets of `spec`."""
    rel = _parse_relation(raw, location)
    if rel.scope == "intra" and not spec.is_unit(rel.unit):
        _err(f"unknown unit {rel.unit!r}", f"{location}.unit")
    _validate_relation(spec, rel, location)
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
    data = _load_json(text)
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

    base = SceneSpec(room, tuple(assets), tuple(units), ())

    raw_relations = data.get("relations", [])
    if not isinstance(raw_relations, list):
        _err("relations must be a list", "relations")
    relations = [
        _read_relation(raw, f"relations[{k}]", base)
        for k, raw in enumerate(raw_relations)
    ]
    _validate_relation_list(relations)

    seed = data.get("seed", 0)
    if not _integer_at_least(seed, 0):
        _err("seed must be a non-negative integer", "seed")

    name = data.get("name", "")
    if not isinstance(name, str):
        _err("name must be a string", "name")

    return _record_parsed(replace(base, relations=tuple(relations), seed=seed, name=name))


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
    if r.params != {}:
        # Params that are not a dict go as they are, for the parser to reject.
        entry["params"] = r.params
    if r.unit is not None:
        entry["unit"] = r.unit
    if r.shared_param is not None:
        entry["shared_param"] = r.shared_param
    return entry


def _record_parsed(spec: SceneSpec) -> SceneSpec:
    """`spec`, its relations recorded as the parser's outputs for it."""
    spec._parsed = spec.relations
    return spec


def _edited_positions(spec: SceneSpec, relations: list) -> list:
    """The positions of `relations`, in order, whose relation is not the one
    `spec` recorded at that index (whose read-only params still hold what
    the parser gave them); every position when `spec` has no record, or
    holds other relations than it recorded.  A spec from `parse_scene` or
    `replace_relations` has one."""
    old = spec._parsed
    if old is not spec.relations:
        return list(range(len(relations)))
    return [*compress(range(len(relations)), map(is_not, relations, old)), *range(len(old), len(relations))]


def _spans(rel: Relation) -> bool:
    """Whether a relation is one that the rules spanning relations read."""
    return rel.kind == "around" or rel.shared_param is not None


def replace_relations(spec: SceneSpec, relations) -> SceneSpec:
    """`spec` with `relations`, validated as a scene parser round trip of it
    would validate them, without the round trip.

    Only the edited positions are looked at, found by identity
    (`_edited_positions`): the relation at each one goes through the parser's
    per-relation path, entry written as serialize_scene writes it, unless
    it is one of the relations `spec` recorded, moved or repeated, whose
    read-only params hold what the parser gave them.  So the work is in
    proportion to the edit.  The rules that span relations run over the
    whole list only when the list shrank, when `spec` has no record, or
    when an old or new relation at an edited position is an around
    relation or carries a shared parameter: otherwise every relation those
    rules read is as it was, and was valid.  Room, assets and units stay
    `spec`'s.  Raises SceneSemanticError with the location the round trip
    would report.
    """
    relations = list(relations)
    edited = _edited_positions(spec, relations)
    record = spec._parsed is spec.relations
    old = spec.relations if record else ()
    whole = not record or len(relations) < len(old)
    recorded = set(map(id, old))
    for k in edited:
        rel = relations[k]
        if id(rel) not in recorded:
            rel = relations[k] = _read_relation(_relation_entry(rel), f"relations[{k}]", spec)
        whole = whole or _spans(rel) or (k < len(old) and _spans(old[k]))
    if whole:
        _validate_relation_list(relations)
    # A copy keeps `spec`'s lookup tables of assets and units, which a new
    # SceneSpec would build again.
    out = copy.copy(spec)
    out.relations = tuple(relations)
    return _record_parsed(out)


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
    """Deterministic JSON text for a layout; keys sorted, floats exact: the
    text of `json.dumps(data, indent=2, sort_keys=True) + "\\n"`, or its
    error."""
    text = _plain_layout_text(layout.poses)
    if text is not None:
        return text
    data = {
        "poses": {
            aid: {"x": p[0], "y": p[1], "z": p[2], "theta": p[3]}
            for aid, p in layout.poses.items()
        }
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# One pose as json.dumps(indent=2, sort_keys=True) writes it in a layout:
# the id's JSON string, then theta, x, y and z.
_POSE_TEXT = '    {}: {{\n      "theta": {},\n      "x": {},\n      "y": {},\n      "z": {}\n    }}'
# How json writes the floats float.__repr__ writes as these.
_NONFINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _plain_layout_text(poses: dict) -> str | None:
    """serialize_layout's text for a layout of str ids and 4-tuples of
    floats, as the parser and the solver make, written with the functions
    json's encoder calls for them; None for any other layout.  json.dumps
    with an indent runs its pure-Python encoder instead."""
    if not set(map(type, poses)) <= {str}:
        return None
    ids = sorted(poses)
    rows = list(map(poses.__getitem__, ids))
    if not set(map(type, rows)) <= {tuple} or not set(map(len, rows)) <= {4}:
        return None
    values = list(chain.from_iterable(rows))
    if not set(map(type, values)) <= {float}:
        return None
    if not values:
        return '{\n  "poses": {}\n}\n'
    texts = list(map(float.__repr__, values))
    # The sum is finite unless some value is not (or the sum overflows).
    if not math.isfinite(sum(values)):
        texts = [_NONFINITE_TEXT.get(t, t) for t in texts]
    keys = map(encode_basestring_ascii, ids)
    poses_text = ",\n".join(map(_POSE_TEXT.format, keys, texts[3::4], texts[0::4], texts[1::4], texts[2::4]))
    return '{\n  "poses": {\n' + poses_text + "\n  }\n}\n"


def parse_layout(text: str) -> Layout:
    data = _load_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("poses"), dict):
        raise SceneSyntaxError("layout must be an object with a 'poses' map")
    poses = {}
    for aid, raw in data["poses"].items():
        if not isinstance(raw, dict):
            raise SceneSyntaxError(f"pose of {aid!r} must be an object")
        try:
            pose = (raw["x"], raw["y"], raw["z"], raw["theta"])
        except KeyError as exc:
            raise SceneSyntaxError(f"pose of {aid!r} needs x, y, z, theta") from exc
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pose):
            raise SceneSyntaxError(f"pose of {aid!r} needs numbers for x, y, z, theta")
        try:
            poses[aid] = tuple(map(float, pose))
        except OverflowError:
            raise SceneSyntaxError(f"pose of {aid!r} must be finite") from None
        if not all(map(math.isfinite, poses[aid])):
            raise SceneSyntaxError(f"pose of {aid!r} must be finite")
    return Layout(poses)
