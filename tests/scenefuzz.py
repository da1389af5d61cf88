"""Random valid scene dicts for the command-line property test."""

import math

from layoutopt.scene_model import CORNER_WALLS, KINDS, WALLS

_ENTITY_KINDS = sorted(k for k, (form, _, _) in KINDS.items() if form == "entity")
_ANCHORED_KINDS = sorted(k for k, (form, _, _) in KINDS.items() if form != "entity")


def _pick(rng, seq):
    return seq[int(rng.integers(0, len(seq)))]


def _params(rng, kind, room) -> dict:
    """Valid params for a kind other than around."""
    if kind in ("distance", "gap"):
        return {kind[0]: round(float(rng.uniform(0.0, 2.0)), 3)}
    if kind in ("left_of", "right_of", "in_front_of", "behind_of"):
        return {"p": round(float(rng.uniform(0.0, 1.0)), 3)} if rng.random() < 0.5 else {}
    if kind == "angle_offset":
        return {"alpha": round(float(rng.uniform(-math.pi, math.pi)), 3)}
    if kind in ("h_place", "v_place"):
        axis, extent = ("x", room["length"]) if kind == "h_place" else ("y", room["width"])
        return {axis: round(float(rng.uniform(0.0, extent)), 3), "margin": round(float(rng.uniform(0.0, 0.3)), 3)}
    return {}


def _relation(rng, kind, pool, group, room) -> list:
    """Entries of one relation of `kind` among the entity ids in `pool`, or
    of one around group named `group`; [] when the pool is too small for
    the kind."""
    form = KINDS[kind][0]
    if form != "entity":
        entry = {"kind": kind, "source": _pick(rng, pool)}
        if form == "wall":
            entry["target"] = f"wall:{_pick(rng, WALLS)}"
        elif form == "corner":
            tag = _pick(rng, sorted(CORNER_WALLS))
            entry["target"] = f"corner:{tag}"
            entry["params"] = {"wall": _pick(rng, CORNER_WALLS[tag])}
        else:
            entry["target"] = "scene"
            entry["params"] = _params(rng, kind, room)
        return [entry]
    if kind == "around":
        if len(pool) < 3:
            return []
        target, *sources = [pool[i] for i in rng.permutation(len(pool))]
        params = {"group": group, "sweep": round(float(rng.uniform(0.5, 2.0 * math.pi)), 3), "center": 0.0}
        return [{"kind": kind, "source": s, "target": target, "params": params} for s in sources[:2]]
    if len(pool) < 2:
        return []
    source, target = (pool[i] for i in rng.permutation(len(pool))[:2])
    entry = {"kind": kind, "source": source, "target": target, "params": _params(rng, kind, room)}
    if kind in ("distance", "gap") and rng.random() < 0.3:
        entry["shared_param"] = f"shared_{kind}"
    return [entry]


def random_valid_scene(rng) -> dict:
    """1-6 assets, an optional unit, and 0-8 relations of every kind, both
    intra (inside the unit) and inter (between scene entities)."""
    room = {k: round(float(rng.uniform(3.0, 8.0)), 2) for k in ("length", "width")}
    room["height"] = 3.0
    ids = [f"a{i}" for i in range(int(rng.integers(1, 7)))]
    assets = [
        {"id": a, "size": [round(float(rng.uniform(0.2, 1.5)), 2) for _ in range(3)]} for a in ids
    ]
    units, grouped = [], []
    if len(ids) >= 2 and rng.random() < 0.6:
        grouped = ids[: int(rng.integers(2, len(ids) + 1))]
        units.append({"id": "u", "anchor": grouped[0], "members": grouped[1:]})
    entities = [u["id"] for u in units] + [a for a in ids if a not in grouped]

    relations = []
    count = int(rng.integers(0, 9))
    for k in range(count):
        group = f"g{k}"
        if grouped and rng.random() < 0.4:
            entries = _relation(rng, _pick(rng, _ENTITY_KINDS), grouped, group, room)
            entries = [{**e, "scope": "intra", "unit": "u"} for e in entries]
        else:
            entries = _relation(rng, _pick(rng, _ENTITY_KINDS + _ANCHORED_KINDS), entities, group, room)
        if len(relations) + len(entries) <= count:
            relations.extend(entries)
    return {"room": room, "assets": assets, "units": units, "relations": relations}
