"""Seeded scene and layout generator for the benchmark workloads.

A generated scene mixes dining-style units (a table with four chairs held by
intra relations, as in the bundled dining_set) and short chains of
independent assets tied together by `distance`, `gap` and `left_of`, with
chain heads placed in the room or `against_wall`.  Half of the assets sit
in units.  Room area grows linearly with the asset count, so density stays
the same at every size.

Everything is drawn from `random.Random(seed_key)` and every float is rounded
before it is written, so one seed key gives byte-identical JSON.  The
generator imports nothing from the solver: the program only sees the text.
"""

from __future__ import annotations

import json
import math
import random

# Floor area per asset (m^2) and room aspect (length / width).
AREA_PER_ASSET = 2.5
ASPECT = 1.25
UNIT_SIZE = 5  # table + four chairs

CHAIN_LENGTH = 4  # independents per chain: a head and one member per chain kind

_FREE_KINDS = (
    ("sofa", (2.0, 0.9, 0.8)),
    ("armchair", (0.8, 0.8, 0.9)),
    ("shelf", (1.0, 0.4, 1.8)),
    ("lamp", (0.4, 0.4, 1.5)),
    ("cabinet", (1.2, 0.5, 0.9)),
    ("plant", (0.5, 0.5, 1.0)),
    ("side_table", (0.5, 0.5, 0.5)),
)
_CHAIN_KINDS = ("distance", "gap", "left_of")


def _r(v: float, digits: int = 3) -> float:
    return round(float(v), digits)


def _half_diag(size) -> float:
    return 0.5 * math.hypot(size[0], size[1])


def scene_dict(seed_key: str, n: int, conflicts: int = 0) -> dict:
    """A scene of exactly `n` assets.

    Units and chains of independents each get a cell of a grid over the
    room: a unit or a chain head is placed at its cell by `h_place`/`v_place`
    (a head may instead stand `against_wall` on the cell's nearest wall), and
    the three further chain members hang off the previous one by `distance`,
    `gap` and `left_of`, in an order drawn per chain.  `conflicts` chain
    members get a `distance` shorter than their footprints allow, the
    conflict_pair kind of defect that `imagine_and_revise` has to repair.
    """
    n_units = n // (2 * UNIT_SIZE)
    n_free = n - UNIT_SIZE * n_units
    n_chains = -(-n_free // CHAIN_LENGTH)
    members = [i for i in range(n_free) if i % CHAIN_LENGTH]
    if n_free < 1 or conflicts > len(members):
        raise ValueError(f"n={n} leaves too few chained assets for {conflicts} conflicts")
    rng = random.Random(seed_key)
    area = AREA_PER_ASSET * n
    width = _r(math.sqrt(area / ASPECT), 2)
    length = _r(area / width, 2)
    assets: list = []
    units: list = []
    relations: list = []

    groups = n_units + n_chains
    cols = max(1, math.ceil(math.sqrt(groups * ASPECT)))
    rows = max(1, math.ceil(groups / cols))
    cells = [
        (_r((c % cols + 0.5) * length / cols), _r((c // cols + 0.5) * width / rows))
        for c in rng.sample(range(cols * rows), groups)
    ]

    for k in range(n_units):
        uid, table = f"dining{k}", f"table{k}"
        chairs = [f"chair{k}_{side}" for side in "wens"]
        tl, tw, cs = _r(rng.uniform(1.2, 1.8)), _r(rng.uniform(0.8, 1.0)), _r(rng.uniform(0.4, 0.5))
        assets.append({"id": table, "description": "dining table", "size": [tl, tw, 0.75]})
        for c in chairs:
            assets.append({"id": c, "description": "dining chair", "size": [cs, cs, 0.9]})
        units.append({"id": uid, "anchor": table, "members": chairs})
        radius = _r(0.5 * tl + 0.3)
        for c, kind in zip(chairs, ("left_of", "right_of", "in_front_of", "behind_of")):
            relations.append(_intra(kind, c, table, uid))
        for c in chairs:
            rel = _intra("distance", c, table, uid, {"d": radius})
            rel["shared_param"] = f"seat_radius{k}"
            relations.append(rel)
        for c in chairs:
            relations.append(_intra("facing", c, table, uid))
        cx, cy = cells[k]
        relations.append(_inter("h_place", uid, "scene", {"x": cx}))
        relations.append(_inter("v_place", uid, "scene", {"y": cy}))

    conflicted = set(rng.sample(members, conflicts))
    prev = prev_size = None
    for i in range(n_free):
        kind, base = _FREE_KINDS[rng.randrange(len(_FREE_KINDS))]
        size = [_r(base[0] * rng.uniform(0.9, 1.1)), _r(base[1] * rng.uniform(0.9, 1.1)), base[2]]
        aid = f"{kind}{i}"
        assets.append({"id": aid, "description": kind.replace("_", " "), "size": size})
        if i % CHAIN_LENGTH == 0:
            # Each chain uses every kind once, in its own order, so the mix
            # of relation kinds (and so the cost of a solve) does not vary
            # from seed to seed.
            kinds = rng.sample(_CHAIN_KINDS, len(_CHAIN_KINDS))
            cx, cy = cells[n_units + i // CHAIN_LENGTH]
            if rng.random() < 0.3:
                # Stand on the wall nearest the cell, keep the cell's other coordinate.
                gaps = {"L": cx, "R": length - cx, "B": cy, "T": width - cy}
                wall = min(gaps, key=gaps.get)
                relations.append(_inter("against_wall", aid, f"wall:{wall}"))
                if wall in ("L", "R"):
                    relations.append(_inter("v_place", aid, "scene", {"y": cy}))
                else:
                    relations.append(_inter("h_place", aid, "scene", {"x": cx}))
            else:
                relations.append(_inter("h_place", aid, "scene", {"x": cx}))
                relations.append(_inter("v_place", aid, "scene", {"y": cy}))
        elif i in conflicted:
            d = 0.25 * (min(size[:2]) + min(prev_size[:2]))
            relations.append(_inter("distance", aid, prev, {"d": _r(d)}))
        else:
            rel_kind = kinds[i % CHAIN_LENGTH - 1]
            if rel_kind == "distance":
                d = _half_diag(size) + _half_diag(prev_size) + rng.uniform(0.1, 0.4)
                relations.append(_inter("distance", aid, prev, {"d": _r(d)}))
            elif rel_kind == "gap":
                relations.append(_inter("gap", aid, prev, {"g": _r(rng.uniform(0.1, 0.4))}))
            else:
                relations.append(_inter("left_of", aid, prev))
        prev, prev_size = aid, size

    return {
        "name": f"generated_n{n}",
        "room": {"length": length, "width": width, "height": 3.0},
        "assets": assets,
        "units": units,
        "relations": relations,
        "seed": 0,
    }


def _intra(kind: str, source: str, target: str, unit: str, params: dict | None = None) -> dict:
    rel = {"kind": kind, "source": source, "target": target, "scope": "intra", "unit": unit}
    if params:
        rel["params"] = params
    return rel


def _inter(kind: str, source: str, target: str, params: dict | None = None) -> dict:
    rel = {"kind": kind, "source": source, "target": target, "scope": "inter"}
    if params:
        rel["params"] = params
    return rel


def to_text(scene: dict) -> str:
    return json.dumps(scene) + "\n"


def layout_text(seed_key: str, scene: dict) -> str:
    """Uniform random in-room poses for every asset of `scene`, as layout JSON.

    Positions keep each footprint's half diagonal off the walls; headings are
    uniform.  Overlaps are left in on purpose: the checks measure them.
    """
    rng = random.Random(seed_key)
    length, width = scene["room"]["length"], scene["room"]["width"]
    poses = {}
    for a in scene["assets"]:
        m = _half_diag(a["size"])
        poses[a["id"]] = {
            "x": _r(rng.uniform(m, length - m), 4),
            "y": _r(rng.uniform(m, width - m), 4),
            "z": _r(0.5 * a["size"][2], 4),
            "theta": _r(rng.uniform(-math.pi, math.pi), 4),
        }
    return json.dumps({"poses": poses}, sort_keys=True) + "\n"
