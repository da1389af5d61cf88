"""Spatial imagination: candidate poses, cognitive maps, conflict revision.

The placement interpreter is a deterministic forward pass over relations in
file order, not an optimizer.  Anchored relations (walls, corners, axis
targets) pin coordinates against the room; relative relations place a source
off its already placed reference at the relation's zero-penalty geometry;
whatever stays unconstrained falls back to the room center (unit members:
the frame origin).  Each coordinate of an entity is pinned at most once,
first relation wins, so contradictions surface as geometric conflicts
instead of silent overwrites.

Everything here reads the scene compiled once, as the objective reads it:
the relation plan of `constraints.param_index`.  The interpreter runs over
each Block's terms, by box position, so it places by the same walls,
corners, sides and parameter values as the penalties, and sees a unit at
scene level as the same stand-in box, from `constraints._block_boxes`.  The
cognitive maps are those kernel boxes, (x, y, theta, half_l, half_w), per
frame, and conflicts are the pairs whose axis-aligned proxies overlap, found
by the broadphase of the collision term, `constraints._proxy_pairs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constraints import Block, Term, _block_boxes, _blocks, _pose_rows, _proxy_pairs, param_index
from .errors import MissingEntityError, RevisionError, SceneSemanticError
from .geometry import Pose2D, half_extents, normalize_angle
from .scene_model import Relation, SceneSpec, replace_relations

# Imagined side/ring placements clear the proxy boxes by this much.
SIDE_CLEARANCE = 0.01
RING_CLEARANCE = 0.05
# Separation margin added on top of the required one by the baseline reviser.
REVISE_MARGIN = 0.05

# Direction fan for successive center-distance placements off one reference.
_DISTANCE_CYCLE = (0.0, 0.5, 1.0, 1.5, 0.25, 0.75, 1.25, 1.75)
_GAP_CYCLE = (0.0, 1.0, 0.5, 1.5)


@dataclass(frozen=True)
class CognitiveMap:
    """The kernel boxes of one frame, by entity id: a unit's anchor, at the
    origin, and members in the unit frame, or the scene's unit stand-ins and
    independent assets in the room.  `frame` is a unit frame's (x, y, theta)
    in the room, None for the scene."""

    scope: str  # "scene" or a unit id
    entries: dict
    frame: tuple | None = None


@dataclass(frozen=True)
class Conflict:
    """Proxy collision between two entities of one map; the boxes are the
    map's kernel boxes of the pair."""

    level: str  # "intra" or "inter"
    unit: str | None
    pair: tuple
    overlap: tuple  # positive overlap per axis, meters
    box_a: tuple
    box_b: tuple


class _Board:
    """Coordinate slots of one frame's boxes (scene or unit local), by box
    position; an anchor sits at the frame origin."""

    def __init__(self, halves, rows: tuple, default_xy: tuple):
        self.halves = halves
        self.default_xy = default_xy
        self.slots = [[None, None, None] if r is not None else [0.0, 0.0, 0.0] for r in rows]
        self.counters: dict = {}

    def pin(self, k: int, axis: int, value: float):
        if self.slots[k][axis] is None:
            self.slots[k][axis] = float(value)

    def theta(self, k: int) -> float:
        v = self.slots[k][2]
        return 0.0 if v is None else v

    def center(self, k: int) -> tuple[float, float]:
        s = self.slots[k]
        x = self.default_xy[0] if s[0] is None else s[0]
        y = self.default_xy[1] if s[1] is None else s[1]
        return x, y

    def half_extents(self, k: int, theta=None) -> tuple[float, float]:
        hl, hw = self.halves[k]
        return half_extents(hl, hw, self.theta(k) if theta is None else theta)[:2]

    def next_direction(self, k: int, cycle) -> float:
        n = self.counters.get(k, 0)
        self.counters[k] = n + 1
        turns = cycle[n % len(cycle)] + 0.125 * (n // len(cycle))
        return turns * math.pi

    def resolved(self) -> list:
        return [(*self.center(k), self.theta(k)) for k in range(len(self.slots))]


def _apply_term(board: _Board, term: Term):
    """Pin whatever coordinates this term's zero-loss geometry dictates."""
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
        _apply_around_group(board, term)
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
        # Place at the hinge threshold plus clearance, aligned at fraction p:
        # the zero-loss side is opposite the hinge sign sigma.
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


def _apply_around_group(board: _Board, term: Term):
    """Ring placement at the group's zero-penalty geometry: directions and
    headings evenly spread over the sweep, radius big enough to clear."""
    *sources, focal = term.ends
    sweep, center = term.consts
    n = len(sources)
    delta = sweep / (n - 1) if n > 1 else 0.0
    fx, fy = board.center(focal)
    f_theta = board.theta(focal)
    hl_f, hw_f = board.halves[focal]
    for j, src in enumerate(sources):
        phi = center - 0.5 * sweep + j * delta
        heading = normalize_angle(f_theta + phi)
        hl_s, hw_s = board.halves[src]
        radius = math.hypot(hl_f, hw_f) + math.hypot(hl_s, hw_s) + RING_CLEARANCE
        ang = f_theta + phi
        board.pin(src, 0, fx + radius * math.cos(ang))
        board.pin(src, 1, fy + radius * math.sin(ang))
        board.pin(src, 2, heading)


def _run_pass(block: Block, halves, default_xy: tuple) -> list:
    """The (x, y, theta) of each box of `block` after its terms, in order;
    `halves` gives each box's (half_l, half_w)."""
    board = _Board(halves, block.rows, default_xy)
    for term in block.terms:
        _apply_term(board, term)
    return board.resolved()


def interpret_scene(spec: SceneSpec) -> dict:
    """Candidate poses for every entity: unit frames and independent assets
    in world coordinates, unit members in their frame's coordinates."""
    index = param_index(spec)
    xs = [0.0] * index.size
    poses: dict = {}
    for u in spec.units:
        block = index.blocks[u.id]
        centers = _run_pass(block, block.halves, (0.0, 0.0))
        for eid, r, c in zip(block.ids[1:], block.rows[1:], centers[1:]):
            xs[r : r + 3] = c
            poses[eid] = Pose2D(*c)

    # With every unit frame still at the origin, a stand-in box is centered
    # on its offset in the unit frame.
    scene = index.blocks[None]
    boxes, _ = _block_boxes(scene, xs)
    centers = _run_pass(scene, [box[3:] for box in boxes], (0.5 * spec.room.length, 0.5 * spec.room.width))
    for eid, (x, y, theta), box, frame in zip(scene.ids, centers, boxes, scene.frames):
        if frame is None:
            poses[eid] = Pose2D(x, y, theta)
            continue
        # Relations position the stand-in box; shift back to the frame.
        ox, oy = box[0], box[1]
        ct, st = math.cos(theta), math.sin(theta)
        poses[eid] = Pose2D(x - (ct * ox - st * oy), y - (st * ox + ct * oy), theta)
    return poses


def build_maps(spec: SceneSpec, poses: dict):
    """Local map per unit plus the global map, from a full pose assignment.

    Local maps hold the kernel boxes of each unit's anchor and members in
    the unit frame; the global map holds each unit's stand-in box, the one
    the objective sees, and the independent assets.
    """
    pose = _pose_rows(spec)
    xs = [0.0] * (3 * len(pose))
    for eid, rows in pose.items():
        if eid not in poses:
            raise MissingEntityError(f"no pose for {eid!r}")
        p = poses[eid]
        xs[rows] = p.x, p.y, p.theta
    blocks = _blocks(spec, pose)
    scene = blocks.pop(None)
    local_maps = {}
    for uid, block in blocks.items():
        entries = dict(zip(block.ids, _block_boxes(block, xs)[0]))
        local_maps[uid] = CognitiveMap(uid, entries, tuple(xs[pose[uid]]))
    return local_maps, CognitiveMap("scene", dict(zip(scene.ids, _block_boxes(scene, xs)[0])))


def _overlap(a: tuple, b: tuple):
    """Overlap per axis of two kernel boxes' axis-aligned proxies, or None
    unless both are positive."""
    ax_a, ay_a, _, _ = half_extents(a[3], a[4], a[2])
    ax_b, ay_b, _, _ = half_extents(b[3], b[4], b[2])
    ox = min(a[0] + ax_a, b[0] + ax_b) - max(a[0] - ax_a, b[0] - ax_b)
    oy = min(a[1] + ay_a, b[1] + ay_b) - max(a[1] - ay_a, b[1] - ay_b)
    if ox > 0.0 and oy > 0.0:
        return ox, oy
    return None


def _overlaps(entries: dict) -> list:
    """(a, b, overlap) of each pair of entries whose proxies overlap, a < b,
    in lexicographic order."""
    ids, boxes = list(entries), list(entries.values())
    out = []
    for i, j in _proxy_pairs(boxes):
        if ids[j] < ids[i]:
            i, j = j, i
        ov = _overlap(boxes[i], boxes[j])
        if ov is not None:
            out.append((ids[i], ids[j], ov))
    out.sort(key=lambda t: t[:2])
    return out


def _world_boxes(local_map: CognitiveMap) -> list:
    fx, fy, ftheta = local_map.frame
    c, s = math.cos(ftheta), math.sin(ftheta)
    return [
        (fx + c * x - s * y, fy + s * x + c * y, ftheta + t, hl, hw)
        for x, y, t, hl, hw in local_map.entries.values()
    ]


def _members_overlap(map_a: CognitiveMap, map_b: CognitiveMap) -> bool:
    """Whether a member of one unit and one of the other collide, both laid
    out in world coordinates."""
    boxes = _world_boxes(map_a) + _world_boxes(map_b)
    n = len(map_a.entries)
    return any(i < n <= j and _overlap(boxes[i], boxes[j]) is not None for i, j in _proxy_pairs(boxes))


def detect_conflicts(spec: SceneSpec, local_maps: dict, global_map: CognitiveMap) -> list:
    """Pairwise proxy collisions, intra maps first, lexicographic pairs.

    A unit-versus-unit overlap of stand-in boxes is confirmed only when some
    member pair collides once both units are laid out in world coordinates;
    the coarse boxes overestimate.
    """
    out = []
    for u in spec.units:
        entries = local_maps[u.id].entries
        for a, b, ov in _overlaps(entries):
            out.append(Conflict("intra", u.id, (a, b), ov, entries[a], entries[b]))

    entries = global_map.entries
    for a, b, ov in _overlaps(entries):
        if spec.is_unit(a) and spec.is_unit(b) and not _members_overlap(local_maps[a], local_maps[b]):
            continue
        out.append(Conflict("inter", None, (a, b), ov, entries[a], entries[b]))
    return out


# ---------------------------------------------------------------------------
# Revision
# ---------------------------------------------------------------------------


def _required_center_distance(conflict: Conflict, source_id: str) -> float:
    """Center separation along the current direction that just clears the
    proxies on at least one axis."""
    src = conflict.box_a if conflict.pair[0] == source_id else conflict.box_b
    tgt = conflict.box_b if conflict.pair[0] == source_id else conflict.box_a
    ux, uy = src[0] - tgt[0], src[1] - tgt[1]
    n = math.hypot(ux, uy)
    if n < 1e-9:
        ux, uy = 1.0, 0.0
    else:
        ux, uy = ux / n, uy / n
    ea = half_extents(src[3], src[4], src[2])
    eb = half_extents(tgt[3], tgt[4], tgt[2])
    best = math.inf
    for axis_i, u in enumerate((ux, uy)):
        if abs(u) > 1e-9:
            best = min(best, (ea[axis_i] + eb[axis_i]) / abs(u))
    return best


def _link_key(scope: str, unit, a: str, b: str) -> tuple:
    """What a conflict and the metric relation linking its pair share: the
    scope, the unit of an intra scope, and the unordered pair."""
    return scope, unit if scope == "intra" else None, frozenset((a, b))


def baseline_reviser(spec: SceneSpec, conflicts: list) -> tuple:
    """Deterministic conflict repair: bump the linking metric relation to the
    required separation plus a margin, or append a small gap requirement when
    no metric relation links the pair.  No conflicts, no edits.

    The linking relation of a pair is the first distance or gap relation of
    the conflict's scope between the two; a gap appended for one conflict
    links its pair for the conflicts after it.
    """
    relations = list(spec.relations)
    linking: dict = {}
    for i, rel in enumerate(relations):
        if rel.kind in ("distance", "gap") and rel.scope in ("intra", "inter"):
            linking.setdefault(_link_key(rel.scope, rel.unit, rel.source, rel.target), i)
    for c in conflicts:
        key = _link_key(c.level, c.unit, *c.pair)
        idx = linking.get(key)
        if idx is not None:
            rel = relations[idx]
            params = dict(rel.params)
            if rel.kind == "distance":
                params["d"] = _required_center_distance(c, rel.source) + REVISE_MARGIN
            else:
                params["g"] = min(c.overlap) + rel.params["g"] + REVISE_MARGIN
            relations[idx] = Relation(
                rel.kind, rel.source, rel.target, params, rel.scope, rel.unit, rel.shared_param
            )
            continue
        linking[key] = len(relations)
        first, second = sorted(c.pair)
        relations.append(
            Relation(
                "gap",
                second,
                first,
                {"g": REVISE_MARGIN},
                "intra" if c.level == "intra" else "inter",
                c.unit,
            )
        )
    return tuple(relations)


def _rel_key(rel: Relation) -> tuple:
    """A relation as the revision diff compares and reports it.  Params are
    sorted by the text of their keys, which a reviser may mix in type."""
    return (
        rel.kind,
        rel.source,
        rel.target,
        tuple(sorted(rel.params.items(), key=lambda item: str(item[0]))),
        rel.scope,
        rel.unit,
        rel.shared_param,
    )


def _describe(key: tuple) -> str:
    kind, source, target, items, scope, unit, _ = key
    where = scope if unit is None else f"{scope}:{unit}"
    params = ", ".join(f"{k}={v!r}" for k, v in items)
    return f"{where} {kind} {source}->{target} ({params})"


def _relation_diff(old_keys: list, new: tuple):
    """Keys of `old_keys` that `new` lacks and the reverse, in list order,
    with one edit line each.  `old_keys` are taken before the reviser runs,
    so a relation it edited in place reads as removed and added."""
    new_keys = [_rel_key(r) for r in new]
    try:
        old_in, new_in = set(old_keys), set(new_keys)
    except TypeError:
        # An unhashable param value, which the parser rejects afterwards.
        old_in, new_in = old_keys, new_keys
    removed = [k for k in old_keys if k not in new_in]
    added = [k for k in new_keys if k not in old_in]
    edits = [f"- {_describe(k)}" for k in removed] + [f"+ {_describe(k)}" for k in added]
    return removed, added, edits


@dataclass(frozen=True)
class RevisionRound:
    index: int
    conflicts: tuple
    edits: tuple


@dataclass(frozen=True)
class RevisionReport:
    converged: bool
    iterations: int
    rounds: tuple

    @property
    def final_conflicts(self) -> tuple:
        return () if self.converged else self.rounds[-1].conflicts

    def to_text(self) -> str:
        lines = []
        for r in self.rounds:
            lines.append(f"round {r.index}: {len(r.conflicts)} conflict(s)")
            for c in r.conflicts:
                where = c.level if c.unit is None else f"{c.level}:{c.unit}"
                lines.append(
                    f"  {where} {c.pair[0]} x {c.pair[1]} "
                    f"overlap {c.overlap[0]:.4f} x {c.overlap[1]:.4f}"
                )
            for e in r.edits:
                lines.append(f"  {e}")
        tail = (
            f"converged after {self.iterations} round(s)"
            if self.converged
            else f"not converged within {self.iterations} round(s)"
        )
        lines.append(tail)
        return "\n".join(lines) + "\n"


def _check_locality(removed, added, conflicts):
    allowed = set()
    for c in conflicts:
        allowed.add(("intra", c.unit) if c.level == "intra" else ("inter", None))
    for key in list(removed) + list(added):
        scope, unit = key[4:6]
        if (scope, unit) not in allowed:
            raise RevisionError(
                f"revision touched {scope} relation {_describe(key)} "
                "outside the conflicting scopes"
            )


def imagine_and_revise(spec: SceneSpec, reviser=baseline_reviser, budget: int = 10):
    """Imagine, detect, revise until conflict-free or out of budget.

    Returns (possibly revised spec, RevisionReport).  Edits outside the
    conflicting scopes raise RevisionError, and so does a revised relation
    list the scene parser rejects.  Every revision goes through
    `scene_model.replace_relations`, which decides which relations to parse;
    the room, assets and units are kept as given.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    current = spec
    rounds = []
    for t in range(1, budget + 1):
        poses = interpret_scene(current)
        local_maps, global_map = build_maps(current, poses)
        conflicts = detect_conflicts(current, local_maps, global_map)
        if not conflicts:
            rounds.append(RevisionRound(t, (), ()))
            return current, RevisionReport(True, t, tuple(rounds))
        # Taken before the reviser runs, to catch params it edits in place.
        old_keys = [_rel_key(r) for r in current.relations]
        new_relations = tuple(reviser(current, conflicts))
        removed, added, edits = _relation_diff(old_keys, new_relations)
        _check_locality(removed, added, conflicts)
        try:
            current = replace_relations(current, new_relations)
        except SceneSemanticError as exc:
            raise RevisionError(f"reviser produced an invalid scene: {exc}") from exc
        rounds.append(RevisionRound(t, tuple(conflicts), tuple(edits)))
    return current, RevisionReport(False, budget, tuple(rounds))
