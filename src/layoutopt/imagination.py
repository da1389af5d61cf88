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

The revision loop compiles, imagines, maps and detects again only when a
revision can move the imagined layout.  Since pins are first-wins, a
distance or gap term whose every pin found its slot already set is idle:
its value reaches no slot.  When a reviser edits only the params of idle
distance and gap relations, the next round reuses the conflicts of the last
pass, which a fresh pass would find again bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .constraints import Block, Term, _block_boxes, _proxy_pairs, param_index
from .errors import RevisionError, SceneSemanticError
from .geometry import Pose2D, half_extents, normalize_angle
from .scene_model import Relation, SceneSpec, _edited_positions, _integer_at_least, replace_relations

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
        # Pins that set a slot so far; the others were no-ops.
        self.set_count = 0

    def pin(self, k: int, axis: int, value: float):
        if self.slots[k][axis] is None:
            self.slots[k][axis] = float(value)
            self.set_count += 1

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


def _run_pass(block: Block, halves, default_xy: tuple, idle: set | None = None) -> list:
    """The (x, y, theta) of each box of `block` after its terms, in order;
    `halves` gives each box's (half_l, half_w).  The label of each idle
    term, one whose every pin was a no-op, goes into `idle` if given."""
    board = _Board(halves, block.rows, default_xy)
    for term in block.terms:
        before = board.set_count
        _apply_term(board, term)
        if idle is not None and board.set_count == before:
            idle.add(term.label)
    return board.resolved()


def _imagine(spec: SceneSpec, index, idle: set | None = None) -> list:
    """The imagined pose rows of `index`'s vector, the plan `index` holds
    for `spec`, as a list laid out as the vector: unit frames and
    independent assets in world coordinates, unit members in their frame's
    coordinates.  The shared slots stay 0.0.  The labels of the idle terms
    go into `idle` if given (see `_run_pass`)."""
    xs = [0.0] * index.size
    for u in spec.units:
        block = index.blocks[u.id]
        centers = _run_pass(block, block.halves, (0.0, 0.0), idle)
        for r, c in zip(block.rows[1:], centers[1:]):
            xs[r : r + 3] = c

    # With every unit frame still at the origin, a stand-in box is centered
    # on its offset in the unit frame.
    scene = index.blocks[None]
    boxes, _ = _block_boxes(scene, xs)
    centers = _run_pass(scene, [box[3:] for box in boxes], (0.5 * spec.room.length, 0.5 * spec.room.width), idle)
    for r, (x, y, theta), box, frame in zip(scene.rows, centers, boxes, scene.frames):
        if frame is not None:
            # Relations position the stand-in box; shift back to the frame.
            ox, oy = box[0], box[1]
            ct, st = math.cos(theta), math.sin(theta)
            x, y = x - (ct * ox - st * oy), y - (st * ox + ct * oy)
        xs[r : r + 3] = x, y, theta
    return xs


def interpret_scene(spec: SceneSpec) -> dict:
    """Candidate poses for every entity: unit frames and independent assets
    in world coordinates, unit members in their frame's coordinates.  The
    poses of `_imagine` on the scene's compiled plan, as `Pose2D`s."""
    index = param_index(spec)
    xs = _imagine(spec, index)
    members = [eid for u in spec.units for eid in index.blocks[u.id].ids[1:]]
    return {eid: Pose2D(*xs[index.pose[eid]]) for eid in members + list(index.blocks[None].ids)}


def _maps(index, xs: list) -> tuple:
    """`build_maps` at the flat vector `xs` (a list) laid out by `index`."""
    local_maps = {}
    for uid, block in index.blocks.items():
        entries = dict(zip(block.ids, _block_boxes(block, xs)[0]))
        if uid is None:
            global_map = CognitiveMap("scene", entries)
        else:
            local_maps[uid] = CognitiveMap(uid, entries, tuple(xs[index.pose[uid]]))
    return local_maps, global_map


def build_maps(spec: SceneSpec, poses: dict):
    """Local map per unit plus the global map, from a full pose assignment
    (`ParamIndex.pack`, which raises MissingEntityError for an entity with
    no pose), on the kernel boxes of the scene's compiled plan.

    Local maps hold the kernel boxes of each unit's anchor and members in
    the unit frame; the global map holds each unit's stand-in box, the one
    the objective sees, and the independent assets.
    """
    index = param_index(spec)
    return _maps(index, index.pack(poses).tolist())


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
    sorted by the text of their keys, which a reviser may mix in type; any
    other params, which the parser rejects afterwards, stand as their repr."""
    return (
        rel.kind,
        rel.source,
        rel.target,
        tuple(sorted(rel.params.items(), key=lambda item: str(item[0])))
        if isinstance(rel.params, dict)
        else repr(rel.params),
        rel.scope,
        rel.unit,
        rel.shared_param,
    )


def _describe(key: tuple) -> str:
    kind, source, target, items, scope, unit, _ = key
    where = scope if unit is None else f"{scope}:{unit}"
    params = items if isinstance(items, str) else ", ".join(f"{k}={v!r}" for k, v in items)
    return f"{where} {kind} {source}->{target} ({params})"


class _RelationKeys:
    """The `_rel_key` of each relation of a scene, in list order, with their
    multiset, kept from one revision to the next by keying only the edited
    positions.  The keys are taken before the reviser runs."""

    def __init__(self, spec: SceneSpec):
        self.keys = [_rel_key(r) for r in spec.relations]
        # None: count afresh; it stays None while a key is unhashable.
        self.counts: Counter | None = None

    def diff(self, relations: list, edited: list):
        """The keys the revision removed and added, in list order, with one
        edit line each; the keys become those of `relations`.

        Every position but the `edited` ones holds the relation it held,
        unchanged, so its key stands.  A key counts as removed or added when
        the other list lacks it, so only the keys at edited positions or cut
        from the tail can.  An unhashable key comes from a param value the
        parser rejects afterwards; the lists stand in for the multiset then.
        """
        keys, n = self.keys, len(relations)
        new_keys = keys[:n] + [None] * (n - len(keys))
        for k in edited:
            new_keys[k] = _rel_key(relations[k])
        old = [keys[k] for k in edited if k < len(keys)] + keys[n:]
        new = [new_keys[k] for k in edited]
        try:
            counts = Counter(keys) if self.counts is None else self.counts
            added = [key for key in new if not counts.get(key)]
            for key in old:
                counts[key] -= 1
            for key in new:
                counts[key] = counts.get(key, 0) + 1
            removed = [key for key in old if not counts[key]]
        except TypeError:
            counts = None
            added = [key for key in new if key not in keys]
            removed = [key for key in old if key not in new_keys]
        self.keys, self.counts = new_keys, counts
        edits = [f"- {_describe(k)}" for k in removed] + [f"+ {_describe(k)}" for k in added]
        return removed, added, edits

    def rekey(self, relations: list, revised: tuple, edited: list):
        """Make the keys of the reviser's `relations` those of the `revised`
        ones: `replace_relations` kept the reviser's object or parsed it,
        and a parser output is keyed afresh."""
        for k in edited:
            out = revised[k]
            if out is relations[k]:
                continue
            key = _rel_key(out)
            if self.counts is not None:
                self.counts[self.keys[k]] -= 1
                self.counts[key] += 1
            self.keys[k] = key


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


def _places_alike(old: tuple, new: tuple, idle: set, positions) -> bool:
    """Whether the interpreter provably places relations `new` as it placed
    `old`, whose last pass found the terms labeled in `idle` idle.

    Each relation of `new` that is not `old`'s object at its index must be
    a distance or gap relation with no shared parameter, between the same
    ends in the same scope as `old`'s, and its term must be idle.  Such a
    term reaches the plan only as `Term.value`, which `_apply_term` reads
    only for its pins, all no-ops; its direction counter does not read it.
    So every slot is set as before, by the same terms, and the same terms
    stay idle.  An empty `idle` says nothing, so it never matches.  Only
    `positions` are looked at: every other one must hold `old`'s object.
    """
    if not idle or len(old) != len(new):
        return False
    for i in positions:
        a, b = old[i], new[i]
        if a is b:
            continue
        if (
            b.kind not in ("distance", "gap")
            or a.shared_param is not None
            or b.shared_param is not None
            or (a.kind, a.source, a.target, a.scope, a.unit) != (b.kind, b.source, b.target, b.scope, b.unit)
            or f"relations[{i}]" not in idle
        ):
            return False
    return True


def imagine_and_revise(spec: SceneSpec, reviser=baseline_reviser, budget: int = 10):
    """Imagine, detect, revise until conflict-free or out of `budget`
    rounds, an integer of at least 1 (`scene_model._integer_at_least`).

    Returns (possibly revised spec, RevisionReport).  Edits outside the
    conflicting scopes raise RevisionError, and so does a revised relation
    list the scene parser rejects.  Every revision goes through
    `scene_model.replace_relations`, which decides which relations to parse;
    the room, assets and units are kept as given.

    A round costs what the reviser changed: the positions of its list whose
    relation is not the one the round started with are found by identity
    (`scene_model._edited_positions`), and only they are keyed for the edit
    lines, parsed and checked for the rules that span relations.  The
    first round keys every relation.  A parsed relation's params are
    read-only: a reviser that tries to edit them in place gets the
    TypeError, unwrapped, as it gets any error of its own.

    A fresh pass compiles the scene once and imagines, maps and detects on
    that plan and its vector (`_imagine`, `_maps`), bit for bit
    `build_maps` of `interpret_scene`.  A round reuses the last pass's
    conflicts instead when the last revision provably leaves the imagined
    layout as it was (`_places_alike`): the reviser only edited distance or
    gap relations whose terms pinned nothing.
    """
    if not _integer_at_least(budget, 1):
        raise ValueError(f"budget must be an integer of at least 1, got {budget}")
    current = spec
    rounds = []
    keys = detected = None
    for t in range(1, budget + 1):
        if detected is None:
            idle: set = set()
            index = param_index(current)
            detected = tuple(detect_conflicts(current, *_maps(index, _imagine(current, index, idle))))
        if not detected:
            rounds.append(RevisionRound(t, (), ()))
            return current, RevisionReport(True, t, tuple(rounds))
        if keys is None:
            keys = _RelationKeys(current)
        conflicts = list(detected)
        relations = list(reviser(current, conflicts))
        edited = _edited_positions(current, relations)
        removed, added, edits = keys.diff(relations, edited)
        _check_locality(removed, added, conflicts)
        try:
            revised = replace_relations(current, relations)
        except SceneSemanticError as exc:
            raise RevisionError(f"reviser produced an invalid scene: {exc}") from exc
        rounds.append(RevisionRound(t, tuple(conflicts), tuple(edits)))
        keys.rekey(relations, revised.relations, edited)
        if not _places_alike(current.relations, revised.relations, idle, edited):
            detected = None
        current = revised
    return current, RevisionReport(False, budget, tuple(rounds))
