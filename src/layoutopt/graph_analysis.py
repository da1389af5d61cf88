"""Relation-graph accounting: hop distances and frame-shift savings.

Each relation contributes one directed edge from its reference to the
constrained entity; room-anchored relations hang off the scene root node.
Entities are resolved to assets, units to their anchor asset, so the graph
is always over A plus the root.  Composing a relation along a path of m
edges takes m - 1 intermediate frame shifts; rooting a unit's members at
the anchor saves exactly |members| * depth(anchor) shifts when the anchor
is the only doorway from the root into the unit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import MissingEntityError, UnreachableNodeError
from .scene_model import SceneSpec

ROOT = "scene"


@dataclass(frozen=True)
class RelationGraph:
    nodes: tuple
    edges: tuple  # one (reference, target) per relation, duplicates kept
    adjacency: dict  # collapsed: node -> tuple of successors

    @staticmethod
    def from_edges(nodes, edges) -> "RelationGraph":
        nodes = tuple(nodes)
        known = set(nodes)
        for u, v in edges:
            if u not in known or v not in known:
                raise MissingEntityError(f"edge ({u!r}, {v!r}) references an unknown node")
        adj: dict = {n: [] for n in nodes}
        for u, v in edges:
            if v not in adj[u]:
                adj[u].append(v)
        return RelationGraph(nodes, tuple(edges), {n: tuple(vs) for n, vs in adj.items()})


def _resolve_endpoint(spec: SceneSpec, endpoint: str) -> str:
    if endpoint == ROOT or endpoint.startswith("wall:") or endpoint.startswith("corner:"):
        return ROOT
    if spec.is_unit(endpoint):
        return spec.unit(endpoint).anchor
    return endpoint


def build_graph(spec: SceneSpec) -> RelationGraph:
    """One node per asset plus the root; one edge per relation."""
    nodes = (ROOT,) + tuple(a.id for a in spec.assets)
    edges = [
        (_resolve_endpoint(spec, r.target), _resolve_endpoint(spec, r.source))
        for r in spec.relations
    ]
    return RelationGraph.from_edges(nodes, edges)


def _hops_from(g: RelationGraph, start: str) -> dict:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def hop_distance(g: RelationGraph, u: str, v: str) -> int:
    """Edge count of the shortest directed path."""
    dist = _hops_from(g, u)
    if v not in dist:
        raise UnreachableNodeError(f"{v!r} is not reachable from {u!r}")
    return dist[v]


def path_cost(g: RelationGraph, u: str, v: str) -> int:
    """Frame shifts needed to compose a relation u -> v: hops minus one."""
    return hop_distance(g, u, v) - 1


def anchor_is_cut(g: RelationGraph, anchor: str, members) -> bool:
    """True when every root-to-member path passes through the anchor."""
    dist = {ROOT: 0}
    queue = deque([ROOT])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if v == anchor or v in dist:
                continue
            dist[v] = dist[u] + 1
            queue.append(v)
    return not any(m in dist for m in members)


@dataclass(frozen=True)
class UnitSaving:
    unit: str
    members: int
    depth: int  # hops from the root to the anchor
    delta: int  # members * depth, the closed-form saving
    valid: bool  # anchor really is the only doorway


@dataclass(frozen=True)
class CostReport:
    cost: int
    cost_prime: int
    delta: int
    per_unit: tuple

    def to_text(self) -> str:
        lines = [f"cost {self.cost}, rooted cost {self.cost_prime}, saved {self.delta}"]
        for u in self.per_unit:
            status = "ok" if u.valid else "skipped: anchor is not a cut vertex"
            lines.append(
                f"  unit {u.unit}: {u.members} member(s) at depth {u.depth}, "
                f"delta {u.delta} [{status}]"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["unit,members,depth,delta,valid"]
        for u in self.per_unit:
            lines.append(f"{u.unit},{u.members},{u.depth},{u.delta},{int(u.valid)}")
        lines.append(f"total,,,{self.delta},")
        return "\n".join(lines) + "\n"


def decomposition_savings(g: RelationGraph, units) -> CostReport:
    """Frame-shift cost of the flat graph versus anchor-rooted units.

    Units whose anchor can be bypassed are reported invalid and excluded
    from the rooted cost; the equality delta = sum of members * depth holds
    for the analyzed ones.
    """
    root_dist = _hops_from(g, ROOT)
    assets = [n for n in g.nodes if n != ROOT]
    missing = [n for n in assets if n not in root_dist]
    if missing:
        raise UnreachableNodeError(f"nodes unreachable from the root: {missing}")

    cost = sum(root_dist[v] - 1 for v in assets)
    cost_prime = cost
    per_unit = []
    for unit in units:
        members = tuple(unit.members)
        valid = anchor_is_cut(g, unit.anchor, members)
        depth = root_dist[unit.anchor]
        if not valid:
            per_unit.append(UnitSaving(unit.id, len(members), depth, 0, False))
            continue
        anchor_dist = _hops_from(g, unit.anchor)
        saved = 0
        for m in members:
            if m not in anchor_dist:
                raise UnreachableNodeError(f"{m!r} is not reachable from {unit.anchor!r}")
            saved += (root_dist[m] - 1) - (anchor_dist[m] - 1)
        cost_prime -= saved
        per_unit.append(UnitSaving(unit.id, len(members), depth, len(members) * depth, True))
    return CostReport(cost, cost_prime, cost - cost_prime, tuple(per_unit))


def hop_histogram(g: RelationGraph, flagged) -> dict:
    """Error rate per hop depth: hop -> (assets, flagged, percent).

    Assets the root cannot reach are left out (they have no hop count).
    """
    flagged = set(flagged)
    assets = {n for n in g.nodes if n != ROOT}
    stray = flagged - assets
    if stray:
        raise MissingEntityError(f"flagged ids outside the graph: {sorted(stray)}")
    root_dist = _hops_from(g, ROOT)
    buckets: dict = {}
    for n in sorted(assets):
        if n not in root_dist:
            continue
        hop = root_dist[n]
        total, bad = buckets.get(hop, (0, 0))
        buckets[hop] = (total + 1, bad + (1 if n in flagged else 0))
    return {
        hop: (total, bad, 100.0 * bad / total) for hop, (total, bad) in sorted(buckets.items())
    }
