"""Random relation-graph generators for the BFS and savings oracles."""

from layoutopt.graph_analysis import ROOT, RelationGraph
from layoutopt.scene_model import Unit


def random_digraph(rng, max_nodes=10):
    """Small arbitrary digraph rooted at the scene node."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"a{i}" for i in range(n)]
    nodes = [ROOT] + names
    edges = set()
    # spanning edges keep most nodes reachable, extras add shortcuts
    for i, v in enumerate(names):
        if rng.random() < 0.85:
            pool = [ROOT] + names[:i]
            edges.add((pool[int(rng.integers(0, len(pool)))], v))
    for _ in range(int(rng.integers(0, 2 * n))):
        u = nodes[int(rng.integers(0, len(nodes)))]
        v = names[int(rng.integers(0, n))]
        if u != v:
            edges.add((u, v))
    return RelationGraph.from_edges(nodes, sorted(edges))


def enumerate_min_hops(g: RelationGraph, start: str, goal: str):
    """Exhaustive simple-path minimum edge count, or None."""
    best = [None]

    def walk(node, seen, hops):
        if best[0] is not None and hops >= best[0]:
            return
        if node == goal:
            best[0] = hops
            return
        for nxt in g.adjacency[node]:
            if nxt not in seen:
                walk(nxt, seen | {nxt}, hops + 1)

    walk(start, {start}, 0)
    return best[0]


def random_cut_vertex_graph(rng, max_nodes=50):
    """Digraph where one unit's anchor provably gates the root from members.

    Members only receive edges from the anchor or other members, so every
    root-to-member path passes the anchor; everything stays reachable.
    """
    depth = int(rng.integers(1, 5))
    n_members = int(rng.integers(1, 9))
    n_out = int(rng.integers(0, max(1, max_nodes - depth - n_members - 1)))
    n_out = min(n_out, 12)

    chain = [f"c{i}" for i in range(depth - 1)]
    members = [f"m{i}" for i in range(n_members)]
    outside = [f"o{i}" for i in range(n_out)]
    anchor = "hub"
    nodes = [ROOT] + chain + [anchor] + members + outside

    edges = set()
    prev = ROOT
    for c in chain:
        edges.add((prev, c))
        prev = c
    edges.add((prev, anchor))

    for i, m in enumerate(members):
        if i == 0 or rng.random() < 0.6:
            edges.add((anchor, m))
        else:
            edges.add((members[int(rng.integers(0, i))], m))
    for _ in range(int(rng.integers(0, n_members))):
        i = int(rng.integers(0, n_members))
        j = int(rng.integers(0, n_members))
        if i < j:
            edges.add((members[i], members[j]))

    for i, o in enumerate(outside):
        pool = [ROOT] + chain + [anchor] + outside[:i]
        edges.add((pool[int(rng.integers(0, len(pool)))], o))
    # shortcuts anywhere except into the member block from the outside
    safe_dst = [n for n in nodes if n not in members and n != ROOT]
    for _ in range(int(rng.integers(0, 6))):
        u = nodes[int(rng.integers(0, len(nodes)))]
        v = safe_dst[int(rng.integers(0, len(safe_dst)))]
        if u != v:
            edges.add((u, v))

    g = RelationGraph.from_edges(nodes, sorted(edges))
    return g, Unit("u", anchor, tuple(members))


def random_multi_unit_graph(rng, max_outside=8):
    """Digraph with 1-3 disjoint units whose members only the unit's anchor
    and fellow members point at, except that some units get a bypass edge
    from outside into one member.  Every node stays reachable."""
    n_units = int(rng.integers(1, 4))
    outside = [f"o{i}" for i in range(int(rng.integers(0, max_outside + 1)))]
    units = [
        Unit(f"u{k}", f"h{k}", tuple(f"m{k}_{i}" for i in range(int(rng.integers(1, 5)))))
        for k in range(n_units)
    ]
    edges = set()
    placed = [ROOT]
    # a spanning tree: outside nodes and anchors hang off anything placed,
    # members of other units included, so anchors sit at varying depths
    for v in outside + [u.anchor for u in units]:
        edges.add((placed[int(rng.integers(0, len(placed)))], v))
        placed.append(v)
        unit = next((u for u in units if u.anchor == v), None)
        if unit is None:
            continue
        for i, m in enumerate(unit.members):
            pool = unit.assets[: i + 1]
            edges.add((pool[int(rng.integers(0, len(pool)))], m))
        placed.extend(unit.members)
    nodes = [ROOT] + placed[1:]
    for _ in range(int(rng.integers(0, len(nodes)))):
        u, v = nodes[int(rng.integers(0, len(nodes)))], nodes[int(rng.integers(1, len(nodes)))]
        owner = next((w for w in units if v in w.members), None)
        if u != v and (owner is None or u in owner.assets):
            edges.add((u, v))
    for unit in units:
        if rng.random() < 0.3:
            outsiders = [n for n in nodes if n not in unit.assets]
            edges.add((outsiders[int(rng.integers(0, len(outsiders)))], unit.members[-1]))
    return RelationGraph.from_edges(nodes, sorted(edges)), units


def _bfs(g: RelationGraph, start: str, blocked=None) -> dict:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if v != blocked and v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def reference_savings(g: RelationGraph, units):
    """(cost, cost_prime, delta, per-unit rows) of the anchor-rooting
    savings, each valid unit's saving summed member by member from a BFS
    out of its anchor rather than taken from the closed form.  A row is
    (unit, members, depth, delta, valid)."""
    root_dist = _bfs(g, ROOT)
    cost = sum(d - 1 for n, d in root_dist.items() if n != ROOT)
    rows, saved_total = [], 0
    for unit in units:
        depth = root_dist[unit.anchor]
        gated = _bfs(g, ROOT, blocked=unit.anchor)
        if any(m in gated for m in unit.members):
            rows.append((unit.id, len(unit.members), depth, 0, False))
            continue
        anchor_dist = _bfs(g, unit.anchor)
        saved = sum((root_dist[m] - 1) - (anchor_dist[m] - 1) for m in unit.members)
        rows.append((unit.id, len(unit.members), depth, saved, True))
        saved_total += saved
    return cost, cost - saved_total, saved_total, rows
