"""Graph construction, hop costs, and the anchor-rooting savings formula."""

import numpy as np
import pytest

from graphgen import (
    enumerate_min_hops,
    random_cut_vertex_graph,
    random_digraph,
    random_multi_unit_graph,
    reference_savings,
)
from layoutopt.errors import MissingEntityError, UnreachableNodeError
from layoutopt.fixtures import load_fixture
from layoutopt.graph_analysis import (
    ROOT,
    RelationGraph,
    anchor_is_cut,
    build_graph,
    decomposition_savings,
    hop_distance,
    hop_histogram,
    path_cost,
)
from layoutopt.scene_model import Asset, Room, SceneSpec, Unit


def test_empty_relation_set_gives_edgeless_graph():
    spec = SceneSpec(
        room=Room(5.0, 5.0, 3.0),
        assets=(Asset("a", "box", (1, 1, 1)), Asset("b", "box", (1, 1, 1))),
        units=(),
        relations=(),
    )
    g = build_graph(spec)
    assert set(g.nodes) == {ROOT, "a", "b"}
    assert g.edges == ()
    assert all(g.adjacency[n] == () for n in g.nodes)


def test_dining_edge_contract():
    g = build_graph(load_fixture("dining_set"))
    assert len(g.edges) == 14  # one per relation, duplicates kept
    assert g.adjacency[ROOT] == ("table",)
    assert set(g.adjacency["table"]) == {"chair_w", "chair_e", "chair_n", "chair_s"}
    assert path_cost(g, ROOT, "table") == 0
    assert path_cost(g, ROOT, "chair_w") == 1


def test_unit_endpoints_resolve_to_anchor():
    g = build_graph(load_fixture("mixed_ten"))
    # the corner relation constrains the unit, so its edge lands on the anchor
    assert (ROOT, "desk") in g.edges
    assert ("side_table", "stool2") in g.edges
    assert len(g.edges) == len(load_fixture("mixed_ten").relations)


def test_path_cost_direct_edge_and_chain():
    g = RelationGraph.from_edges((ROOT, "a", "b"), ((ROOT, "a"), ("a", "b")))
    assert path_cost(g, ROOT, "a") == 0
    assert path_cost(g, ROOT, "b") == 1
    assert hop_distance(g, ROOT, "b") == 2
    with pytest.raises(UnreachableNodeError):
        path_cost(g, "b", "a")


def test_path_cost_matches_exhaustive_enumeration():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(60):
        g = random_digraph(rng)
        targets = [n for n in g.nodes if n != ROOT]
        for v in targets[:4]:
            expected = enumerate_min_hops(g, ROOT, v)
            if expected is None:
                with pytest.raises(UnreachableNodeError):
                    hop_distance(g, ROOT, v)
            else:
                assert hop_distance(g, ROOT, v) == expected
                checked += 1
    assert checked > 100


def test_star_unit_depth_one():
    edges = [(ROOT, "hub")] + [("hub", f"m{i}") for i in range(4)]
    g = RelationGraph.from_edges([ROOT, "hub"] + [f"m{i}" for i in range(4)], edges)
    report = decomposition_savings(g, [Unit("u", "hub", ("m0", "m1", "m2", "m3"))])
    assert (report.cost, report.cost_prime, report.delta) == (4, 0, 4)
    assert report.per_unit[0].delta == 4 and report.per_unit[0].valid


def test_chain_unit_depth_two():
    g = RelationGraph.from_edges(
        (ROOT, "x", "hub", "m"), ((ROOT, "x"), ("x", "hub"), ("hub", "m"))
    )
    report = decomposition_savings(g, [Unit("u", "hub", ("m",))])
    assert (report.cost, report.cost_prime, report.delta) == (3, 1, 2)
    assert report.per_unit[0].depth == 2


def test_random_cut_graphs_closed_form_exact():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g, unit = random_cut_vertex_graph(rng)
        assert anchor_is_cut(g, unit.anchor, unit.members)
        report = decomposition_savings(g, [unit])
        closed = len(unit.members) * hop_distance(g, ROOT, unit.anchor)
        assert report.delta == closed
        assert report.cost - report.cost_prime == closed
        # distances through a gated anchor always decompose
        for m in unit.members:
            assert hop_distance(g, ROOT, m) == hop_distance(g, ROOT, unit.anchor) + hop_distance(
                g, unit.anchor, m
            )
        assert report.delta >= len(unit.members)  # depth >= 1 makes it strict


def test_multi_unit_savings_match_a_per_member_bfs():
    # The closed form against the member-by-member saving, on graphs where
    # several units nest at varying depths and some anchors are bypassed.
    rng = np.random.default_rng(23)
    bypassed = deep = 0
    for _ in range(200):
        g, units = random_multi_unit_graph(rng)
        cost, cost_prime, delta, rows = reference_savings(g, units)
        report = decomposition_savings(g, units)
        assert (report.cost, report.cost_prime, report.delta) == (cost, cost_prime, delta)
        assert [(u.unit, u.members, u.depth, u.delta, u.valid) for u in report.per_unit] == rows
        bypassed += sum(not valid for *_, valid in rows)
        deep += sum(depth > 1 and valid for _, _, depth, _, valid in rows)
    assert bypassed > 50 and deep > 100


def test_bypassed_anchor_is_flagged_and_skipped():
    g = RelationGraph.from_edges(
        (ROOT, "hub", "m"), ((ROOT, "hub"), ("hub", "m"), (ROOT, "m"))
    )
    report = decomposition_savings(g, [Unit("u", "hub", ("m",))])
    assert not report.per_unit[0].valid
    assert report.cost_prime == report.cost and report.delta == 0
    assert "skipped" in report.to_text()
    assert report.to_csv().splitlines()[1].endswith(",0")


@pytest.mark.parametrize(
    "unit", [Unit("u", "ghost", ("m",)), Unit("u", "hub", ("m", "ghost"))], ids=["anchor", "member"]
)
def test_unit_naming_an_id_outside_the_graph_raises(unit):
    g = RelationGraph.from_edges((ROOT, "hub", "m"), ((ROOT, "hub"), ("hub", "m")))
    with pytest.raises(MissingEntityError) as info:
        decomposition_savings(g, [unit])
    assert str(info.value) == "unit ids outside the graph: ['ghost']"


def test_edge_to_an_unknown_node_raises():
    with pytest.raises(MissingEntityError) as info:
        RelationGraph.from_edges((ROOT, "a"), ((ROOT, "a"), ("a", "ghost")))
    assert str(info.value) == "edge ('a', 'ghost') references an unknown node"


def test_hop_histogram_leaves_out_assets_the_root_cannot_reach():
    g = RelationGraph.from_edges((ROOT, "a", "b"), ((ROOT, "a"),))
    assert hop_histogram(g, ("b",)) == {1: (1, 0, 0.0)}


def test_hop_histogram_rates():
    g = build_graph(load_fixture("dining_set"))
    clean = hop_histogram(g, ())
    assert clean == {1: (1, 0, 0.0), 2: (4, 0, 0.0)}
    everything = hop_histogram(g, [a.id for a in load_fixture("dining_set").assets])
    assert everything == {1: (1, 1, 100.0), 2: (4, 4, 100.0)}
    two_chairs = hop_histogram(g, ("chair_w", "chair_n"))
    assert two_chairs[2] == (4, 2, 50.0)
    with pytest.raises(KeyError):
        hop_histogram(g, ("ghost",))
