"""Acceptance sweep: one test per shipped guarantee.

Every test prints a single [PASS]/[FAIL] verdict line (visible with -s, and
embedded in the assertion message otherwise) and checks its guarantee at the
advertised tolerance.  Random inputs use frozen seeds so the sweep is
deterministic end to end.
"""

import math
import subprocess
import sys
import time
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from layoutopt.constraints import Weights, aggregate_global, param_index
from layoutopt.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from layoutopt.geometry import (
    Pose2D,
    compose,
    normalize_angle,
    polygon_area,
    polygon_intersection_area,
    relative,
)
from layoutopt.graph_analysis import ROOT, decomposition_savings
from layoutopt.harness import asset_polygon, eval_physical, room_polygon
from layoutopt.imagination import build_maps, detect_conflicts, imagine_and_revise, interpret_scene
from layoutopt.optimizer import OptimizerConfig, ParamState, convergence_benchmark, evaluate, solve
from layoutopt.scene_model import Asset, Relation, Room, SceneSpec, Unit

from gradcheck import OP_SAMPLERS, run_op_fd
from graphgen import random_cut_vertex_graph
from mc_oracle import mc_outside_area, mc_pair_area, random_scene_with_layout
from refgeom import FootprintBox

TAU = 0.0003


def _verdict(ok: bool, line: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


# 1 -- analytic gradients of every penalty op agree with central differences.


def test_every_penalty_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    failures = []
    for i, name in enumerate(OP_SAMPLERS):
        try:
            run_op_fd(name, 200, seed=1000 + i)
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _verdict(
        ok,
        f"gradient checks: {len(OP_SAMPLERS)} ops x 200 configs, h=1e-5, "
        f"rel tol 1e-4, {elapsed:.1f}s" + (f"; {failures[:2]}" if failures else ""),
    )


# 2 -- intra-unit relation losses are invariant to the unit frame pose.

_INTRA_KINDS = (
    "distance",
    "gap",
    "left_of",
    "right_of",
    "in_front_of",
    "behind_of",
    "facing",
    "angle_offset",
)


def _random_unit_scene(rng):
    n = int(rng.integers(2, 11))
    member_ids = tuple(f"m{k}" for k in range(n))
    assets = [Asset("anchor", "anchor", (float(rng.uniform(0.4, 1.2)), float(rng.uniform(0.4, 1.2)), 1.0))]
    locals_map = {}
    for mid in member_ids:
        assets.append(Asset(mid, "member", (float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 1.0)), 1.0)))
        locals_map[mid] = np.array(
            [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(-math.pi, math.pi)]
        )
    ids = ("anchor",) + member_ids
    relations = []
    for _ in range(int(rng.integers(1, 16))):
        kind = _INTRA_KINDS[rng.integers(0, len(_INTRA_KINDS))]
        source, target = rng.choice(len(ids), size=2, replace=False)
        params = {
            "distance": lambda: {"d": float(rng.uniform(0.3, 2.5))},
            "gap": lambda: {"g": float(rng.uniform(0.05, 0.6))},
            "facing": lambda: {},
            "angle_offset": lambda: {"alpha": float(rng.uniform(-math.pi, math.pi))},
        }.get(kind, lambda: {"p": float(rng.uniform(0.0, 1.0))})()
        relations.append(Relation(kind, ids[source], ids[target], params, "intra", "u"))
    spec = SceneSpec(
        room=Room(12.0, 12.0, 3.0),
        assets=tuple(assets),
        units=(Unit("u", "anchor", member_ids),),
        relations=tuple(relations),
    )
    twin = SceneSpec(
        room=spec.room,
        assets=spec.assets,
        units=(),
        relations=tuple(replace(r, scope="inter", unit=None) for r in relations),
    )
    frame = np.array([rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0), rng.uniform(-math.pi, math.pi)])
    return spec, twin, locals_map, frame


def _world_relation_total(twin, frame_arr, locals_map) -> float:
    frame = Pose2D(*frame_arr)
    poses = {"anchor": frame_arr.copy()}
    for mid, loc in locals_map.items():
        w = compose(frame, Pose2D(*loc))
        poses[mid] = np.array([w.x, w.y, w.theta])
    index = param_index(twin)
    lv = aggregate_global(twin, index, index.pack(poses), Weights(collision=0.0, relation=1.0, boundary=0.0))
    return lv.value


def test_intra_relations_are_invariant_to_unit_pose():
    rng = np.random.default_rng(77)
    h = 1e-5
    worst_grad = 0.0
    worst_fd = 0.0
    worst_gap = 0.0
    for _ in range(20):
        spec, twin, locals_map, frame = _random_unit_scene(rng)
        index = param_index(spec)
        state = ParamState(spec, index, index.pack({"u": frame, **locals_map}))
        total, grads, _ = evaluate(state, Weights(), 1, OptimizerConfig())
        g = grads[index.pose["u"]]
        worst_grad = max(worst_grad, float(np.abs(g).max()))

        world = _world_relation_total(twin, frame, locals_map)
        worst_gap = max(worst_gap, abs(total - world) / max(1.0, abs(total)))
        for i in range(3):
            up, dn = frame.copy(), frame.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                _world_relation_total(twin, up, locals_map)
                - _world_relation_total(twin, dn, locals_map)
            ) / (2.0 * h)
            worst_fd = max(worst_fd, abs(fd))
    ok = worst_grad == 0.0 and worst_fd < 1e-6 and worst_gap < 1e-9
    _verdict(
        ok,
        f"unit-pose invariance over 20 random units: analytic grad {worst_grad:.1e} "
        f"(exact zero), worst fd {worst_fd:.2e} < 1e-6, local/world gap {worst_gap:.2e}",
    )


# 3 -- rooting savings match the closed form on anchor-cut graphs.


def _bfs_hops(edges, start):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def test_rooting_savings_match_closed_form_on_cut_graphs():
    rng = np.random.default_rng(404)
    bad = []
    for k in range(50):
        g, unit = random_cut_vertex_graph(rng, max_nodes=50)
        report = decomposition_savings(g, (unit,))
        hops = _bfs_hops(g.edges, ROOT)
        closed = len(unit.members) * hops[unit.anchor]
        if not (report.delta == closed == report.cost - report.cost_prime):
            bad.append((k, report.delta, closed))
        if not report.per_unit[0].valid:
            bad.append((k, "invalid"))
    _verdict(not bad, f"closed-form savings exact on 50 random graphs (n<=50)" + (f"; {bad[:2]}" if bad else ""))


# 4 -- flat-parameterization anchor gradient stiffens linearly with fan-out.


def _star_grad_x(m: int, shift: float) -> float:
    assets = [Asset("anchor", "hub", (1.0, 1.0, 1.0))]
    assets += [Asset(f"m{i}", "node", (0.5, 0.5, 1.0)) for i in range(m)]
    rels = tuple(Relation("distance", f"m{i}", "anchor", {"d": 1.0}, "inter", None) for i in range(m))
    spec = SceneSpec(room=Room(40.0, 40.0, 3.0), assets=tuple(assets), units=(), relations=rels)
    poses = {"anchor": np.array([20.0 + shift, 20.0, 0.0])}
    for i in range(m):
        poses[f"m{i}"] = np.array([21.0, 20.0, 0.0])
    index = param_index(spec)
    lv = aggregate_global(spec, index, index.pack(poses), Weights(collision=0.0, relation=1.0, boundary=0.0))
    return float(lv.grads[index.pose["anchor"]][0])


def test_anchor_gradient_scales_with_member_count():
    delta = 1e-3
    single = _star_grad_x(1, delta) - _star_grad_x(1, 0.0)
    errs = []
    for m in (2, 8, 32):
        shift = _star_grad_x(m, delta) - _star_grad_x(m, 0.0)
        errs.append(abs(shift - m * single))
    base_err = abs(single - 2.0 * delta)
    ok = max(errs) < 1e-10 and base_err < 1e-10
    _verdict(
        ok,
        f"anchor gradient shift = M x single-member shift for M in (2, 8, 32); "
        f"max dev {max(errs):.2e} < 1e-10, per-member slope dev {base_err:.2e}",
    )


# 5 -- composing a common prefix never changes a relative pose.


def test_relative_pose_cancels_common_prefix():
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(1000):
        draw = lambda: Pose2D(
            float(rng.uniform(-10, 10)),
            float(rng.uniform(-10, 10)),
            float(rng.uniform(-4 * math.pi, 4 * math.pi)),
        )
        prefix, a, b = draw(), draw(), draw()
        lhs = relative(compose(prefix, a), compose(prefix, b))
        rhs = relative(a, b)
        worst = max(
            worst,
            abs(lhs.x - rhs.x),
            abs(lhs.y - rhs.y),
            abs(normalize_angle(lhs.theta - rhs.theta)),
        )
    _verdict(worst < 1e-9, f"prefix cancellation on 1000 random triples: worst dev {worst:.2e} < 1e-9")


# 6 -- every bundled scene solves to a clean, satisfied layout.

_SOLVE_SETTINGS = {
    "dining_set": OptimizerConfig(seed=0),
    "bookstore_rows": OptimizerConfig(seed=0),
    "star_unit": OptimizerConfig(seed=0),
    "conflict_pair": OptimizerConfig(seed=0),
    "mixed_ten": OptimizerConfig(seed=3),
}


def test_bundled_scenes_solve_clean():
    assert set(_SOLVE_SETTINGS) == set(FIXTURE_NAMES)
    rows = []
    ok = True
    for name, config in _SOLVE_SETTINGS.items():
        spec = load_fixture(name)
        t0 = time.perf_counter()
        layout, trace = solve(spec, config)
        elapsed = time.perf_counter() - t0
        rep = eval_physical(spec, layout)
        worst = max(trace.final_penalties.values())
        good = (
            rep.cr_percent == 0.0
            and rep.or_percent == 0.0
            and rep.tau_c == TAU
            and rep.tau_o == TAU
            and worst < 1e-3
            and len(trace.rows) <= 2 * 600
            and elapsed < 120.0
        )
        ok = ok and good
        rows.append(f"{name} CR={rep.cr_percent:.0f}% OR={rep.or_percent:.0f}% pen={worst:.1e} {elapsed:.1f}s")
    _verdict(ok, "bundled scenes solve to 0% collision/out-of-bounds, penalties < 1e-3: " + "; ".join(rows))


# Floors of (clean, clean + satisfied) solves over seeds 0-19 with the
# default config.  Clean is 0% collision and 0% out of bounds; satisfied is
# also every final penalty below 1e-3.  conflict_pair is revised first.  A
# change may raise a floor it earns, never lower one.
_SWEEP_FLOORS = {
    "star_unit": (20, 20),
    "dining_set": (20, 20),
    "conflict_pair": (20, 20),
    "bookstore_rows": (20, 20),
    "mixed_ten": (20, 20),
}


@pytest.mark.parametrize("name", list(_SWEEP_FLOORS))
def test_default_config_seed_sweep(name):
    assert set(_SWEEP_FLOORS) == set(FIXTURE_NAMES)
    spec = load_fixture(name)
    if name == "conflict_pair":
        spec, _ = imagine_and_revise(spec)
    clean = satisfied = 0
    for seed in range(20):
        layout, trace = solve(spec, OptimizerConfig(seed=seed))
        rep = eval_physical(spec, layout)
        ok = rep.cr_percent == 0.0 and rep.or_percent == 0.0
        clean += ok
        satisfied += ok and all(v < 1e-3 for v in trace.final_penalties.values())
    floor_clean, floor_satisfied = _SWEEP_FLOORS[name]
    _verdict(
        clean >= floor_clean and satisfied >= floor_satisfied,
        f"{name}, default config, seeds 0-19: clean {clean}/20 (floor {floor_clean}), "
        f"clean + satisfied {satisfied}/20 (floor {floor_satisfied})",
    )


# 7 -- the hierarchical parameterization converges faster on the star scene.


def test_star_scene_convergence_speedup():
    spec = load_fixture("star_unit")
    results = convergence_benchmark(spec, (0, 1, 2, 3, 4), threshold=0.1, config=OptimizerConfig())
    wins = sum(1 for r in results if r.reparam_iterations <= r.baseline_iterations)
    mean = sum(r.speedup for r in results) / len(results)
    diverged = any(r.diverged for r in results)
    ok = wins >= 4 and mean >= 1.2 and not diverged
    pairs = ", ".join(f"s{r.seed}:{r.reparam_iterations}/{r.baseline_iterations}" for r in results)
    _verdict(ok, f"star convergence at threshold 0.1: wins {wins}/5 (need >=4), mean speedup {mean:.2f}x (need >=1.2); {pairs}")


# 8 -- physical flags agree with a Monte Carlo membership oracle.


def test_physical_flags_match_membership_oracle():
    rng = np.random.default_rng(2026)
    checked = 0
    excluded = 0
    disagreements = []
    for k in range(100):
        spec, layout = random_scene_with_layout(rng)
        rep = eval_physical(spec, layout)
        polys = {a.id: asset_polygon(spec, a.id, layout) for a in spec.assets}
        boxes = {a.id: FootprintBox(layout.pose2d(a.id), a.half_l, a.half_w) for a in spec.assets}
        room = room_polygon(spec)
        ids = sorted(polys)
        mc_coll, mc_oob, marginal = set(), set(), set()
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                exact = polygon_intersection_area(polys[a], polys[b])
                if abs(exact - TAU) < 1e-5:
                    marginal.update((a, b))
                elif mc_pair_area(boxes[a], boxes[b], rng, samples=1_000_000) > TAU:
                    mc_coll.update((a, b))
        for aid in ids:
            exact_out = polygon_area(polys[aid]) - polygon_intersection_area(polys[aid], room)
            if abs(exact_out - TAU) < 1e-5:
                marginal.add(aid)
            elif mc_outside_area(boxes[aid], spec.room.length, spec.room.width, rng, samples=1_000_000) > TAU:
                mc_oob.add(aid)
        keep = set(ids) - marginal
        excluded += len(marginal)
        if set(rep.colliding_ids) & keep != mc_coll & keep:
            disagreements.append((k, "collision"))
        if set(rep.oob_ids) & keep != mc_oob & keep:
            disagreements.append((k, "bounds"))
        checked += len(keep)
    ok = not disagreements and checked > 500
    _verdict(
        ok,
        f"membership-oracle agreement on 100 scenes (1e6 samples/pair): {checked} objects, "
        f"{excluded} near-threshold exclusions, {len(disagreements)} disagreements",
    )


# 9 -- the revision loop fixes conflicted scenes and leaves clean ones alone.


def test_reviser_fixes_conflicts_and_spares_clean_scenes():
    spec = load_fixture("conflict_pair")
    revised, report = imagine_and_revise(spec, budget=10)
    poses = interpret_scene(revised)
    leftovers = detect_conflicts(revised, *build_maps(revised, poses))
    fixed = report.converged and report.iterations <= 10 and not leftovers

    untouched = []
    for name in FIXTURE_NAMES:
        if name == "conflict_pair":
            continue
        clean_spec = load_fixture(name)
        out, rep = imagine_and_revise(clean_spec, budget=10)
        untouched.append(out is clean_spec and rep.converged and rep.iterations == 1)
    ok = fixed and all(untouched)
    _verdict(
        ok,
        f"revision loop: conflicted scene resolved in {report.iterations} round(s) "
        f"(budget 10), {sum(untouched)}/4 clean scenes untouched",
    )


# 10 -- repeated CLI solves produce byte-identical artifacts.


def test_cli_solve_is_bit_reproducible(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(fixture_text("dining_set"))
    blobs = []
    outs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        paths = [d / "layout.json", d / "trace.csv", d / "plan.svg"]
        proc = subprocess.run(
            [
                sys.executable, "-m", "layoutopt.cli", "solve", str(scene),
                "--seed", "3",
                "--out", str(paths[0]), "--trace", str(paths[1]), "--svg", str(paths[2]),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(tuple(p.read_bytes() for p in paths))
        outs.append(proc.stdout)
    ok = blobs[0] == blobs[1] and outs[0] == outs[1]
    sizes = ", ".join(str(len(b)) for b in blobs[0])
    _verdict(ok, f"two CLI solves byte-identical (layout/trace/svg: {sizes} bytes; stdout equal)")
