"""Tests of the benchmark itself.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import run
import scenegen
from spans import SpanLog, self_times

# run.run() imports layoutopt afresh, so tests take modules from sys.modules
# at the time they need them.
lo, _ = run.import_program()

TIMING_FIELDS = ("ops_per_s", "op_s_p50", "op_s_p90", "raw_ops_per_s", "raw_op_s_p50", "speed_factor")


@pytest.mark.parametrize("n, conflicts", [(10, 0), (40, 0), (80, 2), (160, 1)])
def test_generator_is_deterministic_and_valid(n, conflicts):
    text = scenegen.to_text(scenegen.scene_dict("t:1", n, conflicts))
    assert text == scenegen.to_text(scenegen.scene_dict("t:1", n, conflicts))
    assert text != scenegen.to_text(scenegen.scene_dict("t:2", n, conflicts))
    spec = lo.scene_model.parse_scene(text)
    assert len(spec.assets) == n
    lo.optimizer.init_state(spec, 0)  # raises InfeasibleRoomError if an asset cannot fit
    scene = json.loads(text)
    layout_text = scenegen.layout_text("t:1:layout", scene)
    assert layout_text == scenegen.layout_text("t:1:layout", scene)
    assert set(lo.scene_model.parse_layout(layout_text).poses) == {a.id for a in spec.assets}


def test_generator_room_area_grows_with_n():
    rooms = [scenegen.scene_dict("t:3", n)["room"] for n in (40, 80, 160)]
    areas = [r["length"] * r["width"] for r in rooms]
    assert areas[1] == pytest.approx(2 * areas[0], rel=1e-3)
    assert areas[2] == pytest.approx(4 * areas[0], rel=1e-3)


def test_self_times_on_synthetic_tree():
    # 0: root [0, 10]
    #   1: [1, 3]   with child 3: [2, 3]
    #   2: [2, 5]   overlaps 1, so [1, 5] is covered once
    #   4: [6, 12]  sticks out of the root; only [6, 10] counts against it
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 2.0, 6.0]
    end = [10.0, 3.0, 5.0, 3.0, 12.0]
    np.testing.assert_allclose(self_times(parent, start, end), [2.0, 1.0, 3.0, 1.0, 6.0])


def test_self_times_groups_children_by_parent():
    # Two roots whose children interleave in time order of recording.
    parent = [-1, -1, 0, 1, 0, 1]
    start = [0.0, 0.0, 1.0, 1.5, 4.0, 2.0]
    end = [5.0, 5.0, 2.0, 4.5, 4.5, 3.0]
    np.testing.assert_allclose(self_times(parent, start, end), [3.5, 2.0, 1.0, 3.0, 0.5, 1.0])


def test_spanlog_patches_every_lookup_site_and_restores():
    layoutopt, _ = run.import_program()
    constraints, optimizer = layoutopt.constraints, layoutopt.optimizer
    originals = (constraints.aggregate_global, constraints.collision_loss)
    spec = layoutopt.scene_model.parse_scene(scenegen.to_text(scenegen.scene_dict("t:4", 10)))
    state = optimizer.init_state(spec, 0)
    log = SpanLog()
    log.install(
        [
            ("layoutopt.optimizer", "evaluate", "optimizer.evaluate", None),
            ("layoutopt.constraints", "aggregate_global", "constraints.aggregate_global", None),
            ("layoutopt.constraints", "collision_loss", "constraints.collision_loss", run._collision_hit),
        ]
    )
    try:
        assert optimizer.aggregate_global is not originals[0]
        assert layoutopt.aggregate_global is optimizer.aggregate_global
        optimizer.evaluate(state, constraints.Weights(), 2, optimizer.OptimizerConfig())
    finally:
        log.restore()
    assert optimizer.aggregate_global is originals[0]
    assert constraints.aggregate_global is originals[0]
    assert layoutopt.aggregate_global is originals[0]
    assert constraints.collision_loss is originals[1]

    names, _, _, parents = log.arrays()
    by_name = {log.names[i]: np.nonzero(names == i)[0] for i in range(len(log.names))}
    (evaluate,) = by_name["optimizer.evaluate"]
    (glob,) = by_name["constraints.aggregate_global"]
    assert parents[glob] == evaluate
    summary = log.summary()
    assert summary["constraints.collision_loss"]["calls"] > 0
    assert 0 <= summary["constraints.collision_loss"]["tally"] <= summary["constraints.collision_loss"]["calls"]
    assert all(row["self_s"] >= 0.0 for row in summary.values())


def _non_timing(summary: dict) -> dict:
    out = {k: v for k, v in summary.items() if k not in TIMING_FIELDS}
    out["ops"] = [{k: v for k, v in op.items() if k not in ("op_s", "kernel_s")} for op in summary["ops"]]
    return out


@pytest.mark.parametrize("workload", ["check", "fixtures", "rooms"])
def test_two_runs_agree_on_every_non_timing_field(workload):
    # seconds=0 runs exactly one whole cycle.
    first = run.run(workload, 3, 0, False)
    second = run.run(workload, 3, 0, False)
    assert first["summary"]["attempted"] > 0
    assert not first["summary"]["problems"]
    assert _non_timing(first["summary"]) == _non_timing(second["summary"])
    assert first["inputs"] == second["inputs"]
    assert set(first["metrics"]) == set(run.UNITS)


def test_traced_runs_repeat_their_counts():
    first = run.run("check", 5, 0, True)
    second = run.run("check", 5, 0, True)
    counts = {k: v for k, v in first["metrics"].items() if k.endswith((".calls", ".hit_ratio", "rounds"))}
    assert counts == {k: second["metrics"][k] for k in counts}
    assert counts["geometry.polygon_intersection_area.calls"] > 0
    assert _non_timing(first["summary"]) == _non_timing(second["summary"])
    # The wrappers are gone once the traced run returns.
    optimizer = sys.modules["layoutopt.optimizer"]
    assert not hasattr(optimizer.evaluate, "__wrapped__")
    assert not hasattr(optimizer.aggregate_global, "__wrapped__")
