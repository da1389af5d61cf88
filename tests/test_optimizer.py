"""Descent mechanics: initialization, gradient assembly, staging, baseline."""

import math
from dataclasses import replace

import numpy as np
import pytest

from layoutopt.constraints import Weights
from layoutopt.errors import DivergenceError, InfeasibleRoomError
from layoutopt.fixtures import load_fixture
from layoutopt.geometry import Pose2D, compose
from layoutopt.harness import eval_physical
from layoutopt.optimizer import (
    OptimizerConfig,
    ParamState,
    _global_view,
    _state_layout,
    cosine_factor,
    evaluate,
    init_state,
    solve,
    solve_global_baseline,
    step,
)
from layoutopt.scene_model import Asset, Relation, Room, SceneSpec, Unit


def _scene(room, assets, units=(), relations=()):
    return SceneSpec(room=room, assets=assets, units=units, relations=relations)


def _assembled_scene():
    """Mixed scene exercising every gradient route at a kink-free state."""
    spec = _scene(
        Room(6.5, 6.0, 3.0),
        (
            Asset("a", "crate", (1.2, 0.8, 1.0)),
            Asset("b", "crate", (1.0, 1.0, 1.0)),
            Asset("t", "table", (1.4, 0.9, 0.7)),
            Asset("c", "chair", (0.5, 0.5, 0.9)),
        ),
        units=(Unit("u", "t", ("c",)),),
        relations=(
            Relation("distance", "a", "b", {"d": 1.3}, "inter", None, "sep"),
            Relation("h_place", "u", "scene", {"x": 3.0, "margin": 0.0}, "inter"),
            Relation("against_wall", "b", "wall:L", {}, "inter"),
            Relation("angle_offset", "a", "b", {"alpha": 0.5}, "inter"),
            Relation("distance", "c", "t", {"d": 0.9}, "intra", "u"),
            Relation("facing", "c", "t", {}, "intra", "u"),
        ),
    )
    state = init_state(spec, seed=0)
    # Hand-placed: a overlaps the unit's stand-in box (collision active), b
    # pokes past the right wall (boundary active), everything off kinks.
    state.pose("a")[:] = (3.0, 3.6, 0.4)
    state.pose("b")[:] = (6.1, 2.2, -0.3)
    state.pose("u")[:] = (4.0, 4.3, 0.7)
    state.pose("c")[:] = (1.1, 0.2, 2.9)
    state.x[state.index.param["sep"]] = 1.45
    return state


def _clone(state):
    return ParamState(state.spec, state.index, state.x.copy())


def _global_pose(state, asset_id):
    """An asset's global pose, read off the state's layout."""
    x, y, _, theta = _state_layout(state).poses[asset_id]
    return Pose2D(x, y, theta)


def test_cosine_factor_endpoints():
    assert cosine_factor(0, 600) == 1.0
    assert cosine_factor(300, 600) == pytest.approx(0.5)
    assert cosine_factor(600, 600) == pytest.approx(0.0, abs=1e-15)


def test_init_state_is_deterministic_and_in_bounds():
    spec = load_fixture("mixed_ten")
    s1 = init_state(spec, seed=7)
    s2 = init_state(spec, seed=7)
    assert list(s1.index.pose) == list(s2.index.pose)
    for k in s1.index.pose:
        assert np.array_equal(s1.pose(k), s2.pose(k))
    assert s1.shared == s2.shared
    members = [mid for u in spec.units for mid in u.members]
    for seed in range(30):
        s = init_state(spec, seed=seed)
        for a in spec.independent_assets():
            x, y, theta = s.pose(a.id)
            m = max(a.half_l, a.half_w)
            assert m <= x <= spec.room.length - m
            assert m <= y <= spec.room.width - m
            assert -math.pi <= theta < math.pi
        for local in (s.pose(mid) for mid in members):
            assert -1.0 <= local[0] <= 1.0 and -1.0 <= local[1] <= 1.0


def test_init_state_draws_differ_across_seeds():
    spec = load_fixture("dining_set")
    a = init_state(spec, seed=0)
    b = init_state(spec, seed=1)
    assert not np.array_equal(a.pose("dining"), b.pose("dining"))


def test_oversized_asset_raises():
    room = Room(3.0, 2.0, 2.5)
    slab = Asset("slab", "slab", (3.5, 1.0, 0.2))
    cup = Asset("cup", "cup", (0.1, 0.1, 0.1))
    for spec in (
        _scene(room, (slab,)),
        # An oversized unit anchor.
        _scene(room, (cup, slab), units=(Unit("u", "slab", ("cup",)),)),
    ):
        with pytest.raises(InfeasibleRoomError, match="asset 'slab' cannot fit"):
            init_state(spec, seed=0)


def test_asset_that_fits_one_way_round_solves():
    # A 3.5 m bench fits a 4 x 2 m corridor lengthwise, though its length
    # exceeds the corridor's width.
    room = Room(4.0, 2.0, 2.5)
    bench = Asset("bench", "bench", (3.5, 0.5, 0.45))
    stool = Asset("stool", "stool", (0.4, 0.4, 0.45))
    spec = _scene(room, (bench, stool))
    for seed in range(5):
        layout, _ = solve(spec, OptimizerConfig(seed=seed))
        assert eval_physical(spec, layout).or_percent == 0.0, seed
    for size in ((4.5, 0.5, 0.45), (3.0, 2.5, 0.45)):
        with pytest.raises(InfeasibleRoomError, match="in neither axis-aligned orientation"):
            init_state(_scene(room, (Asset("bench", "bench", size), stool)), seed=0)


def test_solvers_default_to_the_scene_seed():
    spec = replace(load_fixture("dining_set"), seed=5)
    for run in (solve, solve_global_baseline):
        layout, trace = run(spec, OptimizerConfig(iterations=20))
        seeded_layout, seeded_trace = run(spec, OptimizerConfig(seed=5, iterations=20))
        assert layout == seeded_layout and trace.to_csv() == seeded_trace.to_csv()


def test_global_pose_composes_member_locals():
    spec = _scene(
        Room(8.0, 8.0, 3.0),
        (Asset("t", "table", (1.0, 1.0, 0.7)), Asset("c", "chair", (0.5, 0.5, 0.9))),
        units=(Unit("u", "t", ("c",)),),
    )
    state = init_state(spec, seed=0)
    state.pose("u")[:] = (1.0, 2.0, 0.5 * math.pi)
    state.pose("c")[:] = (1.0, 0.0, 0.3)
    anchor = _global_pose(state, "t")
    member = _global_pose(state, "c")
    assert (anchor.x, anchor.y, anchor.theta) == (1.0, 2.0, 0.5 * math.pi)
    expected = compose(Pose2D(1.0, 2.0, 0.5 * math.pi), Pose2D(1.0, 0.0, 0.3))
    assert member.x == pytest.approx(expected.x)
    assert member.y == pytest.approx(1.0 + 2.0)
    assert member.theta == pytest.approx(0.5 * math.pi + 0.3)


def _flat_entries(state):
    """(is member row, name, slot of x) for every slot of the vector."""
    entries = []
    for key, rows in state.index.pose.items():
        member = state.spec.unit_of(key) is not None
        for slot in range(rows.start, rows.stop):
            entries.append((member, key, slot))
    for name, slot in state.index.param.items():
        entries.append((False, name, slot))
    return entries


def _nudge(state, entry, h):
    state.x[entry[2]] += h


def test_evaluate_gradients_match_finite_differences():
    state = _assembled_scene()
    weights = Weights(collision=1.3, relation=0.8, boundary=1.7)
    config = OptimizerConfig(prior_weight=1.0)
    total, grads, _ = evaluate(state, weights, stage=2, config=config)
    assert math.isfinite(total) and total > 0.0

    # Scene-level terms treat each unit's stand-in box as fixed geometry, so
    # the objective is differentiated with that shape held constant.  Member
    # locals are therefore checked against the unit-frame objective alone;
    # everything else is checked against the full objective.
    def local_total(s):
        from layoutopt.constraints import aggregate_local

        return sum(
            aggregate_local(s.spec, u.id, s.index, s.x, weights).value
            for u in s.spec.units
        )

    h = 1e-5
    for entry in _flat_entries(state):
        member, key, slot = entry
        fn = local_total if member else (
            lambda s: evaluate(s, weights, 2, config)[0]
        )
        plus, minus = _clone(state), _clone(state)
        _nudge(plus, entry, h)
        _nudge(minus, entry, -h)
        fd = (fn(plus) - fn(minus)) / (2 * h)
        an = float(grads[slot])
        assert an == pytest.approx(fd, rel=2e-4, abs=1e-6), entry


def _flat_unit_scene():
    """One unit, anchor plus three members, alone in a large room."""
    return _scene(
        Room(12.0, 12.0, 3.0),
        (
            Asset("t", "table", (1.4, 0.9, 0.7)),
            Asset("c1", "chair", (0.5, 0.5, 0.9)),
            Asset("c2", "chair", (0.6, 0.4, 0.9)),
            Asset("lamp", "lamp", (0.3, 0.3, 1.5)),
        ),
        units=(Unit("u", "t", ("c1", "c2", "lamp")),),
        relations=(
            Relation("distance", "c1", "t", {"d": 1.1}, "intra", "u", "reach"),
            Relation("facing", "c1", "t", {}, "intra", "u"),
            Relation("left_of", "c2", "t", {}, "intra", "u"),
            Relation("gap", "lamp", "c2", {"g": 0.4}, "intra", "u"),
            Relation("angle_offset", "c2", "c1", {"alpha": 0.6}, "intra", "u"),
        ),
    )


def test_flat_gradients_match_finite_differences():
    # The flat parameterization's gradient is the chain rule of re-expressing
    # members in their frame (`_pull_back`).  With the unit alone near the
    # room's centre, no scene-level term depends on its stand-in's shape, so
    # every slot is checked against the whole objective.
    spec = _flat_unit_scene()
    weights = Weights(collision=1.0, relation=1.0, boundary=1.0)
    config = OptimizerConfig()
    h = 1e-6
    for seed in range(4):
        state = init_state(spec, seed)
        state.pose("u")[:2] = (6.0, 6.0)
        state.x[state.index.param["reach"]] = 1.1 + 0.1 * seed
        # The start `solve_global_baseline` transports to global member poses.
        state.x[:] = _global_view(state)
        state.flat = True
        total, grads, terms = evaluate(state, weights, stage=2, config=config)
        assert terms["relation"] > 0.0 and terms["boundary"] == 0.0
        for slot in range(state.index.size):
            plus, minus = (ParamState(spec, state.index, state.x.copy(), flat=True) for _ in "+-")
            plus.x[slot] += h
            minus.x[slot] -= h
            fd = (evaluate(plus, weights, 2, config)[0] - evaluate(minus, weights, 2, config)[0]) / (2 * h)
            assert float(grads[slot]) == pytest.approx(fd, rel=1e-5, abs=1e-7), (seed, slot)


def test_stage1_disables_collision_boundary_and_prior():
    state = _assembled_scene()
    config = OptimizerConfig()
    total1, grads1, terms1 = evaluate(state, Weights(), stage=1, config=config)
    assert terms1["collision"] == 0.0
    assert terms1["boundary"] == 0.0
    assert terms1["prior"] == 0.0
    assert total1 == pytest.approx(terms1["relation"])
    total2, _, terms2 = evaluate(state, Weights(), stage=2, config=config)
    assert terms2["collision"] > 0.0
    assert terms2["boundary"] > 0.0
    assert terms2["prior"] == pytest.approx((1.45 - 1.3) ** 2)
    assert total2 == pytest.approx(sum(terms2.values()))
    # The stage-1 shared-parameter gradient carries no prior term: it is the
    # stage-2 gradient with collision, boundary and prior switched off.
    _, grads_free, _ = evaluate(
        state, Weights(collision=0.0, boundary=0.0), stage=2, config=replace(config, prior_weight=0.0)
    )
    params = list(state.index.param.values())
    assert params and np.array_equal(grads1[params], grads_free[params])


def test_zero_gradient_step_is_noop():
    spec = _scene(Room(10.0, 10.0, 3.0), (Asset("box", "box", (1.0, 1.0, 1.0)),))
    state = init_state(spec, seed=0)
    state.pose("box")[:] = (5.0, 5.0, 0.3)
    before = state.pose("box").copy()
    step(state, OptimizerConfig(), Weights(), stage=2)
    assert np.array_equal(state.pose("box"), before)
    assert state.step_index == 1


def test_slot_constants_follow_the_config():
    state = _assembled_scene()
    for config in (OptimizerConfig(), OptimizerConfig(lr_position=0.2, clip_rotation=0.1), OptimizerConfig()):
        slots = state.slot_constants(config)
        assert state.slot_constants(config) is slots
        limit, lr = slots
        assert (lr[0], lr[2], limit[2]) == (config.lr_position, config.lr_rotation, config.clip_rotation)


def test_step_raises_on_nonfinite():
    spec = _scene(
        Room(10.0, 10.0, 3.0),
        (Asset("a", "box", (1.0, 1.0, 1.0)), Asset("b", "box", (1.0, 1.0, 1.0))),
        relations=(Relation("distance", "a", "b", {"d": 1.0}),),
    )
    state = init_state(spec, seed=0)
    state.pose("a")[0] = math.nan
    with pytest.raises(DivergenceError):
        step(state, OptimizerConfig(), Weights(), stage=2)


def test_step_raises_when_a_parameter_turns_infinite():
    # The objective is finite at the pre-step state; an infinite learning
    # rate makes the updated positions non-finite.
    spec = _scene(
        Room(10.0, 10.0, 3.0),
        (Asset("a", "box", (1.0, 1.0, 1.0)), Asset("b", "box", (1.0, 1.0, 1.0))),
        relations=(Relation("distance", "a", "b", {"d": 1.0}),),
    )
    state = init_state(spec, seed=0)
    state.step_index = 4
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match="parameter is not finite") as info:
        step(state, OptimizerConfig(lr_position=math.inf), Weights(), stage=1)
    assert info.value.iteration == 5


def _intra_only_scene():
    return _scene(
        Room(9.0, 7.0, 3.0),
        (Asset("t", "table", (1.4, 0.9, 0.7)), Asset("c", "chair", (0.5, 0.5, 0.9))),
        units=(Unit("u", "t", ("c",)),),
        relations=(Relation("distance", "c", "t", {"d": 2.0}, "intra", "u"),),
    )


def test_unit_frame_fixed_under_intra_terms():
    # Unit-internal terms are expressed in the unit frame, so the frame pose
    # receives no gradient at all while members keep moving.
    state = init_state(_intra_only_scene(), seed=3)
    frame_before = state.pose("u").copy()
    local_before = state.pose("c").copy()
    for _ in range(5):
        step(state, OptimizerConfig(), Weights(), stage=1)
    assert np.array_equal(state.pose("u"), frame_before)
    assert not np.array_equal(state.pose("c"), local_before)


def test_baseline_moves_anchor_under_intra_terms():
    spec = _intra_only_scene()
    config = OptimizerConfig(iterations=3, seed=3)
    seed_state = init_state(spec, config.seed)
    anchor_init = _global_pose(seed_state, "t")
    layout, _ = solve_global_baseline(spec, config, Weights())
    moved = np.array(layout.poses["t"])[[0, 1, 3]] - np.array(
        [anchor_init.x, anchor_init.y, anchor_init.theta]
    )
    assert np.linalg.norm(moved) > 1e-6


def test_solver_matches_scalar_recursion_on_axis_target():
    """One free box with a single x-target: the full machinery must reduce
    exactly to a clipped heavy-ball recursion on the scalar error."""
    spec = _scene(
        Room(20.0, 20.0, 3.0),
        (Asset("slider", "box", (1.0, 1.0, 1.0)),),
        relations=(Relation("h_place", "slider", "scene", {"x": 10.0, "margin": 0.0}),),
    )
    config = OptimizerConfig(seed=5)
    init = init_state(spec, config.seed)
    x0, y0 = init.pose("slider")[0], init.pose("slider")[1]
    # Preconditions for the 1-d reduction: interior start so the boundary
    # term stays identically zero along the trajectory.
    assert 1.0 < y0 < 19.0 and 1.0 < x0 < 19.0

    layout, trace = solve(spec, config, Weights())

    x = x0
    for _ in (1, 2):
        v = 0.0
        for t in range(config.iterations):
            dev = x - 10.0
            hinge = abs(dev)
            sd = math.copysign(1.0, dev) if dev != 0.0 else 0.0
            g = 2.0 * hinge * sd
            norm = math.hypot(g, 0.0)
            if norm > config.clip_position:
                g *= config.clip_position / norm
            v = config.momentum * v + g
            x -= config.lr_position * cosine_factor(t, config.iterations) * v

    solved_x = layout.poses["slider"][0]
    assert solved_x == pytest.approx(x, abs=1e-12)
    assert abs(solved_x - 10.0) < 1e-2
    assert layout.poses["slider"][1] == pytest.approx(y0)
    assert trace.rows[-1].total < 1e-4


def test_shared_params_frozen_in_stage1_and_updated_in_stage2():
    spec = _scene(
        Room(10.0, 10.0, 3.0),
        (Asset("a", "box", (1.0, 1.0, 1.0)), Asset("b", "box", (1.0, 1.0, 1.0))),
        relations=(Relation("distance", "a", "b", {"d": 2.0}, "inter", None, "sep"),),
    )
    state = init_state(spec, seed=1)
    for _ in range(4):
        step(state, OptimizerConfig(), Weights(), stage=1)
    assert state.shared["sep"] == 2.0
    step(state, OptimizerConfig(), Weights(), stage=2)
    assert state.shared["sep"] != 2.0


def test_reparam_and_baseline_start_from_identical_loss():
    spec = load_fixture("conflict_pair")
    config = OptimizerConfig(iterations=2, seed=11)
    _, trace_a = solve(spec, config, Weights())
    _, trace_b = solve_global_baseline(spec, config, Weights())
    assert trace_a.rows[0].total == pytest.approx(trace_b.rows[0].total, abs=1e-9)


def test_trace_rows_and_csv_determinism():
    spec = load_fixture("dining_set")
    config = OptimizerConfig(iterations=20, seed=2)
    _, t1 = solve(spec, config, Weights())
    _, t2 = solve(spec, config, Weights())
    assert len(t1.rows) == 40
    assert [r.stage for r in t1.rows] == [1] * 20 + [2] * 20
    assert t1.rows[0].lr == 1.0
    assert t1.rows[0].iteration == 0 and t1.rows[-1].iteration == 39
    csv1, csv2 = t1.to_csv(), t2.to_csv()
    assert csv1 == csv2
    header, first = csv1.splitlines()[:2]
    assert header == "iteration,stage,total,collision,boundary,relation,prior,lr"
    assert first.startswith("0,1,")
    for line in csv1.splitlines()[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        for cell in cells:
            float(cell)
    assert t1.final_shared == t2.final_shared
    assert set(t1.final_penalties) == {f"relations[{i}]" for i in range(len(spec.relations))}


def test_layout_heights_are_half_asset_height():
    spec = load_fixture("dining_set")
    layout, _ = solve(spec, OptimizerConfig(iterations=5, seed=0), Weights())
    assert set(layout.poses) == {a.id for a in spec.assets}
    for a in spec.assets:
        assert layout.poses[a.id][2] == pytest.approx(0.5 * a.size[2])
