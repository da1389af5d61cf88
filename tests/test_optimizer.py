"""Descent mechanics: initialization, gradient assembly, staging, baseline."""

import math
from dataclasses import replace

import numpy as np
import pytest

from layoutopt import optimizer
from layoutopt.constraints import Weights
from layoutopt.errors import DivergenceError, InfeasibleRoomError
from layoutopt.fixtures import FIXTURE_NAMES, load_fixture
from layoutopt.geometry import Pose2D, compose, relative
from layoutopt.harness import eval_physical
from layoutopt.imagination import imagine_and_revise
from layoutopt.optimizer import (
    CHECK_EVERY,
    SATISFIED,
    OptimizerConfig,
    ParamState,
    _global_view,
    _reframe,
    _solve,
    _state_layout,
    convergence_benchmark,
    cosine_factor,
    evaluate,
    init_state,
    solve,
    solve_global_baseline,
    step,
)
from layoutopt.scene_model import Asset, Relation, Room, SceneSpec, Unit, serialize_layout

import refopt
from refopt import reference_step


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
    step(state, OptimizerConfig(), stage=2)
    assert np.array_equal(state.pose("box"), before)
    assert state.step_index == 1


def test_slot_constants_follow_the_config():
    state = _assembled_scene()
    for config in (OptimizerConfig(), OptimizerConfig(lr_position=0.2), OptimizerConfig()):
        slots = state.slot_constants(config)
        assert state.slot_constants(config) is slots
        limit, lr = slots
        assert (lr[0], lr[2], limit[2]) == (config.lr_position, optimizer.LR_ROTATION, optimizer.CLIP_ROTATION)


def test_slot_constants_pin_every_slot():
    # Each pose row is (x, y, heading); the shared parameters follow.
    state = _assembled_scene()
    config = OptimizerConfig()
    n_pose, size = state.index.pose_size, state.index.size
    assert n_pose % 3 == 0 and size > n_pose
    limit, lr = optimizer._slot_constants(config, state.index)
    assert limit.shape == lr.shape == (size,)
    for r in range(0, n_pose, 3):
        assert limit[r : r + 3].tolist() == [math.inf, math.inf, optimizer.CLIP_ROTATION], r
        assert lr[r : r + 3].tolist() == [config.lr_position, config.lr_position, optimizer.LR_ROTATION], r
    assert limit[n_pose:].tolist() == [optimizer.CLIP_POSITION] * (size - n_pose)
    assert lr[n_pose:].tolist() == [optimizer.LR_SHARED] * (size - n_pose)


def test_step_raises_on_nonfinite():
    spec = _scene(
        Room(10.0, 10.0, 3.0),
        (Asset("a", "box", (1.0, 1.0, 1.0)), Asset("b", "box", (1.0, 1.0, 1.0))),
        relations=(Relation("distance", "a", "b", {"d": 1.0}),),
    )
    state = init_state(spec, seed=0)
    state.pose("a")[0] = math.nan
    with pytest.raises(DivergenceError):
        step(state, OptimizerConfig(), stage=2)


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
        step(state, OptimizerConfig(lr_position=math.inf), stage=1)
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
        step(state, OptimizerConfig(), stage=1)
    assert np.array_equal(state.pose("u"), frame_before)
    assert not np.array_equal(state.pose("c"), local_before)


def test_baseline_moves_anchor_under_intra_terms():
    spec = _intra_only_scene()
    config = OptimizerConfig(iterations=3, seed=3)
    seed_state = init_state(spec, config.seed)
    anchor_init = _global_pose(seed_state, "t")
    layout, _ = solve_global_baseline(spec, config)
    moved = np.array(layout.poses["t"])[[0, 1, 3]] - np.array(
        [anchor_init.x, anchor_init.y, anchor_init.theta]
    )
    assert np.linalg.norm(moved) > 1e-6


def test_solver_matches_scalar_recursion_on_axis_target():
    """One free box with a single x-target: the full machinery must reduce
    exactly to a clipped heavy-ball recursion on the scalar error, and stop
    where that recursion meets the stop rule: at a checkpoint, after a step
    from a penalty of at most 1e-3, to a penalty below 1e-3."""
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

    def recursion(stop):
        x, steps = x0, 0
        for stage in (1, 2):
            v = 0.0
            for t in range(config.iterations):
                dev = x - 10.0
                hinge = abs(dev)
                sd = math.copysign(1.0, dev) if dev != 0.0 else 0.0
                g = 2.0 * hinge * sd
                norm = math.hypot(g, 0.0)
                if norm > optimizer.CLIP_POSITION:
                    g *= optimizer.CLIP_POSITION / norm
                v = config.momentum * v + g
                x -= config.lr_position * cosine_factor(t, config.iterations) * v
                steps += 1
                checkpoint = (t + 1) % CHECK_EVERY == 0 and (stage == 1 or t + 1 < config.iterations)
                if stop and checkpoint and hinge * hinge <= SATISFIED and (x - 10.0) ** 2 < SATISFIED:
                    return x, steps
        return x, steps

    for stop in (True, False):
        layout, trace = _solve(spec, config, stop=stop)
        x, steps = recursion(stop)
        solved_x = layout.poses["slider"][0]
        assert solved_x == pytest.approx(x, abs=1e-12), stop
        assert len(trace.rows) == steps and trace.solved_at == (steps if stop else None)
        # A stopped solve is satisfied; the full budget gets closer.
        assert abs(solved_x - 10.0) < (math.sqrt(SATISFIED) if stop else 1e-2)
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
        step(state, OptimizerConfig(), stage=1)
    assert state.shared["sep"] == 2.0
    step(state, OptimizerConfig(), stage=2)
    assert state.shared["sep"] != 2.0


def test_reparam_and_baseline_start_from_identical_loss():
    spec = load_fixture("conflict_pair")
    config = OptimizerConfig(iterations=2, seed=11)
    _, trace_a = solve(spec, config)
    _, trace_b = solve_global_baseline(spec, config)
    assert trace_a.rows[0].total == pytest.approx(trace_b.rows[0].total, abs=1e-9)


def test_trace_rows_and_csv_determinism():
    spec = load_fixture("dining_set")
    config = OptimizerConfig(iterations=20, seed=2)
    _, t1 = solve(spec, config)
    _, t2 = solve(spec, config)
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
    layout, _ = solve(spec, OptimizerConfig(iterations=5, seed=0))
    assert set(layout.poses) == {a.id for a in spec.assets}
    for a in spec.assets:
        assert layout.poses[a.id][2] == pytest.approx(0.5 * a.size[2])


# ---------------------------------------------------------------------------
# Stop when solved
# ---------------------------------------------------------------------------


def _is_solved(spec, layout, trace) -> bool:
    """The seed sweep's test: clean, and every final penalty below 1e-3."""
    report = eval_physical(spec, layout)
    clean = report.cr_percent == 0.0 and report.or_percent == 0.0
    return clean and all(v < 1e-3 for v in trace.final_penalties.values())


def _same_solve(got, want):
    (layout, trace), (want_layout, want_trace) = got, want
    return (
        trace.to_csv() == want_trace.to_csv()
        and serialize_layout(layout) == serialize_layout(want_layout)
        and repr(trace.final_penalties) == repr(want_trace.final_penalties)
        and repr(trace.final_shared) == repr(want_trace.final_shared)
    )


@pytest.mark.parametrize("name", ["mixed_ten", "bookstore_rows"])
def test_a_solve_that_never_passes_is_the_fixed_budget_run(name):
    spec = load_fixture(name)
    for seed in (0, 1):
        config = OptimizerConfig(seed=seed)
        for flat in (False, True):
            got = _solve(spec, config, flat)
            assert got[1].solved_at is None and len(got[1].rows) == 2 * config.iterations, (seed, flat)
            assert _same_solve(got, _solve(spec, config, flat, stop=False)), (seed, flat)


@pytest.mark.parametrize("name, seed", [("star_unit", 0), ("star_unit", 1), ("dining_set", 0)])
def test_a_stopped_solve_ends_at_a_checkpoint_clean_and_satisfied(name, seed):
    spec = load_fixture(name)
    config = OptimizerConfig(seed=seed)
    layout, trace = solve(spec, config)
    n = len(trace.rows)
    assert trace.solved_at == n and n % CHECK_EVERY == 0 and n < 2 * config.iterations
    assert _is_solved(spec, layout, trace)
    assert max(trace.final_penalties.values()) < SATISFIED
    # The steps before the stop are the fixed-budget run's, row for row.
    fixed_layout, fixed = _solve(spec, config, stop=False)
    assert fixed.to_csv().startswith(trace.to_csv())
    assert fixed.solved_at is None and len(fixed.rows) == 2 * config.iterations


def test_a_conflict_pair_seed_that_stage_2_lost_now_stops_in_stage_1():
    # With the fixed budget, stage 2 leaves seed 20 colliding and
    # unsatisfied, though its state passed the sweep's test at step 175.
    spec, _ = imagine_and_revise(load_fixture("conflict_pair"))
    config = OptimizerConfig(seed=20)
    layout, trace = solve(spec, config)
    assert trace.solved_at == len(trace.rows) == 175 and trace.rows[-1].stage == 1
    assert _is_solved(spec, layout, trace)
    fixed_layout, fixed = _solve(spec, config, stop=False)
    assert not _is_solved(spec, fixed_layout, fixed)


def test_convergence_benchmark_runs_the_full_budget():
    # star_unit stops at step 925 on seed 0 and 950 on seed 1, yet the
    # benchmark records whole curves and the results the fixed budget gives.
    spec = load_fixture("star_unit")
    results = convergence_benchmark(spec, (0, 1))
    got = [(r.seed, r.reparam_iterations, r.baseline_iterations, r.speedup, r.diverged) for r in results]
    assert got == [(0, 12, 36, 3.0, False), (1, 10, 20, 2.0, False)]
    for r in results:
        config = OptimizerConfig(seed=r.seed)
        _, stopped = solve(spec, config)
        assert stopped.solved_at is not None
        assert len(r.reparam_curve) == len(r.baseline_curve) == 2 * config.iterations
        assert r.reparam_curve == tuple(row.total for row in _solve(spec, config, stop=False)[1].rows)


# ---------------------------------------------------------------------------
# The one-pass descent against the parts-summing reference (tests/refopt.py)
# ---------------------------------------------------------------------------


def _shared_across_frames_scene():
    """Two units and two independent assets; the shared parameter `reach`
    is read by an inter relation and by intra relations of both units, two
    of them in one unit, and `gap` by an intra and an inter relation."""
    return _scene(
        Room(9.0, 8.0, 3.0),
        (
            Asset("t1", "table", (1.4, 0.9, 0.7)),
            Asset("c1", "chair", (0.5, 0.5, 0.9)),
            Asset("t2", "table", (1.2, 0.8, 0.7)),
            Asset("c2", "chair", (0.5, 0.6, 0.9)),
            Asset("c3", "chair", (0.4, 0.5, 0.9)),
            Asset("lamp", "lamp", (0.3, 0.3, 1.5)),
            Asset("shelf", "shelf", (1.6, 0.4, 1.8)),
        ),
        units=(Unit("u1", "t1", ("c1",)), Unit("u2", "t2", ("c2", "c3"))),
        relations=(
            Relation("distance", "c1", "t1", {"d": 0.9}, "intra", "u1", "reach"),
            Relation("distance", "lamp", "u1", {"d": 0.9}, "inter", None, "reach"),
            Relation("gap", "shelf", "u2", {"g": 0.3}, "inter", None, "gap"),
            Relation("distance", "c2", "t2", {"d": 0.9}, "intra", "u2", "reach"),
            Relation("gap", "c2", "t2", {"g": 0.3}, "intra", "u2", "gap"),
            Relation("distance", "c3", "t2", {"d": 0.9}, "intra", "u2", "reach"),
            Relation("facing", "c1", "t1", {}, "intra", "u1"),
            Relation("against_wall", "shelf", "wall:T", {}, "inter"),
        ),
    )


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "shared_across_frames"])
def test_descent_matches_the_parts_summing_reference_bitwise(name, monkeypatch):
    # The pass visits the scene's block first, then each unit's; summing
    # aggregates in that order as arrays gives the same bits, for both
    # parameterizations, through a whole two-stage solve.
    spec = _shared_across_frames_scene() if name == "shared_across_frames" else load_fixture(name)
    config = OptimizerConfig(iterations=40)
    for solver in (solve, solve_global_baseline):
        layout, trace = solver(spec, config)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "step", reference_step)
            want_layout, want = solver(spec, config)
        assert trace.to_csv() == want.to_csv(), (name, solver.__name__)
        assert serialize_layout(layout) == serialize_layout(want_layout), (name, solver.__name__)
        assert repr(trace.final_penalties) == repr(want.final_penalties), (name, solver.__name__)
        assert repr(trace.final_shared) == repr(want.final_shared), (name, solver.__name__)


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "shared_across_frames"])
def test_evaluate_matches_the_parts_summing_reference_bitwise(name):
    # Where a descent's clipping hides a shared slot's last bit, the
    # gradient itself shows it: each block's subtotal on a shared slot is
    # added whole, in block order.
    spec = _shared_across_frames_scene() if name == "shared_across_frames" else load_fixture(name)
    config = OptimizerConfig()
    for seed in range(20):
        for flat in (False, True):
            state = init_state(spec, seed)
            if flat:
                state.x[:] = _global_view(state)
                state.flat = True
            for stage in (1, 2):
                total, grad, terms = evaluate(state, Weights(), stage, config)
                want_total, want_grad, want_terms = refopt.reference_evaluate(state, Weights(), stage, config)
                context = (name, seed, flat, stage)
                assert repr(total) == repr(want_total), context
                assert grad.tobytes() == want_grad.tobytes(), context
                assert repr(terms) == repr(want_terms), context


def _fixed_gradient(grad):
    """An `evaluate` stand-in returning `grad` at a finite objective."""

    def fake(state, weights, stage, config):
        return 1.0, np.array(grad, dtype=float), {"collision": 0.0, "boundary": 0.0, "relation": 1.0, "prior": 0.0}

    return fake


def test_step_does_not_scale_a_row_at_exactly_the_clip_norm(monkeypatch):
    spec = _scene(Room(10.0, 10.0, 3.0), (Asset("box", "box", (1.0, 1.0, 1.0)),))
    for g, moved in (((3.0, 4.0, 0.0), (1.5, 2.0)), ((6.0, 8.0, 0.0), (1.5, 2.0)), ((0.0, 5.0, 0.0), (0.0, 2.5))):
        state = init_state(spec, seed=0)
        state.pose("box")[:] = (5.0, 5.0, 0.3)
        monkeypatch.setattr(optimizer, "evaluate", _fixed_gradient(g))
        monkeypatch.setattr(optimizer, "CLIP_POSITION", 5.0)
        step(state, OptimizerConfig(), stage=2)
        assert state.pose("box").tolist() == [5.0 - moved[0], 5.0 - moved[1], 0.3], g


def test_stage1_step_leaves_shared_slots_and_their_velocity(monkeypatch):
    state = _assembled_scene()
    shared = list(state.index.param.values())
    state.vel[shared] = 0.25
    x_before, vel_before = state.x[shared].copy(), state.vel[shared].copy()
    monkeypatch.setattr(optimizer, "evaluate", _fixed_gradient(np.full(state.index.size, 0.5)))
    step(state, OptimizerConfig(), stage=1)
    assert np.array_equal(state.x[shared], x_before)
    assert np.array_equal(state.vel[shared], vel_before)
    assert state.vel[0] == 0.5


@pytest.mark.parametrize("stage", [1, 2])
def test_nan_gradient_diverges_at_the_reference_step(stage, monkeypatch):
    # A NaN in any gradient slot ends the same way as in the reference
    # step: at the same step index, or, for a shared slot in stage 1, not
    # at all and with the same state.
    base = _assembled_scene()
    base.step_index = 3
    for slot in range(base.index.size):
        grad = np.linspace(-2.0, 2.0, base.index.size)
        grad[slot] = math.nan
        outcomes = []
        for stepper in (step, reference_step):
            state = _clone(base)
            state.step_index = base.step_index
            monkeypatch.setattr(optimizer, "evaluate", _fixed_gradient(grad))
            monkeypatch.setattr(refopt, "reference_evaluate", _fixed_gradient(grad))
            try:
                stepper(state, OptimizerConfig(), stage)
                outcomes.append(("ok", state.x.tobytes(), state.vel.tobytes(), state.step_index))
            except DivergenceError as exc:
                outcomes.append(("diverged", str(exc), exc.iteration))
        assert outcomes[0] == outcomes[1], (stage, slot)
        assert outcomes[0][0] == ("ok" if stage == 1 and slot >= base.index.pose_size else "diverged")


# Signed zeros, infinities, NaN, subnormals, and values at the default
# rotation and position limits.
_EDGE_GRADIENTS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -1e-310, 0.3, -0.3, 1.0, -1.0)


@pytest.mark.parametrize("clip", [0.0, None])
def test_step_matches_the_reference_step_on_edge_gradients(clip, monkeypatch):
    # The clip without np.clip's wrapper: signed zeros, infinities, NaN,
    # subnormals, values exactly at a limit and limits of 0.0 give the
    # reference step's bytes in `x` and `vel`, or the same divergence.
    if clip is not None:
        monkeypatch.setattr(optimizer, "CLIP_POSITION", clip)
        monkeypatch.setattr(optimizer, "CLIP_ROTATION", clip)
    config = OptimizerConfig()
    base = _assembled_scene()
    rng = np.random.default_rng(7)
    base.vel[:] = rng.normal(0.0, 0.5, base.index.size)
    for trial in range(300):
        grad = rng.choice(_EDGE_GRADIENTS, base.index.size)
        stage = 1 + trial % 2
        outcomes = []
        for stepper in (step, reference_step):
            state = _clone(base)
            state.vel[:] = base.vel
            monkeypatch.setattr(optimizer, "evaluate", _fixed_gradient(grad))
            monkeypatch.setattr(refopt, "reference_evaluate", _fixed_gradient(grad))
            try:
                with np.errstate(all="ignore"):  # the reference's inf * 0 in its row scaling
                    stepper(state, config, stage)
                outcome = "ok"
            except DivergenceError as exc:
                outcome = str(exc)
            outcomes.append((outcome, state.x.tobytes(), state.vel.tobytes(), state.step_index))
        assert outcomes[0] == outcomes[1], (clip, trial, grad.tolist())


def test_reframe_matches_the_pose_reference_bitwise():
    # Floats in `relative`'s and `compose`'s order give the bytes of the
    # Pose2D objects, at every scale and with NaN and infinite rows (an
    # infinite frame heading raises in both).
    specs = (_flat_unit_scene(), _shared_across_frames_scene(), load_fixture("mixed_ten"))
    indices = [init_state(spec, 0).index for spec in specs]
    specials = (math.nan, math.inf, -math.inf, 0.0, -0.0)
    rng = np.random.default_rng(11)

    def outcome(fn, *args):
        try:
            return fn(*args).tobytes()
        except ValueError as exc:
            return f"ValueError: {exc}"

    for trial in range(600):
        index = indices[trial % len(indices)]
        x = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 4.0), index.size)
        for _ in range(int(rng.integers(0, 3))):
            x[int(rng.integers(0, index.size))] = rng.choice(specials)
        for inverse, map_pose in ((True, relative), (False, compose)):
            got = outcome(_reframe, index, x, inverse)
            assert got == outcome(refopt.reference_reframe, index, x, map_pose), (trial, inverse)
