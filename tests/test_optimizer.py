"""Descent mechanics: initialization, gradient assembly, staging, baseline."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from layoutopt import optimizer
from layoutopt.constraints import Weights, param_index, relation_penalties
from layoutopt.errors import DivergenceError, InfeasibleRoomError
from layoutopt.fixtures import FIXTURE_NAMES, load_fixture
from layoutopt.geometry import Pose2D, compose, relative
from layoutopt.harness import _is_clean, eval_physical
from layoutopt.imagination import imagine_and_revise, interpret_scene
from layoutopt.optimizer import (
    JITTER,
    SATISFIED,
    OptimizerConfig,
    ParamState,
    _diagonal,
    _global_view,
    _reframe,
    _run,
    _start,
    _state_layout,
    convergence_benchmark,
    cosine_factor,
    evaluate,
    init_state,
    solve,
    solve_global_baseline,
    step,
)
from layoutopt.scene_model import Asset, Relation, Room, SceneSpec, Unit, parse_scene, serialize_layout

import refopt
from refopt import reference_step

# The number of steps a stage of the random start anneals over, at the
# default cap.
_STEPS = OptimizerConfig().iterations


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


def _random_solve(spec, config, flat=False, stop=True):
    """A solve from `init_state`'s draw through the two stages, whatever
    the imagined layout: the fallback of `_start`."""
    seed = spec.seed if config.seed is None else config.seed
    return _run(init_state(spec, seed), config, flat, False, stop)


def _gradient(state, stage):
    """The gradient `evaluate` returns at `state` for `stage`, the list the
    descent hands to `step`."""
    return evaluate(state, optimizer.WEIGHTS, stage, OptimizerConfig())[1]


def _evaluations(monkeypatch, run):
    """`run()`'s result and the number of `evaluate` calls it made."""
    calls = []

    def counted(*args):
        calls.append(None)
        return evaluate(*args)

    with monkeypatch.context() as m:
        m.setattr(optimizer, "evaluate", counted)
        out = run()
    return out, len(calls)


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


@pytest.mark.parametrize(
    "name, value", [("iterations", 3.5), ("iterations", True), ("iterations", 0), ("seed", 1.5), ("seed", True)]
)
def test_the_config_rejects_a_setting_that_is_not_an_integer_in_range(name, value):
    # As the scene parser reads a seed, an integer is what `operator.index`
    # takes but a bool; the config checks when it is built, and so when
    # `replace` builds one.
    for build in (OptimizerConfig, lambda **kw: replace(OptimizerConfig(), **kw)):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            build(**{name: value})


def test_numpy_integer_settings_cap_a_solve_as_ints_do(monkeypatch):
    # mixed_ten seed 149 does not solve within its cap of 3 + 3 // 2 = 4
    # `evaluate` calls, and numpy integers cap it the same, bit for bit.
    spec = load_fixture("mixed_ten")
    runs = []
    for seed, iterations in ((149, 3), (np.int64(149), np.int64(3))):
        config = OptimizerConfig(seed=seed, iterations=iterations)
        (layout, trace), calls = _evaluations(monkeypatch, lambda: solve(spec, config))
        assert calls == 4 and trace.solved_at is None
        runs.append((layout, trace.to_csv()))
    assert runs[0] == runs[1]


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
    total, grads, _, _ = evaluate(state, weights, stage=2, config=config)
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
        total, grads, terms, _ = evaluate(state, weights, stage=2, config=config)
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
    total1, grads1, terms1, _ = evaluate(state, Weights(), stage=1, config=config)
    assert terms1["collision"] == 0.0
    assert terms1["boundary"] == 0.0
    assert terms1["prior"] == 0.0
    assert total1 == pytest.approx(terms1["relation"])
    total2, _, terms2, _ = evaluate(state, Weights(), stage=2, config=config)
    assert terms2["collision"] > 0.0
    assert terms2["boundary"] > 0.0
    assert terms2["prior"] == pytest.approx((1.45 - 1.3) ** 2)
    assert total2 == pytest.approx(sum(terms2.values()))
    # The stage-1 shared-parameter gradient carries no prior term: it is the
    # stage-2 gradient with collision, boundary and prior switched off.
    _, grads_free, _, _ = evaluate(
        state, Weights(collision=0.0, boundary=0.0), stage=2, config=replace(config, prior_weight=0.0)
    )
    params = list(state.index.param.values())
    assert params and np.array_equal(np.array(grads1)[params], np.array(grads_free)[params])


def test_zero_gradient_step_is_noop():
    spec = _scene(Room(10.0, 10.0, 3.0), (Asset("box", "box", (1.0, 1.0, 1.0)),))
    state = init_state(spec, seed=0)
    state.pose("box")[:] = (5.0, 5.0, 0.3)
    before = state.pose("box").copy()
    assert step(state, _gradient(state, 2), 2, 0, _STEPS) == 1.0
    assert np.array_equal(state.pose("box"), before)


def test_slot_constants_follow_the_module_constants(monkeypatch):
    for lr_position in (optimizer.LR_POSITION, 0.2):
        monkeypatch.setattr(optimizer, "LR_POSITION", lr_position)
        state = _assembled_scene()
        limit, lr = state.limit, state.lr
        assert (lr[0], lr[2], limit[2]) == (lr_position, optimizer.LR_ROTATION, optimizer.CLIP_ROTATION)


def test_slot_constants_pin_every_slot():
    # Each pose row is (x, y, heading); the shared parameters follow.
    state = _assembled_scene()
    n_pose, size = state.index.pose_size, state.index.size
    assert n_pose % 3 == 0 and size > n_pose
    limit, lr = state.limit, state.lr
    assert limit.shape == lr.shape == (size,)
    for r in range(0, n_pose, 3):
        assert limit[r : r + 3].tolist() == [math.inf, math.inf, optimizer.CLIP_ROTATION], r
        assert lr[r : r + 3].tolist() == [optimizer.LR_POSITION, optimizer.LR_POSITION, optimizer.LR_ROTATION], r
    assert limit[n_pose:].tolist() == [optimizer.CLIP_POSITION] * (size - n_pose)
    assert lr[n_pose:].tolist() == [optimizer.LR_SHARED] * (size - n_pose)


def test_step_raises_on_nonfinite(monkeypatch):
    # The descent raises on a non-finite objective before it steps, at the
    # number of steps its stage has taken: 0 at a NaN start, and 5 when the
    # 26th objective value of a 20-step-per-stage descent is NaN.
    spec = _scene(
        Room(10.0, 10.0, 3.0),
        (Asset("a", "box", (1.0, 1.0, 1.0)), Asset("b", "box", (1.0, 1.0, 1.0))),
        relations=(Relation("distance", "a", "b", {"d": 1.0}),),
    )
    state = init_state(spec, seed=0)
    state.pose("a")[0] = math.nan
    with pytest.raises(DivergenceError, match="objective is not finite") as info:
        _run(state, OptimizerConfig(), False, False)
    assert info.value.iteration == 0

    calls = []

    def nan_at_26(*args):
        calls.append(1)
        total, grad, terms, penalties = evaluate(*args)
        return math.nan if len(calls) == 26 else total, grad, terms, penalties

    monkeypatch.setattr(optimizer, "evaluate", nan_at_26)
    with pytest.raises(DivergenceError, match="objective is not finite") as info:
        _run(init_state(spec, seed=0), OptimizerConfig(iterations=20), False, False)
    assert len(calls) == 26 and info.value.iteration == 5


def test_step_raises_when_a_parameter_turns_infinite(monkeypatch):
    # The objective is finite at the pre-step state; an infinite learning
    # rate makes the updated positions non-finite.
    spec = _scene(
        Room(10.0, 10.0, 3.0),
        (Asset("a", "box", (1.0, 1.0, 1.0)), Asset("b", "box", (1.0, 1.0, 1.0))),
        relations=(Relation("distance", "a", "b", {"d": 1.0}),),
    )
    monkeypatch.setattr(optimizer, "LR_POSITION", math.inf)
    state = init_state(spec, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match="parameter is not finite") as info:
        step(state, _gradient(state, 1), 1, 4, _STEPS)
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
    for t in range(5):
        step(state, _gradient(state, 1), 1, t, _STEPS)
    assert np.array_equal(state.pose("u"), frame_before)
    assert not np.array_equal(state.pose("c"), local_before)


def test_baseline_moves_anchor_under_intra_terms():
    spec = _intra_only_scene()
    config = OptimizerConfig(iterations=3, seed=3)
    seed_state, imagined = _start(spec, config)
    # The chair a metre off the distance its relation asks for.
    seed_state.pose("c")[0] += 1.0
    anchor_init = _global_pose(seed_state, "t")
    layout, _ = _run(seed_state, config, True, imagined)
    moved = np.array(layout.poses["t"])[[0, 1, 3]] - np.array(
        [anchor_init.x, anchor_init.y, anchor_init.theta]
    )
    assert np.linalg.norm(moved) > 1e-6


def test_solver_matches_scalar_recursion_on_axis_target(monkeypatch):
    """One free box with a single x-target: the full machinery must reduce
    to L-BFGS on the scalar error, iterate by iterate: a first step of
    length FIRST_STEP downhill, then secant steps, each halved until it
    meets the Armijo condition; and stop at the first iterate whose penalty
    is below 1e-3."""
    spec = _scene(
        Room(20.0, 20.0, 3.0),
        (Asset("slider", "box", (1.0, 1.0, 1.0)),),
        relations=(Relation("h_place", "slider", "scene", {"x": 10.0, "margin": 0.0}),),
    )
    w = optimizer.POLISH_RELATION
    solved, lengths = set(), set()
    for seed, offset, iterations in [(0, 0.0, 4), (4, 0.0, 4), (5, 2.5, 20), (6, -4.0, 20), (7, 0.7, 20), (7, 3.0, 1), (8, -3.0, 2)]:
        config = OptimizerConfig(seed=seed, iterations=iterations)
        init, imagined = _start(spec, config)
        # The imagined pose sits on the target, at the room's centre; the
        # offset moves it away.
        assert imagined
        init.pose("slider")[0] += offset
        x0, y0 = init.pose("slider")[0], init.pose("slider")[1]
        # Preconditions for the 1-d reduction: interior start so the
        # boundary term stays identically zero along the trajectory.
        assert 1.0 < y0 < 19.0 and 1.0 < x0 < 19.0 and x0 != 10.0

        def loss(x):
            return (x - 10.0) * (x - 10.0), w * (2.0 * (x - 10.0))

        x, (f, g) = x0, loss(x0)
        xs, lrs, calls, pairs, t = [], [], 1, [], 0.0
        while True:
            xs.append(x)
            lrs.append(t)
            if f < optimizer.SATISFIED:
                break
            d = -g
            if pairs:
                s, y = pairs[-1]
                d = -g * (s / y)  # the two-loop recursion in one dimension
            if not (pairs and g * d < 0.0):
                pairs = []
                d = g * (-optimizer.FIRST_STEP / abs(g))
            x_prev, g_prev, t = x, g, 1.0
            accepted = False
            while calls < config.iterations + config.iterations // 2:
                trial, (ft, gt) = x_prev + t * d, loss(x_prev + t * d)
                calls += 1
                if w * ft <= w * f + optimizer.ARMIJO * t * (g * d):
                    x, f, g, accepted = trial, ft, gt, True
                    break
                t *= 0.5
            if not accepted:
                break
            if (x - x_prev) * (g - g_prev) > optimizer.CURVATURE_MIN:
                pairs.append((x - x_prev, g - g_prev))

        (layout, trace), n = _evaluations(monkeypatch, lambda: _run(init, config, False, True))
        case = (seed, offset, iterations)
        assert n == calls <= config.iterations + config.iterations // 2, case
        assert [r.lr for r in trace.rows] == lrs, case
        assert [r.iteration for r in trace.rows] == list(range(len(xs))), case
        assert [r.stage for r in trace.rows] == [2] * len(xs), case
        assert layout.poses["slider"][0] == pytest.approx(xs[-1], abs=1e-12), case
        assert layout.poses["slider"][1] == y0
        assert trace.solved_at == (len(xs) if f < optimizer.SATISFIED else None), case
        solved.add(trace.solved_at is not None)
        lengths.update(lrs[1:])
    # Both ends occur, a stop when solved and the evaluation cap, and the
    # line search both takes a whole step and halves one.
    assert solved == {True, False}
    assert {1.0, 0.5} <= lengths


def test_shared_params_frozen_in_stage1_and_updated_in_stage2():
    spec = _scene(
        Room(10.0, 10.0, 3.0),
        (Asset("a", "box", (1.0, 1.0, 1.0)), Asset("b", "box", (1.0, 1.0, 1.0))),
        relations=(Relation("distance", "a", "b", {"d": 2.0}, "inter", None, "sep"),),
    )
    state = init_state(spec, seed=1)
    for t in range(4):
        step(state, _gradient(state, 1), 1, t, _STEPS)
    assert state.shared["sep"] == 2.0
    step(state, _gradient(state, 2), 2, 4, _STEPS)
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
    # dining_set's imagined layout is clean: one stage-2 row per accepted
    # L-BFGS iterate, the start first at step length 0, each later one at
    # the step length its line search accepted, a whole step or a halving.
    n = len(t1.rows)
    assert 2 < n <= 30 and t1.solved_at == n
    assert [r.stage for r in t1.rows] == [2] * n
    assert t1.rows[0].lr == 0.0 and all(0.0 < r.lr <= 1.0 and math.log2(r.lr).is_integer() for r in t1.rows[1:])
    assert [r.iteration for r in t1.rows] == list(range(n))
    csv1, csv2 = t1.to_csv(), t2.to_csv()
    assert csv1 == csv2
    header, first = csv1.splitlines()[:2]
    assert header == "iteration,stage,total,collision,boundary,relation,prior,lr"
    assert first.startswith("0,2,")
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
def test_a_solve_that_never_passes_is_the_fixed_budget_run(name, monkeypatch):
    # From the random start, these (seed, flat) runs pass no checkpoint.
    # From its imagined start, a solve whose evaluation cap comes first
    # makes exactly `iterations + iterations // 2` calls of `evaluate`, and
    # ends at its last accepted iterate.
    spec = load_fixture(name)
    never = {"mixed_ten": [(0, False), (0, True), (1, False), (1, True)], "bookstore_rows": [(0, False), (2, False)]}
    for seed, flat in never[name]:
        config = OptimizerConfig(seed=seed)
        got = _random_solve(spec, config, flat)
        assert got[1].solved_at is None and len(got[1].rows) == 2 * config.iterations, (seed, flat)
        assert _same_solve(got, _random_solve(spec, config, flat, stop=False)), (seed, flat)
    config = OptimizerConfig(seed=0, iterations=2)
    for run in (solve, solve_global_baseline):
        (layout, trace), calls = _evaluations(monkeypatch, lambda: run(spec, config))
        assert trace.solved_at is None and calls == 3 and 1 <= len(trace.rows) <= calls, run.__name__
        assert not _is_solved(spec, layout, trace), run.__name__
        # The final state is the last row's: the cut line search is undone.
        state, _ = _start(spec, config)
        assert _run(state, config, run is solve_global_baseline, True)[0] == layout
        total, _, _, _ = evaluate(state, Weights(relation=optimizer.POLISH_RELATION), 2, config)
        assert total == trace.rows[-1].total, run.__name__


@pytest.mark.parametrize("name, seed", [("star_unit", 0), ("star_unit", 1), ("dining_set", 0)])
def test_a_stopped_solve_ends_at_a_checkpoint_clean_and_satisfied(name, seed, monkeypatch):
    # From the imagined start every accepted iterate is a checkpoint: the
    # solve stops at its first clean and satisfied one, well inside its cap.
    spec = load_fixture(name)
    config = OptimizerConfig(seed=seed)
    (layout, trace), calls = _evaluations(monkeypatch, lambda: solve(spec, config))
    n = len(trace.rows)
    assert trace.solved_at == n and n <= calls < 50
    assert _is_solved(spec, layout, trace)
    assert max(trace.final_penalties.values()) < SATISFIED


def _report_at(state):
    """`relation_penalties` at `state`, as its items in order."""
    return list(relation_penalties(state.index, optimizer._derived_view(state)).items())


def _lbfgs_solve(spec, config, flat, monkeypatch):
    """An L-BFGS solve from the imagined start, its final state, and what
    the stop test got at each accepted iterate next to `relation_penalties`
    there; a call of `relation_penalties` by the solver fails it."""
    seen, stop = [], optimizer._solved

    def spy(state, penalties):
        seen.append((list(penalties.items()), _report_at(state)))
        return stop(state, penalties)

    def refused(*args):
        raise AssertionError("an L-BFGS solve called relation_penalties")

    state, imagined = _start(spec, config)
    assert imagined
    with monkeypatch.context() as m:
        m.setattr(optimizer, "_solved", spy)
        m.setattr(optimizer, "relation_penalties", refused)
        _, trace = _run(state, config, flat, imagined)
    return state, trace, seen


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_the_lbfgs_stop_test_reads_the_penalties_evaluate_recorded(name, monkeypatch):
    # At every accepted iterate the stop test gets the penalties of the
    # `evaluate` that accepted it: bit for bit `relation_penalties` at that
    # state, the same items in the same order, units first, then the scene.
    spec = load_fixture(name)
    if name == "conflict_pair":
        spec, _ = imagine_and_revise(spec)
    for seed in range(10):
        for flat in (False, True):
            state, trace, seen = _lbfgs_solve(spec, OptimizerConfig(seed=seed), flat, monkeypatch)
            assert len(seen) == len(trace.rows), (seed, flat)
            for k, (got, want) in enumerate(seen):
                assert repr(got) == repr(want), (seed, flat, k)
            assert repr(list(trace.final_penalties.items())) == repr(_report_at(state)), (seed, flat)


def test_the_momentum_stop_test_reads_the_penalties_evaluate_recorded(monkeypatch):
    # Unrevised conflict_pair's imagined layout collides, so `solve` takes
    # the random start.  The state after every 25th step of a stage is
    # tested on the penalties of the `evaluate` at that state, bit for bit
    # `relation_penalties` there, which the solver does not call: seed 0
    # stops solved at its 47th test, after 1175 rows.  Seed 1 runs its whole
    # budget, and its end is tested once more, on the one
    # `relation_penalties` call of the solve.
    spec = load_fixture("conflict_pair")
    seen, stop, calls = [], optimizer._solved, []

    def spy(state, penalties):
        seen.append((list(penalties.items()), _report_at(state)))
        return stop(state, penalties)

    def refused(*args):
        raise AssertionError("a momentum checkpoint called relation_penalties")

    def counted(*args):
        calls.append(1)
        return relation_penalties(*args)

    with monkeypatch.context() as m:
        m.setattr(optimizer, "_solved", spy)
        m.setattr(optimizer, "relation_penalties", refused)
        _, trace = solve(spec, OptimizerConfig(seed=0))
    assert trace.solved_at == len(trace.rows) == 1175
    assert len(seen) == 47 and all(repr(got) == repr(want) for got, want in seen)
    assert repr(list(trace.final_penalties.items())) == repr(seen[-1][1])

    seen.clear()
    with monkeypatch.context() as m:
        m.setattr(optimizer, "_solved", spy)
        m.setattr(optimizer, "relation_penalties", counted)
        _, trace = solve(spec, OptimizerConfig(seed=1))
    assert trace.solved_at is None and len(trace.rows) == 1200 and calls == [1]
    assert len(seen) == 48 and all(repr(got) == repr(want) for got, want in seen)


@pytest.mark.parametrize("name, seed, iterations", [*((n, 1, 2) for n in FIXTURE_NAMES), ("bookstore_rows", 40, 600)])
def test_an_unsolved_lbfgs_end_keeps_the_penalties_of_its_last_iterate(name, seed, iterations, monkeypatch):
    # A solve that ends unsolved, at a cap of 3 `evaluate` calls or, for
    # bookstore_rows seed 40 (flat), clean but unsatisfied after its whole
    # budget of 900 calls, reports bit for bit `relation_penalties` at its
    # final state.
    spec = load_fixture(name)
    if name == "conflict_pair":
        spec, _ = imagine_and_revise(spec)
    config = OptimizerConfig(seed=seed, iterations=iterations)
    unsolved = []
    for flat in (False, True):
        (state, trace, seen), calls = _evaluations(monkeypatch, lambda: _lbfgs_solve(spec, config, flat, monkeypatch))
        assert all(repr(got) == repr(want) for got, want in seen), flat
        assert repr(list(trace.final_penalties.items())) == repr(_report_at(state)), flat
        if trace.solved_at is None:
            unsolved.append(flat)
            assert calls == iterations + iterations // 2, flat
            if seed == 40:
                assert _is_clean(spec, _state_layout(state)) and max(trace.final_penalties.values()) >= SATISFIED
    assert unsolved == [True] if seed == 40 else unsolved


def test_every_slot_falls_in_one_class_under_both_parameterizations(monkeypatch):
    # The revised conflict_pair has unit frames, members, independent assets
    # and shared parameters: the map L-BFGS scales by gives the (x, y) and
    # the heading of each kind of row a class of their own, and the shared
    # slots one more, the same for both parameterizations.
    spec, _ = imagine_and_revise(load_fixture("conflict_pair"))
    index = param_index(spec)
    frames = {index.pose[u.id].start for u in spec.units}
    members = {index.pose[m].start for u in spec.units for m in u.members}
    independent = {s.start for s in index.pose.values()} - frames - members
    assert all((frames, members, independent)) and not frames & members and index.size > index.pose_size
    assert sorted(frames | members | independent) == list(range(0, index.pose_size, 3))
    want = [6] * index.size
    for c, rows in enumerate((frames, members, independent)):
        for r in rows:
            want[r : r + 3] = 2 * c, 2 * c, 2 * c + 1
    maps, classes = [], optimizer._slot_classes

    def spy(index):
        maps.append(classes(index).tolist())
        return classes(index)

    monkeypatch.setattr(optimizer, "_slot_classes", spy)
    for run in (solve, solve_global_baseline):
        run(spec, OptimizerConfig(seed=0))
    assert maps == [want, want]


def test_the_first_inverse_hessian_guess_scales_each_class_or_falls_back():
    # Class 0 curves as its own s.y / y.y; class 1 has s.y < 0, class 2 a
    # zero y and class 3 s.y = 0, so each takes the whole vector's s.y / y.y.
    classes = np.array([0, 0, 1, 2, 3, 3])
    s = np.array([1.0, 2.0, 1.0, 5.0, 1.0, -1.0])
    y = np.array([2.0, 1.0, -1.0, 0.0, 1.0, 1.0])
    h0 = _diagonal(classes, s, y)
    assert h0.tolist() == [4.0 / 5.0] * 2 + [3.0 / 8.0] * 4
    assert (h0 > 0.0).all()
    # One class is today's scalar guess.
    assert _diagonal(np.zeros(6, dtype=int), s, y).tolist() == [(s @ y) / (y @ y)] * 6


def test_a_record_short_of_the_plan_fails_the_lbfgs_solve(monkeypatch):
    # A record missing a term must not pass the stop test on the terms it
    # holds: the solve raises instead of reporting a solved layout.
    spec, config = load_fixture("star_unit"), OptimizerConfig()
    state, imagined = _start(spec, config)
    assert imagined
    full = optimizer.evaluate

    def short(*args):
        total, grad, terms, penalties = full(*args)
        return total, grad, terms, penalties[:-1]

    monkeypatch.setattr(optimizer, "evaluate", short)
    with pytest.raises(ValueError, match="zip"):
        _run(state, config, False, imagined)


def test_a_conflict_pair_seed_that_stage_2_lost_now_stops_in_stage_1():
    # From the random start with the fixed budget, stage 2 leaves seed 20
    # colliding and unsatisfied, though its state passed the sweep's test
    # at step 175.
    spec, _ = imagine_and_revise(load_fixture("conflict_pair"))
    config = OptimizerConfig(seed=20)
    layout, trace = _random_solve(spec, config)
    assert trace.solved_at == len(trace.rows) == 175 and trace.rows[-1].stage == 1
    assert _is_solved(spec, layout, trace)
    fixed_layout, fixed = _random_solve(spec, config, stop=False)
    assert not _is_solved(spec, fixed_layout, fixed)


def test_a_momentum_descent_that_ends_solved_reports_its_last_row():
    # From init_state's draw at seed 4, dining_set passes no checkpoint of
    # 40 steps per stage, but the state after the last step is clean and
    # satisfied: the end test reports it, and the run is the fixed-budget
    # run to the bit.
    spec = load_fixture("dining_set")
    config = OptimizerConfig(iterations=40, seed=4)
    got = _random_solve(spec, config)
    layout, trace = got
    assert trace.solved_at == len(trace.rows) == 80
    assert _is_solved(spec, layout, trace)
    fixed = _random_solve(spec, config, stop=False)
    assert fixed[1].solved_at is None
    assert _same_solve(got, fixed)


def test_convergence_benchmark_runs_the_full_budget():
    # star_unit stops within a few iterates on seeds 0 and 1 from its
    # imagined start, yet the benchmark records whole curves from the random start and the
    # results its fixed budget gives.
    spec = load_fixture("star_unit")
    results = convergence_benchmark(spec, (0, 1))
    got = [(r.seed, r.reparam_iterations, r.baseline_iterations, r.speedup, r.diverged) for r in results]
    assert got == [(0, 12, 36, 3.0, False), (1, 10, 20, 2.0, False)]
    for r in results:
        config = OptimizerConfig(seed=r.seed)
        _, stopped = solve(spec, config)
        assert stopped.solved_at is not None
        assert len(r.reparam_curve) == len(r.baseline_curve) == 2 * config.iterations
        assert r.reparam_curve == tuple(row.total for row in _random_solve(spec, config, stop=False)[1].rows)


# ---------------------------------------------------------------------------
# The start: the imagined layout when it is clean, else the random draw
# ---------------------------------------------------------------------------


def _rooms_scene(key, n, monkeypatch):
    """A generated scene of the benchmark's `rooms` workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import scenegen

    return parse_scene(scenegen.to_text(scenegen.scene_dict(key, n)))


def _imagined_state(spec):
    """`interpret_scene`'s poses as a state, shared slots at their priors."""
    index = param_index(spec)
    return ParamState(spec, index, index.pack({k: (p.x, p.y, p.theta) for k, p in interpret_scene(spec).items()}))


@pytest.mark.parametrize("name", ["conflict_pair", "rooms:0:0"])
def test_a_scene_whose_imagined_layout_collides_solves_from_the_random_start(name, monkeypatch):
    # Unrevised conflict_pair's imagined layout collides, and so does the
    # generated scene's: the solve is init_state's draw descended by the two
    # stages, step for step the reference descent.
    if name == "conflict_pair":
        spec, config = load_fixture(name), OptimizerConfig(iterations=100, seed=0)
    else:
        spec, config = _rooms_scene(name, 40, monkeypatch), OptimizerConfig(iterations=40, seed=0)
    assert not _is_clean(spec, _state_layout(_imagined_state(spec)))
    start, imagined = _start(spec, config)
    assert not imagined
    layout, trace = _run(start, config, False, imagined, stop=False)

    state = init_state(spec, config.seed)
    rows = []
    for stage in (1, 2):
        state.vel[:] = 0.0
        for t in range(config.iterations):
            total, grad, _, _ = refopt.reference_evaluate(state, optimizer.WEIGHTS, stage, config)
            rows.append((stage, float(total), reference_step(state, grad, stage, t, config.iterations)))
    assert [(r.stage, r.total, r.lr) for r in trace.rows] == rows
    assert serialize_layout(layout) == serialize_layout(_state_layout(state))
    assert repr(trace.final_shared) == repr(state.shared)
    # With the stop on, the solve is the same run up to its stop.
    assert trace.to_csv().startswith(solve(spec, config)[1].to_csv())


def test_the_imagined_start_is_taken_exactly_when_the_imagined_layout_is_clean(monkeypatch):
    specs = {name: load_fixture(name) for name in FIXTURE_NAMES}
    specs["conflict_pair revised"], _ = imagine_and_revise(specs["conflict_pair"])
    specs["rooms:0:0"] = _rooms_scene("rooms:0:0", 40, monkeypatch)
    seen = {}
    for name, spec in specs.items():
        imagined = _imagined_state(spec)
        clean = _is_clean(spec, _state_layout(imagined))
        seen[name] = clean
        for seed in (0, 7):
            config = OptimizerConfig(seed=seed)
            state, from_imagined = _start(spec, config)
            assert from_imagined == clean, name
            if clean:
                n = state.index.pose_size
                want = imagined.x.copy()
                want[:n] += np.random.default_rng(seed).normal(0.0, JITTER, n)
            else:
                want = init_state(spec, seed).x
            assert state.x.tobytes() == want.tobytes(), (name, seed)
            # Repeat runs give the same bytes, and both parameterizations
            # start from the same loss.
            short = replace(config, iterations=50)
            got = solve(spec, short)
            assert _same_solve(got, solve(spec, short)), (name, seed)
            flat = solve_global_baseline(spec, short)
            assert flat[1].rows[0].total == pytest.approx(got[1].rows[0].total, abs=1e-9), (name, seed)
    assert seen == {
        "dining_set": True,
        "bookstore_rows": True,
        "star_unit": True,
        "conflict_pair": False,
        "mixed_ten": True,
        "conflict_pair revised": True,
        "rooms:0:0": False,
    }


def test_an_oversized_asset_raises_before_any_imagining(monkeypatch):
    def imagine(spec, index):
        raise AssertionError("imagined a scene that cannot fit")

    monkeypatch.setattr(optimizer, "_imagine", imagine)
    spec = _scene(Room(3.0, 2.0, 2.5), (Asset("slab", "slab", (3.5, 1.0, 0.2)),))
    for run in (solve, solve_global_baseline):
        with pytest.raises(InfeasibleRoomError, match="asset 'slab' cannot fit"):
            run(spec, OptimizerConfig())


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
    # parameterizations, through a whole solve: L-BFGS from the imagined
    # start, the two momentum stages from the random one.
    spec = _shared_across_frames_scene() if name == "shared_across_frames" else load_fixture(name)
    config = OptimizerConfig(iterations=40)
    for solver in (solve, solve_global_baseline):
        layout, trace = solver(spec, config)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "step", reference_step)
            m.setattr(optimizer, "evaluate", refopt.reference_evaluate)
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
                total, grad, terms, penalties = evaluate(state, Weights(), stage, config)
                want = refopt.reference_evaluate(state, Weights(), stage, config)
                want_total, want_grad, want_terms, want_penalties = want
                context = (name, seed, flat, stage)
                assert repr(total) == repr(want_total), context
                assert np.array(grad).tobytes() == want_grad.tobytes(), context
                assert repr(terms) == repr(want_terms), context
                assert repr(penalties) == repr(want_penalties), context


def test_step_does_not_scale_a_row_at_exactly_the_clip_norm(monkeypatch):
    spec = _scene(Room(10.0, 10.0, 3.0), (Asset("box", "box", (1.0, 1.0, 1.0)),))
    for g, moved in (((3.0, 4.0, 0.0), (1.5, 2.0)), ((6.0, 8.0, 0.0), (1.5, 2.0)), ((0.0, 5.0, 0.0), (0.0, 2.5))):
        state = init_state(spec, seed=0)
        state.pose("box")[:] = (5.0, 5.0, 0.3)
        monkeypatch.setattr(optimizer, "CLIP_POSITION", 5.0)
        step(state, list(g), 2, 0, _STEPS)
        assert state.pose("box").tolist() == [5.0 - moved[0], 5.0 - moved[1], 0.3], g


def test_stage1_step_leaves_shared_slots_and_their_velocity(monkeypatch):
    state = _assembled_scene()
    shared = list(state.index.param.values())
    state.vel[shared] = 0.25
    x_before, vel_before = state.x[shared].copy(), state.vel[shared].copy()
    step(state, [0.5] * state.index.size, 1, 0, _STEPS)
    assert np.array_equal(state.x[shared], x_before)
    assert np.array_equal(state.vel[shared], vel_before)
    assert state.vel[0] == 0.5


@pytest.mark.parametrize("stage", [1, 2])
def test_nan_gradient_diverges_at_the_reference_step(stage):
    # A NaN in any gradient slot of step 3 ends the same way as in the
    # reference step: at the same iteration, or, for a shared slot in stage
    # 1, not at all, with the same state and cosine factor.
    base = _assembled_scene()
    for slot in range(base.index.size):
        grad = np.linspace(-2.0, 2.0, base.index.size)
        grad[slot] = math.nan
        outcomes = []
        for stepper in (step, reference_step):
            state = _clone(base)
            try:
                factor = stepper(state, grad.tolist(), stage, 3, _STEPS)
                outcomes.append(("ok", state.x.tobytes(), state.vel.tobytes(), factor))
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
            try:
                with np.errstate(all="ignore"):  # the reference's inf * 0 in its row scaling
                    outcome = stepper(state, grad.tolist(), stage, 0, _STEPS)
            except DivergenceError as exc:
                outcome = (str(exc), exc.iteration)
            outcomes.append((outcome, state.x.tobytes(), state.vel.tobytes()))
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
