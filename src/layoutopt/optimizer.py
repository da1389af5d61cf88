"""L-BFGS from the imagined layout, or momentum descent from a random
start, over one flat parameter vector.

Both parameterizations run the same descents over a vector laid out by
`ParamIndex`: one pose row per unit frame, unit member and independent
asset, then the shared constraint parameters.  They differ only in the map
from that vector to the poses the objective reads, and in that map's chain
rule:

- two-level (`solve`): a member's row is its pose local to its unit's
  frame, and the map is the identity.  Unit-internal terms therefore never
  produce gradient on the frame, and scene-level terms never reach into
  members: the two blocks decouple.
- flat (`solve_global_baseline`): every row is a global asset pose.
  `_derived_view` re-expresses members in their anchor's frame and
  `_pull_back` carries their gradients back, which re-couples the blocks.
  This serves as the reference point for convergence comparisons.

A solve compiles the scene once and runs the imagination pass on that plan
(`imagination._imagine`, which `interpret_scene` wraps).  When the imagined
poses are clean (`harness._is_clean`), the solve starts there, with seeded
N(0, JITTER) noise on every pose slot, and `_lbfgs` minimizes the stage-2
objective at relation weight POLISH_RELATION.  Otherwise it falls back to
`init_state`'s seeded random draw and two momentum stages of `iterations`
steps: stage 1 optimizes poses under relation terms only, with constraint
parameters frozen; stage 2 enables collision and boundary terms, and lets
shared constraint parameters float under a quadratic prior at their
declared values.  Each stage anneals over its own length.

Each objective call is one `evaluate`, one pass over the relation plan into
one gradient list; a momentum step is one `evaluate` and one `step`, which
updates velocity and vector in place.  At every accepted L-BFGS iterate,
and every `CHECK_EVERY` momentum steps, a solve tests its state as the seed
sweep scores a solved layout (`_solved_penalties`), and the first pass ends
it: `iterations` sets a cap.

`convergence_benchmark` compares the two parameterizations: it runs both
from `init_state`'s draw through the two-stage descent with the stop test
off, and reads iterations-to-threshold off each run's loss curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .constraints import (
    LossValue,
    ParamIndex,
    Weights,
    aggregate_global,
    objective,
    param_index,
    relation_penalties,
)
from .errors import DivergenceError, InfeasibleRoomError
from .harness import _is_clean
from .imagination import _imagine
from .scene_model import Layout, SceneSpec


# Momentum steps between two tests of whether a solve is done, in each stage.
CHECK_EVERY = 25
# Momentum of the velocity, and the learning rates of the (x, y), heading
# and shared-parameter slots.
MOMENTUM = 0.9
LR_POSITION = 0.5
LR_ROTATION = 0.3
LR_SHARED = 0.1
# Step limits: each row's (x, y) gradient is scaled to norm at most
# CLIP_POSITION, which also bounds each shared slot; each heading slot is
# clipped to CLIP_ROTATION.
CLIP_POSITION = 1.0
CLIP_ROTATION = 0.3
# A relation is satisfied when its raw penalty is below this.
SATISFIED = 1e-3
# The term weights of both descents; L-BFGS raises the relation weight.
WEIGHTS = Weights()
# The imagined start: the standard deviation of the noise on every pose
# slot, and the relation weight of the objective L-BFGS minimizes.
JITTER = 0.05
POLISH_RELATION = 10.0
# L-BFGS: curvature pairs kept; the largest entry of a steepest-descent
# step; the Armijo constant of the halving line search; the least s.y a
# curvature pair needs to be kept.
LBFGS_MEMORY = 10
FIRST_STEP = 0.1
ARMIJO = 1e-4
CURVATURE_MIN = 1e-12
# History weight of the exponential moving average of the loss curves.
EMA_ALPHA = 0.85


@dataclass(frozen=True)
class OptimizerConfig:
    """Descent settings; `iterations` sets the cap of a solve (see `solve`;
    a solve ends sooner once it is solved), and a `seed` of None starts
    from the scene's own seed."""

    iterations: int = 600
    prior_weight: float = 1.0
    seed: int | None = None


class Phase(NamedTuple):
    """One run of momentum steps: the objective's stage (1: relations only,
    shared parameters frozen; 2: every term), the term weights, and the
    number of steps, over which the rate anneals."""

    stage: int
    weights: Weights
    steps: int


def _two_stage(iterations: int) -> tuple:
    """The schedule from a random start: stage 1, then stage 2."""
    return Phase(1, WEIGHTS, iterations), Phase(2, WEIGHTS, iterations)


def cosine_factor(t: int, total: int) -> float:
    """Annealing multiplier: 1 at t=0 decaying to ~0 at t=total."""
    return 0.5 * (1.0 + math.cos(math.pi * t / total))


@dataclass
class TraceRow:
    """One iterate: its position in the trace, the objective's stage, the
    weighted total and the raw family totals there, and `lr`: the accepted
    step length of an L-BFGS iterate, the cosine factor of a momentum step."""

    iteration: int
    stage: int
    total: float
    collision: float
    boundary: float
    relation: float
    prior: float
    lr: float


@dataclass
class Trace:
    """Per-iterate record of the objective and its terms.

    A solve from the imagined layout has one stage-2 row per accepted
    L-BFGS iterate, the start first: its `total` weighs the relation term
    by POLISH_RELATION, and its `lr` is the step length the line search
    accepted (0 for the start).  A solve that fell back to the random start
    has one row per momentum step, at the state before it: `iterations`
    stage-1 rows, then the stage-2 rows; a row's `lr` is the cosine factor
    its step applied to every slot's learning rate, not a rate itself.
    `final_shared` and `final_penalties` snapshot the learned shared
    parameters and the raw per-relation penalties at the final state.
    `solved_at` is the number of rows when the solve stopped because its
    state was clean and satisfied, or None when it ran until its cap.
    """

    rows: list = field(default_factory=list)
    final_shared: dict = field(default_factory=dict)
    final_penalties: dict = field(default_factory=dict)
    solved_at: int | None = None

    def to_csv(self) -> str:
        lines = ["iteration,stage,total,collision,boundary,relation,prior,lr"]
        for r in self.rows:
            lines.append(
                f"{r.iteration},{r.stage},{r.total!r},{r.collision!r},"
                f"{r.boundary!r},{r.relation!r},{r.prior!r},{r.lr!r}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class ParamState:
    """The parameter vector `x`, laid out by `index`, and its velocity.

    A member's row holds its pose in its unit's frame, or its global pose
    when `flat` is set; every other row holds a global pose.  The shared
    parameters' priors are `index.priors`.  `limit` and `lr`, built with
    the state from the module constants, are the clip limit and learning
    rate of every slot; the (x, y) slots have no limit of their own: they
    are clipped by their row's norm.
    """

    spec: SceneSpec
    index: ParamIndex
    x: np.ndarray
    flat: bool = False
    vel: np.ndarray = field(init=False)
    step_index: int = field(default=0, init=False)
    limit: np.ndarray = field(init=False, repr=False, compare=False)
    lr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vel = np.zeros_like(self.x)
        n_pose, size = self.index.pose_size, self.index.size
        self.limit = np.full(size, CLIP_POSITION)
        self.limit[:n_pose] = math.inf
        self.limit[2:n_pose:3] = CLIP_ROTATION
        self.lr = np.full(size, LR_SHARED)
        self.lr[:n_pose] = LR_POSITION
        self.lr[2:n_pose:3] = LR_ROTATION

    def reset_momentum(self):
        self.vel[:] = 0.0
        self.step_index = 0

    def pose(self, entity_id: str) -> np.ndarray:
        """Writable view of the pose row of a unit, member or independent asset."""
        return self.x[self.index.pose[entity_id]]

    @property
    def shared(self) -> dict:
        """Shared parameter values, by name."""
        return {name: float(self.x[k]) for name, k in self.index.param.items()}


def _check_fits(spec: SceneSpec):
    """Raise InfeasibleRoomError for an asset the room cannot hold."""
    room = spec.room
    for a in spec.assets:
        short, long = sorted(a.size[:2])
        if long > max(room.length, room.width) or short > min(room.length, room.width):
            raise InfeasibleRoomError(
                f"asset {a.id!r} cannot fit: footprint {a.size[0]}x{a.size[1]} fits a "
                f"{room.length}x{room.width} room in neither axis-aligned orientation"
            )


def init_state(spec: SceneSpec, seed: int, index: ParamIndex | None = None) -> ParamState:
    """Deterministic random initialization, row by row in plan order.

    A scene-level row's position is uniform inside the room inset on each
    axis by its box's larger half size (a unit's: its anchor's), capped at
    half that side of the room; a unit's member locals follow its frame,
    uniform in [-1, 1]^2.  Headings are uniform in [-pi, pi).  `index` is
    the scene's compiled plan, built here when not given.
    """
    _check_fits(spec)
    room = spec.room
    rng = np.random.default_rng(seed)
    index = param_index(spec) if index is None else index
    scene = index.blocks[None]
    x = np.empty(index.size)
    for r, halves, frame in zip(scene.rows, scene.halves, scene.frames):
        margin = max(halves if frame is None else frame.halves[0])
        mx, my = min(margin, 0.5 * room.length), min(margin, 0.5 * room.width)
        position = (rng.uniform(mx, room.length - mx), rng.uniform(my, room.width - my))
        x[r : r + 3] = (*position, rng.uniform(-math.pi, math.pi))
        for m in () if frame is None else frame.rows[1:]:
            x[m : m + 3] = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))
    x[index.pose_size :] = index.priors
    return ParamState(spec, index, x)


def _start(spec: SceneSpec, config: OptimizerConfig) -> tuple:
    """The state a solve starts from, and whether it is the imagined one.

    The scene is compiled once and imagined on that plan.  When the
    imagined poses are clean, they are the start, with seeded N(0, JITTER)
    noise on every pose slot (the seed draws only this noise); otherwise
    the start is `init_state`'s draw.  An asset the room cannot hold raises
    before any imagining.
    """
    _check_fits(spec)
    seed = spec.seed if config.seed is None else config.seed
    index = param_index(spec)
    x = np.array(_imagine(spec, index))
    x[index.pose_size :] = index.priors
    state = ParamState(spec, index, x)
    if not _is_clean(spec, _state_layout(state)):
        return init_state(spec, seed, index), False
    n = index.pose_size
    state.x[:n] += np.random.default_rng(seed).normal(0.0, JITTER, n)
    return state, True


def _stage_weights(weights: Weights, stage: int) -> Weights:
    if stage == 1:
        return Weights(collision=0.0, relation=weights.relation, boundary=0.0)
    return weights


def _unit_rows(index: ParamIndex) -> list:
    """(frame row, member rows) of each unit, from the plan: its stand-in's
    row in the scene block, and its own block's rows but the anchor's."""
    scene = index.blocks[None]
    units = [(r, f) for r, f in zip(scene.rows, scene.frames) if f is not None]
    return [(r, [m for m in f.rows if m is not None]) for r, f in units]


def _reframe(index: ParamIndex, x: np.ndarray, inverse: bool) -> np.ndarray:
    """Copy of `x` with each member row `p` replaced by `compose(frame, p)`,
    `frame` being its unit's row, or by `relative(frame, p)`, which is
    `compose(invert(frame), p)`, when `inverse` is set: `geometry`'s float
    expressions in their order, on floats."""
    out = x.tolist()
    for r, members in _unit_rows(index):
        fx, fy, ft = out[r : r + 3]
        if inverse:
            c, s = math.cos(ft), math.sin(ft)
            fx, fy, ft = -(c * fx + s * fy), s * fx - c * fy, -ft
        c, s = math.cos(ft), math.sin(ft)
        for m in members:
            px, py, pt = out[m : m + 3]
            out[m : m + 3] = fx + c * px - s * py, fy + s * px + c * py, ft + pt
    return np.array(out)


def _derived_view(state: ParamState) -> np.ndarray:
    """The two-level vector the objective reads: `x` itself, or for a flat
    state a copy with each member row re-expressed in its anchor's frame."""
    return _reframe(state.index, state.x, True) if state.flat else state.x


def _global_view(state: ParamState) -> np.ndarray:
    """The flat vector of global poses, inverse of `_derived_view`: `x`
    itself for a flat state, else a copy with each member row composed with
    its unit's frame."""
    return state.x if state.flat else _reframe(state.index, state.x, False)


def _pull_back(state: ParamState, view: list, grad: list):
    """Chain rule of `_derived_view`, in place on the gradient list: each
    member-local gradient becomes one on the global member pose and its anchor's."""
    for frame, members in _unit_rows(state.index):
        theta = view[frame + 2]
        ca, sa = math.cos(theta), math.sin(theta)
        for m in members:
            g0, g1, g2 = grad[m : m + 3]
            lx, ly = view[m], view[m + 1]
            gm0, gm1 = ca * g0 - sa * g1, sa * g0 + ca * g1
            grad[m], grad[m + 1] = gm0, gm1
            grad[frame] -= gm0
            grad[frame + 1] -= gm1
            grad[frame + 2] += g0 * ly - g1 * lx - g2


def evaluate(state: ParamState, weights: Weights, stage: int, config: OptimizerConfig):
    """Objective value, its gradient over `state.x`, and per-term breakdown.

    `aggregate_global`, then `constraints.objective` over the unit blocks in
    plan order carrying on its sums in one list, then the prior and the
    pull-back: bit for bit the sum of it and each `aggregate_local`.  The
    gradient is that list, laid out as `state.x`, as `step` and `_lbfgs`
    read it.
    """
    spec, index = state.spec, state.index
    eff = _stage_weights(weights, stage)
    x = _derived_view(state)
    scene = aggregate_global(spec, index, x, eff)
    xs = x.tolist()
    units = [block for unit, block in index.blocks.items() if unit is not None]
    out = objective(units, xs, eff, spec.room, LossValue(scene.value, scene.grads.tolist(), scene.terms))
    total, grad = out.value, out.grads
    terms = {"collision": 0.0, "boundary": 0.0, "relation": 0.0, "prior": 0.0, **out.terms}

    if stage == 2 and config.prior_weight != 0.0:
        prior = 0.0
        for k, declared in enumerate(index.priors, index.pose_size):
            r = xs[k] - declared
            prior += r * r
            grad[k] += 2.0 * config.prior_weight * r
        terms["prior"] = prior
        total += config.prior_weight * prior

    if state.flat:
        _pull_back(state, xs, grad)
    return total, grad, terms


def step(state: ParamState, config: OptimizerConfig, phase: Phase):
    """One momentum step of `phase` in place, on the objective at the
    phase's weights; returns (loss, terms, cosine factor) at the pre-step
    state.  Stage 1 leaves the shared parameters untouched."""
    total, grad, terms = evaluate(state, phase.weights, phase.stage, config)
    if not math.isfinite(total):
        raise DivergenceError("objective is not finite", state.step_index)
    factor = cosine_factor(state.step_index, phase.steps)

    # Each row's (x, y) gradient is scaled down to norm CLIP_POSITION, in
    # place in the list `grad`.  The norm uses math.hypot: np.hypot can
    # differ in the last bit, and the difference grows over a run.  Then
    # each slot is clipped to its limit by np.clip's maximum-then-minimum,
    # without its wrapper.
    n_pose, clip = state.index.pose_size, CLIP_POSITION
    for r in range(0, n_pose, 3):
        gx, gy = grad[r], grad[r + 1]
        norm = math.hypot(gx, gy)
        if norm > clip:
            grad[r], grad[r + 1] = gx * (clip / norm), gy * (clip / norm)
    n = n_pose if phase.stage == 1 else state.index.size
    limit, lr = state.limit[:n], state.lr[:n]
    vel, x = state.vel[:n], state.x[:n]
    vel *= MOMENTUM
    vel += np.minimum(np.maximum(grad[:n], -limit), limit)
    x -= lr * factor * vel

    state.step_index += 1
    if not np.isfinite(state.x).all():
        raise DivergenceError("parameter is not finite", state.step_index)
    return total, terms, factor


def _state_layout(state: ParamState) -> Layout:
    """Every asset's global pose, at half its height; an anchor's is its
    unit's frame row."""
    g = _global_view(state).tolist()
    scene, at = state.index.blocks[None], {}
    for eid, r, frame in zip(scene.ids, scene.rows, scene.frames):
        for aid, m in [(eid, r)] if frame is None else zip(frame.ids, frame.rows):
            at[aid] = r if m is None else m
    poses = {}
    for a in state.spec.assets:
        x, y, theta = g[at[a.id] : at[a.id] + 3]
        poses[a.id] = (x, y, 0.5 * a.size[2], theta)
    return Layout(poses)


def _solved_penalties(state: ParamState, relation: float) -> dict | None:
    """The relation penalties at `state` when it passes the seed sweep's
    test of a solved layout, else None: every penalty is below SATISFIED
    (read first, as it fails more often), then `harness.eval_physical`
    would find 0% collision and 0% out of bounds.  A raw relation total
    `relation` above SATISFIED times the number of terms cannot pass and
    is not tested, so this screen can delay a stop, never make one."""
    if relation > SATISFIED * sum(len(block.terms) for block in state.index.blocks.values()):
        return None
    penalties = relation_penalties(state.index, _derived_view(state))
    if all(v < SATISFIED for v in penalties.values()) and _is_clean(state.spec, _state_layout(state)):
        return penalties
    return None


def _row(trace: Trace, stage: int, total: float, terms: dict, lr: float):
    families = (float(terms[k]) for k in ("collision", "boundary", "relation", "prior"))
    trace.rows.append(TraceRow(len(trace.rows), stage, float(total), *families, lr))


def _finish(state: ParamState, trace: Trace, penalties: dict | None) -> Trace:
    trace.final_shared = state.shared
    trace.final_penalties = relation_penalties(state.index, _derived_view(state)) if penalties is None else penalties
    return trace


def _descend(state: ParamState, config: OptimizerConfig, phases: tuple, stop: bool) -> Trace:
    """Run the momentum `phases` from `state` in place, each with fresh
    momentum, and record the trace.

    With `stop` set, the state after every CHECK_EVERY-th step of a phase,
    but the last step of the last phase, is tested by `_solved_penalties`
    on the relation total `step` returned, at the state one step earlier,
    and the first pass ends the solve.
    """
    trace = Trace()
    penalties = None
    last = len(phases) - 1
    for p, phase in enumerate(phases):
        state.reset_momentum()
        for t in range(1, phase.steps + 1):
            total, terms, factor = step(state, config, phase)
            _row(trace, phase.stage, total, terms, factor)
            if stop and t % CHECK_EVERY == 0 and (p < last or t < phase.steps):
                penalties = _solved_penalties(state, terms["relation"])
                if penalties is not None:
                    trace.solved_at = len(trace.rows)
                    break
        if penalties is not None:
            break
    return _finish(state, trace, penalties)


def _lbfgs(state: ParamState, config: OptimizerConfig) -> Trace:
    """Minimize the stage-2 objective at relation weight POLISH_RELATION
    from `state`, in place, by L-BFGS (Liu & Nocedal, 1989; Nocedal &
    Wright, *Numerical Optimization*, algorithms 7.4 and 7.5), with one
    trace row per accepted iterate, the start first.

    The direction is the two-loop recursion over the last LBFGS_MEMORY
    curvature pairs, a pair kept only when its s.y exceeds CURVATURE_MIN.
    With no pair, or when that direction does not descend, the pairs are
    dropped and the direction is steepest descent, scaled so that its
    largest entry is FIRST_STEP.  The line search halves the step from 1
    until the Armijo condition holds at constant ARMIJO.  Each accepted
    iterate is tested by `_solved_penalties`, and the first pass ends the
    solve.  `evaluate` runs at most `iterations + iterations // 2` times; a
    line search that the cap cuts, or whose step no longer moves `x`, ends
    the solve at the last accepted iterate.
    """
    weights = replace(WEIGHTS, relation=POLISH_RELATION)
    budget = config.iterations + config.iterations // 2
    trace, x = Trace(), state.x
    total, grad, terms = evaluate(state, weights, 2, config)
    if not math.isfinite(total):
        raise DivergenceError("objective is not finite", 0)
    calls, pairs, t = 1, [], 0.0
    while True:
        g = np.array(grad)
        if not np.isfinite(g).all():
            raise DivergenceError("gradient is not finite", len(trace.rows))
        if t > 0.0:  # after a step from x0
            s, y = x - x0, g - g_prev
            sy = s @ y
            if sy > CURVATURE_MIN:
                pairs.append((s, y, 1.0 / sy))
                del pairs[:-LBFGS_MEMORY]
        _row(trace, 2, total, terms, t)
        penalties = _solved_penalties(state, terms["relation"])
        if penalties is not None:
            trace.solved_at = len(trace.rows)
            return _finish(state, trace, penalties)
        d = -g
        if pairs:
            alphas = []
            for s, y, rho in reversed(pairs):
                alphas.append(rho * (s @ d))
                d -= alphas[-1] * y
            s, y, _ = pairs[-1]
            d *= (s @ y) / (y @ y)
            for (s, y, rho), a in zip(pairs, reversed(alphas)):
                d += (a - rho * (y @ d)) * s
        slope = g @ d
        if not (pairs and slope < 0.0):
            pairs.clear()
            largest = np.abs(g).max()
            if largest == 0.0:
                return _finish(state, trace, None)
            d = g * (-FIRST_STEP / largest)
            slope = g @ d
        x0, g_prev, t = x.copy(), g, 1.0
        while True:
            x[:] = x0 + t * d
            if calls == budget or np.array_equal(x, x0):
                x[:] = x0
                return _finish(state, trace, None)
            trial, grad, trial_terms = evaluate(state, weights, 2, config)
            calls += 1
            if trial <= total + ARMIJO * t * slope:
                total, terms = trial, trial_terms
                break
            t *= 0.5


def _run(state: ParamState, config: OptimizerConfig, flat: bool, imagined: bool, stop: bool = True) -> tuple[Layout, Trace]:
    """Descend from `state`, first transported to global member poses when
    `flat` is set: by `_lbfgs` from the imagined start, else by the two
    momentum stages, which with `stop` unset run their full budget whatever
    their state."""
    if config.iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {config.iterations}")
    if flat:
        state.x[:] = _global_view(state)
        state.flat = True
    if imagined:
        trace = _lbfgs(state, config)
    else:
        trace = _descend(state, config, _two_stage(config.iterations), stop)
    return _state_layout(state), trace


def _solve(spec: SceneSpec, config: OptimizerConfig, flat: bool = False) -> tuple[Layout, Trace]:
    """`solve`, or `solve_global_baseline` when `flat` is set, from `_start`,
    stopping when solved."""
    state, imagined = _start(spec, config)
    return _run(state, config, flat, imagined)


def solve(spec: SceneSpec, config: OptimizerConfig = OptimizerConfig()) -> tuple[Layout, Trace]:
    """Optimize a scene from its imagined layout, or from its seeded random
    initialization when the imagined layout is not clean.

    From the imagined layout, seeded noise is added, and L-BFGS minimizes
    the stage-2 objective with the relation weight at POLISH_RELATION, in
    at most `config.iterations + config.iterations // 2` objective calls;
    each accepted iterate is tested.  From the random start, two momentum
    stages of `config.iterations` steps run, and every CHECK_EVERY steps
    the state is tested.  The test is the seed sweep's score of a solved
    layout: every relation penalty below SATISFIED, and 0% collision and 0%
    out of bounds by `harness.eval_physical`.  The first state that passes
    ends the solve, and `trace.solved_at` records after how many rows.

    Returns the final layout and the per-iterate trace.  Raises ValueError
    when `config.iterations` is below 1, InfeasibleRoomError for rooms that
    cannot contain their assets and DivergenceError if the objective or a
    parameter becomes non-finite.
    """
    return _solve(spec, config)


def solve_global_baseline(spec: SceneSpec, config: OptimizerConfig = OptimizerConfig()) -> tuple[Layout, Trace]:
    """Same objective, flat parameterization: every asset pose is global.

    Member locals are derived from the anchor each iteration, so the loss at
    identical geometry matches `solve` exactly (including the initial state,
    which is transported from the same start, descended by the same
    method).  Gradients of unit-internal terms now flow to both the member
    and the anchor.  It stops when solved as `solve` does.
    """
    return _solve(spec, config, flat=True)


# ---------------------------------------------------------------------------
# Convergence comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkResult:
    """One seed's comparison; each curve holds the per-iteration totals of
    its run, and stays empty when that run diverged or was not reached."""

    scene: str
    seed: int
    reparam_iterations: int
    baseline_iterations: int
    speedup: float  # baseline / reparam, in iterations to threshold
    diverged: bool = False
    reparam_curve: tuple = ()
    baseline_curve: tuple = ()


def ema_smooth(values) -> np.ndarray:
    """Exponential moving average with history weight EMA_ALPHA."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    acc = values[0]
    for i, v in enumerate(values):
        acc = EMA_ALPHA * acc + (1.0 - EMA_ALPHA) * v
        out[i] = acc
    return out


def _iterations_to_threshold(curve: tuple, threshold: float) -> int:
    # Normalized against the shared initial loss; cap at the run length when
    # the threshold is never reached.
    start = curve[0]
    if start <= 1e-12:
        return 0
    hits = np.nonzero(np.array(curve) / start <= threshold)[0]
    return int(hits[0]) if hits.size else len(curve)


def convergence_benchmark(
    spec: SceneSpec,
    seeds,
    threshold: float = 0.1,
    config: OptimizerConfig = OptimizerConfig(),
) -> list:
    """Iterations-to-threshold for both parameterizations, per seed.

    Both runs start from `init_state`'s draw for the seed, so they start
    from the same configuration and the same initial loss, and descend the
    two stages of the random start: the comparison measures the
    parameterization, not the start.  The reported speedup is baseline
    iterations over re-parameterized iterations, and 1 when both runs start
    at zero loss and so both read 0 iterations.  The two-level run goes
    first.  Each run takes its full budget of `2 * config.iterations`
    steps: a solved state does not end it.  A diverged run ends its seed: it and the run not
    reached record the full iteration budget and no curve, at speedup 1.
    Any other error propagates.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    results = []
    cap = 2 * config.iterations
    for seed in seeds:
        cfg = replace(config, seed=int(seed))
        curves = []
        try:
            for flat in (False, True):
                state = init_state(spec, cfg.seed)
                _, trace = _run(state, cfg, flat, False, stop=False)
                curves.append(tuple(r.total for r in trace.rows))
        except DivergenceError:
            pass
        iters = [_iterations_to_threshold(c, threshold) for c in curves] + [cap] * (2 - len(curves))
        diverged = len(curves) < 2
        speedup = 1.0 if diverged or iters == [0, 0] else iters[1] / max(iters[0], 1)
        results.append(BenchmarkResult(spec.name, int(seed), *iters, speedup, diverged, *curves))
    return results


def benchmark_curves_csv(results) -> str:
    """Per-iteration loss curves of both parameterizations, EMA smoothed,
    from the runs `convergence_benchmark` recorded.  Seeds with a diverged
    run have no rows."""
    lines = ["seed,iteration,reparam,reparam_ema,baseline,baseline_ema"]
    for r in results:
        if r.diverged:
            continue
        re_c, gl_c = r.reparam_curve, r.baseline_curve
        for i, row in enumerate(zip(re_c, ema_smooth(re_c), gl_c, ema_smooth(gl_c))):
            lines.append(f"{r.seed},{i}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
