"""Momentum descent over one flat parameter vector, from the imagined layout.

Both parameterizations run the same loop and the same `step` over a vector
laid out by `ParamIndex`: one pose row per unit frame, unit member and
independent asset, then the shared constraint parameters.  They differ only
in the map from that vector to the poses the objective reads, and in that
map's chain rule:

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
N(0, JITTER) noise on every pose slot, and refines: one stage-2 phase of
`iterations` steps at REFINE_LR times every slot's rate, then a polish of
`max(1, iterations // 2)` steps with the relation weight at
POLISH_RELATION, the same rate and fresh momentum.  Otherwise it falls back
to `init_state`'s seeded random draw and two stages of `iterations` steps:
stage 1 optimizes poses under relation terms only, with constraint
parameters frozen; stage 2 enables collision and boundary terms, and lets
shared constraint parameters float under a quadratic prior at their
declared values.  Each phase anneals over its own length.

Each iteration is one `evaluate`, one pass over the relation plan into one
gradient list, and one `step`, which updates velocity and vector in place.
Every `CHECK_EVERY` steps of a phase a solve tests its state as the seed
sweep scores a solved layout (`harness._is_clean`, then the relation
penalties), and the first pass ends it: `iterations` is a cap.

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


# Steps between two tests of whether a solve is done, in each phase.
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
# The term weights every descent step evaluates at, but the polish's.
WEIGHTS = Weights()
# The imagined start: the standard deviation of the noise on every pose
# slot, the scale of every slot's learning rate in both phases, and the
# polish's relation weight.
JITTER = 0.05
REFINE_LR = 0.2
POLISH_RELATION = 10.0
# History weight of the exponential moving average of the loss curves.
EMA_ALPHA = 0.85


@dataclass(frozen=True)
class OptimizerConfig:
    """Descent settings; `iterations` caps the steps of each phase (a
    solve ends sooner once it is solved, see `solve`), and a `seed` of None
    starts from the scene's own seed."""

    iterations: int = 600
    prior_weight: float = 1.0
    seed: int | None = None


class Phase(NamedTuple):
    """One run of descent steps: the objective's stage (1: relations only,
    shared parameters frozen; 2: every term), the term weights, the scale of
    every slot's learning rate, and the number of steps, over which the
    rate anneals."""

    stage: int
    weights: Weights
    scale: float
    steps: int


def _two_stage(iterations: int) -> tuple:
    """The schedule from a random start: stage 1, then stage 2."""
    return Phase(1, WEIGHTS, 1.0, iterations), Phase(2, WEIGHTS, 1.0, iterations)


def _refine(iterations: int) -> tuple:
    """The schedule from the imagined start: stage 2 at a fifth of the
    rate, then the polish at a raised relation weight."""
    polish = replace(WEIGHTS, relation=POLISH_RELATION)
    return Phase(2, WEIGHTS, REFINE_LR, iterations), Phase(2, polish, REFINE_LR, max(1, iterations // 2))


def cosine_factor(t: int, total: int) -> float:
    """Annealing multiplier: 1 at t=0 decaying to ~0 at t=total."""
    return 0.5 * (1.0 + math.cos(math.pi * t / total))


@dataclass
class TraceRow:
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
    """Per-iteration record of the objective and its terms.

    A solve from the imagined layout has only stage-2 rows: its first
    `iterations` rows are the refinement and the rows after them the
    polish, whose `total` weighs the relation term by POLISH_RELATION.  A
    solve that fell back to the random start has `iterations` stage-1 rows,
    then the stage-2 rows.  A row's `lr` is the factor its step applied to
    every slot's learning rate, its phase's scale times the cosine factor,
    not a rate itself.  `final_shared` and `final_penalties` snapshot the
    learned shared parameters and the raw per-relation penalties at the
    final state.  `solved_at` is the number of steps after which the solve
    stopped because its state was clean and satisfied, or None when it ran
    until the iteration cap.
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
    """The state a solve starts from and its phases.

    The scene is compiled once and imagined on that plan.  When the
    imagined poses are clean, they are the start, with seeded N(0, JITTER)
    noise on every pose slot (the seed draws only this noise), refined by
    `_refine`; otherwise the start is `init_state`'s draw, descended by
    `_two_stage`.  An asset the room cannot hold raises before any imagining.
    """
    _check_fits(spec)
    seed = spec.seed if config.seed is None else config.seed
    index = param_index(spec)
    x = np.array(_imagine(spec, index))
    x[index.pose_size :] = index.priors
    state = ParamState(spec, index, x)
    if not _is_clean(spec, _state_layout(state)):
        return init_state(spec, seed, index), _two_stage(config.iterations)
    n = index.pose_size
    state.x[:n] += np.random.default_rng(seed).normal(0.0, JITTER, n)
    return state, _refine(config.iterations)


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
    gradient is that list, laid out as `state.x`, as `step` reads it.
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
    """One descent step of `phase` in place, on the objective at the
    phase's weights; returns (loss, terms, lr factor) at the pre-step
    state, the factor being the phase's scale times the cosine factor.
    Stage 1 leaves the shared parameters untouched."""
    total, grad, terms = evaluate(state, phase.weights, phase.stage, config)
    if not math.isfinite(total):
        raise DivergenceError("objective is not finite", state.step_index)
    factor = phase.scale * cosine_factor(state.step_index, phase.steps)

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


def _solved_penalties(state: ParamState) -> dict | None:
    """The relation penalties at `state` when it passes the seed sweep's
    test of a solved layout, else None: `harness.eval_physical` would find
    0% collision and 0% out of bounds, then every penalty is below
    SATISFIED."""
    if not _is_clean(state.spec, _state_layout(state)):
        return None
    penalties = relation_penalties(state.index, _derived_view(state))
    return penalties if all(v < SATISFIED for v in penalties.values()) else None


def _descend(state: ParamState, config: OptimizerConfig, phases: tuple, stop: bool) -> Trace:
    """Run `phases` from `state` in place, each with fresh momentum, and
    record the trace.

    With `stop` set, the state after every CHECK_EVERY-th step of a phase,
    but the last step of the last phase, is tested by `_solved_penalties`,
    and the first pass ends the solve.  The test runs only when the raw
    relation total `step` returned, at the state one step earlier, is at
    most SATISFIED times the number of terms, as it is when every penalty
    is below SATISFIED; so this screen can delay a stop, never make one.
    """
    if config.iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {config.iterations}")
    trace = Trace()
    bound = SATISFIED * sum(len(block.terms) for block in state.index.blocks.values())
    penalties = None
    last = len(phases) - 1
    for p, phase in enumerate(phases):
        state.reset_momentum()
        for t in range(1, phase.steps + 1):
            total, terms, factor = step(state, config, phase)
            trace.rows.append(
                TraceRow(
                    len(trace.rows),
                    phase.stage,
                    float(total),
                    float(terms["collision"]),
                    float(terms["boundary"]),
                    float(terms["relation"]),
                    float(terms["prior"]),
                    factor,
                )
            )
            checkpoint = stop and t % CHECK_EVERY == 0 and (p < last or t < phase.steps)
            if checkpoint and terms["relation"] <= bound:
                penalties = _solved_penalties(state)
                if penalties is not None:
                    trace.solved_at = len(trace.rows)
                    break
        if penalties is not None:
            break
    trace.final_shared = state.shared
    if penalties is None:
        penalties = relation_penalties(state.index, _derived_view(state))
    trace.final_penalties = penalties
    return trace


def _run(state: ParamState, config: OptimizerConfig, phases: tuple, flat: bool, stop: bool) -> tuple[Layout, Trace]:
    """Descend `phases` from `state`, first transported to global member
    poses when `flat` is set; with `stop` unset, the descent runs its full
    budget whatever its state."""
    if flat:
        state.x[:] = _global_view(state)
        state.flat = True
    trace = _descend(state, config, phases, stop)
    return _state_layout(state), trace


def _solve(spec: SceneSpec, config: OptimizerConfig, flat: bool = False) -> tuple[Layout, Trace]:
    """`solve`, or `solve_global_baseline` when `flat` is set, from `_start`,
    stopping when solved."""
    state, phases = _start(spec, config)
    return _run(state, config, phases, flat, True)


def solve(spec: SceneSpec, config: OptimizerConfig = OptimizerConfig()) -> tuple[Layout, Trace]:
    """Optimize a scene from its imagined layout, or from its seeded random
    initialization when the imagined layout is not clean.

    From the imagined layout, seeded noise is added and the solve runs a
    stage-2 phase of `config.iterations` steps at REFINE_LR times every
    rate, then a polish of half as many with the relation weight at
    POLISH_RELATION.  From the random start it runs two stages of
    `config.iterations` steps.  Every CHECK_EVERY steps the state is tested
    as the seed sweep scores a solved layout: 0% collision and 0% out of
    bounds by `harness.eval_physical`, and every relation penalty below
    SATISFIED.  The first state that passes ends the solve, and
    `trace.solved_at` records after how many steps.

    Returns the final layout and the per-iteration trace.  Raises
    ValueError when `config.iterations` is below 1, InfeasibleRoomError for
    rooms that cannot contain their assets and DivergenceError if the
    objective or a parameter becomes non-finite.
    """
    return _solve(spec, config)


def solve_global_baseline(spec: SceneSpec, config: OptimizerConfig = OptimizerConfig()) -> tuple[Layout, Trace]:
    """Same objective, flat parameterization: every asset pose is global.

    Member locals are derived from the anchor each iteration, so the loss at
    identical geometry matches `solve` exactly (including the initial state,
    which is transported from the same start, descended on the same
    schedule).  Gradients of unit-internal terms now flow to both the
    member and the anchor.  It stops when solved as `solve` does.
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
                _, trace = _run(state, cfg, _two_stage(cfg.iterations), flat, stop=False)
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
