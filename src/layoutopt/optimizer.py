"""Two-stage momentum descent over one flat parameter vector.

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

Stage 1 optimizes poses under relation terms only, with constraint parameters
frozen.  Stage 2 enables collision and boundary terms, and lets shared
constraint parameters float under a quadratic prior at their declared values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    ParamIndex,
    Weights,
    aggregate_global,
    aggregate_local,
    param_index,
    relation_penalties,
)
from .errors import DivergenceError, InfeasibleRoomError
from .geometry import Pose2D, compose, relative
from .scene_model import Layout, SceneSpec


@dataclass(frozen=True)
class OptimizerConfig:
    """Descent hyperparameters; `iterations` counts steps per stage."""

    iterations: int = 600
    lr_position: float = 0.5
    lr_rotation: float = 0.3
    lr_shared: float = 0.1
    momentum: float = 0.9
    clip_position: float = 1.0
    clip_rotation: float = 0.3
    prior_weight: float = 1.0
    seed: int = 0


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

    `final_shared` and `final_penalties` snapshot the learned shared
    parameters and the raw per-relation penalties at the final state.
    """

    rows: list = field(default_factory=list)
    final_shared: dict = field(default_factory=dict)
    final_penalties: dict = field(default_factory=dict)

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
    parameters' priors are `index.priors`.
    """

    spec: SceneSpec
    index: ParamIndex
    x: np.ndarray
    flat: bool = False
    vel: np.ndarray = field(init=False)
    step_index: int = field(default=0, init=False)
    _slots: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vel = np.zeros_like(self.x)

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

    def slot_constants(self, config) -> tuple:
        """`_slot_constants(config, self.index)`, kept for the last config."""
        if self._slots[0] is not config:
            self._slots = (config, _slot_constants(config, self.index))
        return self._slots[1]

    def global_pose(self, asset_id: str) -> Pose2D:
        uid = self.spec.unit_of(asset_id)
        if uid is None:
            return Pose2D.from_array(self.pose(asset_id))
        frame = Pose2D.from_array(self.pose(uid))
        if asset_id == self.spec.unit(uid).anchor:
            return frame
        own = Pose2D.from_array(self.pose(asset_id))
        return own if self.flat else compose(frame, own)


def init_state(spec: SceneSpec, seed: int) -> ParamState:
    """Deterministic random initialization.

    Positions are uniform inside the room inset by each entity's larger half
    size; member locals are uniform in [-1, 1]^2.  Draw order: per unit the
    frame pose then member locals, then independent assets, all in spec
    order.
    """
    room = spec.room
    for a in spec.assets:
        if 2.0 * max(a.half_l, a.half_w) > min(room.length, room.width):
            raise InfeasibleRoomError(
                f"asset {a.id!r} cannot fit: footprint {a.size[0]}x{a.size[1]} "
                f"in a {room.length}x{room.width} room"
            )
    rng = np.random.default_rng(seed)

    def draw_position(margin: float) -> tuple[float, float]:
        x = rng.uniform(margin, room.length - margin)
        y = rng.uniform(margin, room.width - margin)
        return x, y

    poses: dict = {}
    for u in spec.units:
        anchor = spec.asset(u.anchor)
        margin = max(anchor.half_l, anchor.half_w)
        x, y = draw_position(margin)
        poses[u.id] = (x, y, rng.uniform(-math.pi, math.pi))
        for mid in u.members:
            poses[mid] = (
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-math.pi, math.pi),
            )
    for a in spec.independent_assets():
        margin = max(a.half_l, a.half_w)
        x, y = draw_position(margin)
        poses[a.id] = (x, y, rng.uniform(-math.pi, math.pi))

    index = param_index(spec)
    return ParamState(spec, index, index.pack(poses))


def _stage_weights(weights: Weights, stage: int) -> Weights:
    if stage == 1:
        return Weights(collision=0.0, relation=weights.relation, boundary=0.0)
    return weights


def _derived_view(state: ParamState) -> np.ndarray:
    """The two-level vector the objective reads: `x` itself, or for a flat
    state a copy with each member row re-expressed in its anchor's frame."""
    if not state.flat:
        return state.x
    view = state.x.copy()
    for u in state.spec.units:
        frame = Pose2D.from_array(state.pose(u.id))
        for mid in u.members:
            local = relative(frame, Pose2D.from_array(state.pose(mid)))
            view[state.index.pose[mid]] = (local.x, local.y, local.theta)
    return view


def _pull_back(state: ParamState, view: np.ndarray, grad: np.ndarray):
    """Chain rule of `_derived_view`, in place: each member-local gradient
    becomes a gradient on the global member pose and on its anchor's."""
    index = state.index
    for u in state.spec.units:
        theta = state.pose(u.id)[2]
        ca, sa = math.cos(theta), math.sin(theta)
        frame = index.pose[u.id]
        for mid in u.members:
            rows = index.pose[mid]
            g0, g1, g2 = grad[rows].tolist()
            lx, ly, _ = view[rows].tolist()
            gm0, gm1 = ca * g0 - sa * g1, sa * g0 + ca * g1
            grad[rows] = (gm0, gm1, g2)
            grad[frame] += np.array([-gm0, -gm1, g0 * ly - g1 * lx - g2])


def evaluate(state: ParamState, weights: Weights, stage: int, config: OptimizerConfig):
    """Objective value, its gradient over `state.x`, and per-term breakdown."""
    spec, index = state.spec, state.index
    eff = _stage_weights(weights, stage)
    x = _derived_view(state)
    terms = {"collision": 0.0, "boundary": 0.0, "relation": 0.0, "prior": 0.0}

    glob = aggregate_global(spec, index, x, eff)
    total, grad = glob.value, glob.grads
    for k, v in glob.terms.items():
        terms[k] += v

    for u in spec.units:
        loc = aggregate_local(spec, u.id, index, x, eff)
        total += loc.value
        grad += loc.grads
        for k, v in loc.terms.items():
            terms[k] += v

    if stage == 2 and config.prior_weight != 0.0:
        prior = 0.0
        for k, declared in enumerate(index.priors, index.pose_size):
            r = float(x[k]) - declared
            prior += r * r
            grad[k] += 2.0 * config.prior_weight * r
        terms["prior"] = prior
        total += config.prior_weight * prior

    if state.flat:
        _pull_back(state, x, grad)
    return total, grad, terms


def _slot_constants(config: OptimizerConfig, index: ParamIndex):
    """Clip limit and learning rate of every slot.  The (x, y) slots have no
    limit of their own: they are clipped by their row's norm."""
    n_pose = index.pose_size
    limit = np.full(index.size, config.clip_position)
    limit[:n_pose] = math.inf
    limit[2:n_pose:3] = config.clip_rotation
    lr = np.full(index.size, config.lr_shared)
    lr[:n_pose] = config.lr_position
    lr[2:n_pose:3] = config.lr_rotation
    return limit, lr


def step(
    state: ParamState,
    config: OptimizerConfig,
    weights: Weights,
    stage: int,
):
    """One descent step in place; returns (loss, terms, lr factor) at the
    pre-step state.  Stage 1 leaves the shared parameters untouched."""
    total, grad, terms = evaluate(state, weights, stage, config)
    if not math.isfinite(total):
        raise DivergenceError("objective is not finite", state.step_index)
    factor = cosine_factor(state.step_index, config.iterations)

    # Each row's (x, y) gradient is scaled down to norm clip_position.  The
    # norm uses math.hypot: np.hypot can differ in the last bit, and the
    # difference grows over a run.
    rows = grad[: state.index.pose_size].reshape(-1, 3)
    norms = np.array([math.hypot(gx, gy) for gx, gy, _ in rows.tolist()])
    over = norms > config.clip_position
    rows[over, :2] *= (config.clip_position / norms[over])[:, None]
    limit, lr = state.slot_constants(config)
    n = state.index.pose_size if stage == 1 else state.index.size
    g = np.clip(grad[:n], -limit[:n], limit[:n])
    state.vel[:n] = config.momentum * state.vel[:n] + g
    state.x[:n] -= lr[:n] * factor * state.vel[:n]

    state.step_index += 1
    if not np.all(np.isfinite(state.x)):
        raise DivergenceError("parameter is not finite", state.step_index)
    return total, terms, factor


def _state_layout(state: ParamState) -> Layout:
    poses = {}
    for a in state.spec.assets:
        p = state.global_pose(a.id)
        poses[a.id] = (p.x, p.y, 0.5 * a.size[2], p.theta)
    return Layout(poses)


def _descend(state: ParamState, config: OptimizerConfig, weights: Weights) -> Trace:
    """Run both stages from `state` in place and record the trace."""
    if config.iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {config.iterations}")
    trace = Trace()
    for stage in (1, 2):
        state.reset_momentum()
        for _ in range(config.iterations):
            total, terms, factor = step(state, config, weights, stage)
            trace.rows.append(
                TraceRow(
                    len(trace.rows),
                    stage,
                    float(total),
                    float(terms["collision"]),
                    float(terms["boundary"]),
                    float(terms["relation"]),
                    float(terms["prior"]),
                    factor,
                )
            )
    trace.final_shared = state.shared
    trace.final_penalties = relation_penalties(state.spec, state.index, _derived_view(state))
    return trace


def solve(
    spec: SceneSpec,
    config: OptimizerConfig = OptimizerConfig(),
    weights: Weights = Weights(),
) -> tuple[Layout, Trace]:
    """Optimize a scene from its seeded random initialization.

    Returns the final layout and the per-iteration trace.  Raises
    ValueError when `config.iterations` is below 1, InfeasibleRoomError for
    rooms that cannot contain their assets and DivergenceError if the
    objective or a parameter becomes non-finite.
    """
    state = init_state(spec, config.seed)
    trace = _descend(state, config, weights)
    return _state_layout(state), trace


def solve_global_baseline(
    spec: SceneSpec,
    config: OptimizerConfig = OptimizerConfig(),
    weights: Weights = Weights(),
) -> tuple[Layout, Trace]:
    """Same objective, flat parameterization: every asset pose is global.

    Member locals are derived from the anchor each iteration, so the loss at
    identical geometry matches `solve` exactly (including the initial state,
    which is transported from the same seeded draw).  Gradients of
    unit-internal terms now flow to both the member and the anchor.
    """
    state = init_state(spec, config.seed)
    for u in spec.units:
        for mid in u.members:
            p = state.global_pose(mid)
            state.pose(mid)[:] = (p.x, p.y, p.theta)
    state.flat = True
    trace = _descend(state, config, weights)
    return _state_layout(state), trace
