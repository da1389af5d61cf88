"""The benchmark workloads: inputs built from the seed, the op, its checks.

Each workload's `setup(lo, seed)` returns a `Plan`, whose `cycle(c)` lists
the ops of cycle `c`.  A run repeats whole cycles, so every run holds each
scene of the workload equally often.  `lo` is the imported `layoutopt`
package; every call goes through a module attribute, so the tracing
wrappers in `spans` see it.

- fixtures: the five bundled scenes (conflict_pair revised first), each
  solved with the default OptimizerConfig; cycle c uses solver seed
  `seeds[c]` for every scene.  Small n, so per-iteration Python overhead
  dominates.
- rooms: generated scenes of n = 40 and 80 assets at constant density,
  solved for ROOMS_ITERATIONS steps per stage.  Stage 2's pairwise collision
  loop dominates.
- check: the non-solve path on generated scenes of n = 80 to 160, some of
  them carrying conflict_pair-style conflicts: parse, imagine and revise,
  graph savings, exact physical check and SVG of a random layout, layout
  round trip.  Calls no optimizer code.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, replace
from functools import partial

import scenegen

FIXTURE_ORDER = ("dining_set", "bookstore_rows", "star_unit", "conflict_pair", "mixed_ten")
# Solver seeds per run: seed * SEED_LIST_LENGTH + 0 .. SEED_LIST_LENGTH - 1,
# so different run seeds never share a solver seed.
SEED_LIST_LENGTH = 16
# With more n = 40 than n = 80 solves, the median op is a real n = 40 solve
# rather than the midpoint between the two sizes.
ROOMS_SIZES = (40, 80, 40)
# Stage length for rooms.  The default 600 would make one n = 80 solve take
# about 20 s; short ops put the speed kernel (see speed.py) close to the work
# it scales, and give a run more of them.
ROOMS_ITERATIONS = 40
# Three distinct n = 120 scenes make the median op the middle one of them,
# not whichever single scene happens to sit in the middle.
CHECK_SIZES = (80, 120, 160, 120, 120)
CHECK_CONFLICTS = (2, 0, 1, 1, 0)
# A relation counts as satisfied below this final penalty.
SATISFIED_PENALTY = 1e-3


@dataclass(frozen=True)
class Op:
    key: str
    run: object  # () -> outputs
    score: object  # outputs -> Score


@dataclass
class Plan:
    cycle: object  # cycle index -> list of Op
    inputs: dict  # provenance of the generated inputs


@dataclass
class Score:
    digest: str
    problems: list
    clean: bool
    collision_pct: float
    oob_pct: float
    satisfied: bool | None = None
    revised: bool | None = None


def solver_seeds(seed: int) -> list:
    return [seed * SEED_LIST_LENGTH + j for j in range(SEED_LIST_LENGTH)]


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _layout_problems(spec, layout, back) -> list:
    problems = []
    ids = {a.id for a in spec.assets}
    if set(layout.poses) != ids:
        problems.append("layout does not cover exactly the scene's assets")
    if not all(math.isfinite(v) for pose in layout.poses.values() for v in pose):
        problems.append("layout has a non-finite pose")
    if back.poses != layout.poses:
        problems.append("layout changed in the serialize_layout/parse_layout round trip")
    return problems


# ---------------------------------------------------------------------------
# Solve workloads
# ---------------------------------------------------------------------------


def solve_op(lo, spec, config):
    layout, trace = lo.optimizer.solve(spec, config)
    physical = lo.harness.eval_physical(spec, layout)
    text = lo.scene_model.serialize_layout(layout)
    back = lo.scene_model.parse_layout(text)
    return layout, trace.final_penalties, physical, text, back


def score_solve(spec, outputs) -> Score:
    layout, penalties, physical, text, back = outputs
    problems = _layout_problems(spec, layout, back)
    if not all(math.isfinite(v) for v in penalties.values()):
        problems.append("final relation penalty is not finite")
    clean = physical.cr_percent == 0.0 and physical.or_percent == 0.0
    satisfied = clean and all(v < SATISFIED_PENALTY for v in penalties.values())
    digest = _sha(text, sorted(penalties.items()))
    return Score(digest, problems, clean, physical.cr_percent, physical.or_percent, satisfied)


def _solve_plan(lo, specs: dict, config, inputs: dict, seed: int) -> Plan:
    seeds = solver_seeds(seed)

    def cycle(c: int) -> list:
        cfg = replace(config, seed=seeds[c % len(seeds)])
        return [
            Op(f"{name}/seed={cfg.seed}", partial(solve_op, lo, spec, cfg), partial(score_solve, spec))
            for name, spec in specs.items()
        ]

    inputs = dict(inputs, solver_seeds=seeds, config=asdict(config))
    return Plan(cycle, inputs)


def fixture_specs(lo) -> dict:
    """The bundled scenes by name, conflict_pair revised as the ROADMAP does."""
    specs = {name: lo.fixtures.load_fixture(name) for name in FIXTURE_ORDER}
    revised, report = lo.imagination.imagine_and_revise(specs["conflict_pair"])
    if not report.converged:
        raise RuntimeError("conflict_pair did not revise to a conflict-free scene")
    specs["conflict_pair"] = revised
    return specs


def setup_fixtures(lo, seed: int) -> Plan:
    specs = fixture_specs(lo)
    return _solve_plan(lo, specs, lo.optimizer.OptimizerConfig(), {"fixtures": list(specs)}, seed)


def setup_rooms(lo, seed: int) -> Plan:
    specs = {}
    for i, n in enumerate(ROOMS_SIZES):
        key = f"rooms:{seed}:{i}"
        specs[f"{key}/n={n}"] = lo.scene_model.parse_scene(scenegen.to_text(scenegen.scene_dict(key, n)))
    config = lo.optimizer.OptimizerConfig(iterations=ROOMS_ITERATIONS)
    return _solve_plan(lo, specs, config, {"scenes": list(specs)}, seed)


# ---------------------------------------------------------------------------
# Check workload
# ---------------------------------------------------------------------------


def check_op(lo, text, layout):
    spec = lo.scene_model.parse_scene(text)
    revised, report = lo.imagination.imagine_and_revise(spec)
    graph = lo.graph_analysis.build_graph(revised)
    savings = lo.graph_analysis.decomposition_savings(graph, revised.units)
    physical = lo.harness.eval_physical(revised, layout)
    svg = lo.harness.render_svg(revised, layout)
    layout_out = lo.scene_model.serialize_layout(layout)
    back = lo.scene_model.parse_layout(layout_out)
    return spec, revised, report, savings, physical, svg, layout, layout_out, back


def score_check(conflicts: int, outputs) -> Score:
    spec, revised, report, savings, physical, svg, layout, layout_out, back = outputs
    problems = _layout_problems(revised, layout, back)
    if revised.assets != spec.assets or revised.units != spec.units:
        problems.append("revision changed the scene's assets or units")
    if len(report.rounds[0].conflicts) < conflicts:
        problems.append(f"first round found fewer than the {conflicts} planted conflicts")
    if savings.cost - savings.cost_prime != savings.delta:
        problems.append("decomposition savings do not add up")
    if svg.count(b"<polygon") != len(spec.assets) or not svg.endswith(b"</svg>\n"):
        problems.append("svg does not draw every asset once")
    ids = {a.id for a in spec.assets}
    if not set(physical.colliding_ids) <= ids or not set(physical.oob_ids) <= ids:
        problems.append("physical report names unknown assets")
    clean = physical.cr_percent == 0.0 and physical.or_percent == 0.0
    digest = _sha(
        repr(revised.relations),
        report.to_text(),
        savings.to_csv(),
        physical.to_text(),
        svg,
        layout_out,
    )
    return Score(
        digest, problems, clean, physical.cr_percent, physical.or_percent, revised=report.converged
    )


def setup_check(lo, seed: int) -> Plan:
    ops = []
    for i, (n, conflicts) in enumerate(zip(CHECK_SIZES, CHECK_CONFLICTS)):
        key = f"check:{seed}:{i}"
        scene = scenegen.scene_dict(key, n, conflicts)
        layout = lo.scene_model.parse_layout(scenegen.layout_text(f"{key}:layout", scene))
        ops.append(
            Op(
                f"{key}/n={n}",
                partial(check_op, lo, scenegen.to_text(scene), layout),
                partial(score_check, conflicts),
            )
        )
    inputs = {"scenes": [op.key for op in ops], "conflicts": list(CHECK_CONFLICTS)}
    return Plan(lambda c: ops, inputs)


WORKLOADS = {"fixtures": setup_fixtures, "rooms": setup_rooms, "check": setup_check}
