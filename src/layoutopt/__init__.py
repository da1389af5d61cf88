"""Constraint-driven planar layout solving.

Declarative scenes (room, assets, units, relations) are compiled into
differentiable penalty terms and minimized with momentum descent under a
global-to-local pose re-parameterization.  Companion tooling checks layouts
for collisions and bounds, analyzes the relation graph, and benchmarks
convergence against a flat global parameterization.
"""

from __future__ import annotations

from .constraints import Weights, aggregate_global, aggregate_local
from .errors import (
    DivergenceError,
    InfeasibleRoomError,
    LayoutError,
    MissingEntityError,
    RevisionError,
    SceneSemanticError,
    SceneSyntaxError,
    UnreachableNodeError,
)
from .fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from .geometry import Pose2D, compose, invert, normalize_angle, relative
from .graph_analysis import (
    ROOT,
    CostReport,
    RelationGraph,
    build_graph,
    decomposition_savings,
    hop_distance,
    hop_histogram,
    path_cost,
)
from .harness import PhysicalReport, eval_physical, render_svg
from .imagination import (
    RevisionReport,
    baseline_reviser,
    build_maps,
    detect_conflicts,
    imagine_and_revise,
    interpret_scene,
)
from .optimizer import (
    BenchmarkResult,
    OptimizerConfig,
    Trace,
    benchmark_curves_csv,
    convergence_benchmark,
    ema_smooth,
    init_state,
    solve,
    solve_global_baseline,
)
from .scene_model import (
    Asset,
    Layout,
    Relation,
    Room,
    SceneSpec,
    Unit,
    parse_layout,
    parse_scene,
    serialize_layout,
    serialize_scene,
)

__version__ = "0.1.0"

__all__ = [
    "Asset",
    "BenchmarkResult",
    "CostReport",
    "DivergenceError",
    "FIXTURE_NAMES",
    "InfeasibleRoomError",
    "Layout",
    "LayoutError",
    "MissingEntityError",
    "OptimizerConfig",
    "PhysicalReport",
    "Pose2D",
    "ROOT",
    "Relation",
    "RelationGraph",
    "RevisionError",
    "RevisionReport",
    "Room",
    "SceneSemanticError",
    "SceneSpec",
    "SceneSyntaxError",
    "Trace",
    "Unit",
    "UnreachableNodeError",
    "Weights",
    "aggregate_global",
    "aggregate_local",
    "baseline_reviser",
    "benchmark_curves_csv",
    "build_graph",
    "build_maps",
    "compose",
    "convergence_benchmark",
    "decomposition_savings",
    "detect_conflicts",
    "ema_smooth",
    "eval_physical",
    "fixture_text",
    "hop_distance",
    "hop_histogram",
    "imagine_and_revise",
    "init_state",
    "interpret_scene",
    "invert",
    "load_fixture",
    "normalize_angle",
    "parse_layout",
    "parse_scene",
    "path_cost",
    "relative",
    "render_svg",
    "serialize_layout",
    "serialize_scene",
    "solve",
    "solve_global_baseline",
]
