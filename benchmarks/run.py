"""Benchmark of the layoutopt solver and checker.

    python3 benchmarks/run.py --workload fixtures|rooms|check --seed N \
        --seconds S --trace 0|1

One process, one caller, closed loop: each op starts when the previous one
has finished, and numpy's thread pools are pinned to one thread.  A run
repeats whole cycles of the workload's ops until `--seconds` have passed,
checks every output, and prints the end-to-end metrics (`--trace 0`) or the
per-layer metrics of a traced run (`--trace 1`).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The full
result, with provenance, goes to benchmarks/out/.

Reported times are wall seconds scaled to the machine's nominal speed by a
reference kernel timed at every op boundary (see speed.py); the raw wall
times and the scale factor are printed and kept in the result next to them.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import numpy as np  # noqa: E402  (after the thread limits above)

import scenegen  # noqa: E402
import speed  # noqa: E402
from spans import SpanLog  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
P90_MIN_SAMPLES = 100
PROBE_SIZES = (10, 20, 40, 80, 160)
PROBE_REPEATS = 5
# Whole cycles run under tracing, a fixed amount of work per workload so
# that counts per op repeat exactly.
TRACED_CYCLES = {"fixtures": 1, "rooms": 1, "check": 3}

TERMS = (
    "collision_loss",
    "boundary_loss",
    "gap_loss",
    "distance_loss",
    "directional_loss",
    "facing_loss",
    "around_loss",
    "against_wall_loss",
    "corner_loss",
    "placement_loss",
    "angle_offset_loss",
)


def _collision_hit(lv) -> int:
    return int(lv.value != 0.0)


def _area_hit(area) -> int:
    return int(area > 0.0)


def _rounds(result) -> int:
    return result[1].iterations


# (defining module, function, span name, tally of the result)
LAYERS = (
    ("layoutopt.optimizer", "solve", "optimizer.solve", None),
    ("layoutopt.optimizer", "init_state", "optimizer.init_state", None),
    ("layoutopt.optimizer", "step", "optimizer.step", None),
    ("layoutopt.optimizer", "evaluate", "optimizer.evaluate", None),
    ("layoutopt.constraints", "aggregate_global", "constraints.aggregate_global", None),
    ("layoutopt.constraints", "aggregate_local", "constraints.aggregate_local", None),
    ("layoutopt.constraints", "relation_penalties", "constraints.relation_penalties", None),
    *(
        ("layoutopt.constraints", t, f"constraints.{t}", _collision_hit if t == "collision_loss" else None)
        for t in TERMS
    ),
    ("layoutopt.imagination", "imagine_and_revise", "imagination.imagine_and_revise", _rounds),
    ("layoutopt.imagination", "interpret_scene", "imagination.interpret_scene", None),
    ("layoutopt.imagination", "build_maps", "imagination.build_maps", None),
    ("layoutopt.imagination", "detect_conflicts", "imagination.detect_conflicts", None),
    ("layoutopt.harness", "eval_physical", "harness.eval_physical", None),
    ("layoutopt.harness", "render_svg", "harness.render_svg", None),
    ("layoutopt.geometry", "polygon_intersection_area", "geometry.polygon_intersection_area", _area_hit),
    ("layoutopt.scene_model", "parse_scene", "scene_model.parse_scene", None),
    ("layoutopt.scene_model", "serialize_scene", "scene_model.serialize_scene", None),
    ("layoutopt.scene_model", "parse_layout", "scene_model.parse_layout", None),
    ("layoutopt.scene_model", "serialize_layout", "scene_model.serialize_layout", None),
    ("layoutopt.graph_analysis", "build_graph", "graph_analysis.build_graph", None),
    ("layoutopt.graph_analysis", "decomposition_savings", "graph_analysis.decomposition_savings", None),
)
CALL_COUNTED = (
    "optimizer.evaluate",
    *(f"constraints.{t}" for t in TERMS),
    "geometry.polygon_intersection_area",
)

UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "error_rate": "ratio",
    "clean_rate": "ratio",
    "satisfied_rate": "ratio",
    "collision_pct": "%",
    "oob_pct": "%",
    "revised_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "raw_ops_per_s": "1/s",
    "raw_op_s_p50": "s",
    "raw_setup_s": "s",
    "speed_factor": "ratio",
}
# The end-to-end metrics of the result line (BENCHMARK.json "end_to_end").
# The rest are printed above it: rates over a few dozen ops spread more
# from seed to seed than any bound, several are 0 by design, and raw times
# move with the host's load.
GATED = ("ops_per_s", "op_s_p50", "peak_rss_mb", "setup_s")


def import_program():
    """Import the layoutopt package afresh from the checkout's src/.

    Modules of an earlier import are dropped first, so every call pays the
    package's own import cost (numpy stays loaded).  Returns (package, s).
    """
    if not os.path.isdir(os.path.join(SRC, "layoutopt")):
        raise SystemExit(f"benchmark: no program to measure, {SRC}/layoutopt is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "layoutopt" or m.startswith("layoutopt.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    package = importlib.import_module("layoutopt")
    return package, time.perf_counter() - t0


def measure(plan, seconds=None, cycles=None) -> dict:
    """Run whole cycles until `seconds` have passed or `cycles` are done.

    The speed kernel runs between ops; each record carries the mean of the
    kernel times just before and just after its op.
    """
    records = []
    seen: dict = {}
    started = time.perf_counter()
    before = speed.kernel_s()
    c = 0
    while True:
        for op in plan.cycle(c):
            failure = None
            t0 = time.perf_counter()
            try:
                outputs = op.run()
            except Exception as exc:  # the op boundary: count the failure, keep running
                failure = {"error": type(exc).__name__, "traceback": traceback.format_exc(limit=4)}
            op_s = time.perf_counter() - t0
            after = speed.kernel_s()
            record = {"key": op.key, "op_s": op_s, "kernel_s": 0.5 * (before + after), "cycle": c}
            before = after
            if failure is None:
                score = op.score(outputs)
                if seen.setdefault(op.key, score.digest) != score.digest:
                    score.problems.append("output differs from an earlier run of the same op")
                record.update(asdict(score))
            else:
                record.update(failure)
            records.append(record)
        c += 1
        if cycles is not None and c >= cycles:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
    return {"records": records, "cycles": c}


def _rate(records, field) -> float | None:
    """Share of attempted ops with a true `field`; None where it does not apply."""
    done = [r for r in records if "error" not in r]
    if done and all(r[field] is None for r in done):
        return None
    return sum(1 for r in done if r[field]) / len(records)


def _mean(records, field) -> float | None:
    values = [r[field] for r in records if "error" not in r]
    return statistics.fmean(values) if values else None


def summarize(measured: dict) -> dict:
    records = measured["records"]
    raw = [r["op_s"] for r in records]
    times = [speed.scaled(r["op_s"], r["kernel_s"]) for r in records]
    failed = [r for r in records if "error" in r]
    errors: dict = {}
    for r in failed:
        errors[r["error"]] = errors.get(r["error"], 0) + 1
    p90 = statistics.quantiles(times, n=10)[8] if len(times) >= P90_MIN_SAMPLES else None
    first_cycle = [(r["key"], r.get("digest")) for r in records if r.get("cycle") == 0]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "errors_by_type": errors,
        "problems": sorted({p for r in records for p in r.get("problems", [])}),
        "cycles": measured["cycles"],
        "op_samples": len(times),
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_p90": p90,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_s_p50": statistics.median(raw),
        "speed_factor": speed.factor(statistics.median(r["kernel_s"] for r in records)),
        "error_rate": len(failed) / len(records),
        "clean_rate": _rate(records, "clean"),
        "satisfied_rate": _rate(records, "satisfied"),
        "collision_pct": _mean(records, "collision_pct"),
        "oob_pct": _mean(records, "oob_pct"),
        "revised_rate": _rate(records, "revised"),
        "outputs_digest": _sha_json(first_cycle),
        "ops": [
            {
                k: r[k]
                for k in ("key", "op_s", "kernel_s", "error", "clean", "satisfied", "revised", "digest")
                if k in r
            }
            for r in records
        ],
        "tracebacks": [r["traceback"] for r in failed[:3]],
    }


def _sha_json(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "clock": "time.perf_counter",
    }


def timed_setup(setup, seed: int):
    """Import the program and build the workload's inputs, SETUP_REPEATS
    times each.  Returns (package, plan, timings): per repeat, the import and
    build seconds and the mean kernel time around them."""
    timings = []
    before = speed.kernel_s()
    for _ in range(SETUP_REPEATS):
        lo, import_s = import_program()
        t0 = time.perf_counter()
        plan = setup(lo, seed)
        build_s = time.perf_counter() - t0
        after = speed.kernel_s()
        timings.append({"import_s": import_s, "build_s": build_s, "kernel_s": 0.5 * (before + after)})
        before = after
    return lo, plan, timings


def evaluate_probe(lo, seed: int) -> dict:
    """Median ms of one stage-2 `evaluate` on fixed generated states."""
    out = {}
    for n in PROBE_SIZES:
        spec = lo.scene_model.parse_scene(scenegen.to_text(scenegen.scene_dict(f"probe:{seed}:{n}", n)))
        state = lo.optimizer.init_state(spec, seed)
        weights, config = lo.constraints.Weights(), lo.optimizer.OptimizerConfig()
        before = speed.kernel_s()
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            lo.optimizer.evaluate(state, weights, 2, config)
            times.append(time.perf_counter() - t0)
        kernel_s = 0.5 * (before + speed.kernel_s())
        out[f"optimizer.evaluate.ms_n{n}"] = 1000.0 * speed.scaled(statistics.median(times), kernel_s)
    return out


def layer_metrics(summary: dict, ops: int, kernel_s: float) -> dict:
    """Per-layer metrics from a span summary, per op of the traced window;
    self times are scaled by the window's median kernel time."""
    out = {}
    for _, _, name, _ in LAYERS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0, "tally": 0})
        out[f"{name}.self_s"] = speed.scaled(row["self_s"], kernel_s) / ops
        if name in CALL_COUNTED:
            out[f"{name}.calls"] = row["calls"] / ops
    for name, metric in (
        ("constraints.collision_loss", "constraints.collision_loss.hit_ratio"),
        ("geometry.polygon_intersection_area", "geometry.polygon_intersection_area.hit_ratio"),
        ("imagination.imagine_and_revise", "imagination.rounds"),
    ):
        row = summary.get(name, {"calls": 0, "tally": 0})
        out[metric] = row["tally"] / row["calls"] if row["calls"] else 0.0
    return out


LAYER_UNITS = (
    (".self_s", "s/op"),
    (".calls", "calls/op"),
    (".hit_ratio", "ratio"),
    ("imagination.rounds", "rounds/call"),
    ("trace.overhead", "1/s"),
)


def layer_unit(name: str) -> str:
    if name.startswith("optimizer.evaluate.ms_n"):
        return "ms"
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = WORKLOADS[workload]
    lo, plan, setup_timings = timed_setup(setup, seed)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "inputs": plan.inputs,
        "setup_repeats": setup_timings,
    }
    if not trace:
        summary = summarize(measure(plan, seconds=seconds))
        metrics = {k: summary[k] for k in UNITS if k in summary}
        metrics["raw_setup_s"] = sum(
            statistics.median(t[part] for t in setup_timings) for part in ("import_s", "build_s")
        )
        metrics["setup_s"] = sum(
            statistics.median(speed.scaled(t[part], t["kernel_s"]) for t in setup_timings)
            for part in ("import_s", "build_s")
        )
        metrics["peak_rss_mb"] = peak_rss_mb()
        result.update(summary=summary, metrics=metrics)
        return result

    probe = evaluate_probe(lo, seed)
    untraced = summarize(measure(plan, seconds=seconds / 2))
    log = SpanLog()
    log.install(LAYERS)
    try:
        traced_plan = setup(lo, seed)
        traced = summarize(measure(traced_plan, cycles=TRACED_CYCLES[workload]))
    finally:
        log.restore()
    window_kernel_s = statistics.median(op["kernel_s"] for op in traced["ops"])
    metrics = layer_metrics(log.summary(), traced["attempted"], window_kernel_s)
    metrics.update(probe)
    metrics["trace.overhead"] = traced["ops_per_s"] - untraced["ops_per_s"]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.npz")
    log.save(spans_path)
    result.update(
        untraced=untraced,
        summary=traced,
        spans_file=os.path.relpath(spans_path, ROOT),
        span_count=len(log.start),
        metrics=metrics,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fixtures", "rooms", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    summaries = [result["summary"]] + ([result["untraced"]] if args.trace else [])
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    problems = sorted({p for s in summaries for p in s["problems"]})
    errors = dict(sum((Counter(s["errors_by_type"]) for s in summaries), Counter()))
    correct = not problems and failed == 0
    if args.trace:
        units = {k: layer_unit(k) for k in result["metrics"]}
    else:
        units = UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    result.update(correct=correct, metrics=metrics)

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    summary = result["summary"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"{summary['op_samples']} op samples in {summary['cycles']} cycle(s)  "
        f"(op_s_p90 needs {P90_MIN_SAMPLES})"
    )
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<48} {value:>14} {m['unit']}")
    print(f"  errors by type: {errors}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  full result: {os.path.relpath(out_path, ROOT)}")

    gated = metrics if args.trace else {k: metrics[k] for k in GATED}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": gated,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
