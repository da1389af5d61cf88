"""One-off reproduction of the ROADMAP baseline with the default config.

    python3 benchmarks/baseline.py [--out benchmarks/results/roadmap_baseline.json]

Records, next to the ROADMAP's figures:
- the wall time of a default seed-0 solve of each bundled fixture, for the
  unit re-parameterized solver and the flat baseline (median of 3);
- the time of one stage-2 `evaluate` at n = 10 ... 160, on a chain of
  independent assets (every asset a scene-level entity, the worst case for
  the pairwise collision loop) and on the benchmark's generated rooms scene;
- clean and clean + satisfied counts over solver seeds 0-19 per fixture,
  conflict_pair revised first;
- the traced share of a mixed_ten solve spent in `gap_loss` and
  `collision_loss`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, replace

import run  # pins the thread pools before numpy is imported

import scenegen
import speed
import workloads
from spans import SpanLog

ROADMAP = {
    "solve_s_seed0": {
        "dining_set": 0.52,
        "bookstore_rows": 1.07,
        "star_unit": 0.63,
        "conflict_pair": 0.38,
        "mixed_ten": 1.35,
    },
    "evaluate_ms": {"10": 1.4, "20": 4.9, "40": 15, "80": 58, "160": 197},
    "success_seeds_0_19": {
        "star_unit": {"clean": 20, "clean_satisfied": 20},
        "dining_set": {"clean": 20, "clean_satisfied": 16},
        "conflict_pair": {"clean": None, "clean_satisfied": 1},
        "bookstore_rows": {"clean": 1, "clean_satisfied": 0},
        "mixed_ten": {"clean": 4, "clean_satisfied": 0},
    },
    "mixed_ten_profile_share": {"gap_loss": 0.27, "collision_loss": 0.22},
}
SUCCESS_SEEDS = range(20)
REPEATS = 3


def chain_scene(n: int) -> str:
    """n independent 0.6 x 0.6 assets, each at distance 1.0 from the previous."""
    area = scenegen.AREA_PER_ASSET * n
    width = round((area / scenegen.ASPECT) ** 0.5, 2)
    scene = {
        "name": f"chain_n{n}",
        "room": {"length": round(area / width, 2), "width": width, "height": 3.0},
        "assets": [{"id": f"a{i}", "size": [0.6, 0.6, 0.5]} for i in range(n)],
        "relations": [
            {"kind": "distance", "source": f"a{i}", "target": f"a{i - 1}", "params": {"d": 1.0}}
            for i in range(1, n)
        ],
    }
    return json.dumps(scene)


def evaluate_ms(lo, text: str) -> float:
    spec = lo.scene_model.parse_scene(text)
    state = lo.optimizer.init_state(spec, 0)
    weights, config = lo.constraints.Weights(), lo.optimizer.OptimizerConfig()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        lo.optimizer.evaluate(state, weights, 2, config)
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(run.HERE, "results", "roadmap_baseline.json"))
    args = parser.parse_args(argv)

    lo, _ = run.import_program()

    specs = workloads.fixture_specs(lo)
    default = lo.optimizer.OptimizerConfig()
    kernel_before = speed.kernel_s()

    solve_s = {}
    for name, spec in specs.items():
        row = {}
        for label, solver in (("reparam", lo.optimizer.solve), ("flat", lo.optimizer.solve_global_baseline)):
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                solver(spec, default)
                times.append(time.perf_counter() - t0)
            row[label] = statistics.median(times)
        solve_s[name] = row
        print(f"solve {name}: {row}", flush=True)

    evaluate = {}
    for n in run.PROBE_SIZES:
        evaluate[str(n)] = {
            "chain": evaluate_ms(lo, chain_scene(n)),
            "generated_rooms": evaluate_ms(
                lo, scenegen.to_text(scenegen.scene_dict(f"probe:0:{n}", n))
            ),
        }
        print(f"evaluate n={n}: {evaluate[str(n)]}", flush=True)

    success = {}
    for name, spec in specs.items():
        clean = satisfied = 0
        for seed in SUCCESS_SEEDS:
            layout, trace = lo.optimizer.solve(spec, replace(default, seed=seed))
            report = lo.harness.eval_physical(spec, layout)
            ok = report.cr_percent == 0.0 and report.or_percent == 0.0
            clean += ok
            satisfied += ok and all(v < workloads.SATISFIED_PENALTY for v in trace.final_penalties.values())
        success[name] = {"clean": clean, "clean_satisfied": satisfied, "of": len(SUCCESS_SEEDS)}
        print(f"success {name}: {success[name]}", flush=True)

    log = SpanLog()
    log.install(run.LAYERS)
    try:
        t0 = time.perf_counter()
        lo.optimizer.solve(specs["mixed_ten"], default)
        traced_s = time.perf_counter() - t0
    finally:
        log.restore()
    summary = log.summary()
    share = {
        t: summary[f"constraints.{t}"]["self_s"] / traced_s for t in ("gap_loss", "collision_loss")
    }

    result = {
        "environment": run.environment(),
        "note": "raw wall times, not scaled; speed_factor is the scale run.py would apply",
        "speed_factor": speed.factor(0.5 * (kernel_before + speed.kernel_s())),
        "config": asdict(default),
        "measured": {
            "solve_s_seed0": solve_s,
            "evaluate_ms": evaluate,
            "success_seeds_0_19": success,
            "mixed_ten_profile_share": share,
        },
        "roadmap": ROADMAP,
    }
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
