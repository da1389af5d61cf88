"""Hierarchical vs flat parameterization on the star scene.

Both runs start from the same transported initialization and minimize the
same objective; the only difference is whether unit members are expressed
in their unit's frame or as independent global poses.  Iterations-to-10%
of the initial loss is the comparison metric.
"""

import os
import sys

from layoutopt import OptimizerConfig, benchmark_curves_csv, convergence_benchmark, load_fixture

OUT = os.path.join(os.path.dirname(__file__), "out")


def main() -> int:
    spec = load_fixture(sys.argv[1] if len(sys.argv) > 1 else "star_unit")
    seeds = (0, 1, 2, 3, 4)
    results = convergence_benchmark(spec, seeds, threshold=0.1, config=OptimizerConfig())

    print(f"{'seed':>4}  {'hierarchical':>12}  {'flat':>6}  speedup")
    for r in results:
        print(f"{r.seed:>4}  {r.reparam_iterations:>12}  {r.baseline_iterations:>6}  {r.speedup:5.2f}x")
    mean = sum(r.speedup for r in results) / len(results)
    print(f"mean speedup {mean:.2f}x over {len(seeds)} seeds")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{spec.name}.curves.csv")
    with open(path, "w") as fh:
        fh.write(benchmark_curves_csv(results))
    print(f"smoothed per-iteration curves written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
