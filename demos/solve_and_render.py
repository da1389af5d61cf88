"""Solve a bundled scene and write layout, loss trace, and floor plan.

Artifacts land in demos/out/.  Rerun with a different seed to see how the
seeded noise on the imagined start changes the final arrangement but not
its quality.
"""

import os
import sys

from layoutopt import OptimizerConfig, eval_physical, load_fixture, render_svg, serialize_layout, solve

OUT = os.path.join(os.path.dirname(__file__), "out")


def main() -> int:
    name = sys.argv[1] if len(sys.argv) > 1 else "dining_set"
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    spec = load_fixture(name)

    layout, trace = solve(spec, OptimizerConfig(seed=seed))
    report = eval_physical(spec, layout)

    stop = "stopped: clean and satisfied" if trace.solved_at is not None else "ran to the iteration cap"
    print(f"{name} (seed {seed}), {len(trace.rows)} iterations, {stop}")
    print(f"  initial loss {trace.rows[0].total:.4f} -> final {trace.rows[-1].total:.6f}")
    print("  " + report.to_text().replace("\n", "\n  ").rstrip())
    worst = max(trace.final_penalties.items(), key=lambda kv: kv[1])
    print(f"  stiffest remaining relation: {worst[0]} at {worst[1]:.2e}")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}.layout.json"), "w") as fh:
        fh.write(serialize_layout(layout))
    with open(os.path.join(OUT, f"{name}.trace.csv"), "w") as fh:
        fh.write(trace.to_csv())
    with open(os.path.join(OUT, f"{name}.svg"), "wb") as fh:
        fh.write(render_svg(spec, layout))
    print(f"wrote layout/trace/svg under {OUT}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
