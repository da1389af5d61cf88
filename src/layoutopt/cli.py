"""Command line front end.

Subcommands map one-to-one onto the library's capabilities: solve a scene,
validate and revise it before solving, analyze its relation structure,
evaluate a stored layout, and benchmark the two parameterizations.

Exit codes: 0 success, 1 usage or I/O problems, 2 optimization failures
(infeasible room, divergence), 3 every other package error: malformed
scenes and numbers outside the float range, a layout or id naming an entity
that is not there, an asset with no relation chain from the room in
`analyze`, unresolved conflicts.  Errors are emitted as JSON objects on
stderr so wrapping tools can parse them; any other exception is a bug and
propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DivergenceError, InfeasibleRoomError, LayoutError
from .graph_analysis import build_graph, decomposition_savings
from .harness import eval_physical, render_svg
from .imagination import imagine_and_revise
from .optimizer import OptimizerConfig, _compare, benchmark_curves_csv, solve
from .scene_model import load_scene, parse_layout, serialize_layout, serialize_scene


def _emit_error(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def _write_atomic(path: str, data: bytes) -> None:
    # Stage in the destination directory so os.replace stays on one filesystem;
    # create with 0o666 so the umask gives the mode a plain open() would.
    # An OSError that names the staging file is raised again naming `path`.
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".layoutopt-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from exc


def _cmd_solve(args) -> int:
    config = OptimizerConfig(args.iterations, seed=args.seed)
    spec = load_scene(args.scene)
    layout, trace = solve(spec, config)
    report = eval_physical(spec, layout)

    name = spec.name or args.scene
    stop = "solved: clean and satisfied" if trace.solved_at is not None else "iteration cap"
    print(f"scene '{name}': final loss {trace.rows[-1].total:.6f} after {len(trace.rows)} iterations ({stop})")
    print(report.to_text(), end="")
    if args.out:
        _write_atomic(args.out, serialize_layout(layout).encode("utf-8"))
    if args.trace:
        _write_atomic(args.trace, trace.to_csv().encode("utf-8"))
    if args.svg:
        _write_atomic(args.svg, render_svg(spec, layout))
    return 0


def _cmd_validate(args) -> int:
    spec = load_scene(args.scene)
    revised, report = imagine_and_revise(spec, budget=args.budget)
    print(report.to_text(), end="")
    if args.out:
        _write_atomic(args.out, serialize_scene(revised).encode("utf-8"))
    return 0 if report.converged else 3


def _cmd_analyze(args) -> int:
    spec = load_scene(args.scene)
    graph = build_graph(spec)
    report = decomposition_savings(graph, spec.units)
    print(report.to_text(), end="")
    if args.csv:
        _write_atomic(args.csv, report.to_csv().encode("utf-8"))
    return 0


def _cmd_eval(args) -> int:
    spec = load_scene(args.scene)
    with open(args.layout, "r", encoding="utf-8") as fh:
        layout = parse_layout(fh.read())
    report = eval_physical(spec, layout)
    print(report.to_text(), end="")
    return 0


def _cmd_bench(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    if not seeds:
        raise ValueError("no seeds given")
    # A bad seed is a usage error, reported before the scene is read.
    configs = [OptimizerConfig(args.iterations, seed=seed) for seed in seeds]
    spec = load_scene(args.scene)
    results = _compare(spec, configs, args.threshold)
    for r in results:
        status = " (diverged)" if r.diverged else ""
        print(
            f"seed {r.seed}: hierarchical {r.reparam_iterations} iters, "
            f"flat {r.baseline_iterations} iters, speedup {r.speedup:.2f}x{status}"
        )
    ok = [r for r in results if not r.diverged]
    if ok:
        mean = sum(r.speedup for r in ok) / len(ok)
        wins = sum(1 for r in ok if r.reparam_iterations <= r.baseline_iterations)
        print(f"mean speedup {mean:.2f}x, hierarchical wins {wins}/{len(results)} seeds")
    if args.curves:
        csv = benchmark_curves_csv(results)
        _write_atomic(args.curves, csv.encode("utf-8"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="layoutopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimize a scene into a layout")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--seed", type=int, default=None, help="override scene seed")
    p.add_argument("--iterations", type=int, default=OptimizerConfig.iterations,
                   help="budget N (default %(default)s): from the imagined start, at most N + N//2 objective "
                   "evaluations by L-BFGS; from the random start, N momentum steps per stage")
    p.add_argument("--out", default=None, help="write layout JSON here")
    p.add_argument("--trace", default=None, help="write per-iteration loss CSV here")
    p.add_argument("--svg", default=None, help="write floor-plan SVG here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("validate", help="detect and revise relation conflicts before solving")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--budget", type=int, default=10, help="max revision rounds")
    p.add_argument("--out", default=None, help="write the revised scene JSON here")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="relation-graph cost report for a scene")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--csv", default=None, help="write the per-unit table here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("eval", help="physical metrics of a stored layout")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("layout", help="layout JSON file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="compare hierarchical vs flat convergence")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seed list")
    p.add_argument("--threshold", type=float, default=0.1, help="normalized loss target")
    p.add_argument("--iterations", type=int, default=OptimizerConfig.iterations,
                   help="N momentum steps per stage (default %(default)s), two stages: 2*N steps per run")
    p.add_argument("--curves", default=None, help="write smoothed loss curves CSV here")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; fold that into our code 1.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (InfeasibleRoomError, DivergenceError) as exc:
        _emit_error(exc)
        return 2
    except LayoutError as exc:
        _emit_error(exc)
        return 3
    except (OSError, ValueError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
