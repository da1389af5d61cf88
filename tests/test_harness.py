"""Physical metrics, SVG rendering, the benchmark loop, and the CLI."""

import json
import math
import os
import stat
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from layoutopt import cli, geometry, harness
from layoutopt.cli import main
from layoutopt.errors import DivergenceError, MissingEntityError, SceneSyntaxError
from layoutopt.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from layoutopt.geometry import Pose2D
from layoutopt.harness import (
    COLLISION_TOLERANCE,
    OOB_TOLERANCE,
    BenchmarkResult,
    PhysicalReport,
    asset_polygon,
    benchmark_curves_csv,
    convergence_benchmark,
    ema_smooth,
    eval_physical,
    render_svg,
)
from layoutopt.optimizer import OptimizerConfig, solve
from layoutopt.scene_model import Asset, Layout, Room, SceneSpec, Unit, parse_layout, parse_scene
from mc_oracle import mc_outside_area, mc_pair_area, random_scene_with_layout
from refgeom import ConvexPolygon, FootprintBox, corners, reference_intersection_area

TAU = 0.0003


def _scene(room, assets, units=()):
    return SceneSpec(room=room, assets=assets, units=units, relations=())


def _layout(entries):
    # entries: id -> (x, y, theta); z filled at an arbitrary constant
    return Layout({aid: (x, y, 0.5, th) for aid, (x, y, th) in entries.items()})


def _boxes(room=(6.0, 6.0), **placed):
    assets = tuple(Asset(aid, "box", (l, w, 1.0)) for aid, (l, w, _, _, _) in placed.items())
    layout = _layout({aid: (x, y, th) for aid, (_, _, x, y, th) in placed.items()})
    return _scene(Room(room[0], room[1], 3.0), assets), layout


# --- physical evaluation ----------------------------------------------------


def test_disjoint_scene_is_clean():
    spec, layout = _boxes(
        a=(1.0, 1.0, 1.0, 1.0, 0.0),
        b=(1.0, 1.0, 4.0, 1.0, 0.3),
        c=(0.8, 0.6, 2.5, 4.5, -1.0),
    )
    rep = eval_physical(spec, layout)
    assert rep.cr_percent == 0.0 and rep.or_percent == 0.0
    assert rep.colliding_ids == () and rep.oob_ids == ()
    assert "0.0%" in rep.to_text()


def test_collision_rate_counts_unique_objects():
    # One overlapping pair among four objects: 2/4 = 50%.
    spec, layout = _boxes(
        a=(1.0, 1.0, 1.0, 1.0, 0.0),
        b=(1.0, 1.0, 1.4, 1.0, 0.0),
        c=(0.5, 0.5, 4.0, 4.0, 0.0),
        d=(0.5, 0.5, 5.0, 2.0, 0.0),
    )
    rep = eval_physical(spec, layout)
    assert rep.cr_percent == pytest.approx(50.0)
    assert rep.colliding_ids == ("a", "b")
    assert rep.or_percent == 0.0


def test_area_tolerance_absorbs_slivers():
    # Overlap strip of 1.0 x 0.0002 m stays under tau; 0.0004 m crosses it.
    for gap, expect in ((2e-4, ()), (4e-4, ("a", "b"))):
        spec, layout = _boxes(
            a=(1.0, 1.0, 1.0, 1.0, 0.0),
            b=(1.0, 1.0, 2.0 - gap, 1.0, 0.0),
        )
        rep = eval_physical(spec, layout)
        assert rep.colliding_ids == expect


def test_rotated_footprints_checked_exactly():
    # The diamond's bounding box reaches the small box, its polygon does not.
    spec, layout = _boxes(
        diamond=(1.0, 1.0, 2.0, 2.0, math.pi / 4),
        corner=(0.2, 0.2, 1.4, 1.4, 0.0),
    )
    assert eval_physical(spec, layout).colliding_ids == ()

    # Same shapes, small box moved inside the diamond.
    spec, layout = _boxes(
        diamond=(1.0, 1.0, 2.0, 2.0, math.pi / 4),
        corner=(0.2, 0.2, 2.0, 1.7, 0.0),
    )
    assert eval_physical(spec, layout).colliding_ids == ("corner", "diamond")


def test_oob_tolerance_mirrors_collision_tolerance():
    for offset, expect in ((2e-4, ()), (4e-4, ("a",))):
        spec, layout = _boxes(a=(1.0, 1.0, 0.5 - offset, 3.0, 0.0))
        rep = eval_physical(spec, layout)
        assert rep.oob_ids == expect
    spec, layout = _boxes(a=(1.0, 1.0, 0.5, 3.0, 0.0))
    assert eval_physical(spec, layout).oob_ids == ()  # flush with the wall


def test_oob_rate_over_all_objects():
    spec, layout = _boxes(
        a=(1.0, 1.0, -0.2, 3.0, 0.0),
        b=(1.0, 1.0, 3.0, 3.0, 0.0),
        c=(1.0, 1.0, 3.0, 6.4, 0.2),
        d=(1.0, 1.0, 4.5, 4.5, 0.0),
    )
    rep = eval_physical(spec, layout)
    assert rep.or_percent == pytest.approx(50.0)
    assert rep.oob_ids == ("a", "c")


def test_missing_pose_raises():
    spec, layout = _boxes(a=(1.0, 1.0, 1.0, 1.0, 0.0))
    spec2 = _scene(spec.room, spec.assets + (Asset("ghost", "box", (1.0, 1.0, 1.0)),))
    with pytest.raises(KeyError):
        eval_physical(spec2, layout)


@pytest.mark.parametrize("key, value", [(0, math.nan), (3, math.inf), (3, -math.inf)], ids=["nan_x", "inf_theta", "-inf_theta"])
def test_non_finite_pose_raises(key, value):
    # A Layout built in memory is not checked by `parse_layout`; the checks
    # and the SVG read its poses through one guard and raise its error.
    spec = load_fixture("dining_set")
    layout, _ = solve(spec, OptimizerConfig(iterations=5))
    pose = list(layout.poses["chair_e"])
    pose[key] = value
    bad = Layout({**layout.poses, "chair_e": tuple(pose)})
    for call in (eval_physical, render_svg):
        with pytest.raises(SceneSyntaxError, match="^pose of 'chair_e' must be finite$"):
            call(spec, bad)
    with pytest.raises(SceneSyntaxError):
        asset_polygon(spec, "chair_e", bad)
    with pytest.raises(MissingEntityError):
        render_svg(spec, Layout({k: v for k, v in layout.poses.items() if k != "chair_e"}))


# --- the parent design, kept as the reference -------------------------------
# `eval_physical` and `render_svg` as they were before they read corner
# lists: footprints as FootprintBoxes, clipped as numpy ConvexPolygons.


def _reference_asset_polygon(spec, asset_id, layout) -> ConvexPolygon:
    if asset_id not in layout.poses:
        raise MissingEntityError(f"no pose for {asset_id!r}")
    a = spec.asset(asset_id)
    return ConvexPolygon.from_box(FootprintBox(layout.pose2d(asset_id), a.half_l, a.half_w))


def _reference_room_polygon(spec) -> ConvexPolygon:
    length, width = spec.room.length, spec.room.width
    return ConvexPolygon(np.array([[0.0, 0.0], [length, 0.0], [length, width], [0.0, width]]))


def _reference_eval_physical(spec, layout) -> PhysicalReport:
    ids = [a.id for a in spec.assets]
    polys = [_reference_asset_polygon(spec, aid, layout) for aid in ids]
    room = _reference_room_polygon(spec)

    lo = [p.vertices.min(axis=0) for p in polys]
    hi = [p.vertices.max(axis=0) for p in polys]
    colliding = set()
    for i, j in geometry.overlapping_pairs(lo, hi):
        if reference_intersection_area(polys[i], polys[j]) > COLLISION_TOLERANCE:
            colliding.add(ids[i])
            colliding.add(ids[j])
    oob = []
    for aid, poly in zip(ids, polys):
        outside = poly.area - reference_intersection_area(poly, room)
        if outside > OOB_TOLERANCE:
            oob.append(aid)

    n = max(len(ids), 1)
    return PhysicalReport(
        100.0 * len(colliding) / n,
        100.0 * len(oob) / n,
        tuple(sorted(colliding)),
        tuple(oob),
    )


def _reference_render_svg(spec, layout) -> bytes:
    _fmt, _SCALE, _PAD = harness._fmt, harness._SCALE, harness._PAD
    length, width = spec.room.length, spec.room.width
    w_px = length * _SCALE + 2 * _PAD
    h_px = width * _SCALE + 2 * _PAD

    def sx(x: float) -> float:
        return _PAD + x * _SCALE

    def sy(y: float) -> float:
        return _PAD + (width - y) * _SCALE  # svg y grows downward

    unit_fill = {}
    for k, u in enumerate(spec.units):
        fill = harness._UNIT_FILLS[k % len(harness._UNIT_FILLS)]
        for aid in u.assets:
            unit_fill[aid] = fill

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w_px)}" height="{_fmt(h_px)}" '
        f'viewBox="0 0 {_fmt(w_px)} {_fmt(h_px)}">',
        f'<rect x="{_fmt(sx(0.0))}" y="{_fmt(sy(width))}" '
        f'width="{_fmt(length * _SCALE)}" height="{_fmt(width * _SCALE)}" '
        f'fill="#ffffff" stroke="#202124" stroke-width="2"/>',
    ]
    for a in spec.assets:
        if a.id not in layout.poses:
            raise MissingEntityError(f"no pose for {a.id!r}")
        pose = layout.pose2d(a.id)
        box = FootprintBox(pose, a.half_l, a.half_w)
        pts = " ".join(f"{_fmt(sx(px))},{_fmt(sy(py))}" for px, py in corners(box))
        fill = unit_fill.get(a.id, harness._FREE_FILL)
        parts.append(f'<polygon points="{pts}" fill="{fill}" stroke="#333333" stroke-width="1"/>')
        tip_x = pose.x + 0.8 * a.half_l * math.cos(pose.theta)
        tip_y = pose.y + 0.8 * a.half_l * math.sin(pose.theta)
        parts.append(
            f'<line x1="{_fmt(sx(pose.x))}" y1="{_fmt(sy(pose.y))}" '
            f'x2="{_fmt(sx(tip_x))}" y2="{_fmt(sy(tip_y))}" '
            f'stroke="#202124" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(pose.x))}" y="{_fmt(sy(pose.y) - 4.0)}" '
            f'font-family="monospace" font-size="11" text-anchor="middle" '
            f'fill="#202124">{a.id}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_physical_report_and_svg_match_the_reference(name):
    # Random poses over the room and a little past its walls, so pairs
    # overlap, poke out and touch the tolerances; then two short solves.
    spec = load_fixture(name)
    rng = np.random.default_rng(31)
    length, width = spec.room.length, spec.room.width
    layouts = [
        Layout(
            {
                a.id: (
                    float(rng.uniform(-0.3, length + 0.3)),
                    float(rng.uniform(-0.3, width + 0.3)),
                    0.5,
                    float(rng.uniform(-math.pi, math.pi)),
                )
                for a in spec.assets
            }
        )
        for _ in range(30)
    ]
    layouts += [solve(spec, OptimizerConfig(iterations=20, seed=seed))[0] for seed in (0, 1)]
    flagged = 0
    for layout in layouts:
        got, want = eval_physical(spec, layout), _reference_eval_physical(spec, layout)
        assert got == want
        assert got.to_text() == want.to_text()
        assert render_svg(spec, layout) == _reference_render_svg(spec, layout)
        flagged += len(got.colliding_ids) + len(got.oob_ids)
    assert flagged > 0


def test_broadphase_keeps_physical_report(monkeypatch):
    rng = np.random.default_rng(17)
    cases = [random_scene_with_layout(rng) for _ in range(40)]
    # Exactly touching squares, and slivers just under and over tau, sit at
    # the pruning edge.
    cases.append(_boxes(a=(1.0, 1.0, 1.0, 1.0, 0.0), b=(1.0, 1.0, 2.0, 1.0, 0.0), c=(1.0, 1.0, 2.0, 2.0, 0.0)))
    for gap in (2e-4, 4e-4):
        cases.append(_boxes(a=(1.0, 1.0, 1.0, 1.0, 0.0), b=(1.0, 1.0, 2.0 - gap, 1.0, 0.0)))
    pruned = [eval_physical(spec, layout) for spec, layout in cases]
    monkeypatch.setattr(
        geometry, "overlapping_pairs", lambda lo, hi: [(i, j) for i in range(len(lo)) for j in range(i + 1, len(lo))]
    )
    assert [eval_physical(spec, layout) for spec, layout in cases] == pruned
    assert sum(len(r.colliding_ids) for r in pruned) > 0


def test_flags_match_membership_oracle_sample():
    # Small-sample version of the full agreement sweep: per-object flags
    # must match the sampling oracle's, ignoring objects whose areas land
    # within sampling noise of tau.
    rng = np.random.default_rng(11)
    band = 2e-4
    checked = 0
    for _ in range(6):
        spec, layout = random_scene_with_layout(rng)
        rep = eval_physical(spec, layout)
        boxes = {
            a.id: FootprintBox(layout.pose2d(a.id), a.half_l, a.half_w)
            for a in spec.assets
        }
        ids = sorted(boxes)
        mc_colliding, mc_oob, marginal = set(), set(), set()
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                est = mc_pair_area(boxes[a], boxes[b], rng, samples=200_000)
                if abs(est - TAU) < band:
                    marginal.update((a, b))
                elif est > TAU:
                    mc_colliding.update((a, b))
        for aid in ids:
            est = mc_outside_area(boxes[aid], spec.room.length, spec.room.width, rng, samples=200_000)
            if abs(est - TAU) < band:
                marginal.add(aid)
            elif est > TAU:
                mc_oob.add(aid)
        keep = set(ids) - marginal
        assert set(rep.colliding_ids) & keep == mc_colliding & keep
        assert set(rep.oob_ids) & keep == mc_oob & keep
        checked += len(keep)
    assert checked > 25


# --- rendering ---------------------------------------------------------------


def test_svg_is_deterministic_and_wellformed():
    spec, layout = _boxes(
        a=(1.2, 0.8, 2.0, 2.0, 0.4),
        b=(1.0, 1.0, 4.5, 4.0, -0.9),
    )
    svg = render_svg(spec, layout)
    assert svg == render_svg(spec, layout)
    assert svg.startswith(b"<?xml")
    root = ET.fromstring(svg.decode("utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    polygons = root.findall(f"{ns}polygon")
    assert len(polygons) == len(spec.assets)
    labels = [t.text for t in root.findall(f"{ns}text")]
    assert labels == ["a", "b"]


def test_svg_label_escapes_the_asset_id():
    asset = Asset("desk <A&B>", "desk", (1.2, 0.8, 0.7))
    layout = _layout({asset.id: (2.0, 1.5, 0.0)})
    root = ET.fromstring(render_svg(_scene(Room(4.0, 3.0, 2.5), (asset,)), layout).decode("utf-8"))
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")] == ["desk <A&B>"]


def test_svg_polygon_matches_footprint_corners():
    room = Room(6.0, 6.0, 3.0)
    asset = Asset("a", "box", (1.2, 0.8, 1.0))
    layout = _layout({"a": (2.0, 1.5, 0.7)})
    svg = render_svg(_scene(room, (asset,)), layout).decode("utf-8")
    box = FootprintBox(Pose2D(2.0, 1.5, 0.7), 0.6, 0.4)
    # 100 px per meter, 30 px border, svg y axis flipped.
    expect = " ".join(
        f"{30.0 + 100.0 * x:.4f},{30.0 + (6.0 - y) * 100.0:.4f}" for x, y in corners(box)
    )
    assert expect in svg


def test_svg_unit_members_share_fill():
    room = Room(6.0, 6.0, 3.0)
    assets = (
        Asset("t", "table", (1.0, 1.0, 1.0)),
        Asset("c", "chair", (0.5, 0.5, 1.0)),
        Asset("lamp", "lamp", (0.3, 0.3, 1.0)),
    )
    unit = Unit("pair", "t", ("c",))
    layout = _layout({"t": (2.0, 2.0, 0.0), "c": (4.0, 2.0, 0.0), "lamp": (2.0, 4.5, 0.0)})
    root = ET.fromstring(render_svg(_scene(room, assets, (unit,)), layout).decode("utf-8"))
    fills = [p.get("fill") for p in root.iter("{http://www.w3.org/2000/svg}polygon")]
    assert fills[0] == fills[1]
    assert fills[2] != fills[0]


def test_svg_empty_scene_renders_room_only():
    svg = render_svg(_scene(Room(4.0, 3.0, 2.5), ()), Layout({}))
    root = ET.fromstring(svg.decode("utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    assert root.findall(f"{ns}polygon") == []
    rect = root.find(f"{ns}rect")
    assert rect is not None and rect.get("width") == "400.0000"


def test_eval_empty_scene_is_defined():
    rep = eval_physical(_scene(Room(4.0, 3.0, 2.5), ()), Layout({}))
    assert rep.cr_percent == 0.0 and rep.or_percent == 0.0


# --- benchmark ---------------------------------------------------------------


def test_ema_matches_frozen_recurrence():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 5.0, size=40)
    smoothed = ema_smooth(values, alpha=0.85)
    acc = values[0]
    for i, v in enumerate(values):
        acc = 0.85 * acc + 0.15 * v
        assert smoothed[i] == pytest.approx(acc, abs=1e-15)
    assert ema_smooth([2.0, 2.0, 2.0]).tolist() == [2.0, 2.0, 2.0]


def test_benchmark_is_deterministic_and_consistent():
    spec = load_fixture("dining_set")
    cfg = OptimizerConfig(iterations=80)
    first = convergence_benchmark(spec, (0, 1), threshold=0.1, config=cfg)
    second = convergence_benchmark(spec, (0, 1), threshold=0.1, config=cfg)
    assert first == second
    for r, seed in zip(first, (0, 1)):
        assert r.scene == "dining_set" and r.seed == seed and not r.diverged
        assert 0 <= r.reparam_iterations <= 160
        assert 0 <= r.baseline_iterations <= 160
        assert r.speedup == pytest.approx(r.baseline_iterations / max(r.reparam_iterations, 1))


def test_benchmark_caps_unreached_threshold():
    # Two iterations per stage cannot reach a 1e-9 loss ratio; both runs
    # report the full row count and the ratio degenerates to 1.
    spec = load_fixture("dining_set")
    results = convergence_benchmark(spec, (0,), threshold=1e-9, config=OptimizerConfig(iterations=2))
    assert results[0].reparam_iterations == 4
    assert results[0].baseline_iterations == 4
    assert results[0].speedup == pytest.approx(1.0)


def test_benchmark_rejects_bad_threshold():
    spec = load_fixture("dining_set")
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            convergence_benchmark(spec, (0,), threshold=bad)


def test_curves_csv_rows_and_equal_start():
    spec = load_fixture("dining_set")
    csv = benchmark_curves_csv(convergence_benchmark(spec, (0,), config=OptimizerConfig(iterations=10)))
    lines = csv.strip().splitlines()
    assert lines[0] == "seed,iteration,reparam,reparam_ema,baseline,baseline_ema"
    assert len(lines) == 1 + 20
    seed, it, re_raw, _, gl_raw, _ = lines[1].split(",")
    assert (seed, it) == ("0", "0")
    # Both parameterizations are transported from the same initial draw.
    assert float(re_raw) == pytest.approx(float(gl_raw), abs=1e-9)


def _diverging_on(seed, run):
    """`run`, except that it diverges for `seed`."""

    def wrapped(spec, config, weights):
        if config.seed == seed:
            raise DivergenceError("objective is not finite", 7)
        return run(spec, config, weights)

    return wrapped


def test_benchmark_records_a_diverged_flat_run_and_keeps_the_reparam_curve(monkeypatch):
    spec = load_fixture("dining_set")
    cfg = OptimizerConfig(iterations=10)
    clean = convergence_benchmark(spec, (0, 1), config=cfg)
    monkeypatch.setattr(harness, "solve_global_baseline", _diverging_on(1, harness.solve_global_baseline))
    results = convergence_benchmark(spec, (0, 1), config=cfg)
    assert results[0] == clean[0] and not results[0].diverged
    assert results[1] == BenchmarkResult(
        "dining_set", 1, clean[1].reparam_iterations, 20, 1.0, True, clean[1].reparam_curve
    )
    assert len(results[1].reparam_curve) == 20
    # The diverged seed has no rows.
    assert benchmark_curves_csv(results) == benchmark_curves_csv(clean[:1])


def test_benchmark_records_a_diverged_reparam_run_without_the_flat_run(monkeypatch):
    spec = load_fixture("dining_set")
    def flat_run(*args):
        raise AssertionError("no flat run after a diverged reparam run")

    monkeypatch.setattr(harness, "solve", _diverging_on(0, harness.solve))
    monkeypatch.setattr(harness, "solve_global_baseline", flat_run)
    results = convergence_benchmark(spec, (0,), config=OptimizerConfig(iterations=10))
    assert results == [BenchmarkResult("dining_set", 0, 20, 20, 1.0, True)]
    assert benchmark_curves_csv(results) == "seed,iteration,reparam,reparam_ema,baseline,baseline_ema\n"


# --- command line ------------------------------------------------------------


def _write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(fixture_text(name))
    return str(path)


def test_cli_solve_writes_deterministic_artifacts(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "dining_set")
    out, trace, svg = (str(tmp_path / n) for n in ("l.json", "t.csv", "p.svg"))
    args = ["solve", scene, "--seed", "3", "--iterations", "60",
            "--out", out, "--trace", trace, "--svg", svg]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert "collision rate" in stdout and "out of bounds" in stdout
    assert "wall" not in stdout
    blobs = [open(p, "rb").read() for p in (out, trace, svg)]
    assert main(args) == 0
    assert [open(p, "rb").read() for p in (out, trace, svg)] == blobs
    layout = parse_layout(open(out).read())
    assert set(layout.poses) == {a.id for a in load_fixture("dining_set").assets}


def test_cli_eval_reads_back_layout(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "dining_set")
    out = str(tmp_path / "l.json")
    main(["solve", scene, "--seed", "0", "--out", out])
    capsys.readouterr()
    assert main(["eval", scene, out]) == 0
    assert "collision rate 0.0%" in capsys.readouterr().out


def test_cli_validate_converges_and_writes_revision(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "conflict_pair")
    out = str(tmp_path / "revised.json")
    assert main(["validate", scene, "--out", out]) == 0
    assert "converged" in capsys.readouterr().out
    revised = parse_scene(open(out).read())
    assert len(revised.relations) == len(load_fixture("conflict_pair").relations) + 1


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask_022", "umask_027"])
def test_cli_out_file_gets_the_mode_of_a_plain_write(tmp_path, capsys, umask):
    scene = _write_fixture(tmp_path, "conflict_pair")
    old = os.umask(umask)
    try:
        assert main(["validate", scene, "--out", str(tmp_path / "revised.json")]) == 0
        with open(tmp_path / "plain.json", "wb"):
            pass
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((tmp_path / n).stat().st_mode) for n in ("revised.json", "plain.json")}
    assert modes == {0o666 & ~umask}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conflict_pair.json", "plain.json", "revised.json"]


def test_cli_validate_budget_exhaustion_is_exit_3(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "conflict_pair")
    assert main(["validate", scene, "--budget", "1"]) == 3
    assert "not converged" in capsys.readouterr().out


def test_cli_analyze_writes_cost_table(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "dining_set")
    csv = str(tmp_path / "cost.csv")
    assert main(["analyze", scene, "--csv", csv]) == 0
    assert "saved 4" in capsys.readouterr().out
    assert open(csv).read().splitlines()[0] == "unit,members,depth,delta,valid"


def test_cli_bench_prints_speedups(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "star_unit")
    curves = str(tmp_path / "curves.csv")
    assert main(["bench", scene, "--seeds", "0,1", "--iterations", "60", "--curves", curves]) == 0
    stdout = capsys.readouterr().out
    assert "mean speedup" in stdout
    assert open(curves).read().startswith("seed,iteration,")


def _json_errors(err: str) -> list:
    return [json.loads(line)["error"] for line in err.strip().splitlines() if line.startswith("{")]


def test_cli_solve_rejects_iterations_below_one(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "star_unit")
    assert main(["solve", scene, "--iterations", "0"]) == 1
    assert main(["solve", scene, "--iterations", "-3"]) == 1
    assert _json_errors(capsys.readouterr().err) == ["ValueError", "ValueError"]


def test_cli_bench_rejects_iterations_below_one(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "star_unit")
    assert main(["bench", scene, "--seeds", "0", "--iterations", "0"]) == 1
    captured = capsys.readouterr()
    assert "diverged" not in captured.out
    assert _json_errors(captured.err) == ["ValueError"]


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"room": [')
    assert main(["solve", str(bad)]) == 3
    assert main(["frobnicate"]) == 1
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({
        "room": {"length": 1.0, "width": 1.0, "height": 3.0},
        "assets": [{"id": "huge", "description": "slab", "size": [5.0, 5.0, 1.0]}],
        "units": [],
        "relations": [],
    }))
    assert main(["solve", str(tiny)]) == 2
    # argparse's own usage text shares stderr with the JSON error objects
    errs = [
        json.loads(line)
        for line in capsys.readouterr().err.strip().splitlines()
        if line.startswith("{")
    ]
    assert [e["error"] for e in errs] == [
        "FileNotFoundError", "SceneSyntaxError", "InfeasibleRoomError",
    ]


def test_cli_missing_pose_is_exit_3(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "dining_set")
    out = str(tmp_path / "l.json")
    main(["solve", scene, "--seed", "0", "--iterations", "20", "--out", out])
    data = json.loads(open(out).read())
    del data["poses"]["chair_w"]
    open(out, "w").write(json.dumps(data))
    capsys.readouterr()
    assert main(["eval", scene, out]) == 3
    (err,) = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert err == {"error": "MissingEntityError", "message": "no pose for 'chair_w'"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["x", "y", "theta"])
def test_cli_non_finite_pose_is_exit_3(tmp_path, capsys, key, value):
    # Without the check a NaN or infinite pose reads as 0% collision and
    # 0% out of bounds.
    scene = _write_fixture(tmp_path, "dining_set")
    assets = load_fixture("dining_set").assets
    layout = {a.id: {"x": 1.0 + i, "y": 1.0, "z": 0.5, "theta": 0.0} for i, a in enumerate(assets)}
    layout["chair_e"][key] = value
    out = tmp_path / "l.json"
    out.write_text(json.dumps({"poses": layout}))
    assert main(["eval", scene, str(out)]) == 3
    (err,) = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert err == {"error": "SceneSyntaxError", "message": "pose of 'chair_e' must be finite"}


def test_cli_does_not_report_a_bug_as_bad_input(tmp_path, capsys, monkeypatch):
    # A KeyError from a bug is not a validation failure: no exit 3.
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "_cmd_analyze", broken)
    scene = _write_fixture(tmp_path, "dining_set")
    with pytest.raises(KeyError, match="bug"):
        main(["analyze", scene])
    assert capsys.readouterr().err == ""


def test_cli_seed_sources(tmp_path, capsys, monkeypatch):
    scene = _write_fixture(tmp_path, "dining_set")
    a, b, c = (str(tmp_path / n) for n in ("a.json", "b.json", "c.json"))
    main(["solve", scene, "--seed", "7", "--iterations", "40", "--out", a])
    monkeypatch.setenv("LAYOUTOPT_SEED", "7")
    main(["solve", scene, "--iterations", "40", "--out", b])
    main(["solve", scene, "--seed", "8", "--iterations", "40", "--out", c])
    capsys.readouterr()
    assert open(a).read() == open(b).read()  # env var fills in the seed
    assert open(a).read() != open(c).read()  # explicit flag beats it
