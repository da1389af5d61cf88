"""Physical metrics, SVG rendering, the benchmark loop, and the CLI."""

import inspect
import json
import math
import os
import stat
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from layoutopt import cli, errors, geometry, harness, optimizer
from layoutopt.cli import main
from layoutopt.errors import DivergenceError, MissingEntityError, SceneSyntaxError
from layoutopt.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from layoutopt.geometry import Pose2D
from layoutopt.harness import (
    COLLISION_TOLERANCE,
    OOB_TOLERANCE,
    PhysicalReport,
    asset_polygon,
    eval_physical,
    render_svg,
)
from layoutopt.optimizer import (
    BenchmarkResult,
    OptimizerConfig,
    benchmark_curves_csv,
    convergence_benchmark,
    ema_smooth,
    solve,
)
from layoutopt.scene_model import Asset, Layout, Room, SceneSpec, Unit, parse_layout, parse_scene
from mc_oracle import mc_outside_area, mc_pair_area, random_scene_with_layout
from refgeom import ConvexPolygon, FootprintBox, corners, reference_eval_physical, reference_intersection_area
from scenefuzz import random_valid_scene

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


_FAR_POSES = [(1e16, 1.0, 0.0), (1e200, 1.0, 0.0), (1e155, 1e155, 0.3)]


@pytest.mark.parametrize("pose", _FAR_POSES, ids=["1e16", "1e200", "1e155_turned"])
def test_far_away_asset_is_out_of_bounds(pose):
    # That far out `x + half_l` rounds to `x`: the corners enclose no area,
    # and only the asset's l x w says how much of it is outside.
    spec, layout = _boxes(room=(4.0, 4.0), a=(1.0, 1.0, *pose))
    rep = eval_physical(spec, layout)
    assert (rep.or_percent, rep.oob_ids) == (100.0, ("a",))
    assert rep == reference_eval_physical(spec, layout)
    assert not harness._is_clean(spec, layout)


@pytest.mark.parametrize("pose", _FAR_POSES, ids=["1e16", "1e200", "1e155_turned"])
def test_far_away_assets_at_one_point_collide(pose):
    # There both footprints' corners enclose no area; the pair is clipped
    # in coordinates centred on one of them, where each is its whole 1 x 1.
    spec, layout = _boxes(room=(4.0, 4.0), a=(1.0, 1.0, *pose), b=(1.0, 1.0, *pose))
    rep = eval_physical(spec, layout)
    assert (rep.cr_percent, rep.colliding_ids) == (100.0, ("a", "b"))
    assert not harness._is_clean(spec, layout)


def test_far_away_assets_apart_do_not_collide():
    # 1e16 + 4 is a float: the two footprints lie 3 m apart.
    spec, layout = _boxes(room=(4.0, 4.0), a=(1.0, 1.0, 1e16, 1.0, 0.0), b=(1.0, 1.0, 1e16 + 4.0, 1.0, 0.0))
    rep = eval_physical(spec, layout)
    assert (rep.cr_percent, rep.colliding_ids, rep.or_percent) == (0.0, (), 100.0)


def test_missing_pose_raises():
    spec, layout = _boxes(a=(1.0, 1.0, 1.0, 1.0, 0.0))
    spec2 = _scene(spec.room, spec.assets + (Asset("ghost", "box", (1.0, 1.0, 1.0)),))
    with pytest.raises(KeyError):
        eval_physical(spec2, layout)


def test_pose_of_an_asset_the_scene_lacks_raises():
    # Otherwise the stray poses would go unscored without a word.
    spec, layout = _boxes(a=(1.0, 1.0, 1.0, 1.0, 0.0))
    stray = Layout({**layout.poses, "zeta": (2.0, 2.0, 0.5, 0.0), "ghost": (3.0, 3.0, 0.5, 0.0)})
    for call in (eval_physical, render_svg):
        with pytest.raises(MissingEntityError, match="^layout poses 'ghost', 'zeta', not an asset of the scene$"):
            call(spec, stray)


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


def _wall_scene(rng):
    """A scene of 3-8 boxes at a scale of 1 to 1e5 and a layout that puts
    them inside, across or outside the room, or with corners on a wall:
    exactly on it, where the arithmetic allows, or one step off."""
    scale = 10.0 ** rng.uniform(0.0, 5.0)
    length, width = scale * rng.uniform(1.0, 2.0), scale * rng.uniform(1.0, 2.0)
    assets, poses = [], {}
    for i in range(int(rng.integers(3, 9))):
        hl, hw = scale * rng.uniform(0.01, 0.2), scale * rng.uniform(0.01, 0.2)
        assets.append(Asset(f"a{i}", "block", (2.0 * hl, 2.0 * hw, 1.0)))
        x, y = rng.uniform(-0.1, 1.1) * length, rng.uniform(-0.1, 1.1) * width
        theta = rng.uniform(-math.pi, math.pi)
        kind = int(rng.integers(0, 6))
        if kind > 0:
            theta = float(rng.choice([0.0, -0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi]))
            x, y = rng.uniform(hl + hw, length - hl - hw), rng.uniform(hl + hw, width - hl - hw)
            half_x, half_y = (hw, hl) if abs(theta) == 0.5 * math.pi else (hl, hw)
            if kind == 1:
                x = half_x
            elif kind == 2:
                y = half_y
            elif kind == 3:
                x = length - half_x
            elif kind == 4:
                y = width - half_y
            off = float(rng.choice([-math.inf, math.inf]))
            if rng.random() < 0.3:
                x = math.nextafter(x, off)
        poses[f"a{i}"] = (float(x), float(y), 0.5, float(theta))
    return _scene(Room(length, width, 3.0), tuple(assets)), Layout(poses)


def test_physical_report_matches_clipping_every_footprint():
    # A footprint the room contains skips its clip against the room; the
    # report is the one clipping every footprint gives, with corners on a
    # wall and coordinates up to 1e5.  The solver's stop test, which ends
    # at the first flag, agrees with the report.
    rng = np.random.default_rng(23)
    on_wall = flagged = clean = 0
    for _ in range(400):
        spec, layout = _wall_scene(rng)
        got = eval_physical(spec, layout)
        assert got == reference_eval_physical(spec, layout)
        assert harness._is_clean(spec, layout) == (got.cr_percent == 0.0 and got.or_percent == 0.0)
        flagged += len(got.oob_ids)
        clean += got.cr_percent == 0.0 and got.or_percent == 0.0
        room = harness.room_polygon(spec)
        for a in spec.assets:
            poly = asset_polygon(spec, a.id, layout)
            xs, ys = [p[0] for p in poly], [p[1] for p in poly]
            on_wall += geometry.contains(room, poly) and (
                0.0 in xs or 0.0 in ys or spec.room.length in xs or spec.room.width in ys
            )
    assert on_wall > 0 and flagged > 0 and clean > 0


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
    smoothed = ema_smooth(values)
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


def test_benchmark_hands_each_seed_to_the_config_as_given(monkeypatch):
    # Each seed reaches the config as given: 2.7 is refused, not run as
    # seed 2, before any seed runs.
    def refused(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(optimizer, "_run", refused)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got 2.7"):
        convergence_benchmark(load_fixture("dining_set"), (0, 2.7))


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


def _diverging_on(seed, flat, run):
    """`run`, the benchmark's `_run`, except that its `flat` run diverges
    for `seed`."""

    def wrapped(state, config, flat_run, imagined, stop):
        if config.seed == seed and flat_run == flat:
            raise DivergenceError("objective is not finite", 7)
        return run(state, config, flat_run, imagined, stop)

    return wrapped


def test_benchmark_records_a_diverged_flat_run_and_keeps_the_reparam_curve(monkeypatch):
    spec = load_fixture("dining_set")
    cfg = OptimizerConfig(iterations=10)
    clean = convergence_benchmark(spec, (0, 1), config=cfg)
    monkeypatch.setattr(optimizer, "_run", _diverging_on(1, True, optimizer._run))
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

    def run(state, config, flat, imagined, stop):
        if flat:
            raise AssertionError("no flat run after a diverged reparam run")
        raise DivergenceError("objective is not finite", 7)

    monkeypatch.setattr(optimizer, "_run", run)
    results = convergence_benchmark(spec, (0,), config=OptimizerConfig(iterations=10))
    assert results == [BenchmarkResult("dining_set", 0, 20, 20, 1.0, True)]
    assert benchmark_curves_csv(results) == "seed,iteration,reparam,reparam_ema,baseline,baseline_ema\n"


def test_benchmark_counts_zero_iterations_from_a_zero_initial_loss():
    # One asset and no relations: stage 1's objective is zero from the start,
    # in both runs, which share it; neither is faster.
    spec = _scene(Room(4.0, 4.0, 3.0), (Asset("a", "box", (1.0, 1.0, 1.0)),))
    (r,) = convergence_benchmark(spec, (0,), config=OptimizerConfig(iterations=5))
    assert (r.reparam_iterations, r.baseline_iterations, r.speedup, r.diverged) == (0, 0, 1.0, False)
    assert r.reparam_curve[0] == 0.0 and len(r.reparam_curve) == len(r.baseline_curve) == 10


def test_unknown_fixture_raises():
    with pytest.raises(MissingEntityError) as info:
        fixture_text("ghost")
    assert str(info.value) == f"unknown fixture 'ghost'; available: {', '.join(FIXTURE_NAMES)}"


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
    blobs = [Path(p).read_bytes() for p in (out, trace, svg)]
    assert main(args) == 0
    assert [Path(p).read_bytes() for p in (out, trace, svg)] == blobs
    layout = parse_layout(Path(out).read_text())
    assert set(layout.poses) == {a.id for a in load_fixture("dining_set").assets}


def test_cli_solve_names_why_it_stopped(tmp_path, capsys):
    # star_unit's own seed is solved at its third iterate, the start
    # counted; a cap of 4 + 2 objective calls leaves dining_set unsolved
    # after the 6 iterates they accept.
    assert main(["solve", _write_fixture(tmp_path, "star_unit")]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.endswith(" after 3 iterations (solved: clean and satisfied)"), first
    assert main(["solve", _write_fixture(tmp_path, "dining_set"), "--iterations", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(" after 6 iterations (iteration cap)")


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
    revised = parse_scene(Path(out).read_text())
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
    assert Path(csv).read_text().splitlines()[0] == "unit,members,depth,delta,valid"


def test_cli_bench_prints_speedups(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "star_unit")
    curves = str(tmp_path / "curves.csv")
    assert main(["bench", scene, "--seeds", "0,1", "--iterations", "60", "--curves", curves]) == 0
    stdout = capsys.readouterr().out
    assert "mean speedup" in stdout
    assert Path(curves).read_text().startswith("seed,iteration,")


def test_cli_bench_reports_no_speedup_from_a_zero_loss_start(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    room = {"length": 4, "width": 4, "height": 3}
    scene.write_text(json.dumps({"room": room, "assets": [{"id": "a", "size": [1, 1, 1]}]}))
    assert main(["bench", str(scene), "--seeds", "0,1", "--iterations", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "seed 0: hierarchical 0 iters, flat 0 iters, speedup 1.00x",
        "seed 1: hierarchical 0 iters, flat 0 iters, speedup 1.00x",
        "mean speedup 1.00x, hierarchical wins 2/2 seeds",
    ]


def _json_errors(err: str) -> list:
    return [json.loads(line)["error"] for line in err.strip().splitlines() if line.startswith("{")]


def test_cli_solve_rejects_iterations_below_one(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "star_unit")
    assert main(["solve", scene, "--iterations", "0"]) == 1
    assert main(["solve", scene, "--iterations", "-3"]) == 1
    assert _json_errors(capsys.readouterr().err) == ["ValueError", "ValueError"]


def test_cli_settings_are_checked_before_the_scene_is_solved(tmp_path, capsys):
    # A 5 x 1 asset cannot fit a 2 x 2 room, an InfeasibleRoomError (exit 2)
    # once a solve starts; a bad `--iterations` is a usage error found first.
    room = {"length": 2, "width": 2, "height": 3}
    scene = tmp_path / "tight.json"
    scene.write_text(json.dumps({"room": room, "assets": [{"id": "a", "size": [5, 1, 1]}]}))
    assert main(["solve", str(scene), "--iterations", "0"]) == 1
    assert main(["bench", str(scene), "--seeds", "0", "--iterations", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line)["error"] for line in captured.err.splitlines()] == ["ValueError", "ValueError"]
    assert main(["solve", str(scene), "--iterations", "1"]) == 2
    assert _json_errors(capsys.readouterr().err) == ["InfeasibleRoomError"]


def test_cli_solve_and_bench_reject_a_negative_seed(tmp_path, capsys, monkeypatch):
    # The config rejects the seed in the scene parser's words, not numpy's,
    # and bench does so before it runs any seed.
    def refused(*args):
        raise AssertionError("a seed ran")

    scene = _write_fixture(tmp_path, "star_unit")
    monkeypatch.setattr(optimizer, "_run", refused)
    assert main(["solve", scene, "--seed", "-1"]) == 1
    assert main(["bench", scene, "--seeds", "0,-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = {"error": "ValueError", "message": "seed must be a non-negative integer, got -1"}
    assert [json.loads(line) for line in captured.err.splitlines()] == [error, error]


def test_cli_bench_rejects_iterations_below_one(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "star_unit")
    assert main(["bench", scene, "--seeds", "0", "--iterations", "0"]) == 1
    captured = capsys.readouterr()
    assert "diverged" not in captured.out
    assert _json_errors(captured.err) == ["ValueError"]


def test_cli_bench_rejects_an_empty_seed_list(tmp_path, capsys):
    scene = _write_fixture(tmp_path, "star_unit")
    assert main(["bench", scene, "--seeds", ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "ValueError", "message": "no seeds given"}
    ]


def test_cli_failed_replace_leaves_no_staged_file(tmp_path, capsys, monkeypatch):
    scene = _write_fixture(tmp_path, "dining_set")

    def failing_replace(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    assert main(["analyze", scene, "--csv", str(tmp_path / "cost.csv")]) == 1
    assert sorted(os.listdir(tmp_path)) == ["dining_set.json"]
    (err,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert err == {"error": "PermissionError", "message": "[Errno 13] Permission denied"}


@pytest.mark.parametrize(
    "target, error",
    [("missing/x.json", "FileNotFoundError"), ("existing_dir", "IsADirectoryError")],
    ids=["missing_dir", "directory"],
)
def test_cli_failed_write_names_the_given_path(tmp_path, capsys, target, error):
    scene = _write_fixture(tmp_path, "star_unit")
    (tmp_path / "existing_dir").mkdir()
    path = str(tmp_path / target)
    assert main(["solve", scene, "--iterations", "5", "--out", path]) == 1
    (err,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert err["error"] == error
    assert repr(path) in err["message"] and ".layoutopt-" not in err["message"]
    assert sorted(os.listdir(tmp_path)) == ["existing_dir", "star_unit.json"]
    assert os.listdir(tmp_path / "existing_dir") == []


@pytest.mark.parametrize("pose", _FAR_POSES, ids=["1e16", "1e200", "1e155_turned"])
def test_cli_eval_far_away_asset_is_out_of_bounds(tmp_path, capsys, pose):
    room = {"length": 4, "width": 4, "height": 3}
    scene, layout = tmp_path / "scene.json", tmp_path / "layout.json"
    scene.write_text(json.dumps({"room": room, "assets": [{"id": "a", "size": [1, 1, 1]}]}))
    x, y, theta = pose
    layout.write_text(json.dumps({"poses": {"a": {"x": x, "y": y, "z": 0.5, "theta": theta}}}))
    assert main(["eval", str(scene), str(layout)]) == 0
    assert "out of bounds 100.0% (1 object(s))" in capsys.readouterr().out


@pytest.mark.parametrize("pose", _FAR_POSES, ids=["1e16", "1e200", "1e155_turned"])
def test_cli_eval_far_away_assets_at_one_point_collide(tmp_path, capsys, pose):
    room = {"length": 4, "width": 4, "height": 3}
    scene, layout = tmp_path / "scene.json", tmp_path / "layout.json"
    assets = [{"id": aid, "size": [1, 1, 1]} for aid in ("a", "b")]
    scene.write_text(json.dumps({"room": room, "assets": assets}))
    x, y, theta = pose
    pose_json = {"x": x, "y": y, "z": 0.5, "theta": theta}
    layout.write_text(json.dumps({"poses": {"a": pose_json, "b": pose_json}}))
    assert main(["eval", str(scene), str(layout)]) == 0
    assert "collision rate 100.0% (2 object(s))" in capsys.readouterr().out


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
    data = json.loads(Path(out).read_text())
    del data["poses"]["chair_w"]
    Path(out).write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["eval", scene, out]) == 3
    (err,) = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert err == {"error": "MissingEntityError", "message": "no pose for 'chair_w'"}


def test_cli_stray_pose_is_exit_3(tmp_path, capsys):
    room = {"length": 4, "width": 4, "height": 3}
    scene, layout = tmp_path / "scene.json", tmp_path / "layout.json"
    scene.write_text(json.dumps({"room": room, "assets": [{"id": "a", "size": [1, 1, 1]}]}))
    pose = {"x": 1.0, "y": 1.0, "z": 0.5, "theta": 0.0}
    layout.write_text(json.dumps({"poses": {"a": pose, "ghost": pose}}))
    assert main(["eval", str(scene), str(layout)]) == 3
    (err,) = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert err == {"error": "MissingEntityError", "message": "layout poses 'ghost', not an asset of the scene"}


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


def test_cli_seed_sources(tmp_path, capsys):
    # `--seed` beats the scene's own seed.
    data = json.loads(fixture_text("dining_set"))
    data["seed"] = 7
    scene = tmp_path / "seeded.json"
    scene.write_text(json.dumps(data))
    a, c = (str(tmp_path / n) for n in ("a.json", "c.json"))
    assert main(["solve", str(scene), "--iterations", "40", "--out", a]) == 0
    assert main(["solve", str(scene), "--seed", "8", "--iterations", "40", "--out", c]) == 0
    capsys.readouterr()
    assert Path(a).read_text() != Path(c).read_text()


def test_cli_solve_falls_back_to_the_scene_seed(tmp_path, capsys):
    data = json.loads(fixture_text("dining_set"))
    data["seed"] = 7
    scene = tmp_path / "seeded.json"
    scene.write_text(json.dumps(data))
    a, b = (str(tmp_path / n) for n in ("a.json", "b.json"))
    assert main(["solve", str(scene), "--iterations", "40", "--out", a]) == 0
    assert main(["solve", str(scene), "--seed", "7", "--iterations", "40", "--out", b]) == 0
    capsys.readouterr()
    assert Path(a).read_text() == Path(b).read_text()


# --- every package error is a JSON error -------------------------------------

_ANALYZE = {
    "dining_set": (
        "cost 4, rooted cost 0, saved 4\n  unit dining: 4 member(s) at depth 1, delta 4 [ok]\n",
        "unit,members,depth,delta,valid\ndining,4,1,4,1\ntotal,,,4,\n",
    ),
    "bookstore_rows": (
        "cost 9, rooted cost 0, saved 9\n"
        "  unit row_a: 3 member(s) at depth 1, delta 3 [ok]\n"
        "  unit row_b: 3 member(s) at depth 1, delta 3 [ok]\n"
        "  unit row_c: 3 member(s) at depth 1, delta 3 [ok]\n",
        "unit,members,depth,delta,valid\nrow_a,3,1,3,1\nrow_b,3,1,3,1\nrow_c,3,1,3,1\ntotal,,,9,\n",
    ),
    "star_unit": (
        "cost 8, rooted cost 0, saved 8\n  unit star: 8 member(s) at depth 1, delta 8 [ok]\n",
        "unit,members,depth,delta,valid\nstar,8,1,8,1\ntotal,,,8,\n",
    ),
    "mixed_ten": (
        "cost 5, rooted cost 4, saved 1\n  unit study: 1 member(s) at depth 1, delta 1 [ok]\n",
        "unit,members,depth,delta,valid\nstudy,1,1,1,1\ntotal,,,1,\n",
    ),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cli_analyze_every_fixture(tmp_path, capsys, name):
    scene = _write_fixture(tmp_path, name)
    csv = tmp_path / "cost.csv"
    code = main(["analyze", scene, "--csv", str(csv)])
    out, err = capsys.readouterr()
    if name in _ANALYZE:
        assert (code, out, csv.read_text(), err) == (0, *_ANALYZE[name], "")
    else:
        # conflict_pair's lamps are tied to each other only, not to the room.
        assert (code, out, csv.exists()) == (3, "", False)
        assert err == (
            '{"error": "UnreachableNodeError", '
            '"message": "nodes unreachable from the root: [\'lamp1\', \'lamp2\']"}\n'
        )


_PACKAGE_ERRORS = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, errors.LayoutError)
]


@pytest.mark.parametrize("cls", _PACKAGE_ERRORS, ids=[c.__name__ for c in _PACKAGE_ERRORS])
def test_cli_reports_every_package_error_as_json(tmp_path, capsys, monkeypatch, cls):
    def failing(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_analyze", failing)
    code = main(["analyze", _write_fixture(tmp_path, "dining_set")])
    assert code == (2 if cls in (errors.InfeasibleRoomError, errors.DivergenceError) else 3)
    assert capsys.readouterr().err == json.dumps({"error": cls.__name__, "message": "boom"}) + "\n"


_HUGE = 10**400  # a JSON integer beyond the float range

# case: (argv, the start of the error message)
_UNREADABLE = {
    "validate_huge": (["validate", "huge.json"], "assets[0].size[0]: number must be finite"),
    "solve_huge": (["solve", "huge.json"], "assets[0].size[0]: number must be finite"),
    "eval_huge": (["eval", "scene.json", "huge_layout.json"], "pose of 'a' must be finite"),
    "validate_deep": (["validate", "deep.json"], "invalid JSON: maximum recursion depth exceeded"),
    "eval_deep": (["eval", "scene.json", "deep.json"], "invalid JSON: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("argv, error", _UNREADABLE.values(), ids=list(_UNREADABLE))
def test_cli_unreadable_numbers_and_nesting_are_exit_3(tmp_path, capsys, monkeypatch, argv, error):
    monkeypatch.chdir(tmp_path)
    room = {"length": 4, "width": 4, "height": 3}
    Path("scene.json").write_text(json.dumps({"room": room, "assets": [{"id": "a", "size": [1, 1, 1]}]}))
    Path("huge.json").write_text(json.dumps({"room": room, "assets": [{"id": "a", "size": [_HUGE, 1, 1]}]}))
    Path("huge_layout.json").write_text(json.dumps({"poses": {"a": {"x": _HUGE, "y": 1, "z": 0.5, "theta": 0}}}))
    Path("deep.json").write_text("[" * 100_000 + "]" * 100_000)
    assert main(argv) == 3
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] in ("SceneSemanticError", "SceneSyntaxError")
    assert err["message"].startswith(error)


def test_cli_never_raises_on_a_valid_scene(tmp_path, capsys):
    rng = np.random.default_rng(5)
    for k in range(100):
        scene = tmp_path / f"s{k}.json"
        scene.write_text(json.dumps(random_valid_scene(rng)))
        for argv in (["validate", "--budget", "3"], ["analyze"], ["solve", "--iterations", "5"]):
            assert main([*argv, str(scene)]) in (0, 2, 3), (k, argv)
    capsys.readouterr()
