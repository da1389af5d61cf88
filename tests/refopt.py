"""The descent's per-iteration parts as the library had them before its
objective became one pass over the plan.  The tests measure the library
against them bit for bit.

`reference_evaluate` sums the aggregates' results as arrays:
`aggregate_global`, then `aggregate_local` per unit in plan order, then the
stage-2 prior, then the flat parameterization's numpy `_pull_back`.
`reference_step` is the step around it, clipping with a norms array, a
boolean mask and `np.clip`, on a `Phase` of the descent.  `reference_around_loss` is the around kernel
with its per-source derivatives in numpy arrays.  `reference_reframe` is
the flat parameterization's change of frame through `Pose2D` objects and
`geometry.relative` or `geometry.compose`.  The bodies are kept as they
were in the library.
"""

from __future__ import annotations

import math

import numpy as np

from layoutopt import optimizer
from layoutopt.constraints import aggregate_global, aggregate_local
from layoutopt.errors import DivergenceError
from layoutopt.geometry import Pose2D
from layoutopt.optimizer import _derived_view, _stage_weights, _unit_rows, cosine_factor


def reference_reframe(index, x: np.ndarray, map_pose) -> np.ndarray:
    """Copy of `x` with each member row `p` replaced by `map_pose(frame, p)`,
    `frame` being its unit's row."""
    out = x.copy()
    for r, members in _unit_rows(index):
        frame = Pose2D.from_array(x[r : r + 3])
        for m in members:
            p = map_pose(frame, Pose2D.from_array(x[m : m + 3]))
            out[m : m + 3] = (p.x, p.y, p.theta)
    return out


def reference_pull_back(state, view: np.ndarray, grad: np.ndarray):
    for frame, members in _unit_rows(state.index):
        theta = state.x[frame + 2]
        ca, sa = math.cos(theta), math.sin(theta)
        for m in members:
            g0, g1, g2 = grad[m : m + 3].tolist()
            lx, ly, _ = view[m : m + 3].tolist()
            gm0, gm1 = ca * g0 - sa * g1, sa * g0 + ca * g1
            grad[m : m + 3] = (gm0, gm1, g2)
            grad[frame : frame + 3] += np.array([-gm0, -gm1, g0 * ly - g1 * lx - g2])


def reference_evaluate(state, weights, stage: int, config):
    spec, index = state.spec, state.index
    eff = _stage_weights(weights, stage)
    x = _derived_view(state)
    parts = [aggregate_global(spec, index, x, eff)]
    parts += [aggregate_local(spec, unit, index, x, eff) for unit in index.blocks if unit is not None]
    total, grad = parts[0].value, parts[0].grads
    for part in parts[1:]:
        total += part.value
        grad += part.grads
    terms = {"collision": 0.0, "boundary": 0.0, "relation": 0.0, "prior": 0.0}
    for part in parts:
        for k, v in part.terms.items():
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
        reference_pull_back(state, x, grad)
    return total, grad, terms


def reference_step(state, config, phase):
    total, grad, terms = reference_evaluate(state, phase.weights, phase.stage, config)
    if not math.isfinite(total):
        raise DivergenceError("objective is not finite", state.step_index)
    factor = cosine_factor(state.step_index, phase.steps)

    rows = grad[: state.index.pose_size].reshape(-1, 3)
    norms = np.array([math.hypot(gx, gy) for gx, gy, _ in rows.tolist()])
    over = norms > optimizer.CLIP_POSITION
    rows[over, :2] *= (optimizer.CLIP_POSITION / norms[over])[:, None]
    limit, lr = state.limit, state.lr
    n = state.index.pose_size if phase.stage == 1 else state.index.size
    g = np.clip(grad[:n], -limit[:n], limit[:n])
    state.vel[:n] = optimizer.MOMENTUM * state.vel[:n] + g
    state.x[:n] -= lr[:n] * factor * state.vel[:n]

    state.step_index += 1
    if not np.all(np.isfinite(state.x)):
        raise DivergenceError("parameter is not finite", state.step_index)
    return total, terms, factor


def reference_around_loss(boxes: list, _, sweep: float, center: float):
    """Even angular spread around a focal object plus a circular-mean
    orientation target.

    Directions to the sources, measured in the focal frame, are sorted; the
    consecutive gaps should all equal sweep/(N-1).  Source headings relative
    to the focal should average (in the embedded sin/cos sense) to the mean
    resultant of N headings evenly spread over the sweep centered at `center`.
    The boxes are the sources then the focal; the parameter gradient is
    (d/d sweep, d/d center).  The reductions stay numpy's, and so their
    summation order.
    """
    *sources, focal = boxes
    n = len(sources)
    if n < 2:
        raise ValueError("around needs at least two sources")
    fx, fy, ftheta = focal[0], focal[1], focal[2]
    cf, sf = math.cos(ftheta), math.sin(ftheta)

    phis = np.empty(n)
    dphi_sources = np.zeros((n, 2))
    for i, box in enumerate(sources):
        dx, dy = box[0] - fx, box[1] - fy
        xp = cf * dx + sf * dy
        yp = -sf * dx + cf * dy
        r2 = xp * xp + yp * yp
        phis[i] = math.atan2(yp, xp)
        if r2 > 1e-18:
            dphi_dxp, dphi_dyp = -yp / r2, xp / r2
            dphi_sources[i, 0] = dphi_dxp * cf + dphi_dyp * (-sf)
            dphi_sources[i, 1] = dphi_dxp * sf + dphi_dyp * cf
    order = np.argsort(phis, kind="stable")
    sorted_phi = phis[order]
    t_gap = sweep / (n - 1)
    resid = np.diff(sorted_phi) - t_gap
    term1 = float(np.dot(resid, resid)) / (n - 1)

    g_sources = np.zeros((n, 3))
    g_focal = np.zeros(3)
    dterm1_sorted = np.zeros(n)
    for k in range(n):
        left = resid[k - 1] if k > 0 else 0.0
        right = resid[k] if k < n - 1 else 0.0
        dterm1_sorted[k] = 2.0 * (left - right) / (n - 1)
    for k in range(n):
        i = int(order[k])
        g_sources[i, :2] += dterm1_sorted[k] * dphi_sources[i]
        g_focal[:2] -= dterm1_sorted[k] * dphi_sources[i]
        g_focal[2] += dterm1_sorted[k] * (-1.0)
    d_term1_dsweep = -2.0 * float(resid.sum()) / ((n - 1) * (n - 1))

    # Orientation embedding: mean of (sin, cos) of relative headings.
    rel = np.array([box[2] - ftheta for box in sources])
    emb = np.array([np.sin(rel).mean(), np.cos(rel).mean()])
    delta = sweep / (2.0 * (n - 1))
    if abs(delta) < 1e-9:
        m_res = 1.0
        dm_ddelta = 0.0
    else:
        m_res = math.sin(n * delta) / (n * math.sin(delta))
        dm_ddelta = (
            n * math.cos(n * delta) * math.sin(delta) - math.sin(n * delta) * math.cos(delta)
        ) / (n * math.sin(delta) ** 2)
    target_emb = m_res * np.array([math.sin(center), math.cos(center)])
    err = emb - target_emb
    term2 = float(np.dot(err, err))

    for i in range(n):
        de = np.array([math.cos(rel[i]), -math.sin(rel[i])]) / n
        g_sources[i, 2] += 2.0 * float(np.dot(err, de))
        g_focal[2] -= 2.0 * float(np.dot(err, de))
    d_term2_dcenter = -2.0 * m_res * float(
        err[0] * math.cos(center) - err[1] * math.sin(center)
    )
    d_term2_dsweep = -2.0 * float(np.dot(err, np.array([math.sin(center), math.cos(center)]))) * (
        dm_ddelta / (2.0 * (n - 1))
    )
    grads = (*map(tuple, g_sources.tolist()), tuple(g_focal.tolist()))
    return term1 + term2, grads, (d_term1_dsweep + d_term2_dsweep, d_term2_dcenter)

