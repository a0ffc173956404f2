"""Per-frame orchestration: simulate -> associate -> predict/correct -> score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import association, estimator, evaluation, simulator
from .association import LaneMatch
from .config import RunConfig
from .geometry import BehindCamera, project_point, project_polyline
from .liegroup import Pose, inverse
from .semantic_map import nearby_lanes, nearby_lights


@dataclass
class RunResult:
    config: RunConfig
    frame_errors: list
    gps_present: list  # one flag per frame_errors row
    min_cov_eigenvalues: list
    cov_asymmetry: list
    gn_objectives: list  # per frame: list of (J_before, J_accepted) pairs


def _line_angle_ok(line, min_angle_deg: float) -> bool:
    """True when the image line (2, 2) is steep enough for the x-at-y
    parameterization."""
    du, dv = np.abs(line[1] - line[0])
    return dv > 1e-9 and np.degrees(np.arctan2(dv, du)) >= min_angle_deg


def associate_frame(sensor, state_pred, smap, cam, params, dt):
    """Build a MeasurementBundle from raw detections using the predicted state."""
    t_vm = state_pred.t_vm
    origin = inverse(t_vm).translation

    # Traffic lights: project nearby map lights, ICP + gated NN assignment.
    candidates = []
    for light in nearby_lights(smap, origin, params.light_radius):
        try:
            px = project_point(light.position, t_vm, cam)
        except BehindCamera:
            continue
        margin = 2 * params.light_gate
        u, v = px
        if -margin <= u < cam.width + margin and -margin <= v < cam.height + margin:
            candidates.append((light.id, px))
    light_matches, _ = association.associate_lights(
        sensor.light_pixels, candidates, params.light_gate, params.icp_iters
    )

    # Lane boundaries: project, subsample detections, match, fit lines.
    # visible: lane id -> (segments (K, 2, 2), source (K,), vertices)
    visible = {}
    for lane in nearby_lanes(smap, origin, params.lane_radius):
        segments, source = project_polyline(lane.vertices, t_vm, cam)
        if len(segments):
            visible[lane.id] = (segments, source, lane.vertices)
    pixels = association.subsample_pixels(
        sensor.lane_pixels, params.subsample_stride, params.bottom_fraction,
        cam.height,
    )
    assignments, _ = association.match_lane_pixels(
        pixels, [(lane_id, segs) for lane_id, (segs, _, _) in visible.items()],
        params.lane_gate,
    )

    lane_matches = []
    for lane_id in sorted(assignments):
        support = assignments[lane_id]
        if len(support) < params.min_lane_support:
            continue
        try:
            fitted = association.fit_line(support)
        except association.DegenerateInput:
            continue
        if not _line_angle_ok(fitted, params.min_line_angle_deg):
            continue
        segments, source, verts = visible[lane_id]
        # the piece whose midpoint is nearest the fitted line's; first on a tie
        mid = (fitted[0] + fitted[1]) / 2.0
        k = np.argmin(np.linalg.norm(mid - (segments[:, 0] + segments[:, 1]) / 2.0, axis=1))
        best = segments[k]
        if not _line_angle_ok(best, params.min_line_angle_deg):
            continue
        i = source[k]
        seg_map = (verts[i].copy(), verts[i + 1].copy())
        # Measurement rows: 60% / 90% image height, clipped to the visible
        # vertical extent of the projected segment.
        v_lo, v_hi = sorted(best[:, 1])
        if v_hi - v_lo < 5.0:
            continue
        y_rows = np.array([
            np.clip(0.6 * cam.height, v_lo, v_hi),
            np.clip(0.9 * cam.height, v_lo, v_hi),
        ])
        if abs(y_rows[1] - y_rows[0]) < 1.0:
            continue
        match = LaneMatch(lane_id, fitted, support=len(support), segment_map=seg_map)
        lane_matches.append((match, y_rows))

    return estimator.MeasurementBundle(
        dt=dt,
        gps=sensor.gps,
        light_matches=tuple(light_matches),
        lane_matches=tuple(lane_matches),
        wheel=sensor.wheel,
    )


def run_scenario(config: RunConfig) -> RunResult:
    """Full closed-loop run of one scenario; deterministic in the config."""
    sc = config.scenario
    params = config.estimator
    cam = config.camera
    smap = simulator.generate_world(sc)
    truth = simulator.generate_trajectory(sc, smap)
    offsets = simulator.true_offsets(sc)

    frame_errors = []
    gps_present = []
    min_eigs = []
    asyms = []
    objectives = []

    state = None
    for k, frame in enumerate(truth):
        sensor = simulator.simulate_frame(frame, sc, smap, cam, k, offsets[k])
        if state is None:
            if sensor.gps is None:
                continue  # wait for the first GPS fix to bootstrap
            state = estimator.init_state(
                sensor.gps, Pose.identity(), np.diag(params.cov0_diag)
            )
            objectives.append([])
        else:
            state = estimator.predict(state, sc.dt, config.noise)
            bundle = associate_frame(sensor, state, smap, cam, params, sc.dt)
            diag = []
            try:
                state = estimator.correct(state, bundle, smap, cam, config.noise,
                                          tol=params.tol, max_iters=params.max_iters,
                                          diagnostics=diag)
            except estimator.SingularNormalEquations as exc:
                raise estimator.SingularNormalEquations(
                    f"frame {k}: {exc}"
                ) from exc
            objectives.append(diag)

        lon, lat, heading = evaluation.decompose_error(state.t_vm, frame.t_vm_true)
        off = evaluation.offset_error(state.t_gm, offsets[k])
        frame_errors.append(evaluation.FrameError(frame.t, lon, lat, heading, off))
        gps_present.append(sensor.gps is not None)
        eigs = np.linalg.eigvalsh(state.cov)
        min_eigs.append(float(eigs.min()))
        asyms.append(float(np.abs(state.cov - state.cov.T).max()))

    return RunResult(config, frame_errors, gps_present, min_eigs, asyms, objectives)
