import numpy as np
import pytest

import gn_oracle
from conftest import rand_pose, rand_twist, rel_err, state_jacobian_fd
from semloc import estimator as est
from semloc import liegroup as lg
from semloc import simulator as sim
from semloc.association import LightMatch
from semloc.geometry import DegenerateLine, project_point


CAM = sim.default_camera()


def default_state(rng, cov_scale=1.0):
    cov = cov_scale * np.diag(np.concatenate([
        np.full(6, 0.5), np.full(6, 0.2), np.full(6, 0.3)
    ]))
    return est.EstimatorState(
        rand_pose(rng), rand_twist(rng, 1.0, 0.2), rand_pose(rng, 1.0, 0.1), cov
    )


# --- process model -----------------------------------------------------------


def test_process_covariance_unit_blocks():
    q = est.process_covariance(np.eye(6), 1.0)
    assert np.allclose(q[0:6, 0:6], np.eye(6) / 3.0)
    assert np.allclose(q[0:6, 6:12], np.eye(6) / 2.0)
    assert np.allclose(q[6:12, 6:12], np.eye(6))


def test_process_covariance_psd_and_limit(rng):
    a = rng.normal(size=(6, 6))
    q_c = a @ a.T + 1e-6 * np.eye(6)
    for dt in (0.01, 0.1, 1.0):
        q = est.process_covariance(q_c, dt)
        assert np.linalg.eigvalsh(q).min() > -1e-12
    assert np.linalg.norm(est.process_covariance(q_c, 1e-12)) < 1e-9
    with pytest.raises(ValueError):
        est.process_covariance(q_c, 0.0)


def test_predict_pure_forward_velocity(rng):
    noise = est.NoiseConfig.default()
    state = est.EstimatorState(
        lg.Pose.identity(),
        np.array([8.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        lg.Pose.identity(),
        np.eye(18),
    )
    out = est.predict(state, 0.5, noise)
    assert np.allclose(out.t_vm.translation, [4.0, 0.0, 0.0], atol=1e-12)
    # offset mean never changes in prediction
    assert np.allclose(out.t_gm.t, state.t_gm.t)
    assert np.allclose(out.varpi, state.varpi)


def test_transition_jacobian_matches_fd(rng):
    noise = est.NoiseConfig.default()
    dt = 0.1
    for _ in range(10):
        state = default_state(rng)
        base = est.predict(state, dt, noise)

        def propagated_delta(t_vm, varpi, t_gm):
            s = est.EstimatorState(t_vm, varpi, t_gm, np.eye(18))
            out = est.predict(s, dt, noise)
            return np.concatenate([
                lg.log_se3(lg.compose(out.t_vm, lg.inverse(base.t_vm))),
                out.varpi - base.varpi,
                lg.log_se3(lg.compose(out.t_gm, lg.inverse(base.t_gm))),
            ])

        f = est.transition_jacobian(state.varpi, dt)
        fd = state_jacobian_fd(propagated_delta, state.t_vm, state.varpi,
                               state.t_gm)
        assert np.abs(f - fd).max() < 1e-5


# --- measurement errors ------------------------------------------------------


def test_gps_error_consistent_triple(rng):
    t_gm = rand_pose(rng)
    t_vm = rand_pose(rng)
    t_vg = lg.compose(t_vm, lg.inverse(t_gm))
    assert np.abs(est.gps_error(t_vg, t_vm, t_gm)).max() < 1e-12
    # identity offset: measurement equals the pose itself
    assert np.abs(est.gps_error(t_vm, t_vm, lg.Pose.identity())).max() < 1e-12


def test_gps_error_first_order(rng):
    t_gm = rand_pose(rng)
    t_vm = rand_pose(rng)
    t_vg = lg.compose(t_vm, lg.inverse(t_gm))
    eps = 1e-4 * rng.normal(size=6)
    eps *= 1e-4 / np.linalg.norm(eps)
    perturbed = lg.compose(lg.exp_se3(eps), t_vg)
    e = est.gps_error(perturbed, t_vm, t_gm)
    assert np.abs(e - eps).max() < 1e-6


def test_light_error_zero_at_projection(rng):
    scenario = sim.Scenario()
    smap = sim.generate_world(scenario)
    t_vm = sim.generate_trajectory(scenario, smap)[40].t_vm_true
    light = next(
        l for l in smap.lights
        if len(sim._visible_pixels(l.position, t_vm, CAM, 100.0))
    )
    match = LightMatch(project_point(light.position, t_vm, CAM), light.id)
    assert np.abs(est.light_error(match, t_vm, smap, CAM)).max() < 1e-12


def test_light_error_unknown_landmark(rng):
    smap = sim.generate_world(sim.Scenario())
    match = LightMatch(np.zeros(2), 424242)
    with pytest.raises(est.UnknownLandmark):
        est.light_error(match, lg.Pose.identity(), smap, CAM)


def test_light_errors_zero_noise_simulation():
    scenario = sim.Scenario(detection_noise_px=0.0)
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    frame = truth[100]
    sensor = sim.simulate_frame(frame, scenario, smap, CAM, 100)
    # each noiseless detection must coincide with some projected light
    for px in sensor.light_pixels:
        best = min(
            np.linalg.norm(px - p)
            for p in sim._visible_pixels(
                np.array([l.position for l in smap.lights]), frame.t_vm_true, CAM, 100.0
            )
        )
        assert best < 1e-6


def test_lane_error_zero_and_shift(rng):
    from semloc.association import LaneMatch
    scenario = sim.Scenario()
    smap = sim.generate_world(scenario)
    t_vm = sim.generate_trajectory(scenario, smap)[100].t_vm_true
    from semloc.geometry import project_polyline
    lane, seg, i = next(
        (lane, s, i)
        for lane in smap.lanes
        for s, i in zip(*project_polyline(lane.vertices, t_vm, CAM))
        if abs(s[1, 1] - s[0, 1]) > 40
    )
    seg_map = (lane.vertices[i], lane.vertices[i + 1])
    y_rows = np.sort([seg[0, 1], seg[1, 1]]) @ np.array([[0.7, 0.2], [0.3, 0.8]])
    exact = LaneMatch(lane.id, seg, 10, seg_map)
    assert np.abs(est.lane_error(exact, y_rows, t_vm, CAM)).max() < 1e-9
    shifted = LaneMatch(
        lane.id,
        np.array([[seg[0, 0] + 5.0, seg[0, 1]], [seg[1, 0] + 5.0, seg[1, 1]]]),
        10, seg_map,
    )
    assert np.allclose(est.lane_error(shifted, y_rows, t_vm, CAM),
                       [5.0, 5.0], atol=1e-9)


def test_lane_error_noiseless_simulation():
    import semloc.pipeline as pipeline
    from semloc.config import EstimatorParams
    scenario = sim.Scenario(detection_noise_px=0.0)
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    frame = truth[100]
    sensor = sim.simulate_frame(frame, scenario, smap, CAM, 100)
    state = est.EstimatorState(frame.t_vm_true, frame.varpi_true,
                               lg.Pose.identity(), np.eye(18))
    bundle = pipeline.associate_frame(sensor, state, smap, CAM,
                                      EstimatorParams(), scenario.dt)
    assert bundle.lane_matches
    for match, y_rows in bundle.lane_matches:
        e = est.lane_error(match, y_rows, frame.t_vm_true, CAM)
        assert np.abs(e).max() < 1e-3


def test_lane_jacobian_matches_fd(rng):
    import semloc.pipeline as pipeline
    from semloc.config import EstimatorParams
    scenario = sim.Scenario(detection_noise_px=0.0)
    smap = sim.generate_world(scenario)
    frame = sim.generate_trajectory(scenario, smap)[100]
    sensor = sim.simulate_frame(frame, scenario, smap, CAM, 100)
    state = est.EstimatorState(frame.t_vm_true, frame.varpi_true,
                               lg.Pose.identity(), np.eye(18))
    bundle = pipeline.associate_frame(sensor, state, smap, CAM,
                                      EstimatorParams(), scenario.dt)
    assert bundle.lane_matches
    t_vm = lg.compose(
        lg.exp_se3(np.r_[rng.normal(0, 0.1, 3), rng.normal(0, 0.01, 3)]),
        frame.t_vm_true,
    )
    for match, y_rows in bundle.lane_matches:
        e, h = est._lane_jacobian(match, y_rows, t_vm, CAM)
        assert np.array_equal(e, est.lane_error(match, y_rows, t_vm, CAM))
        fd = state_jacobian_fd(
            lambda tv, vp, tg: est.lane_error(match, y_rows, tv, CAM),
            t_vm, frame.varpi_true, lg.Pose.identity())
        assert rel_err(h, fd) < 1e-5


def test_wheel_error():
    varpi = np.array([8.0, 0.0, 0.0, 0.0, 0.0, 0.2])
    assert np.allclose(est.wheel_error((8.0, 0.2), varpi), [0.0, 0.0])
    assert np.allclose(est.wheel_error((8.5, 0.1), varpi), [0.5, -0.1])


def test_pseudo_errors_planar_zero():
    varpi = np.array([8.0, 0.0, 0.0, 0.0, 0.0, -1.0])
    pose = sim._initial_pose(sim.Scenario())
    assert np.abs(est.pseudo_errors(pose, varpi)).max() < 1e-12


def test_pseudo_errors_elevated_vehicle():
    pose_m = lg.Pose.from_rt(np.eye(3), [4.0, 5.0, 0.3])  # vehicle in map
    t_vm = lg.inverse(pose_m)
    e = est.pseudo_errors(t_vm, np.zeros(6))
    assert abs(e[0] - 0.3) < 1e-12


def test_pseudo_errors_roll_pitch_extraction(rng):
    for _ in range(10):
        roll, pitch, yaw = rng.uniform(-0.5, 0.5, 3)
        cr, sr = np.cos(roll), np.sin(roll)
        cp, sp = np.cos(pitch), np.sin(pitch)
        cy, sy = np.cos(yaw), np.sin(yaw)
        rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        r_mv = rz @ ry @ rx
        t_vm = lg.inverse(lg.Pose.from_rt(r_mv, rng.normal(size=3)))
        e = est.pseudo_errors(t_vm, np.zeros(6))
        assert abs(e[1] - roll) < 1e-9
        assert abs(e[2] - pitch) < 1e-9
    # lateral velocity component
    varpi = np.array([0.0, 0.7, 0.0, 0.0, 0.0, 0.0])
    assert abs(est.pseudo_errors(lg.Pose.identity(), varpi)[3] - 0.7) < 1e-12


def test_cauchy_information():
    r_inv = np.array([[1.0]])
    assert np.allclose(est.cauchy_information(np.zeros(1), r_inv), r_inv)
    assert np.allclose(est.cauchy_information(np.ones(1), r_inv), [[0.5]])
    r_inv2 = np.diag([2.0, 4.0])
    e = np.array([1.0, 0.5])
    expected = r_inv2 / (1.0 + 2.0 + 1.0)
    assert np.allclose(est.cauchy_information(e, r_inv2), expected)


# --- initialization and correction -------------------------------------------


def test_init_state_identity_guess(rng):
    gps = rand_pose(rng)
    state = est.init_state(gps, lg.Pose.identity(), np.eye(18))
    assert np.allclose(state.t_vm.t, gps.t)
    assert np.abs(est.gps_error(gps, state.t_vm, state.t_gm)).max() < 1e-12


def test_init_state_consistent_guess(rng):
    gps = rand_pose(rng)
    guess = rand_pose(rng, 1.0, 0.1)
    state = est.init_state(gps, guess, np.eye(18))
    assert np.abs(est.gps_error(gps, state.t_vm, state.t_gm)).max() < 1e-12


def test_default_cov0_offset_std_covers_injection():
    from semloc.config import EstimatorParams
    cov0 = EstimatorParams().cov0_diag
    assert np.sqrt(cov0[12]) >= 2.0 and np.sqrt(cov0[13]) >= 2.0


def test_correct_empty_bundle_returns_prediction(rng):
    smap = sim.generate_world(sim.Scenario())
    noise = est.NoiseConfig.default()
    pred = default_state(rng)
    bundle = est.MeasurementBundle(dt=0.1, use_pseudo=False)
    post = est.correct(pred, bundle, smap, CAM, noise)
    assert np.abs(post.t_vm.t - pred.t_vm.t).max() < 1e-12
    assert np.abs(post.varpi - pred.varpi).max() < 1e-12
    assert np.abs(post.cov - pred.cov).max() < 1e-9


def test_correct_gps_only_tight_measurement(rng):
    smap = sim.generate_world(sim.Scenario())
    noise = est.NoiseConfig(
        q_c=np.eye(6), q_gm=np.eye(6), r_vg=1e-8 * np.eye(6),
        r_light=np.eye(2), r_lane=np.eye(2), r_wheel=np.eye(2),
        r_pseudo=np.ones(4),
    )
    pred = default_state(rng)
    gps = lg.compose(
        lg.exp_se3(np.r_[rng.normal(0, 0.2, 3), rng.normal(0, 0.05, 3)]),
        lg.compose(pred.t_vm, lg.inverse(pred.t_gm)),
    )
    bundle = est.MeasurementBundle(dt=0.1, gps=gps, use_pseudo=False)
    post = est.correct(pred, bundle, smap, CAM, noise, tol=1e-12, max_iters=50)
    fitted = lg.compose(post.t_vm, lg.inverse(post.t_gm))
    assert np.abs(lg.log_se3(lg.compose(gps, lg.inverse(fitted)))).max() < 1e-6


def test_estimator_state_varpi_is_a_read_only_copy():
    varpi = np.ones(6)
    state = est.EstimatorState(lg.Pose.identity(), varpi, lg.Pose.identity(),
                               np.eye(18))
    varpi[0] = 5.0
    assert state.varpi[0] == 1.0
    with pytest.raises(ValueError):
        state.varpi[0] = 2.0


def test_correct_non_finite_step_is_singular(rng):
    smap = sim.generate_world(sim.Scenario())
    bundle = est.MeasurementBundle(dt=0.1, wheel=(np.nan, 0.0))
    with pytest.raises(est.SingularNormalEquations, match="not finite"):
        est.correct(default_state(rng), bundle, smap, CAM, est.NoiseConfig.default())


def test_correct_singular_normal_equations(rng):
    smap = sim.generate_world(sim.Scenario())
    noise = est.NoiseConfig.default()
    cov = np.diag(np.geomspace(1e-9, 1e9, 18))
    pred = est.EstimatorState(rand_pose(rng), np.zeros(6),
                              lg.Pose.identity(), cov)
    bundle = est.MeasurementBundle(dt=0.1, use_pseudo=False)
    with pytest.raises(est.SingularNormalEquations):
        est.correct(pred, bundle, smap, CAM, noise)


def test_correct_posterior_covariance_shrinks(rng):
    smap = sim.generate_world(sim.Scenario())
    noise = est.NoiseConfig.default()
    pred = default_state(rng)
    gps = lg.compose(pred.t_vm, lg.inverse(pred.t_gm))
    bundle = est.MeasurementBundle(dt=0.1, gps=gps, use_pseudo=False)
    post = est.correct(pred, bundle, smap, CAM, noise)
    assert np.linalg.eigvalsh(post.cov).min() > 0
    assert np.trace(post.cov) < np.trace(pred.cov)


def test_correct_matches_brute_force_oracle_small(rng):
    """Spot check against the independent FD-based solver (full sweep in the
    acceptance suite)."""
    scenario = sim.Scenario(seed=5)
    smap = sim.generate_world(scenario)
    truth = sim.generate_trajectory(scenario, smap)
    noise = est.NoiseConfig.default()
    import semloc.pipeline as pipeline
    from semloc.config import EstimatorParams
    params = EstimatorParams()
    frame = truth[120]
    sensor = sim.simulate_frame(frame, scenario, smap, CAM, 120)
    pred_mean = lg.compose(
        lg.exp_se3(np.r_[rng.normal(0, 0.1, 3), rng.normal(0, 0.01, 3)]),
        frame.t_vm_true,
    )
    cov = np.diag(np.concatenate([
        np.full(3, 0.5), np.full(3, 0.01),
        np.full(3, 0.2), np.full(3, 0.01),
        np.full(3, 0.5), np.full(3, 0.01),
    ]))
    pred = est.EstimatorState(pred_mean, frame.varpi_true, lg.Pose.identity(), cov)
    bundle = pipeline.associate_frame(sensor, pred, smap, CAM, params, scenario.dt)
    post = est.correct(pred, bundle, smap, CAM, noise, tol=1e-12, max_iters=50)
    oracle = gn_oracle.solve(pred, bundle, smap, CAM, noise)
    dist = gn_oracle.state_distance((post.t_vm, post.varpi, post.t_gm), oracle)
    assert dist < 1e-6


def test_correct_evaluates_each_visited_state_once(rng, monkeypatch):
    """One _measurement_terms call for the prediction and one per line-search
    trial; with every first trial accepted that is 1 + len(diagnostics)."""
    import semloc.pipeline as pipeline
    from semloc.config import EstimatorParams
    scenario = sim.Scenario()
    smap = sim.generate_world(scenario)
    frame = sim.generate_trajectory(scenario, smap)[300]
    sensor = sim.simulate_frame(frame, scenario, smap, CAM, 300)
    pred_mean = lg.compose(
        lg.exp_se3(np.r_[rng.normal(0, 0.1, 3), rng.normal(0, 0.01, 3)]),
        frame.t_vm_true,
    )
    pred = est.EstimatorState(pred_mean, frame.varpi_true, lg.Pose.identity(),
                              0.1 * np.eye(18))
    bundle = pipeline.associate_frame(sensor, pred, smap, CAM, EstimatorParams(),
                                      scenario.dt)
    assert bundle.gps is not None and bundle.lane_matches and bundle.light_matches
    calls = {"terms": 0, "trials": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(est, "_measurement_terms",
                        counted("terms", est._measurement_terms))
    monkeypatch.setattr(est, "apply_perturbation",
                        counted("trials", est.apply_perturbation))
    diag = []
    est.correct(pred, bundle, smap, CAM, est.NoiseConfig.default(),
                diagnostics=diag)
    assert len(diag) >= 2
    assert calls["terms"] == 1 + calls["trials"]
    assert calls["trials"] == len(diag)


def _lane_match_along_ray(t_vm):
    """A lane match whose map segment lies on one camera ray, so both
    endpoints project to the same pixel."""
    from semloc.association import LaneMatch
    to_map = lg.inverse(lg.compose(CAM.t_cv, t_vm))
    q = np.array([0.5, 0.3, 5.0])
    segment = (lg.act(to_map, q), lg.act(to_map, 2.0 * q))
    fitted = np.array([[600.0, 300.0], [620.0, 400.0]])
    return LaneMatch(0, fitted, 10, segment), np.array([320.0, 380.0])


def test_correct_drops_lane_along_camera_ray(rng):
    smap = sim.generate_world(sim.Scenario())
    noise = est.NoiseConfig.default()
    pred = default_state(rng)
    match, y_rows = _lane_match_along_ray(pred.t_vm)
    with pytest.raises(DegenerateLine):
        est.lane_error(match, y_rows, pred.t_vm, CAM)
    bundle = est.MeasurementBundle(dt=0.1, lane_matches=((match, y_rows),))
    terms = est._measurement_terms(pred.t_vm, pred.varpi, pred.t_gm, bundle,
                                   smap, CAM, est._information(noise))
    assert len(terms) == 1  # only the pseudo-measurements
    post = est.correct(pred, bundle, smap, CAM, noise)
    assert np.isfinite(post.cov).all()


def test_correct_propagates_unexpected_lane_value_error(rng, monkeypatch):
    smap = sim.generate_world(sim.Scenario())
    pred = default_state(rng)
    match, y_rows = _lane_match_along_ray(pred.t_vm)
    bundle = est.MeasurementBundle(dt=0.1, lane_matches=((match, y_rows),))

    def broken(*args, **kwargs):
        raise ValueError("unexpected lane failure")

    monkeypatch.setattr(est, "_lane_jacobian", broken)
    with pytest.raises(ValueError, match="unexpected lane failure"):
        est.correct(pred, bundle, smap, CAM, est.NoiseConfig.default())


def test_measurement_bundle_validation():
    with pytest.raises(ValueError):
        est.MeasurementBundle(dt=0.0)
    from semloc.association import LaneMatch
    line = np.array([[0.0, 0.0], [0.0, 10.0]])
    match = LaneMatch(0, line, 6, (np.zeros(3), np.ones(3)))
    with pytest.raises(ValueError):
        est.MeasurementBundle(dt=0.1, lane_matches=((match, [5.0, 5.0]),))


def test_noise_config_validation():
    with pytest.raises(ValueError):
        est.NoiseConfig(
            q_c=np.eye(5), q_gm=np.eye(6), r_vg=np.eye(6),
            r_light=np.eye(2), r_lane=np.eye(2), r_wheel=np.eye(2),
            r_pseudo=np.ones(4),
        )
    with pytest.raises(ValueError):
        est.NoiseConfig(
            q_c=np.eye(6), q_gm=np.eye(6), r_vg=np.eye(6),
            r_light=np.eye(2), r_lane=np.eye(2), r_wheel=np.eye(2),
            r_pseudo=np.array([1.0, 0.0, 1.0, 1.0]),
        )
